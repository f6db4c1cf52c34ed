#ifndef SDELTA_SERVICE_INGEST_H_
#define SDELTA_SERVICE_INGEST_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/delta.h"

namespace sdelta::service {

/// One accepted (and, when durability is on, already WAL-logged) change
/// set waiting for the maintenance loop.
struct IngestItem {
  uint64_t seq = 0;
  core::ChangeSet changes;
  size_t rows = 0;  ///< total delta rows (fact + dimensions)
  std::chrono::steady_clock::time_point enqueued_at;
};

/// What the maintenance loop got out of one wait: the drained items (in
/// sequence order), whether an explicit flush asked for this drain, and
/// whether the queue has been closed (shutdown).
struct IngestBatch {
  std::vector<IngestItem> items;
  bool flush_requested = false;
  bool closed = false;
};

/// Bounded multi-producer / single-consumer queue with the service's
/// batching policy: the consumer is woken when enough rows are queued,
/// when the oldest queued change has waited long enough, on explicit
/// flush, or on close. Producers block (backpressure) while the queue
/// holds max_queue_rows or more delta rows.
class IngestQueue {
 public:
  struct Policy {
    /// Producer bound: Push blocks while this many rows are queued.
    size_t max_queue_rows = 1 << 16;
    /// Batch trigger: wake the consumer once this many rows are queued.
    size_t max_batch_rows = 4096;
    /// Batch trigger: wake the consumer once the oldest queued change
    /// has been waiting this long (the latency bound on staleness).
    double max_batch_delay_seconds = 0.05;
  };

  explicit IngestQueue(Policy policy) : policy_(policy) {}

  /// Enqueues one item; blocks while the queue is at its row bound.
  /// Returns false when the queue was closed (the item is dropped here —
  /// with durability on it is already in the WAL and will be recovered).
  /// `saturated` (nullable) is set to true when the producer actually
  /// had to wait on the row bound — the backpressure signal the service
  /// turns into a QueueSaturated event.
  bool Push(IngestItem item, bool* saturated = nullptr);

  /// Consumer side. With `auto_batching` the wait honours the batching
  /// policy triggers; without it only flush/close wake the consumer
  /// (deterministic, test- and replay-friendly batch boundaries). Always
  /// drains the whole queue on wake-up.
  IngestBatch WaitAndTake(bool auto_batching);

  /// Wakes the consumer regardless of policy triggers.
  void RequestFlush();

  /// Closes the queue: producers fail fast, the consumer drains once
  /// (items still queued are returned with closed = true) and exits.
  void Close();

  size_t rows_queued() const;
  size_t changesets_queued() const;
  /// Seconds the oldest queued change has been waiting; 0 when empty.
  double oldest_age_seconds() const;

 private:
  bool BatchDue() const;  // caller holds mu_

  const Policy policy_;
  mutable std::mutex mu_;
  std::condition_variable consumer_cv_;
  std::condition_variable producer_cv_;
  std::vector<IngestItem> items_;
  size_t rows_ = 0;
  bool flush_pending_ = false;
  bool closed_ = false;
};

/// Folds a drained run of items (all sharing one fact table) into the
/// single coalesced ChangeSet the maintenance batch applies: fact and
/// dimension deltas are concatenated in sequence order, so applying the
/// coalesced set equals applying the items one by one. Throws
/// std::runtime_error on items of two fact tables (in a WAL marker's
/// range, that is corruption).
core::ChangeSet CoalesceChanges(std::vector<IngestItem> items);

}  // namespace sdelta::service

#endif  // SDELTA_SERVICE_INGEST_H_
