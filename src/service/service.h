#ifndef SDELTA_SERVICE_SERVICE_H_
#define SDELTA_SERVICE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/anomaly.h"
#include "obs/event_log.h"
#include "obs/http_endpoint.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "service/ingest.h"
#include "service/versioned.h"
#include "service/wal.h"
#include "warehouse/warehouse.h"

namespace sdelta::service {

/// The concurrent warehouse service runtime (DESIGN.md §9): a
/// background maintenance loop over one Warehouse, versioned summary
/// tables for lock-free-feeling readers, and a WAL for ingest
/// durability.
///
/// Threads and roles:
///   - producers call Append (WAL append + enqueue, under one mutex so
///     sequence order == WAL order == apply order) and Snapshot/Query;
///   - one maintenance thread drains the queue, coalesces deltas, runs
///     the paper's propagate/refresh batch, and installs the next epoch
///     with a single pointer swap (the measured refresh window);
///   - Checkpoint / WithWriter are exclusive: they block appends, drain
///     the queue, and then own the warehouse briefly.
///
/// Durability invariant: once Append returns, the change set is in the
/// WAL; warehouse state after a crash equals
///   checkpoint ∘ replay(records with seq > checkpoint sequence),
/// replayed along the WAL's batch markers (DESIGN.md §15), which the
/// maintenance thread appends after each epoch install and log-shipping
/// consumers replay the same way.
class WarehouseService {
 public:
  struct Options {
    warehouse::Warehouse::Options warehouse;
    IngestQueue::Policy queue;
    /// true: the maintenance loop also wakes on the batching policy's
    /// row/latency triggers. false: batches form only on explicit Flush
    /// (or shutdown) — deterministic boundaries for tests and replay.
    bool auto_batching = true;
    /// fsync the WAL after every append. Off by default: the container
    /// tests and benches exercise the logical protocol; production
    /// deployments turn it on.
    bool wal_sync = false;
    /// External registry for all service.*, pipeline, and answer.*
    /// series; null = the service owns a private registry (metrics()).
    obs::MetricsRegistry* metrics = nullptr;
    /// Span sink for the correlated service trace (DESIGN.md §11.3):
    /// one service.batch tree per maintenance drain (append/WAL/
    /// RunBatch/epoch-install children), one service.query span per
    /// snapshot query. Null = tracing off. Note a Tracer accumulates
    /// spans until cleared, so attach one for bounded diagnosis
    /// sessions, not unbounded production serving.
    obs::Tracer* tracer = nullptr;
    /// Snapshot queries slower than this record a SlowQuery event.
    double slow_query_threshold_seconds = 0.1;
    /// Staleness / refresh-window SLO targets (default: disabled).
    obs::SloTracker::Targets slo;
    /// Embedded HTTP scrape endpoint (DESIGN.md §11.2): < 0 = disabled
    /// (default); 0 = bind an ephemeral 127.0.0.1 port (read it back
    /// via http_port()); > 0 = bind that port. Routes: /metrics,
    /// /healthz, /varz, /epochs, /events, /timeseries, /profile,
    /// /anomalies.
    int http_port = -1;
    /// Per-batch metric history ring (DESIGN.md §13.1): one snapshot of
    /// every counter/gauge plus histogram P50/P95/P99 per epoch
    /// install. 0 disables the store (and with it /timeseries and the
    /// anomaly rules, which read it).
    size_t timeseries_capacity = 512;
    /// Span-based self-time profiling of the maintenance path
    /// (DESIGN.md §13.2). The service owns a private tracer for the
    /// warehouse batch pipeline, folded into profiler() and cleared
    /// after every drain — so profiling stays bounded in memory, unlike
    /// attaching a long-lived Options::tracer. While profiling, the
    /// warehouse's RunBatch spans go to that private tracer (an
    /// explicitly set Options::warehouse.tracer, or the default chain
    /// from Options::tracer, is overridden for the batch pipeline;
    /// service.batch/append/query spans still go to Options::tracer).
    bool profile = false;
    /// Anomaly detection over the time-series ring + SLO burn trigger
    /// (DESIGN.md §13.3). Disabled by default; when enabled, each
    /// detection writes a flight-recorder bundle under
    /// <data_dir>/flightrec/.
    obs::AnomalyConfig anomaly;
  };

  /// Point-in-time service numbers (the shell's `service stats`).
  struct Stats {
    uint64_t epoch = 0;
    uint64_t last_seq = 0;     ///< last sequence acknowledged by Append
    uint64_t applied_seq = 0;  ///< last sequence visible to readers
    uint64_t checkpoint_seq = 0;
    size_t queue_changesets = 0;
    size_t queue_rows = 0;
    double staleness_seconds = 0;  ///< age of the oldest queued change
    double last_refresh_window_seconds = 0;
    uint64_t batches = 0;
    uint64_t checkpoints = 0;
    uint64_t recovered_records = 0;  ///< WAL records replayed by Open
    uint64_t last_batch_id = 0;      ///< correlation id of the last drain
  };

  /// One /healthz evaluation: overall status plus the individual checks
  /// (each must hold for healthy() to be true).
  struct Health {
    bool wal_writable = false;
    bool maintenance_alive = false;
    bool queue_below_high_water = false;
    bool slo_ok = false;
    double staleness_seconds = 0;  ///< the live value the check used
    bool healthy() const {
      return wal_writable && maintenance_alive && queue_below_high_water &&
             slo_ok;
    }
  };

  /// Opens the service on `data_dir` (created if needed; holds the WAL
  /// and checkpoints). With an existing checkpoint the bootstrap
  /// catalog is ignored and state is restored from it; the WAL tail
  /// (seq > checkpoint sequence) is then replayed through the normal
  /// batch path along the WAL's markers; each record past the last
  /// marker replays as its own batch and gets a fresh marker. Fresh
  /// directories build the warehouse from `bootstrap` and materialize
  /// `views`. The
  /// maintenance thread is running when Open returns.
  static std::unique_ptr<WarehouseService> Open(
      std::string data_dir, rel::Catalog bootstrap,
      std::vector<core::ViewDef> views, Options options);
  static std::unique_ptr<WarehouseService> Open(
      std::string data_dir, rel::Catalog bootstrap,
      std::vector<core::ViewDef> views) {
    return Open(std::move(data_dir), std::move(bootstrap), std::move(views),
                Options());
  }

  ~WarehouseService();
  WarehouseService(const WarehouseService&) = delete;
  WarehouseService& operator=(const WarehouseService&) = delete;

  /// Durably accepts one change set: assigns the next sequence number,
  /// appends it to the WAL, and enqueues it for maintenance. Blocks for
  /// backpressure while the queue is at its row bound. Returns the
  /// assigned sequence. Throws std::runtime_error after Stop (a record
  /// that reached the WAL first is recovered on the next Open).
  uint64_t Append(core::ChangeSet changes);

  /// Forces a batch and blocks until every change appended before this
  /// call is reader-visible (applied_seq >= that sequence).
  void Flush();

  /// Pins the current epoch. Cheap (a shared_ptr copy under a mutex);
  /// the snapshot stays queryable while any number of newer epochs are
  /// installed beside it.
  ReadSnapshot Snapshot() const { return versioned_.Pin(); }

  /// Flushes, snapshots the warehouse to `<data_dir>/checkpoint` (via
  /// warehouse::SaveWarehouse plus a SEQ file), and starts a new WAL
  /// generation, keeping the previous one at `<data_dir>/wal.prev`.
  /// Appends are blocked for the duration. Crash-safe: the new
  /// checkpoint is built in a temp directory and swapped in by rename,
  /// with the previous checkpoint kept until the swap completes.
  void Checkpoint();

  /// Exclusive writer access for DDL (AddSummaryTable / DropSummary-
  /// Table): blocks appends, drains the queue, hands the warehouse to
  /// `fn`, then rebuilds and installs a full fresh epoch. The warehouse
  /// reference must not escape `fn`.
  void WithWriter(const std::function<void(warehouse::Warehouse&)>& fn);

  /// Drains the queue, applies everything, and stops the maintenance
  /// thread. Idempotent; the destructor calls it.
  void Stop();

  Stats GetStats() const;
  /// The batch report of the most recent maintenance batch.
  warehouse::BatchReport LastReport() const;
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const std::string& data_dir() const { return data_dir_; }

  /// The structured event log (BatchStart/End, EpochInstall, ...).
  const obs::EventLog& events() const { return events_; }
  /// The staleness / refresh-window SLO tracker.
  const obs::SloTracker& slo() const { return slo_; }
  /// Per-batch metric history; null when timeseries_capacity == 0.
  const obs::TimeSeriesStore* timeseries() const { return timeseries_.get(); }
  /// The maintenance-path profiler; null unless Options::profile.
  const obs::Profiler* profiler() const { return profiler_.get(); }
  /// The anomaly detector; null unless Options::anomaly.enabled.
  const obs::AnomalyDetector* anomalies() const { return detector_.get(); }
  /// The flight recorder; null unless Options::anomaly.enabled.
  const obs::FlightRecorder* flight_recorder() const { return recorder_.get(); }
  /// Evaluates the /healthz checks right now (live staleness, WAL fd,
  /// maintenance-thread liveness, queue headroom, SLO burn rate).
  Health CheckHealth() const;
  /// The bound HTTP scrape port; -1 when the endpoint is disabled.
  int http_port() const;
  /// Re-derives the live gauges (service.staleness_seconds, queue
  /// depths) from current queue state so an export between batches
  /// reflects *now*, not the last drain. Called by GetStats and every
  /// HTTP scrape; cheap enough to call before any manual export.
  void RefreshLiveGauges() const;

 private:
  WarehouseService(std::string data_dir, warehouse::Warehouse wh,
                   Options options,
                   std::unique_ptr<obs::MetricsRegistry> owned_metrics,
                   uint64_t checkpoint_seq, uint64_t recovered_records,
                   uint64_t start_seq, uint64_t epoch_floor);

  /// Builds the next epoch from the warehouse's current summaries: each
  /// view is a copy-on-write Share() of the writer's table, so only the
  /// pages refresh dirtied since the previous epoch were ever copied.
  /// The reader catalog is recopied only when `dims_changed`;
  /// `full_rebuild` also rebuilds the lattice (DDL, initial epoch).
  std::shared_ptr<const Epoch> BuildEpoch(bool dims_changed,
                                          bool full_rebuild);

  void MaintenanceLoop();
  /// Applies one drained run of items (one RunBatch per fact-table run)
  /// and installs the next epoch.
  void ApplyItems(std::vector<IngestItem> items);
  /// Waits (under state_mu_) until applied_seq_ >= target.
  void AwaitApplied(uint64_t target);
  /// Registers the scrape routes and starts the HTTP endpoint.
  void StartHttp(uint16_t port);
  /// The effective configuration, as a flight-bundle artifact.
  obs::Json ConfigJson() const;

  std::vector<std::string> FactTableNames() const;

  const std::string data_dir_;
  const Options options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::EventLog events_;
  obs::SloTracker slo_;
  /// Shared with every epoch (ReadSnapshot::Query reports through it).
  ServiceObs obs_;
  /// Historical/diagnostic layer (DESIGN.md §13); each piece is null
  /// when its option is off.
  std::unique_ptr<obs::TimeSeriesStore> timeseries_;
  /// Private span sink for the warehouse batch pipeline while
  /// profiling: written only by the maintenance thread (and the pool
  /// workers it joins), folded + cleared per drain, so spans() reads in
  /// ApplyItems are quiesced by construction.
  std::unique_ptr<obs::Tracer> profile_tracer_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::unique_ptr<obs::AnomalyDetector> detector_;
  std::unique_ptr<obs::FlightRecorder> recorder_;

  /// Serializes Append (sequence assignment + WAL append + enqueue) and
  /// is held across Checkpoint/WithWriter to fence out producers. Those
  /// two wait for applied_seq_ while holding it, so the maintenance
  /// thread never takes it: its marker appends are serialized inside
  /// WalWriter instead.
  std::mutex wal_mu_;
  std::unique_ptr<WalWriter> wal_;
  std::atomic<uint64_t> last_seq_{0};

  IngestQueue queue_;

  /// Owned by the maintenance thread between WaitAndTake and the
  /// state_mu_ release that publishes applied_seq_; owned by Checkpoint
  /// and WithWriter after they hold wal_mu_ and observe
  /// applied_seq_ == last_seq_.
  warehouse::Warehouse warehouse_;

  VersionedTables versioned_;

  mutable std::mutex state_mu_;
  std::condition_variable state_cv_;
  uint64_t applied_seq_ = 0;
  uint64_t checkpoint_seq_ = 0;
  /// Epoch numbering floor: the largest epoch the WAL recorded at Open
  /// (header floor or marker), so a restarted writer never reuses an
  /// epoch number a consumer saw.
  uint64_t epoch_floor_ = 0;
  uint64_t batches_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t recovered_records_ = 0;
  double last_refresh_window_ = 0;
  warehouse::BatchReport last_report_;
  bool stopped_ = false;

  /// Batch correlation id; owned by the maintenance thread (one drain
  /// at a time), read via Stats under state_mu_ (last_batch_id_).
  uint64_t next_batch_id_ = 0;
  uint64_t last_batch_id_ = 0;  ///< guarded by state_mu_

  /// True from just before the thread spawns (set in the constructor,
  /// ahead of any scrape) until MaintenanceLoop exits (the /healthz
  /// check).
  std::atomic<bool> maintenance_alive_{false};

  std::unique_ptr<obs::HttpEndpoint> http_;

  /// Serializes Stop against concurrent Stop/destructor.
  std::mutex stop_mu_;
  std::thread maintenance_;
};

}  // namespace sdelta::service

#endif  // SDELTA_SERVICE_SERVICE_H_
