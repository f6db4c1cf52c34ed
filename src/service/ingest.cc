#include "service/ingest.h"

#include <stdexcept>
#include <utility>

namespace sdelta::service {

bool IngestQueue::Push(IngestItem item, bool* saturated) {
  std::unique_lock lock(mu_);
  if (saturated != nullptr) {
    *saturated = !closed_ && rows_ >= policy_.max_queue_rows;
  }
  producer_cv_.wait(lock,
                    [this] { return closed_ || rows_ < policy_.max_queue_rows; });
  if (closed_) return false;
  rows_ += item.rows;
  items_.push_back(std::move(item));
  if (closed_ || flush_pending_ || BatchDue()) consumer_cv_.notify_one();
  return true;
}

bool IngestQueue::BatchDue() const {
  if (items_.empty()) return false;
  if (rows_ >= policy_.max_batch_rows) return true;
  const auto age = std::chrono::steady_clock::now() - items_.front().enqueued_at;
  return std::chrono::duration<double>(age).count() >=
         policy_.max_batch_delay_seconds;
}

IngestBatch IngestQueue::WaitAndTake(bool auto_batching) {
  std::unique_lock lock(mu_);
  const auto ready = [&] {
    return closed_ || flush_pending_ || (auto_batching && BatchDue());
  };
  if (auto_batching) {
    // The delay trigger needs a timed wait: nothing signals the cv when
    // the oldest item merely ages past the latency bound.
    const auto tick =
        std::chrono::duration<double>(policy_.max_batch_delay_seconds / 4 +
                                      1e-4);
    while (!ready()) consumer_cv_.wait_for(lock, tick);
  } else {
    consumer_cv_.wait(lock, ready);
  }
  IngestBatch batch;
  batch.items = std::move(items_);
  items_.clear();
  rows_ = 0;
  batch.flush_requested = flush_pending_;
  flush_pending_ = false;
  batch.closed = closed_;
  producer_cv_.notify_all();
  return batch;
}

void IngestQueue::RequestFlush() {
  std::scoped_lock lock(mu_);
  flush_pending_ = true;
  consumer_cv_.notify_one();
}

void IngestQueue::Close() {
  std::scoped_lock lock(mu_);
  closed_ = true;
  consumer_cv_.notify_one();
  producer_cv_.notify_all();
}

size_t IngestQueue::rows_queued() const {
  std::scoped_lock lock(mu_);
  return rows_;
}

size_t IngestQueue::changesets_queued() const {
  std::scoped_lock lock(mu_);
  return items_.size();
}

double IngestQueue::oldest_age_seconds() const {
  std::scoped_lock lock(mu_);
  if (items_.empty()) return 0.0;
  const auto age = std::chrono::steady_clock::now() - items_.front().enqueued_at;
  return std::chrono::duration<double>(age).count();
}

namespace {

void AppendRows(rel::Table& dst, const rel::Table& src) {
  dst.Reserve(dst.NumRows() + src.NumRows());
  dst.AppendColumnsFrom(src);
}

}  // namespace

core::ChangeSet CoalesceChanges(std::vector<IngestItem> items) {
  if (items.empty()) throw std::invalid_argument("CoalesceChanges: no items");
  core::ChangeSet merged = std::move(items.front().changes);
  for (size_t i = 1; i < items.size(); ++i) {
    core::ChangeSet& next = items[i].changes;
    if (next.fact_table != merged.fact_table) {
      throw std::runtime_error("CoalesceChanges: mixed fact tables in one run");
    }
    AppendRows(merged.fact.insertions, next.fact.insertions);
    AppendRows(merged.fact.deletions, next.fact.deletions);
    for (auto& [name, delta] : next.dimensions) {
      auto it = merged.dimensions.find(name);
      if (it == merged.dimensions.end()) {
        merged.dimensions.emplace(name, std::move(delta));
      } else {
        AppendRows(it->second.insertions, delta.insertions);
        AppendRows(it->second.deletions, delta.deletions);
      }
    }
  }
  return merged;
}

}  // namespace sdelta::service
