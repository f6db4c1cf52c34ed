#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <mutex>
#include <thread>
#include <utility>

#include "gate.h"
#include "inputs.h"
#include "service/service.h"
#include "warehouse/retail_schema.h"

namespace sdelta::perfbench {
namespace {

namespace fs = std::filesystem;
using service::WarehouseService;
using Attrs = std::vector<std::pair<const char*, double>>;

double Since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Operation accounting shared by the run's threads.
class Tally {
 public:
  void Ok() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const std::string& what) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::scoped_lock lock(mu_);
    if (errors_.size() < 5) errors_.push_back(what);
  }
  void MoveInto(RunResult* result) {
    result->attempted += attempted_.load();
    result->failed += failed_.load();
    std::scoped_lock lock(mu_);
    for (std::string& e : errors_) result->errors.push_back(std::move(e));
    errors_.clear();
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex mu_;
  std::vector<std::string> errors_;
};

/// Service counters the traced run differences per change set / batch.
struct Counters {
  uint64_t wal_bytes = 0;
  uint64_t views_rebuilt = 0;
  uint64_t views_shared = 0;
};

Counters ReadCounters(WarehouseService& svc) {
  obs::MetricsRegistry& m = svc.metrics();
  return {m.counter("service.wal_bytes"),
          m.counter("service.epoch_views_rebuilt"),
          m.counter("service.epoch_views_shared")};
}

/// What one maintenance batch returned, as span attributes: the
/// LastReport() split, the propagate and refresh counts, the rows of
/// the views the epoch had to rebuild, and the epoch counter deltas.
Attrs BatchAttrs(const warehouse::BatchReport& report,
                 const service::ReadSnapshot& snap, const Counters& before,
                 const Counters& after, double window_s, double batch_index) {
  const core::RefreshStats refresh = report.TotalRefresh();
  double publish_view_rows = 0;
  for (const warehouse::ViewBatchReport& v : report.views) {
    if (v.delta_rows > 0) {
      publish_view_rows += static_cast<double>(snap.view(v.view).NumRows());
    }
  }
  auto d = [](size_t x) { return static_cast<double>(x); };
  return {
      {"batch_index", batch_index},
      {"window_s", window_s},
      {"propagate_s", report.propagate_seconds},
      {"apply_base_s", report.apply_base_seconds},
      {"refresh_s", report.refresh_seconds},
      {"maintenance_s", report.maintenance_seconds()},
      {"delta_rows", d(report.propagate.delta_groups)},
      {"prepared_rows", d(report.propagate.prepared_tuples)},
      {"recompute_scan_rows", d(refresh.recompute_scan_rows)},
      {"recomputed_groups", d(refresh.recomputed_groups)},
      {"minmax_recomputes", d(refresh.minmax_recomputes)},
      {"refresh_inserted", d(refresh.inserted)},
      {"refresh_updated", d(refresh.updated)},
      {"refresh_deleted", d(refresh.deleted)},
      {"publish_view_rows", publish_view_rows},
      {"views_rebuilt", d(after.views_rebuilt - before.views_rebuilt)},
      {"views_shared", d(after.views_shared - before.views_shared)},
  };
}

/// The maintenance thread's own duration for batch `batch_id` (coalesce,
/// RunBatch, epoch build and install), from its BatchEnd event.
double DrainSeconds(const WarehouseService& svc, uint64_t batch_id) {
  double seconds = 0;
  for (const obs::Event& ev : svc.events().Snapshot()) {
    if (ev.type == obs::EventType::kBatchEnd && ev.batch_id == batch_id) {
      seconds = ev.value;
    }
  }
  return seconds;
}

/// Drives one workload against one open service.
class Runner {
 public:
  Runner(const RunOptions& options, WarehouseService* svc,
         Trajectory* trajectory, SpanRecorder* recorder, RunResult* result)
      : options_(options),
        svc_(svc),
        trajectory_(trajectory),
        recorder_(recorder),
        result_(result) {}

  void ClosedLoop(bool insertion);
  void QueryChurn();
  Tally& tally() { return tally_; }

 private:
  /// Per-thread latency sinks for queries.
  struct QuerySamples {
    std::vector<double> untraced;
    std::vector<double> traced;
    uint64_t completed = 0;
  };

  /// One reader operation: pin a snapshot, answer one rotation query,
  /// and check its group count.
  void Query(Shape shape, size_t expected_groups, bool traced,
             double batch_index, QuerySamples* out);

  const RunOptions& options_;
  WarehouseService* svc_;
  Trajectory* trajectory_;
  SpanRecorder* recorder_;
  RunResult* result_;
  Tally tally_;
};

void Runner::Query(Shape shape, size_t expected_groups, bool traced,
                   double batch_index, QuerySamples* out) {
  try {
    const auto t0 = Clock::now();
    const service::ReadSnapshot snap = svc_->Snapshot();
    const auto t1 = Clock::now();
    const lattice::AnswerResult answer = snap.Query(kShapes[shape].sql);
    const auto t2 = Clock::now();
    const size_t groups = answer.rows.NumRows();
    if (groups != expected_groups) {
      tally_.Fail(std::string(kShapes[shape].name) + " query: " +
                  std::to_string(groups) + " groups, expected " +
                  std::to_string(expected_groups));
      return;
    }
    tally_.Ok();
    ++out->completed;
    if (!traced) {
      out->untraced.push_back(Since(t0, t2));
      return;
    }
    out->traced.push_back(Since(t0, t2));
    const uint64_t root = recorder_->NextId();
    recorder_->Add("snapshot", root, root, t0, t1);
    recorder_->Add("answer", root, root, t1, t2,
                   {{"shape", static_cast<double>(shape)},
                    {"rows_read", static_cast<double>(answer.rows_read)},
                    {"groups", static_cast<double>(groups)},
                    {"from_base", answer.from_base ? 1.0 : 0.0},
                    {"batch_index", batch_index}});
    recorder_->AddWithId(root, "query", 0, root, t0, t2,
                         {{"shape", static_cast<double>(shape)}});
  } catch (const std::exception& e) {
    tally_.Fail(std::string(kShapes[shape].name) + " query threw: " +
                e.what());
  }
}

std::array<size_t, kNumShapes> ExpectedGroups(size_t num_dates) {
  return {5, 20, num_dates, 1000};
}

void Runner::ClosedLoop(bool insertion) {
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          options_.seconds));
  const auto loop_start = Clock::now();
  QuerySamples queries;
  double traced_batches = 0;
  for (uint64_t k = 0; Clock::now() < end; ++k) {
    const bool traced = options_.trace && k % 2 == 0;
    // Closed loop: this change set is due when the previous iteration
    // ends; generating it (and keeping the mirror in lockstep) is the
    // generator's lag.
    const auto due = Clock::now();
    core::ChangeSet changes = insertion
                                  ? trajectory_->NextInsertion(kBatchRows)
                                  : trajectory_->NextUpdate(kBatchRows);
    trajectory_->Commit(changes);
    const double rows = static_cast<double>(changes.fact.size());
    const Counters before = traced ? ReadCounters(*svc_) : Counters{};

    const auto t0 = Clock::now();
    try {
      svc_->Append(std::move(changes));
      tally_.Ok();
    } catch (const std::exception& e) {
      tally_.Fail(std::string("append threw: ") + e.what());
      continue;
    }
    const auto t1 = Clock::now();
    const double backlog =
        traced ? static_cast<double>(svc_->GetStats().queue_rows) : 0;
    const Counters appended = traced ? ReadCounters(*svc_) : Counters{};
    const auto t2 = Clock::now();
    try {
      svc_->Flush();
      tally_.Ok();
    } catch (const std::exception& e) {
      tally_.Fail(std::string("flush threw: ") + e.what());
      continue;
    }
    const auto t3 = Clock::now();

    (traced ? result_->traced_visible_s : result_->visible_s)
        .push_back(Since(t0, t3));

    // Read-back: the rotation against the epoch this batch published.
    const auto expected = ExpectedGroups(trajectory_->num_dates());
    for (Shape shape : kRotation) {
      Query(shape, expected[shape], traced, traced ? traced_batches : -1,
            &queries);
    }

    // Traced bookkeeping comes after the read-back, so traced and
    // untraced read-backs start equally soon after Flush returns.
    if (traced) {
      const warehouse::BatchReport report = svc_->LastReport();
      const Counters after = ReadCounters(*svc_);
      const service::ReadSnapshot snap = svc_->Snapshot();
      const uint64_t root = recorder_->NextId();
      recorder_->Add("append", root, root, t0, t1,
                     {{"rows", rows},
                      {"wal_bytes",
                       static_cast<double>(appended.wal_bytes -
                                           before.wal_bytes)}});
      const uint64_t flush = recorder_->Add("flush", root, root, t2, t3);
      recorder_->Add("batch", flush, root, t2, t3,
                     BatchAttrs(report, snap, before, after, Since(t2, t3),
                                traced_batches));
      recorder_->AddWithId(root, "changeset", 0, root, t0, t3,
                           {{"late_s", Since(due, t0)},
                            {"backlog_rows", backlog},
                            {"batch_index", traced_batches}});
      ++traced_batches;
    }
    if (k + 1 == kRssBatches) result_->peak_rss_mb = PeakRssMb();
  }
  result_->query_window_s = Since(loop_start, Clock::now());
  result_->queries = queries.completed;
  result_->query_s = std::move(queries.untraced);
  result_->traced_query_s = std::move(queries.traced);
}

void Runner::QueryChurn() {
  const auto expected = ExpectedGroups(trajectory_->num_dates());
  std::atomic<bool> stop{false};
  std::vector<QuerySamples> samples(kChurnReaders);
  std::vector<std::thread> readers;
  // Stops and joins the readers on every way out of this function.
  struct ReaderGuard {
    std::atomic<bool>* stop;
    std::vector<std::thread>* threads;
    void StopAndJoin() const {
      stop->store(true, std::memory_order_release);
      for (std::thread& t : *threads) {
        if (t.joinable()) t.join();
      }
    }
    ~ReaderGuard() { StopAndJoin(); }
  } reader_guard{&stop, &readers};
  const auto start = Clock::now();
  for (size_t r = 0; r < kChurnReaders; ++r) {
    readers.emplace_back([&, r] {
      for (uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
        const Shape shape = kRotation[(i + r * 3) % kRotation.size()];
        Query(shape, expected[shape], options_.trace && i % 2 == 0, -1,
              &samples[r]);
      }
    });
  }

  // The writer (this thread): an open loop at kChurnRate, timing each
  // change set from its scheduled send time until GetStats().applied_seq
  // covers it. It polls every millisecond and keeps polling after the
  // last send until everything it sent is visible, so every change set
  // is timed under the same reader load.
  struct Pending {
    uint64_t seq;
    Clock::time_point due;
    Clock::time_point sent;
    uint64_t root;  ///< 0 when untraced
  };
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kChurnRate));
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(options_.seconds));
  std::deque<Pending> pending;
  auto due = start;
  uint64_t k = 0;
  uint64_t seen_batches = svc_->GetStats().batches;
  double observed_batches = 0;
  size_t backlog_max = 0;
  Counters batch_counters = ReadCounters(*svc_);
  core::ChangeSet next = trajectory_->NextUpdate(kChurnRows);
  trajectory_->Commit(next);
  bool have_next = true;
  while (true) {
    if (have_next && Clock::now() >= due) {
      const bool traced = options_.trace && k % 2 == 0;
      const double rows = static_cast<double>(next.fact.size());
      const uint64_t wal_before =
          traced ? svc_->metrics().counter("service.wal_bytes") : 0;
      const auto t0 = Clock::now();
      try {
        const uint64_t seq = svc_->Append(std::move(next));
        const auto t1 = Clock::now();
        tally_.Ok();
        uint64_t root = 0;
        if (traced) {
          root = recorder_->NextId();
          recorder_->Add(
              "append", root, root, t0, t1,
              {{"rows", rows},
               {"wal_bytes",
                static_cast<double>(
                    svc_->metrics().counter("service.wal_bytes") -
                    wal_before)}});
        }
        pending.push_back({seq, due, t0, root});
      } catch (const std::exception& e) {
        tally_.Fail(std::string("append threw: ") + e.what());
      }
      due += period;
      ++k;
      have_next = due < end;
      if (have_next) {
        next = trajectory_->NextUpdate(kChurnRows);
        trajectory_->Commit(next);
      }
    }

    const WarehouseService::Stats stats = svc_->GetStats();
    const auto seen = Clock::now();
    backlog_max = std::max(backlog_max, stats.queue_rows);
    while (!pending.empty() && pending.front().seq <= stats.applied_seq) {
      const Pending& p = pending.front();
      if (p.root == 0) {
        result_->visible_s.push_back(Since(p.due, seen));
      } else {
        result_->traced_visible_s.push_back(Since(p.due, seen));
        recorder_->Add("visible_wait", p.root, p.root, p.sent, seen);
        recorder_->AddWithId(p.root, "changeset", 0, p.root, p.due, seen,
                             {{"late_s", Since(p.due, p.sent)},
                              {"backlog_rows",
                               static_cast<double>(stats.queue_rows)},
                              {"batch_index", -1}});
      }
      pending.pop_front();
    }
    if (options_.trace && stats.batches != seen_batches) {
      // A batch installed since the last poll: read what it returned.
      // Its drain time comes from the service's BatchEnd event.
      const warehouse::BatchReport report = svc_->LastReport();
      const service::ReadSnapshot snap = svc_->Snapshot();
      const Counters after = ReadCounters(*svc_);
      const double drain_s = DrainSeconds(*svc_, stats.last_batch_id);
      const auto drain_start =
          seen - std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(drain_s));
      recorder_->Add("batch", 0, recorder_->NextId(), drain_start, seen,
                     BatchAttrs(report, snap, batch_counters, after, drain_s,
                                observed_batches));
      observed_batches += 1;
      batch_counters = after;
      seen_batches = stats.batches;
    }
    if (!have_next && pending.empty()) break;
    const auto poll = seen + std::chrono::milliseconds(1);
    std::this_thread::sleep_until(have_next ? std::min(due, poll) : poll);
  }
  if (options_.trace) {
    recorder_->Add("writer", 0, recorder_->NextId(), start, Clock::now(),
                   {{"backlog_rows_max", static_cast<double>(backlog_max)}});
  }

  reader_guard.StopAndJoin();
  result_->query_window_s = Since(start, Clock::now());
  for (QuerySamples& s : samples) {
    result_->queries += s.completed;
    result_->query_s.insert(result_->query_s.end(), s.untraced.begin(),
                            s.untraced.end());
    result_->traced_query_s.insert(result_->traced_query_s.end(),
                                   s.traced.begin(), s.traced.end());
  }
}

WarehouseService::Options ServiceOptions(const std::string& workload) {
  WarehouseService::Options options;  // wal_sync stays off (the default)
  if (workload == "query_churn") {
    options.auto_batching = true;
    options.warehouse.num_threads = kChurnThreads;
    options.queue.max_batch_rows = kChurnBatchRows;
    options.queue.max_batch_delay_seconds = kChurnMaxDelaySeconds;
  } else {
    options.auto_batching = false;
    options.warehouse.num_threads = kClosedLoopThreads;
  }
  return options;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "update_batches" || name == "insert_batches" ||
         name == "query_churn";
}

std::string DescribeConfig(const std::string& workload) {
  const WarehouseService::Options o = ServiceOptions(workload);
  const bool churn = workload == "query_churn";
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "host_cpus=%u pos_rows=%zu rows_per_changeset=%zu writers=1 "
      "readers=%zu writer=%s writer_rate_per_s=%g warehouse_num_threads=%zu "
      "auto_batching=%d "
      "batch_rows=%zu batch_delay_s=%g wal_sync=%d fresh_data_dir=1",
      std::thread::hardware_concurrency(), kPosRows,
      churn ? kChurnRows : kBatchRows, churn ? kChurnReaders : 0,
      churn ? "open-loop" : "closed-loop", churn ? kChurnRate : 0.0,
      o.warehouse.num_threads,
      o.auto_batching ? 1 : 0, o.queue.max_batch_rows,
      o.queue.max_batch_delay_seconds, o.wal_sync ? 1 : 0);
  return buf;
}

RunResult RunWorkload(const RunOptions& options) {
  RunResult result;
  fs::remove_all(options.work_dir);
  fs::create_directories(options.work_dir);

  const std::string self_test =
      GateSelfTest(options.work_dir + "/selftest", options.seed);
  ++result.attempted;
  if (!self_test.empty()) {
    ++result.failed;
    result.errors.push_back("gate self-test: " + self_test);
  }

  const warehouse::RetailConfig config = RetailConfigFor(kPosRows, options.seed);
  rel::Catalog mirror = warehouse::MakeRetailCatalog(config);
  Trajectory trajectory(&mirror, config, options.seed);
  const WarehouseService::Options service_options =
      ServiceOptions(options.workload);

  rel::Catalog bootstrap = warehouse::MakeRetailCatalog(config);
  std::vector<core::ViewDef> views = warehouse::RetailSummaryTables();
  const auto origin = Clock::now();
  SpanRecorder recorder(origin);
  auto svc = WarehouseService::Open(options.work_dir + "/data",
                                    std::move(bootstrap), std::move(views),
                                    service_options);
  const auto opened = Clock::now();
  result.setup_s.push_back(Since(origin, opened));
  if (options.trace) recorder.Add("open", 0, recorder.NextId(), origin, opened);

  Runner runner(options, svc.get(), &trajectory, &recorder, &result);
  if (options.workload == "query_churn") {
    runner.QueryChurn();
  } else {
    runner.ClosedLoop(options.workload == "insert_batches");
  }

  try {
    svc->Flush();
    runner.tally().Ok();
  } catch (const std::exception& e) {
    runner.tally().Fail(std::string("final flush threw: ") + e.what());
  }
  {
    const service::ReadSnapshot snap = svc->Snapshot();
    if (result.peak_rss_mb == 0) result.peak_rss_mb = PeakRssMb();
    result.gate = CheckAgainstMirror(snap, mirror);
  }
  if (result.gate.empty()) {
    runner.tally().Ok();
  } else {
    runner.tally().Fail("final state check: " + result.gate);
  }
  runner.tally().MoveInto(&result);
  const WarehouseService::Stats stats = svc->GetStats();
  result.batches = stats.batches;
  result.appended_changesets = stats.last_seq;
  result.appended_rows = svc->metrics().counter("service.append_rows");
  result.wal_bytes = svc->metrics().counter("service.wal_bytes");
  result.digest = trajectory.digest();
  result.prefix_digest = trajectory.prefix_digest();
  result.generated = trajectory.committed();
  svc.reset();
  if (options.trace) result.spans = recorder.Take();

  if (!options.trace) {
    // More Opens for a steady setup_s (the traced run does not report
    // it). Catalog generation stays outside the timed region.
    for (size_t i = 1; i < kSetupOpens; ++i) {
      const std::string dir = options.work_dir + "/setup" + std::to_string(i);
      rel::Catalog catalog = warehouse::MakeRetailCatalog(config);
      std::vector<core::ViewDef> defs = warehouse::RetailSummaryTables();
      const auto t0 = Clock::now();
      auto again = WarehouseService::Open(dir, std::move(catalog),
                                          std::move(defs), service_options);
      result.setup_s.push_back(Since(t0, Clock::now()));
      again.reset();
      fs::remove_all(dir);
    }
  }
  fs::remove_all(options.work_dir);
  return result;
}

}  // namespace sdelta::perfbench
