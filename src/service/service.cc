#include "service/service.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>

#include "core/maintenance.h"
#include "obs/export_json.h"
#include "obs/export_prometheus.h"
#include "warehouse/persistence.h"

namespace sdelta::service {

namespace fs = std::filesystem;

namespace {

constexpr const char* kWalFile = "wal.log";
constexpr const char* kCheckpointDir = "checkpoint";
constexpr const char* kCheckpointTmp = "checkpoint.tmp";
constexpr const char* kCheckpointPrev = "checkpoint.prev";
constexpr const char* kSeqFile = "SEQ";
// Capacity of the structured event ring buffer (events()).
constexpr size_t kEventLogCapacity = 1024;
// Flight-recorder retention: newest anomaly bundles kept on disk.
constexpr size_t kMaxAnomalyBundles = 8;

uint64_t ReadSeqFile(const fs::path& path) {
  std::ifstream in(path);
  uint64_t seq = 0;
  if (!(in >> seq)) {
    throw std::runtime_error("checkpoint: missing or unreadable " +
                             path.string());
  }
  return seq;
}

void WriteSeqFile(const fs::path& path, uint64_t seq) {
  std::ofstream out(path, std::ios::trunc);
  out << seq << "\n";
  if (!out) {
    throw std::runtime_error("checkpoint: cannot write " + path.string());
  }
}

size_t ChangeSetRows(const core::ChangeSet& changes) {
  size_t rows = changes.fact.size();
  for (const auto& [name, delta] : changes.dimensions) rows += delta.size();
  return rows;
}

/// Value of `key` in an application/x-www-form-urlencoded query string
/// ("metric=service.appends&from=3"); empty when absent. The scrape
/// surface's names never need percent-decoding.
std::string QueryParam(const std::string& query, std::string_view key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const std::string_view pair =
        std::string_view(query).substr(pos, end - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
    pos = end + 1;
  }
  return {};
}

uint64_t ParseIdOr(const std::string& text, uint64_t fallback) {
  if (text.empty()) return fallback;
  return std::strtoull(text.c_str(), nullptr, 10);
}

obs::HttpResponse DisabledDoc(const char* feature) {
  obs::Json doc = obs::Json::Object();
  doc.Set("enabled", obs::Json::Bool(false));
  doc.Set("hint", obs::Json::Str(std::string("enable WarehouseService::"
                                             "Options::") +
                                 feature));
  obs::HttpResponse r;
  r.body = doc.Dump(2) + "\n";
  return r;
}

}  // namespace

std::unique_ptr<WarehouseService> WarehouseService::Open(
    std::string data_dir, rel::Catalog bootstrap,
    std::vector<core::ViewDef> views, Options options) {
  fs::create_directories(data_dir);
  const fs::path dir(data_dir);
  const fs::path ckpt = dir / kCheckpointDir;
  const fs::path tmp = dir / kCheckpointTmp;
  const fs::path prev = dir / kCheckpointPrev;

  // Crash cleanup (see Checkpoint for the rename protocol): a leftover
  // tmp is an unfinished build — discard it; a leftover prev with no
  // current checkpoint means we crashed mid-swap — the old checkpoint is
  // still complete, restore it.
  std::error_code ec;
  fs::remove_all(tmp, ec);
  if (!fs::exists(ckpt) && fs::exists(prev)) {
    fs::rename(prev, ckpt);
  } else {
    fs::remove_all(prev, ec);
  }

  auto owned = options.metrics
                   ? std::unique_ptr<obs::MetricsRegistry>()
                   : std::make_unique<obs::MetricsRegistry>();
  obs::MetricsRegistry* metrics =
      options.metrics ? options.metrics : owned.get();
  options.metrics = metrics;
  options.warehouse.metrics = metrics;
  // Default the warehouse's tracer from the service's so RunBatch's span
  // tree nests under the maintenance thread's service.batch span.
  if (options.warehouse.tracer == nullptr) {
    options.warehouse.tracer = options.tracer;
  }

  uint64_t checkpoint_seq = 0;
  const bool have_checkpoint = fs::exists(ckpt / "manifest.txt");
  if (have_checkpoint) checkpoint_seq = ReadSeqFile(ckpt / kSeqFile);
  warehouse::Warehouse wh =
      have_checkpoint
          ? warehouse::LoadWarehouse(ckpt.string(), views, options.warehouse)
          : warehouse::Warehouse(std::move(bootstrap), options.warehouse);
  if (!have_checkpoint) wh.DefineSummaryTables(views);

  // Replay the WAL tail through the normal batch path along the WAL's
  // markers: each marked range is the batch the writer ran, so the
  // recovered state is byte-identical to what its readers saw. Records
  // past the last marker were never installed; each replays as its own
  // batch.
  uint64_t recovered = 0;
  std::vector<uint64_t> unmarked;
  const WalReplayReport replay =
      ReplayWal((dir / kWalFile).string(), wh.catalog(), checkpoint_seq,
                [&](WalBatch batch) {
                  wh.RunBatch(batch.changes);
                  recovered += batch.last_seq - batch.first_seq + 1;
                  if (batch.epoch == 0) unmarked.push_back(batch.last_seq);
                });
  if (replay.tail_truncated) {
    // Cut the torn tail before the WalWriter below opens with O_APPEND:
    // records acknowledged after the garbage bytes would be invisible to
    // the next recovery scan, silently dropping durable data.
    fs::resize_file(dir / kWalFile, replay.valid_bytes);
    metrics->Add("service.wal_tail_truncations");
  }
  const uint64_t start_seq = std::max(checkpoint_seq, replay.last_seq);

  std::unique_ptr<WarehouseService> svc(new WarehouseService(
      std::move(data_dir), std::move(wh), std::move(options), std::move(owned),
      checkpoint_seq, recovered, start_seq, replay.max_epoch));
  // The unmarked records became visible in the initial epoch; mark them
  // one per record, as they were applied.
  for (const uint64_t seq : unmarked) {
    svc->wal_->AppendMarker(svc->versioned_.Current()->number, seq, seq);
    svc->metrics_->Add("service.wal_markers");
  }
  return svc;
}

WarehouseService::WarehouseService(
    std::string data_dir, warehouse::Warehouse wh, Options options,
    std::unique_ptr<obs::MetricsRegistry> owned_metrics,
    uint64_t checkpoint_seq, uint64_t recovered_records, uint64_t start_seq,
    uint64_t epoch_floor)
    : data_dir_(std::move(data_dir)),
      options_(std::move(options)),
      owned_metrics_(std::move(owned_metrics)),
      metrics_(options_.metrics),
      events_(kEventLogCapacity),
      slo_(options_.slo, metrics_),
      wal_(std::make_unique<WalWriter>((fs::path(data_dir_) / kWalFile).string(),
                                       start_seq + 1, options_.wal_sync,
                                       epoch_floor)),
      queue_(options_.queue),
      warehouse_(std::move(wh)) {
  obs_.metrics = metrics_;
  obs_.tracer = options_.tracer;
  obs_.events = &events_;
  obs_.slo = &slo_;
  obs_.slow_query_threshold_seconds = options_.slow_query_threshold_seconds;
  // Pre-register the event-driven counters at 0 so the exposition (and
  // the determinism test's counter map) always carries them, whether or
  // not the triggering condition ever fires.
  metrics_->Add("service.queue_saturated", 0);
  metrics_->Add("service.slow_queries", 0);
  // Event-ring visibility (events.* gauges): capacity is fixed here;
  // occupancy/recorded/dropped refresh with the live gauges.
  metrics_->Set("events.capacity", static_cast<double>(events_.capacity()));
  metrics_->Set("events.occupancy", 0);
  metrics_->Set("events.recorded", 0);
  metrics_->Set("events.dropped", 0);
  if (options_.timeseries_capacity > 0) {
    timeseries_ =
        std::make_unique<obs::TimeSeriesStore>(options_.timeseries_capacity);
  }
  if (options_.profile) {
    profile_tracer_ = std::make_unique<obs::Tracer>();
    profiler_ = std::make_unique<obs::Profiler>();
    // The batch pipeline's spans go to the service-owned tracer so the
    // fold-and-clear cycle never races (or discards) a caller's spans.
    warehouse_.SetTracer(profile_tracer_.get());
  }
  if (options_.anomaly.enabled) {
    detector_ =
        std::make_unique<obs::AnomalyDetector>(options_.anomaly, metrics_);
    obs::FlightRecorder::Options rec;
    rec.dir = (fs::path(data_dir_) / "flightrec").string();
    rec.max_bundles = kMaxAnomalyBundles;
    recorder_ = std::make_unique<obs::FlightRecorder>(std::move(rec), metrics_);
  }
  last_seq_.store(start_seq);
  applied_seq_ = start_seq;
  checkpoint_seq_ = checkpoint_seq;
  recovered_records_ = recovered_records;
  if (recovered_records > 0) {
    metrics_->Add("service.recovered_records", recovered_records);
    events_.Record(obs::EventType::kRecoveryReplay, /*batch_id=*/0,
                   /*request_id=*/0, /*seq=*/start_seq,
                   static_cast<double>(recovered_records),
                   "WAL tail replayed by Open");
  }
  epoch_floor_ = epoch_floor;
  metrics_->Add("service.wal_markers", 0);
  versioned_.Install(
      BuildEpoch(/*dims_changed=*/true, /*full_rebuild=*/true));
  // Set before the thread spawns so a /healthz scrape racing startup
  // never reports a dead maintenance thread; MaintenanceLoop clears it
  // on exit.
  maintenance_alive_.store(true);
  // The endpoint starts before the maintenance thread exists: Start()
  // throws on bind/listen failure (fixed port in use), and unwinding
  // with a joinable std::thread member would std::terminate instead of
  // letting Open() surface a catchable error. Handlers only read
  // already-constructed snapshot state, so serving pre-thread is safe.
  if (options_.http_port >= 0) {
    StartHttp(static_cast<uint16_t>(options_.http_port));
  }
  maintenance_ = std::thread(&WarehouseService::MaintenanceLoop, this);
}

WarehouseService::~WarehouseService() { Stop(); }

std::vector<std::string> WarehouseService::FactTableNames() const {
  std::set<std::string> facts;
  for (const rel::ForeignKey& fk : warehouse_.catalog().foreign_keys()) {
    facts.insert(fk.fact_table);
  }
  for (const core::AugmentedView& v : warehouse_.vlattice().views) {
    facts.insert(v.physical.fact_table);
  }
  return {facts.begin(), facts.end()};
}

std::shared_ptr<const Epoch> WarehouseService::BuildEpoch(
    bool dims_changed, bool full_rebuild) {
  obs::TraceSpan span(options_.tracer, "service.epoch_build");
  const std::shared_ptr<const Epoch> prev = versioned_.Current();
  const lattice::VLattice& wl = warehouse_.vlattice();
  auto next = std::make_shared<Epoch>();
  next->number = prev ? prev->number + 1 : epoch_floor_ + 1;
  span.Attr("epoch", next->number);
  next->metrics = metrics_;
  next->obs = &obs_;
  if (!full_rebuild && prev) {
    next->lattice = prev->lattice;
  } else {
    next->lattice = std::make_shared<lattice::VLattice>(wl);
  }
  if (!full_rebuild && prev && !dims_changed) {
    next->catalog = prev->catalog;
  } else {
    next->catalog = MakeReaderCatalog(warehouse_.catalog(), FactTableNames());
  }
  // A view whose refresh copied no page since the previous epoch shares
  // every page with it; one that copied some is "rebuilt" only in those.
  uint64_t rows_copied = 0;
  next->views.reserve(wl.views.size());
  for (const core::AugmentedView& view : wl.views) {
    core::SummaryTable& summary =
        warehouse_.summary_mutable(view.physical.name);
    const uint64_t copied = summary.rows_copied();
    rows_copied += copied;
    metrics_->Add(copied > 0 ? "service.epoch_views_rebuilt"
                             : "service.epoch_views_shared");
    next->views.push_back(summary.Share());
  }
  metrics_->Add("service.epoch_rows_copied", rows_copied);
  span.Attr("rows_copied", rows_copied);
  metrics_->Set("service.epoch", static_cast<double>(next->number));
  metrics_->Set("writer.installed_epoch", static_cast<double>(next->number));
  return next;
}

uint64_t WarehouseService::Append(core::ChangeSet changes) {
  const size_t rows = ChangeSetRows(changes);
  const std::string fact = changes.fact_table;
  std::scoped_lock append_lock(wal_mu_);
  {
    std::scoped_lock lk(state_mu_);
    if (stopped_) throw std::runtime_error("service: Append after Stop");
  }
  const uint64_t seq = last_seq_.load(std::memory_order_relaxed) + 1;
  obs::TraceSpan span(options_.tracer, "service.append");
  span.Attr("seq", seq);
  span.Attr("rows", static_cast<uint64_t>(rows));
  const size_t wal_bytes = wal_->Append(seq, changes);

  IngestItem item;
  item.seq = seq;
  item.changes = std::move(changes);
  item.rows = rows;
  item.enqueued_at = std::chrono::steady_clock::now();
  bool saturated = false;
  if (!queue_.Push(std::move(item), &saturated)) {
    // The record is durable (it reached the WAL) but the service shut
    // down before accepting it; the next Open will replay it.
    throw std::runtime_error(
        "service: stopped while appending (change is in the WAL and will be "
        "recovered on the next Open)");
  }
  if (saturated) {
    // This producer blocked against the queue's row bound — the
    // backpressure signal the batching policy is supposed to avoid.
    metrics_->Add("service.queue_saturated");
    events_.Record(obs::EventType::kQueueSaturated, /*batch_id=*/0,
                   /*request_id=*/0, seq, static_cast<double>(rows), fact);
  }
  last_seq_.store(seq, std::memory_order_relaxed);

  metrics_->Add("service.appends");
  metrics_->Add("service.append_rows", rows);
  metrics_->Add("service.wal_records");
  metrics_->Add("service.wal_bytes", wal_bytes);
  metrics_->Set("service.queue_depth",
                static_cast<double>(queue_.rows_queued()));
  metrics_->Set("service.queue_changesets",
                static_cast<double>(queue_.changesets_queued()));
  return seq;
}

void WarehouseService::AwaitApplied(uint64_t target) {
  std::unique_lock lk(state_mu_);
  state_cv_.wait(lk, [&] { return applied_seq_ >= target; });
}

void WarehouseService::Flush() {
  const uint64_t target = last_seq_.load();
  metrics_->Add("service.flushes");
  queue_.RequestFlush();
  AwaitApplied(target);
}

void WarehouseService::ApplyItems(std::vector<IngestItem> items) {
  const uint64_t first_seq = items.front().seq;
  const uint64_t max_seq = items.back().seq;
  bool dims_changed = false;
  size_t runs = 0;
  warehouse::BatchReport report;
  // One WAL marker per RunBatch run (not per drain): recovery and
  // consumers must replay the writer's exact batch trajectory to stay
  // byte-identical, and its unit is the coalesced per-fact-table run.
  std::vector<std::pair<uint64_t, uint64_t>> run_ranges;

  // Correlation root for this drain: every event and span below (and,
  // via the tracer's per-thread stack, RunBatch's whole subtree) hangs
  // off this batch id / span.
  const uint64_t batch_id = ++next_batch_id_;
  const double staleness = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() -
                               items.front().enqueued_at)
                               .count();
  events_.Record(obs::EventType::kBatchStart, batch_id, /*request_id=*/0,
                 max_seq, static_cast<double>(items.size()),
                 std::to_string(items.size()) + " changesets");
  obs::TraceSpan batch_span(options_.tracer, "service.batch");
  batch_span.Attr("batch_id", batch_id);
  batch_span.Attr("first_seq", first_seq);
  batch_span.Attr("last_seq", max_seq);
  core::Stopwatch batch_sw;

  // Items must apply in sequence order; a change of fact table ends the
  // coalescing run (ChangeSet carries exactly one fact table's delta).
  exec::OperatorStats drain_ops;
  lattice::ExplainResult explain;
  bool have_explain = false;
  size_t i = 0;
  while (i < items.size()) {
    size_t j = i + 1;
    while (j < items.size() &&
           items[j].changes.fact_table == items[i].changes.fact_table) {
      ++j;
    }
    run_ranges.emplace_back(items[i].seq, items[j - 1].seq);
    std::vector<IngestItem> run(std::make_move_iterator(items.begin() + i),
                                std::make_move_iterator(items.begin() + j));
    metrics_->Add("service.coalesced_changesets", run.size());
    core::ChangeSet merged = CoalesceChanges(std::move(run));
    dims_changed = dims_changed || !merged.dimensions.empty();
    if (detector_ != nullptr) {
      // Estimate side of the EXPLAIN ANALYZE bundle artifact, built
      // against pre-batch base-table sizes (what the planner saw).
      explain = lattice::BuildExplain(warehouse_.catalog(),
                                      warehouse_.vlattice(), warehouse_.plan(),
                                      merged);
      have_explain = true;
    }
    report = warehouse_.RunBatch(merged);
    if (have_explain) lattice::AttachActuals(report.step_execs, &explain);
    if (profiler_ != nullptr) {
      for (const lattice::StepExecution& se : report.step_execs) {
        drain_ops.MergeFrom(se.ops);
      }
    }
    metrics_->Add("service.batches");
    ++runs;
    i = j;
  }

  // The drain's staleness observation: how old the oldest change got
  // before this batch picked it up (the paper's batch-window tension).
  slo_.ObserveStaleness(staleness);

  std::shared_ptr<const Epoch> next =
      BuildEpoch(dims_changed, /*full_rebuild=*/false);
  const uint64_t epoch_number = next->number;
  double window = 0;
  {
    obs::TraceSpan install_span(options_.tracer, "service.epoch_install");
    install_span.Attr("batch_id", batch_id);
    install_span.Attr("epoch", epoch_number);
    window = versioned_.Install(std::move(next));
  }
  events_.Record(obs::EventType::kEpochInstall, batch_id, /*request_id=*/0,
                 max_seq, window, "epoch " + std::to_string(epoch_number));
  // Mark only after the install, so a marker's epoch is one readers
  // saw; the drain's runs installed together and share it. Marking before
  // the applied_seq_ publish below keeps a Checkpoint (which waits for
  // it) from starting a new WAL generation ahead of the markers.
  for (const auto& [first, last] : run_ranges) {
    wal_->AppendMarker(epoch_number, first, last);
    metrics_->Add("service.wal_markers");
  }
  slo_.ObserveWindow(window);
  metrics_->Observe("service.refresh_window", window);
  metrics_->Set("service.refresh_window_seconds", window);
  metrics_->Set("service.queue_depth",
                static_cast<double>(queue_.rows_queued()));
  metrics_->Set("service.queue_changesets",
                static_cast<double>(queue_.changesets_queued()));
  metrics_->Set("service.staleness_seconds", queue_.oldest_age_seconds());
  events_.Record(obs::EventType::kBatchEnd, batch_id, /*request_id=*/0,
                 max_seq, batch_sw.ElapsedSeconds(),
                 std::to_string(runs) + " runs");

  // Historical/diagnostic layer (DESIGN.md §13), in dependency order:
  // fold the batch's profile, append the per-batch snapshot, evaluate
  // the detector against it, and dump a flight bundle on detection.
  if (profiler_ != nullptr) {
    // Quiesced: RunBatch returned, so its pool workers joined; nothing
    // else writes profile_tracer_.
    profiler_->RecordBatch(profile_tracer_->spans(), &drain_ops);
    profile_tracer_->Clear();
  }
  if (timeseries_ != nullptr) {
    RefreshLiveGauges();  // events.* / queue gauges current at sampling
    timeseries_->Append(batch_id, metrics_->Snapshot());
  }
  if (detector_ != nullptr) {
    std::vector<obs::Anomaly> fired;
    if (timeseries_ != nullptr) fired = detector_->Check(*timeseries_, batch_id);
    std::vector<obs::Anomaly> burn = detector_->CheckSlo(slo_, batch_id);
    fired.insert(fired.end(), burn.begin(), burn.end());
    if (!fired.empty()) {
      std::vector<std::pair<std::string, obs::Json>> artifacts;
      artifacts.emplace_back("events", events_.ToJson());
      if (profiler_ != nullptr) {
        artifacts.emplace_back("profile", profiler_->ToJson());
      }
      if (timeseries_ != nullptr) {
        artifacts.emplace_back("timeseries", timeseries_->ToJson());
      }
      if (have_explain) {
        artifacts.emplace_back("explain", explain.ToJson());
      }
      artifacts.emplace_back("config", ConfigJson());
      const std::string bundle =
          recorder_->WriteBundle(batch_id, fired, artifacts);
      events_.Record(obs::EventType::kAnomaly, batch_id, /*request_id=*/0,
                     max_seq, static_cast<double>(fired.size()), bundle);
    }
  }

  std::scoped_lock lk(state_mu_);
  applied_seq_ = max_seq;
  batches_ += runs;
  last_batch_id_ = batch_id;
  last_refresh_window_ = window;
  last_report_ = std::move(report);
  state_cv_.notify_all();
}

void WarehouseService::MaintenanceLoop() {
  while (true) {
    IngestBatch batch = queue_.WaitAndTake(options_.auto_batching);
    if (!batch.items.empty()) ApplyItems(std::move(batch.items));
    if (batch.flush_requested) {
      std::scoped_lock lk(state_mu_);
      state_cv_.notify_all();
    }
    if (batch.closed) break;
  }
  maintenance_alive_.store(false);
}

void WarehouseService::Stop() {
  std::scoped_lock stop_lock(stop_mu_);
  {
    std::scoped_lock lk(state_mu_);
    if (stopped_) return;
  }
  // Scrapes go first: a request racing shutdown must not observe the
  // service mid-teardown.
  if (http_) http_->Stop();
  queue_.Close();
  if (maintenance_.joinable()) maintenance_.join();
  std::scoped_lock lk(state_mu_);
  stopped_ = true;
  state_cv_.notify_all();
}

void WarehouseService::Checkpoint() {
  // Fence producers for the duration: no new sequences, WAL quiescent.
  std::scoped_lock append_lock(wal_mu_);
  const uint64_t target = last_seq_.load();
  queue_.RequestFlush();
  AwaitApplied(target);
  // The maintenance thread is idle (queue drained, applied == last) and
  // touches the warehouse only after taking new work, so the snapshot
  // below reads quiescent state.

  const fs::path dir(data_dir_);
  const fs::path ckpt = dir / kCheckpointDir;
  const fs::path tmp = dir / kCheckpointTmp;
  const fs::path prev = dir / kCheckpointPrev;
  std::error_code ec;
  fs::remove_all(tmp, ec);
  warehouse::SaveWarehouse(warehouse_, tmp.string());
  WriteSeqFile(tmp / kSeqFile, target);
  // Swap: keep the old checkpoint complete until the new one is in
  // place. Open() resolves every intermediate crash state.
  fs::remove_all(prev, ec);
  if (fs::exists(ckpt)) fs::rename(ckpt, prev);
  fs::rename(tmp, ckpt);
  fs::remove_all(prev, ec);
  // The new WAL generation commits the checkpoint: replay now starts at
  // target + 1, what the snapshot already contains. Consumers one
  // checkpoint behind read the old one at wal.prev.
  wal_->Reset(target + 1, versioned_.Current()->number);
  events_.Record(obs::EventType::kWalCheckpoint, /*batch_id=*/0,
                 /*request_id=*/0, target, /*value=*/0,
                 "seq " + std::to_string(target));

  metrics_->Add("service.checkpoints");
  std::scoped_lock lk(state_mu_);
  checkpoint_seq_ = target;
  ++checkpoints_;
}

void WarehouseService::WithWriter(
    const std::function<void(warehouse::Warehouse&)>& fn) {
  std::scoped_lock append_lock(wal_mu_);
  const uint64_t target = last_seq_.load();
  queue_.RequestFlush();
  AwaitApplied(target);
  fn(warehouse_);
  // DDL may have changed the lattice, plans, and summary schemas:
  // readers get a fully fresh epoch.
  versioned_.Install(
      BuildEpoch(/*dims_changed=*/true, /*full_rebuild=*/true));
}

WarehouseService::Stats WarehouseService::GetStats() const {
  RefreshLiveGauges();
  Stats stats;
  stats.last_seq = last_seq_.load();
  stats.queue_changesets = queue_.changesets_queued();
  stats.queue_rows = queue_.rows_queued();
  stats.staleness_seconds = queue_.oldest_age_seconds();
  std::scoped_lock lk(state_mu_);
  stats.applied_seq = applied_seq_;
  stats.checkpoint_seq = checkpoint_seq_;
  stats.batches = batches_;
  stats.checkpoints = checkpoints_;
  stats.recovered_records = recovered_records_;
  stats.last_refresh_window_seconds = last_refresh_window_;
  stats.last_batch_id = last_batch_id_;
  stats.epoch = versioned_.Current()->number;
  return stats;
}

warehouse::BatchReport WarehouseService::LastReport() const {
  std::scoped_lock lk(state_mu_);
  return last_report_;
}

void WarehouseService::RefreshLiveGauges() const {
  // The drain path last set these at the end of a batch; recompute from
  // the live queue so an export between batches reads *now*. Staleness
  // in particular would otherwise stay frozen at the last drain's value
  // while changes silently age in the queue.
  metrics_->Set("service.staleness_seconds", queue_.oldest_age_seconds());
  metrics_->Set("service.queue_depth",
                static_cast<double>(queue_.rows_queued()));
  metrics_->Set("service.queue_changesets",
                static_cast<double>(queue_.changesets_queued()));
  const uint64_t recorded = events_.total_recorded();
  const uint64_t dropped = events_.dropped_count();
  metrics_->Set("events.recorded", static_cast<double>(recorded));
  metrics_->Set("events.dropped", static_cast<double>(dropped));
  metrics_->Set("events.occupancy", static_cast<double>(recorded - dropped));
}

WarehouseService::Health WarehouseService::CheckHealth() const {
  Health h;
  h.wal_writable = wal_->healthy();
  h.maintenance_alive = maintenance_alive_.load();
  h.staleness_seconds = queue_.oldest_age_seconds();
  h.queue_below_high_water =
      queue_.rows_queued() < options_.queue.max_queue_rows;
  // SLO gate: cumulative burn within budget AND the live staleness is
  // within target right now (evaluated without recording — scrapes must
  // not move the violation counters).
  h.slo_ok = slo_.Healthy() && slo_.StalenessWithinTarget(h.staleness_seconds);
  return h;
}

int WarehouseService::http_port() const {
  return http_ != nullptr && http_->running() ? static_cast<int>(http_->port())
                                              : -1;
}

void WarehouseService::StartHttp(uint16_t port) {
  http_ = std::make_unique<obs::HttpEndpoint>();
  http_->Route("/metrics", [this](const obs::HttpRequest&) {
    RefreshLiveGauges();
    obs::HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = obs::ExportPrometheus(*metrics_);
    return r;
  });
  http_->Route("/healthz", [this](const obs::HttpRequest&) {
    const Health h = CheckHealth();
    obs::Json doc = obs::Json::Object();
    doc.Set("healthy", obs::Json::Bool(h.healthy()));
    doc.Set("wal_writable", obs::Json::Bool(h.wal_writable));
    doc.Set("maintenance_alive", obs::Json::Bool(h.maintenance_alive));
    doc.Set("queue_below_high_water",
            obs::Json::Bool(h.queue_below_high_water));
    doc.Set("slo_ok", obs::Json::Bool(h.slo_ok));
    doc.Set("staleness_seconds", obs::Json::Double(h.staleness_seconds));
    doc.Set("slo", slo_.ToJson());
    obs::HttpResponse r;
    r.status = h.healthy() ? 200 : 503;
    r.body = doc.Dump(2) + "\n";
    return r;
  });
  http_->Route("/varz", [this](const obs::HttpRequest&) {
    RefreshLiveGauges();
    obs::HttpResponse r;
    // Metrics only: span export requires a quiesced tracer, which a
    // scrape racing the maintenance thread cannot guarantee.
    r.body = obs::ExportJson(metrics_, /*tracer=*/nullptr);
    return r;
  });
  http_->Route("/epochs", [this](const obs::HttpRequest&) {
    const std::shared_ptr<const Epoch> cur = versioned_.Current();
    obs::Json doc = obs::Json::Object();
    doc.Set("epoch", obs::Json::Int(static_cast<int64_t>(cur->number)));
    doc.Set("last_seq",
            obs::Json::Int(static_cast<int64_t>(last_seq_.load())));
    {
      std::scoped_lock lk(state_mu_);
      doc.Set("applied_seq",
              obs::Json::Int(static_cast<int64_t>(applied_seq_)));
      doc.Set("last_batch_id",
              obs::Json::Int(static_cast<int64_t>(last_batch_id_)));
    }
    obs::Json views = obs::Json::Array();
    for (size_t i = 0; i < cur->views.size(); ++i) {
      obs::Json v = obs::Json::Object();
      v.Set("name", obs::Json::Str(cur->lattice->views[i].physical.name));
      v.Set("rows",
            obs::Json::Int(static_cast<int64_t>(cur->views[i]->NumRows())));
      views.Append(std::move(v));
    }
    doc.Set("views", std::move(views));
    obs::HttpResponse r;
    r.body = doc.Dump(2) + "\n";
    return r;
  });
  http_->Route("/events", [this](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.body = events_.ToJson().Dump(2) + "\n";
    return r;
  });
  http_->Route("/timeseries", [this](const obs::HttpRequest& req) {
    if (timeseries_ == nullptr) return DisabledDoc("timeseries_capacity");
    obs::HttpResponse r;
    const std::string metric = QueryParam(req.query, "metric");
    if (metric.empty()) {
      r.body = timeseries_->ToJson().Dump(2) + "\n";
      return r;
    }
    const uint64_t from = ParseIdOr(QueryParam(req.query, "from"), 0);
    const uint64_t to =
        ParseIdOr(QueryParam(req.query, "to"), UINT64_MAX);
    obs::Json doc = obs::Json::Object();
    doc.Set("schema", obs::Json::Str("sdelta.timeseries.v1"));
    doc.Set("metric", obs::Json::Str(metric));
    obs::Json points = obs::Json::Array();
    for (const obs::TimeSeriesPoint& p :
         timeseries_->Query(metric, from, to)) {
      obs::Json point = obs::Json::Object();
      point.Set("batch", obs::Json::Int(static_cast<int64_t>(p.batch_id)));
      point.Set("value", obs::Json::Double(p.value));
      points.Append(std::move(point));
    }
    doc.Set("points", std::move(points));
    r.body = doc.Dump(2) + "\n";
    return r;
  });
  http_->Route("/profile", [this](const obs::HttpRequest& req) {
    if (profiler_ == nullptr) return DisabledDoc("profile");
    obs::HttpResponse r;
    if (QueryParam(req.query, "format") == "collapsed") {
      r.content_type = "text/plain; charset=utf-8";
      r.body = profiler_->ToCollapsed();
      return r;
    }
    r.body = profiler_->ToJson().Dump(2) + "\n";
    return r;
  });
  http_->Route("/anomalies", [this](const obs::HttpRequest&) {
    if (detector_ == nullptr) return DisabledDoc("anomaly.enabled");
    obs::Json doc = detector_->ToJson();
    obs::Json bundles = obs::Json::Array();
    if (recorder_ != nullptr) {
      for (const std::string& name : recorder_->ListBundles()) {
        bundles.Append(obs::Json::Str(name));
      }
    }
    doc.Set("bundles", std::move(bundles));
    obs::HttpResponse r;
    r.body = doc.Dump(2) + "\n";
    return r;
  });
  http_->Start(port);
}

obs::Json WarehouseService::ConfigJson() const {
  obs::Json doc = obs::Json::Object();
  doc.Set("schema", obs::Json::Str("sdelta.config.v1"));
  doc.Set("auto_batching", obs::Json::Bool(options_.auto_batching));
  doc.Set("wal_sync", obs::Json::Bool(options_.wal_sync));
  doc.Set("num_threads",
          obs::Json::Int(static_cast<int64_t>(warehouse_.num_threads())));
  obs::Json queue = obs::Json::Object();
  queue.Set("max_batch_rows", obs::Json::Int(static_cast<int64_t>(
                                  options_.queue.max_batch_rows)));
  queue.Set("max_queue_rows", obs::Json::Int(static_cast<int64_t>(
                                  options_.queue.max_queue_rows)));
  queue.Set("max_batch_delay_seconds",
            obs::Json::Double(options_.queue.max_batch_delay_seconds));
  doc.Set("queue", std::move(queue));
  obs::Json slo = obs::Json::Object();
  slo.Set("staleness_seconds", obs::Json::Double(options_.slo.staleness_seconds));
  slo.Set("refresh_window_seconds",
          obs::Json::Double(options_.slo.refresh_window_seconds));
  slo.Set("error_budget", obs::Json::Double(options_.slo.error_budget));
  doc.Set("slo", std::move(slo));
  doc.Set("timeseries_capacity", obs::Json::Int(static_cast<int64_t>(
                                     options_.timeseries_capacity)));
  doc.Set("profile", obs::Json::Bool(options_.profile));
  obs::Json anomaly = obs::Json::Object();
  anomaly.Set("enabled", obs::Json::Bool(options_.anomaly.enabled));
  anomaly.Set("slo_burn_threshold",
              obs::Json::Double(options_.anomaly.slo_burn_threshold));
  obs::Json rules = obs::Json::Array();
  for (const obs::AnomalyRule& rule : options_.anomaly.rules) {
    obs::Json r = obs::Json::Object();
    r.Set("metric", obs::Json::Str(rule.metric));
    r.Set("factor", obs::Json::Double(rule.factor));
    r.Set("min_threshold", obs::Json::Double(rule.min_threshold));
    r.Set("window", obs::Json::Int(static_cast<int64_t>(rule.window)));
    r.Set("warmup", obs::Json::Int(static_cast<int64_t>(rule.warmup)));
    r.Set("delta", obs::Json::Bool(rule.delta));
    rules.Append(std::move(r));
  }
  anomaly.Set("rules", std::move(rules));
  doc.Set("anomaly", std::move(anomaly));
  return doc;
}

}  // namespace sdelta::service
