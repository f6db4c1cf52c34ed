#include "warehouse/warehouse.h"

#include <stdexcept>

#include "core/rematerialize.h"
#include "core/sql_parser.h"

namespace sdelta::warehouse {

core::RefreshStats BatchReport::TotalRefresh() const {
  core::RefreshStats total;
  for (const ViewBatchReport& v : views) total += v.refresh;
  return total;
}

Warehouse::Warehouse(rel::Catalog catalog, Options options)
    : catalog_(std::move(catalog)),
      options_(options),
      num_threads_(exec::ThreadPool::ResolveThreads(options.num_threads)) {
  // The calling thread is an execution context (TaskGroup::Wait helps),
  // so n threads of parallelism need n-1 pool workers. num_threads == 1
  // keeps pool_ null: every operator takes its exact legacy serial path.
  if (num_threads_ > 1) {
    pool_ = std::make_unique<exec::ThreadPool>(num_threads_ - 1);
  }
}

namespace {

/// Folds the pool-stat delta across a phase into exec.* metrics.
/// exec.tasks and exec.morsels are counters and depend only on the work
/// decomposition (identical for every num_threads > 1); the busy-time
/// split varies with scheduling, so it feeds gauges only. Utilization is
/// reported per execution context: one exec.worker_utilization.<i> gauge
/// per pool worker plus exec.helper_utilization for the calling thread's
/// help-while-waiting time, each a busy fraction of the elapsed phase.
void DrainExecStats(const exec::PoolStats& before, const exec::PoolStats& after,
                    double elapsed_seconds, size_t num_threads,
                    obs::MetricsRegistry& m) {
  m.Add("exec.tasks", after.tasks_scheduled - before.tasks_scheduled);
  m.Add("exec.morsels", after.morsels_scheduled - before.morsels_scheduled);
  const double busy =
      static_cast<double>(after.busy_ns - before.busy_ns) * 1e-9;
  m.Set("exec.busy_seconds", busy);
  if (elapsed_seconds <= 0) return;
  m.Set("exec.pool_utilization",
        busy / (elapsed_seconds * static_cast<double>(num_threads)));
  for (size_t i = 0; i < after.worker_busy_ns.size(); ++i) {
    const uint64_t b0 =
        i < before.worker_busy_ns.size() ? before.worker_busy_ns[i] : 0;
    m.Set("exec.worker_utilization." + std::to_string(i),
          static_cast<double>(after.worker_busy_ns[i] - b0) * 1e-9 /
              elapsed_seconds);
  }
  m.Set("exec.helper_utilization",
        static_cast<double>(after.helper_busy_ns - before.helper_busy_ns) *
            1e-9 / elapsed_seconds);
}

}  // namespace

void Warehouse::DefineSummaryTables(const std::vector<core::ViewDef>& views,
                                    bool materialize) {
  if (!summaries_.empty()) {
    throw std::logic_error("summary tables already defined");
  }
  defined_views_ = views;
  Rebuild(materialize);
}

void Warehouse::AddSummaryTable(const core::ViewDef& view) {
  core::ValidateView(catalog_, view);
  for (const core::ViewDef& existing : defined_views_) {
    if (existing.name == view.name) {
      throw std::invalid_argument("summary table " + view.name +
                                  " already defined");
    }
  }
  defined_views_.push_back(view);
  Rebuild(/*materialize=*/true);
}

void Warehouse::AddSummaryTable(const std::string& sql) {
  AddSummaryTable(core::ParseViewDef(catalog_, sql));
}

void Warehouse::DropSummaryTable(const std::string& name) {
  for (size_t i = 0; i < defined_views_.size(); ++i) {
    if (defined_views_[i].name == name) {
      defined_views_.erase(defined_views_.begin() + i);
      Rebuild(/*materialize=*/true);
      return;
    }
  }
  throw std::invalid_argument("unknown summary table: " + name);
}

void Warehouse::Rebuild(bool materialize) {
  obs::TraceSpan span(options_.tracer, "warehouse.Rebuild");
  std::vector<core::ViewDef> defs =
      options_.lattice_friendly
          ? lattice::MakeLatticeFriendly(catalog_, defined_views_)
          : defined_views_;
  std::vector<core::AugmentedView> augmented;
  augmented.reserve(defs.size());
  for (const core::ViewDef& d : defs) {
    augmented.push_back(core::AugmentForSelfMaintenance(catalog_, d));
  }

  // Stash the previous tables so unchanged views keep their rows.
  std::vector<core::SummaryTable> old = std::move(summaries_);
  summaries_.clear();

  lattice_ = lattice::BuildVLattice(catalog_, std::move(augmented));
  lattice::PlanOptions plan_options;
  plan_options.use_lattice = options_.use_lattice;
  plan_options.tracer = options_.tracer;
  plan_options.metrics = options_.metrics;
  plan_ = lattice::ChoosePlan(catalog_, lattice_, plan_options);
  summaries_.reserve(lattice_.views.size());
  for (const core::AugmentedView& v : lattice_.views) {
    summaries_.emplace_back(v, catalog_);
  }
  if (!materialize) return;

  // Plan order guarantees parents are filled before children, so a new
  // view can be built from a parent's (preserved or fresh) rows.
  for (const lattice::PlanStep& step : plan_.steps) {
    core::SummaryTable& table = summaries_[step.view];
    const core::SummaryTable* previous = nullptr;
    for (const core::SummaryTable& o : old) {
      if (o.name() == table.name() && o.schema() == table.schema()) {
        previous = &o;
      }
    }
    if (previous != nullptr) {
      table.LoadFrom(previous->ToTable());
      continue;
    }
    if (step.edge.has_value()) {
      const lattice::VLatticeEdge& edge = lattice_.edges[*step.edge];
      core::RematerializeFromParent(catalog_, edge.recipe,
                                    summaries_[edge.parent].ToTable(),
                                    table);
    } else {
      table.MaterializeFrom(catalog_);
    }
  }
}

const core::SummaryTable& Warehouse::summary(const std::string& name) const {
  for (const core::SummaryTable& s : summaries_) {
    if (s.name() == name) return s;
  }
  throw std::invalid_argument("unknown summary table: " + name);
}

core::SummaryTable& Warehouse::summary_mutable(const std::string& name) {
  for (core::SummaryTable& s : summaries_) {
    if (s.name() == name) return s;
  }
  throw std::invalid_argument("unknown summary table: " + name);
}

BatchReport Warehouse::RunBatch(const core::ChangeSet& changes) {
  // The pipeline always writes into a registry — the caller's when one
  // is attached, else a batch-local scratch — and the report is read
  // back out of it, so there is exactly one set of counters.
  obs::MetricsRegistry scratch;
  obs::MetricsRegistry& m =
      options_.metrics != nullptr ? *options_.metrics : scratch;
  obs::Tracer* tracer = options_.tracer;

  core::PropagateOptions popts = options_.propagate;
  popts.tracer = tracer;
  popts.metrics = &m;
  popts.pool = pool_.get();
  core::RefreshOptions ropts = options_.refresh;
  ropts.tracer = tracer;
  ropts.metrics = &m;

  // A shared registry accumulates across batches; the report is the
  // delta over this batch.
  const uint64_t scanned0 = m.counter("propagate.rows_scanned");
  const uint64_t delta0 = m.counter("propagate.delta_rows");
  const uint64_t preagg0 = m.counter("propagate.preaggregated");

  obs::TraceSpan batch(tracer, "warehouse.RunBatch");
  BatchReport report;

  const exec::PoolStats exec0 =
      pool_ != nullptr ? pool_->StatsSnapshot() : exec::PoolStats{};
  core::Stopwatch batch_sw;

  core::Stopwatch sw;
  lattice::LatticePropagateResult deltas =
      lattice::PropagateAll(catalog_, lattice_, plan_, changes, popts);
  m.Set("batch.propagate_seconds", sw.ElapsedSeconds());
  report.step_execs = std::move(deltas.step_execs);

  sw.Reset();
  {
    obs::TraceSpan apply(tracer, "batch.apply_base");
    core::ApplyChangeSet(catalog_, changes);
  }
  m.Set("batch.apply_base_seconds", sw.ElapsedSeconds());

  sw.Reset();
  {
    obs::TraceSpan refresh_span(tracer, "refresh");
    // Pool workers have no open spans; parent refresh.view explicitly.
    if (pool_ != nullptr) ropts.parent_span = refresh_span.id();
    report.views.resize(summaries_.size());
    // Refresh every view, one per-view report slot so the report order
    // matches the serial loop regardless of scheduling. Views are
    // independent: each refresh mutates only its own summary table and
    // reads the (already updated) base tables.
    auto refresh_view = [&](size_t i) {
      ViewBatchReport& vr = report.views[i];
      vr.view = summaries_[i].name();
      vr.delta_rows = deltas.deltas[i].NumRows();
      vr.refresh =
          core::Refresh(catalog_, summaries_[i], deltas.deltas[i], ropts);
    };
    if (pool_ != nullptr) {
      exec::TaskGroup group(pool_.get());
      for (size_t i = 0; i < summaries_.size(); ++i) {
        group.Spawn([&refresh_view, i] { refresh_view(i); });
      }
      group.Wait();
    } else {
      for (size_t i = 0; i < summaries_.size(); ++i) refresh_view(i);
    }
  }
  m.Set("batch.refresh_seconds", sw.ElapsedSeconds());

  report.propagate_seconds = m.gauge("batch.propagate_seconds");
  report.apply_base_seconds = m.gauge("batch.apply_base_seconds");
  report.refresh_seconds = m.gauge("batch.refresh_seconds");
  report.propagate.prepared_tuples =
      m.counter("propagate.rows_scanned") - scanned0;
  report.propagate.delta_groups = m.counter("propagate.delta_rows") - delta0;
  report.propagate.preaggregated =
      m.counter("propagate.preaggregated") > preagg0;
  m.Observe("batch.maintenance_seconds", report.maintenance_seconds());
  // Batch-wide key-encoding health: share of key operations that took
  // the packed fast path (100% on the retail schema), and the total
  // dictionary population backing string key columns.
  const double key_packed = static_cast<double>(m.counter("key.packed_rows"));
  const double key_fallback =
      static_cast<double>(m.counter("key.fallback_rows"));
  if (key_packed + key_fallback > 0) {
    m.Set("key.packed_ratio", key_packed / (key_packed + key_fallback));
  }
  m.Set("dict.entries",
        static_cast<double>(catalog_.dictionaries().TotalEntries()));
  // Columnar storage health: resident bytes across base tables and the
  // mean rows delivered per column batch this run (vectorization grain).
  size_t table_bytes = 0;
  for (const std::string& tn : catalog_.TableNames()) {
    table_bytes += catalog_.GetTable(tn).ApproxBytes();
  }
  m.Set("table.bytes", static_cast<double>(table_bytes));
  uint64_t batch_rows = 0;
  uint64_t batches = 0;
  for (const char* op : {"select", "project", "hash_join", "group_by"}) {
    batch_rows += m.counter(std::string("op.") + op + ".rows_in");
    batches += m.counter(std::string("op.") + op + ".batches");
  }
  if (batches > 0) {
    m.Set("columnar.batch_rows",
          static_cast<double>(batch_rows) / static_cast<double>(batches));
  }
  if (pool_ != nullptr) {
    m.Set("exec.threads", static_cast<double>(num_threads_));
    DrainExecStats(exec0, pool_->StatsSnapshot(), batch_sw.ElapsedSeconds(),
                   num_threads_, m);
  }
  return report;
}

lattice::ExplainResult Warehouse::Explain(
    const core::ChangeSet& changes) const {
  return lattice::BuildExplain(catalog_, lattice_, plan_, changes);
}

lattice::ExplainResult Warehouse::ExplainAnalyze(const core::ChangeSet& changes,
                                                 BatchReport* report) {
  // Estimates read the pre-change catalog (distinct counts, fan-in), so
  // the tree is built before RunBatch applies the change set.
  lattice::ExplainResult explain = Explain(changes);
  BatchReport batch = RunBatch(changes);
  lattice::AttachActuals(batch.step_execs, &explain);
  for (const ViewBatchReport& vr : batch.views) {
    if (lattice::ExplainStep* step = explain.FindStep(vr.view)) {
      step->has_refresh = true;
      step->refresh = vr.refresh;
    }
  }
  if (report != nullptr) *report = std::move(batch);
  return explain;
}

double Warehouse::PropagateOnly(const core::ChangeSet& changes,
                                core::PropagateStats* stats) const {
  core::PropagateOptions popts = options_.propagate;
  popts.tracer = options_.tracer;
  popts.metrics = options_.metrics;
  popts.pool = pool_.get();
  obs::TraceSpan span(options_.tracer, "warehouse.PropagateOnly");
  const exec::PoolStats exec0 =
      pool_ != nullptr ? pool_->StatsSnapshot() : exec::PoolStats{};
  core::Stopwatch sw;
  lattice::LatticePropagateResult deltas =
      lattice::PropagateAll(catalog_, lattice_, plan_, changes, popts);
  const double elapsed = sw.ElapsedSeconds();
  if (options_.metrics != nullptr) {
    options_.metrics->Observe("propagate.seconds", elapsed);
    if (pool_ != nullptr) {
      options_.metrics->Set("exec.threads", static_cast<double>(num_threads_));
      DrainExecStats(exec0, pool_->StatsSnapshot(), elapsed, num_threads_,
                     *options_.metrics);
    }
  }
  if (stats != nullptr) *stats = deltas.totals;
  return elapsed;
}

double Warehouse::RematerializeAll(const core::ChangeSet& changes) {
  obs::TraceSpan span(options_.tracer, "warehouse.RematerializeAll");
  {
    obs::TraceSpan apply(options_.tracer, "batch.apply_base");
    core::ApplyChangeSet(catalog_, changes);
  }
  core::Stopwatch sw;
  const double elapsed = [&] {
    if (!options_.use_lattice) {
      for (core::SummaryTable& s : summaries_) {
        obs::TraceSpan step(options_.tracer, s.name());
        step.Attr("source", "base");
        core::Rematerialize(catalog_, s);
      }
      return sw.ElapsedSeconds();
    }
    // Recompute along the plan: tops from base, children from their
    // parent's fresh rows via the V-lattice edge query (Theorem 5.1).
    for (const lattice::PlanStep& step : plan_.steps) {
      obs::TraceSpan step_span(options_.tracer,
                               summaries_[step.view].name());
      if (step.edge.has_value()) {
        const lattice::VLatticeEdge& edge = lattice_.edges[*step.edge];
        step_span.Attr("source", summaries_[edge.parent].name());
        core::RematerializeFromParent(catalog_, edge.recipe,
                                      summaries_[edge.parent].ToTable(),
                                      summaries_[step.view]);
      } else {
        step_span.Attr("source", "base");
        core::Rematerialize(catalog_, summaries_[step.view]);
      }
    }
    return sw.ElapsedSeconds();
  }();
  if (options_.metrics != nullptr) {
    options_.metrics->Add("rematerialize.runs");
    options_.metrics->Observe("rematerialize.seconds", elapsed);
  }
  return elapsed;
}

lattice::AnswerResult Warehouse::Query(const core::ViewDef& query) const {
  std::vector<const core::SummaryTable*> summaries;
  summaries.reserve(summaries_.size());
  for (const core::SummaryTable& s : summaries_) summaries.push_back(&s);
  return lattice::AnswerQuery(catalog_, lattice_, summaries, query,
                              options_.tracer, options_.metrics);
}

lattice::AnswerResult Warehouse::Query(const std::string& sql) const {
  return Query(core::ParseQuery(catalog_, sql));
}

}  // namespace sdelta::warehouse
