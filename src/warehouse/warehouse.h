#ifndef SDELTA_WAREHOUSE_WAREHOUSE_H_
#define SDELTA_WAREHOUSE_WAREHOUSE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/maintenance.h"
#include "core/summary_table.h"
#include "exec/thread_pool.h"
#include "lattice/answer.h"
#include "lattice/explain.h"
#include "lattice/plan.h"
#include "lattice/vlattice.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/catalog.h"

namespace sdelta::warehouse {

/// Per-view numbers from one batch window.
struct ViewBatchReport {
  std::string view;
  size_t delta_rows = 0;
  core::RefreshStats refresh;
};

/// Timing split for one nightly batch (paper §6): propagate runs while
/// the warehouse is still answering queries; apply-base + refresh are
/// the batch window during which readers are locked out.
///
/// The batch-level numbers are *derived from* the obs::MetricsRegistry
/// the pipeline writes to (the caller's via Options::metrics, or a
/// batch-local scratch registry) — RunBatch keeps no parallel counters.
struct BatchReport {
  double propagate_seconds = 0;
  double apply_base_seconds = 0;
  double refresh_seconds = 0;
  core::PropagateStats propagate;
  std::vector<ViewBatchReport> views;
  /// Per-plan-step execution records from the propagate phase, parallel
  /// to Warehouse::plan().steps — the actuals side of EXPLAIN ANALYZE.
  std::vector<lattice::StepExecution> step_execs;

  double maintenance_seconds() const {
    return propagate_seconds + refresh_seconds;
  }
  core::RefreshStats TotalRefresh() const;
};

/// The top-level facade: a catalog of base tables plus a set of
/// maintained summary tables arranged in a V-lattice, with the paper's
/// propagate/refresh batch cycle.
///
/// Typical use:
///   Warehouse wh(MakeRetailCatalog());
///   wh.DefineSummaryTables(RetailSummaryTables());
///   BatchReport r = wh.RunBatch(MakeUpdateGeneratingChanges(...));
class Warehouse {
 public:
  struct Options {
    /// Extend views with FD-determined dimension attributes so the
    /// lattice grows fuller (§5.2/§5.3; gives Figure 8 for the retail
    /// views). Affects the *schema* of extended summary tables.
    bool lattice_friendly = true;
    /// Propagate through the D-lattice (§5.4/§5.5). false = the paper's
    /// "w/o lattice" baseline: every summary-delta from base changes.
    bool use_lattice = true;
    core::PropagateOptions propagate;
    core::RefreshOptions refresh;
    /// Observability sinks (src/obs/), threaded through every pipeline
    /// stage (plan choice, propagate, refresh, answer). Null = disabled;
    /// the off path costs one branch per instrumentation site. Dump a
    /// captured trace with obs::WriteChromeTrace / obs::ExportJson.
    obs::Tracer* tracer = nullptr;
    obs::MetricsRegistry* metrics = nullptr;
    /// Execution contexts for the parallel engine: 0 = one per hardware
    /// thread, 1 = the exact legacy serial path (no pool, no exec.*
    /// metrics), n > 1 = the calling thread plus n-1 pool workers.
    /// Results are byte-identical at every setting (see operators.h for
    /// the determinism contract and its double-SUM caveat).
    size_t num_threads = 0;
  };

  explicit Warehouse(rel::Catalog catalog) : Warehouse(std::move(catalog), Options()) {}
  Warehouse(rel::Catalog catalog, Options options);

  rel::Catalog& catalog() { return catalog_; }
  const rel::Catalog& catalog() const { return catalog_; }
  const Options& options() const { return options_; }

  /// Re-targets the span sink for subsequent batches (RunBatch reads it
  /// per call). The service's profiler uses this to own a private
  /// maintenance-path tracer it can fold and clear per batch.
  void SetTracer(obs::Tracer* tracer) { options_.tracer = tracer; }

  /// Resolved execution-context count (>= 1).
  size_t num_threads() const { return num_threads_; }
  /// The engine's pool; null when num_threads() == 1.
  exec::ThreadPool* pool() const { return pool_.get(); }

  /// Registers and materializes the given summary tables; builds the
  /// V-lattice and the maintenance plan. Call once. With
  /// materialize = false the summary tables are left empty — callers
  /// restoring a snapshot load rows via summary_mutable().LoadFrom().
  void DefineSummaryTables(const std::vector<core::ViewDef>& views,
                           bool materialize = true);

  /// Adds one more summary table to the maintained set — the evolving
  /// partially-materialized lattice of §3.4 in operation. The
  /// lattice-friendly extension, V-lattice, and plan are rebuilt; the
  /// new table (and any existing table whose physical schema changed
  /// because the extension now carries extra attributes) is materialized
  /// from its cheapest parent when possible; untouched tables keep their
  /// rows.
  void AddSummaryTable(const core::ViewDef& view);
  /// SQL-text convenience (the paper's CREATE VIEW dialect).
  void AddSummaryTable(const std::string& sql);

  /// Removes a summary table by name; the remaining views re-link
  /// through the rebuilt lattice (edges spliced past the removed node).
  void DropSummaryTable(const std::string& name);

  size_t NumSummaryTables() const { return summaries_.size(); }
  const core::SummaryTable& summary(const std::string& name) const;
  core::SummaryTable& summary_mutable(const std::string& name);
  const lattice::VLattice& vlattice() const { return lattice_; }
  const lattice::MaintenancePlan& plan() const { return plan_; }

  /// One nightly batch: propagate all summary-deltas (outside the batch
  /// window), apply the change set to the base tables, refresh every
  /// summary table (inside the window).
  BatchReport RunBatch(const core::ChangeSet& changes);

  /// EXPLAIN: the annotated maintenance-plan tree for a change set —
  /// per-step source (after dimension-delta edge gating), wave, and
  /// estimated input/delta cardinalities. Pure; executes nothing.
  lattice::ExplainResult Explain(const core::ChangeSet& changes) const;

  /// EXPLAIN ANALYZE: runs the full batch (this *is* RunBatch — base and
  /// summary tables are mutated) and returns the tree annotated with
  /// actual cardinalities, operator accounting, and the refresh outcome
  /// classes each step fed. The default renderings are byte-identical
  /// across thread counts. `report` (optional) receives the batch report.
  lattice::ExplainResult ExplainAnalyze(const core::ChangeSet& changes,
                                        BatchReport* report = nullptr);

  /// The paper's propagate-only measurement: computes every
  /// summary-delta (with or without the lattice, per options) without
  /// touching base tables or summary tables. Returns elapsed seconds.
  double PropagateOnly(const core::ChangeSet& changes,
                       core::PropagateStats* stats = nullptr) const;

  /// The rematerialization baseline: applies the change set to the base
  /// tables and recomputes every summary table from scratch, exploiting
  /// the lattice (children recomputed from parents) when enabled.
  /// Returns elapsed seconds of the recomputation.
  double RematerializeAll(const core::ChangeSet& changes);

  /// Answers an ad-hoc aggregate query from the cheapest summary table
  /// that derives it (falling back to base-table evaluation). The query
  /// is a ViewDef describing SELECT/FROM/WHERE/GROUP BY, or SQL text in
  /// the paper's dialect ("SELECT region, SUM(qty) AS q FROM pos, stores
  /// WHERE pos.storeID = stores.storeID GROUP BY region").
  lattice::AnswerResult Query(const core::ViewDef& query) const;
  lattice::AnswerResult Query(const std::string& sql) const;

 private:
  /// Rebuilds extension/lattice/plan/summaries from defined_views_,
  /// preserving rows of tables whose physical schema is unchanged and
  /// materializing the rest (from a parent when the plan allows).
  void Rebuild(bool materialize);

  rel::Catalog catalog_;
  Options options_;
  size_t num_threads_ = 1;
  /// Workers = num_threads_ - 1: the thread calling into the warehouse
  /// is itself an execution context (TaskGroup::Wait helps run tasks).
  std::unique_ptr<exec::ThreadPool> pool_;
  std::vector<core::ViewDef> defined_views_;  // as the user declared them
  lattice::VLattice lattice_;
  lattice::MaintenancePlan plan_;
  std::vector<core::SummaryTable> summaries_;  // parallel to lattice_.views
};

}  // namespace sdelta::warehouse

#endif  // SDELTA_WAREHOUSE_WAREHOUSE_H_
