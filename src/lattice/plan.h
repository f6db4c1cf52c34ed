#ifndef SDELTA_LATTICE_PLAN_H_
#define SDELTA_LATTICE_PLAN_H_

#include <optional>
#include <string>
#include <vector>

#include "core/delta.h"
#include "core/propagate.h"
#include "lattice/vlattice.h"

namespace sdelta::lattice {

/// One step of a maintenance plan: compute view `view`'s summary-delta
/// either from the base change set (no edge) or from the parent's
/// summary-delta along `edge` (an index into VLattice::edges).
struct PlanStep {
  size_t view = 0;
  std::optional<size_t> edge;
  /// Plan-time estimate of the view's group count (§5.5 estimator: the
  /// product of per-attribute distinct counts, FD/FK-aware). Filled by
  /// ChoosePlan on both the lattice and no-lattice paths.
  double estimated_groups = 0;
  /// Cost the chooser assigned to this step: the chosen edge's cost
  /// (parent estimate x (1 + joins)) — this is what plan.edge_cost
  /// observes — or the view's own estimate for compute-from-base steps.
  double estimated_cost = 0;
};

/// A topologically ordered propagation plan for every view in a lattice
/// (paper §5.5 — the simplified [AAD+96]-style chooser: each view is
/// derived from its cheapest admissible ancestor, where cost is the
/// estimated summary-delta cardinality of the ancestor plus the edge's
/// dimension-join cost).
struct MaintenancePlan {
  std::vector<PlanStep> steps;
  std::string ToString(const VLattice& lattice) const;
};

struct PlanOptions {
  /// false reproduces the paper's "Propagate (w/o lattice)" baseline:
  /// every summary-delta is computed directly from the base changes.
  bool use_lattice = true;
  /// Observability sinks (see src/obs/). Null = disabled. The chooser
  /// records one plan.edge_cost observation per chosen edge and a
  /// plan.steps_from_base counter.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Estimated number of groups of a view: the product of per-attribute
/// distinct counts (measured exactly from the catalog's current data).
/// Used to rank candidate parents; summary-delta sizes are additionally
/// capped by the change-set size at execution time.
double EstimateGroupCount(const rel::Catalog& catalog,
                          const core::AugmentedView& view);

MaintenancePlan ChoosePlan(const rel::Catalog& catalog,
                           const VLattice& lattice,
                           const PlanOptions& options = {});

/// Execution record of one plan step — the "actuals" side of
/// EXPLAIN ANALYZE. Everything except `seconds` (and the wall_seconds
/// inside `ops`) is a pure function of the plan and change set, so it is
/// identical across thread counts.
struct StepExecution {
  size_t view = 0;
  /// The edge was actually used (plan chose one and no dimension delta
  /// disabled it).
  bool via_edge = false;
  /// The plan chose an edge but a dimension-table delta forced this step
  /// back to computing from base changes.
  bool edge_disabled = false;
  /// D-lattice depth of the step: 0 = from base changes, k+1 = derived
  /// from a wave-k parent. Computed identically on the serial and
  /// wave-scheduled paths.
  size_t wave = 0;
  /// Rows fed into the step: the parent's summary-delta cardinality
  /// (via edge) or the prepare-changes relation size (from base).
  size_t input_rows = 0;
  /// Rows in the step's summary-delta.
  size_t delta_rows = 0;
  /// Wall time of the step (non-deterministic; excluded from golden
  /// explain renderings).
  double seconds = 0;
  /// Operator-level accounting for the step's Select/Project/HashJoin/
  /// GroupBy/UnionAll invocations.
  exec::OperatorStats ops;
};

/// The result of running the propagate phase for every view.
struct LatticePropagateResult {
  /// Summary-delta tables, parallel to lattice.views.
  std::vector<rel::Table> deltas;
  core::PropagateStats totals;
  /// Per-step execution records, parallel to plan.steps.
  std::vector<StepExecution> step_execs;
};

/// Executes the plan against a change set: tops (and all views, without
/// a lattice) come from ComputeSummaryDelta; children from their
/// parent's freshly computed summary-delta via the edge recipe.
LatticePropagateResult PropagateAll(const rel::Catalog& catalog,
                                    const VLattice& lattice,
                                    const MaintenancePlan& plan,
                                    const core::ChangeSet& changes,
                                    const core::PropagateOptions& opts = {});

}  // namespace sdelta::lattice

#endif  // SDELTA_LATTICE_PLAN_H_
