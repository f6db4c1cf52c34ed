#ifndef SDELTA_LATTICE_EXPLAIN_H_
#define SDELTA_LATTICE_EXPLAIN_H_

#include <string>
#include <vector>

#include "core/refresh.h"
#include "lattice/plan.h"
#include "obs/json.h"

namespace sdelta::lattice {

/// One annotated plan step of an EXPLAIN / EXPLAIN ANALYZE tree.
///
/// Estimates are plan-time (the §5.5 group-count estimator plus the
/// change-set input cap); actuals are filled from StepExecution records
/// after a real run; refresh outcome classes (Figure 7: insert / update
/// / delete / minmax-recompute) are filled from the batch's per-view
/// refresh stats.
struct ExplainStep {
  std::string view;
  /// "base" for compute-from-base steps, else the D-lattice parent view
  /// whose summary-delta this step derives from.
  std::string source;
  /// Dimension tables the step itself joins (the edge's joins).
  std::vector<std::string> joins;
  /// The plan chose an edge but a dimension-table delta disabled it for
  /// this change set; the step computes from base instead.
  bool edge_disabled = false;
  /// D-lattice depth: 0 = from base, k+1 = derived from a wave-k parent.
  size_t wave = 0;

  /// §5.5 estimate of the view's group count.
  double estimated_groups = 0;
  /// Estimated rows feeding the step (change-set size for base steps;
  /// the parent's estimated delta cardinality along an edge).
  double estimated_input_rows = 0;
  /// Estimated summary-delta cardinality: min(groups, input rows).
  double estimated_delta_rows = 0;
  /// The chooser's cost for this step (plan.edge_cost for edges).
  double estimated_cost = 0;

  bool has_actuals = false;
  size_t actual_input_rows = 0;
  size_t actual_delta_rows = 0;
  /// Wall time (non-deterministic; rendered only with include_timings).
  double seconds = 0;
  exec::OperatorStats ops;

  bool has_refresh = false;
  core::RefreshStats refresh;
};

struct ExplainRenderOptions {
  /// Include wall-clock fields (step seconds, per-operator seconds).
  /// Off by default so default renderings are byte-identical across
  /// runs and thread counts.
  bool include_timings = false;
};

/// A deterministic annotated plan tree. The default renderings (text,
/// Graphviz DOT, JSON under the versioned sdelta.explain.v1 schema)
/// contain only plan-and-data-determined fields, so they are
/// byte-identical across thread counts and repeated runs on the same
/// catalog + change set.
struct ExplainResult {
  bool analyzed = false;
  /// "lattice" when the plan uses D-lattice edges, "direct" for the
  /// every-view-from-base baseline.
  std::string plan_source = "lattice";
  /// Steps in plan (topological) order.
  std::vector<ExplainStep> steps;

  /// Indented tree, one step per node, children under their D-lattice
  /// source view.
  std::string ToText(const ExplainRenderOptions& options = {}) const;
  /// Graphviz digraph: base + one node per view, edges labelled with
  /// the dimension joins.
  std::string ToDot(const ExplainRenderOptions& options = {}) const;
  /// {"schema":"sdelta.explain.v1","analyzed":...,"plan":...,
  ///  "steps":[...]}.
  obs::Json ToJson(const ExplainRenderOptions& options = {}) const;

  ExplainStep* FindStep(const std::string& view_name);
};

/// Builds the estimate side of the tree from a chosen plan and a change
/// set (no execution): per-step source/joins after dimension-delta edge
/// gating, wave numbers, and estimated input/delta cardinalities.
ExplainResult BuildExplain(const rel::Catalog& catalog,
                           const VLattice& lattice,
                           const MaintenancePlan& plan,
                           const core::ChangeSet& changes);

/// Copies a propagate run's StepExecution records (parallel to the plan
/// steps the explain was built from) onto the matching steps and marks
/// the result analyzed.
void AttachActuals(const std::vector<StepExecution>& step_execs,
                   ExplainResult* explain);

}  // namespace sdelta::lattice

#endif  // SDELTA_LATTICE_EXPLAIN_H_
