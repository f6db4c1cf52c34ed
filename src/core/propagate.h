#ifndef SDELTA_CORE_PROPAGATE_H_
#define SDELTA_CORE_PROPAGATE_H_

#include <string>
#include <vector>

#include "core/delta.h"
#include "core/self_maintenance.h"
#include "core/view_def.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/operators.h"

namespace sdelta::core {

struct PropagateOptions {
  /// Pre-aggregate fact changes before dimension joins (paper §4.1.3).
  /// Applied only when legal: no dimension deltas, and the predicate and
  /// every aggregate argument reference fact columns only.
  bool preaggregate = false;
  /// Observability sinks (see src/obs/). Null = disabled; every
  /// instrumentation site is behind a single null check.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Thread pool for morsel-driven operators and wave-scheduled lattice
  /// propagation. Null = the exact serial path (results are identical
  /// either way; see operators.h for the determinism contract).
  exec::ThreadPool* pool = nullptr;
  /// Expected number of summary-delta groups (a §5.5 cardinality
  /// estimate), used to pre-size the final GroupBy's hash table so the
  /// propagate fan-out never rehashes mid-batch. 0 = no hint. Capacity
  /// only — results are identical with or without it.
  size_t delta_size_hint = 0;
};

struct PropagateStats {
  size_t prepared_tuples = 0;  ///< rows in the prepare-changes relation
  size_t delta_groups = 0;     ///< rows in the summary-delta table
  bool preaggregated = false;  ///< whether the §4.1.3 path was taken
  /// Operator-level accounting for this computation (rows in/out,
  /// morsels, join build/probe sizes, wall time per operator kind).
  exec::OperatorStats ops;

  /// Folds this run's counters into a registry (propagate.rows_scanned,
  /// propagate.delta_rows, propagate.preaggregated, and per-operator
  /// op.<name>.{calls,rows_in,rows_out,morsels,batches} counters plus
  /// op.<name>.seconds histograms — only for operators invoked at least
  /// once, so untouched operators add no series).
  void EmitTo(obs::MetricsRegistry& metrics) const;
};

/// Name of the hidden trailing summary-delta column: 1 when any
/// deletion-signed change contributed to the group, else 0. A freshly appearing group whose
/// delta is "tainted" by deletions (possible when dimension moves and
/// fact deletions mix in one batch) cannot trust the delta's MIN/MAX and
/// is recomputed from base data by the refresh function.
inline constexpr char kTaintedColumn[] = "__sd_has_deletion";

/// Computes the summary-delta table sd_<view> directly from the change
/// set (paper §4.1.2): aggregate the prepare-changes relation by the
/// view's group-by attributes, rewriting COUNT aggregates to SUM over
/// the signed sources. The result has the summary table's schema plus
/// the trailing kTaintedColumn, where each aggregate column holds the
/// *net change* for its group.
rel::Table ComputeSummaryDelta(const rel::Catalog& catalog,
                               const AugmentedView& view,
                               const ChangeSet& changes,
                               const PropagateOptions& options = {},
                               PropagateStats* stats = nullptr);

/// The delta-style aggregation specs for a view's physical aggregates:
/// COUNT(*)/COUNT/SUM become SUM over the source column of the same
/// name; MIN/MAX stay MIN/MAX. Shared by propagate and the lattice.
std::vector<rel::AggregateSpec> DeltaAggregates(const AugmentedView& view);

/// How a child view derives from a parent view along a lattice edge
/// (paper §5.1). By Theorem 5.1 the same recipe maps the parent's
/// *summary-delta* to the child's summary-delta (the D-lattice) and the
/// parent's *materialized rows* to the child's rows (the V-lattice) —
/// only the input table differs.
struct DerivationRecipe {
  std::string child_name;
  std::string parent_name;
  /// Dimension tables joined into the parent relation (the edge
  /// annotations of Figure 8). fact_column here names the parent column
  /// holding the foreign key.
  std::vector<DimensionJoin> joins;
  /// Child group-by columns: inputs resolved against the joined parent
  /// schema, outputs named as in the child schema.
  std::vector<rel::GroupByColumn> group_by;
  /// Child aggregates rewritten over the parent (§5.1): COUNT -> SUM of
  /// parent counts, SUM(A) over a parent group-by A -> SUM(A * count*),
  /// MIN/MAX -> MIN/MAX of parent MIN/MAX or of the group-by attribute.
  std::vector<rel::AggregateSpec> aggregates;

  std::string ToString() const;
};

/// Applies a derivation recipe: joins the recipe's dimension tables into
/// `parent_rows`, then groups and aggregates. Returns a relation with the
/// child's summary schema. `size_hint`, when nonzero, pre-sizes the
/// final GroupBy (the lattice planner passes its group estimate).
rel::Table ApplyDerivation(const rel::Catalog& catalog,
                           const DerivationRecipe& recipe,
                           const rel::Table& parent_rows,
                           exec::ThreadPool* pool = nullptr,
                           exec::OperatorStats* stats = nullptr,
                           size_t size_hint = 0);

}  // namespace sdelta::core

#endif  // SDELTA_CORE_PROPAGATE_H_
