#ifndef SDELTA_CORE_REFRESH_H_
#define SDELTA_CORE_REFRESH_H_

#include "core/summary_table.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/catalog.h"
#include "relational/table.h"

namespace sdelta::core {

/// How the summary-delta is applied to the summary table.
enum class RefreshStrategy {
  /// The paper's Figure 2/7 embedded-SQL form: a cursor over the
  /// summary-delta with a keyed lookup per tuple. O(|sd|) hash probes.
  kCursor,
  /// The "summary-delta join" the paper argues vendors should build
  /// (§7): a sort-merge outer join between the summary-delta and the
  /// summary table that rewrites the table in one pass.
  kMerge,
};

struct RefreshOptions {
  RefreshStrategy strategy = RefreshStrategy::kCursor;
  /// Collect all groups whose MIN/MAX must be recomputed and recompute
  /// them in one pass over the base data (true), or one pass per group
  /// (false).
  bool batch_minmax_recompute = true;
  /// Figure 7 recomputes a group whenever the delta MIN/MAX ties or
  /// beats the stored one — even for pure insertions, because the delta
  /// cannot tell insertions from deletions. Our summary-deltas carry a
  /// per-group deletion marker (core::kTaintedColumn), and §3.1 says
  /// MIN/MAX *are* self-maintainable under insertions; so when a
  /// group's delta is untainted the new extremum is combined in place
  /// with no base scan. Set false for the paper-faithful conservative
  /// behaviour (deltas without the marker are always treated as
  /// potentially containing deletions).
  bool trust_untainted_minmax = true;
  /// Observability sinks (see src/obs/). Null = disabled.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Explicit parent for the refresh.view span. 0 = the caller thread's
  /// innermost open span. The warehouse sets this when it fans refreshes
  /// out across pool workers, whose open-span stacks are empty — the
  /// span still parents on the batch's refresh phase.
  uint64_t parent_span = 0;
};

struct RefreshStats {
  size_t inserted = 0;           ///< new groups added to the summary table
  size_t deleted = 0;            ///< groups removed (COUNT(*) reached 0)
  size_t updated = 0;            ///< groups updated in place
  size_t recomputed_groups = 0;  ///< groups recomputed from base data
  /// Fact rows fed to the recompute join and GroupBy: those whose
  /// fact-side group-by columns match a recomputed group's key (every
  /// fact row when no group column lives on the fact table).
  size_t recompute_scan_rows = 0;
  /// Groups whose recompute was forced by the §3.1 MIN/MAX
  /// non-self-maintainability path — a deletion tied or beat a stored
  /// extremum (Figure 7's recompute test). A strict subset of
  /// recomputed_groups: recomputes of freshly appearing tainted groups
  /// (dimension moves) are excluded.
  size_t minmax_recomputes = 0;
  /// Summary-table key-index operations during this refresh (probes,
  /// inserts and erases), split by whether the key took the packed fast
  /// path. Deterministic across thread counts: each view's refresh is
  /// sequential over a byte-identical delta. Feeds the shared
  /// key.packed_rows / key.fallback_rows counters behind the
  /// key.packed_ratio gauge.
  uint64_t key_packed_ops = 0;
  uint64_t key_fallback_ops = 0;

  RefreshStats& operator+=(const RefreshStats& o) {
    inserted += o.inserted;
    deleted += o.deleted;
    updated += o.updated;
    recomputed_groups += o.recomputed_groups;
    recompute_scan_rows += o.recompute_scan_rows;
    minmax_recomputes += o.minmax_recomputes;
    key_packed_ops += o.key_packed_ops;
    key_fallback_ops += o.key_fallback_ops;
    return *this;
  }

  /// Folds this run's counters into a registry (refresh.inserts,
  /// refresh.deletes, refresh.updates, refresh.recomputed_groups,
  /// refresh.recompute_scan_rows, refresh.minmax_recomputes, plus the
  /// pipeline-wide key.packed_rows / key.fallback_rows).
  void EmitTo(obs::MetricsRegistry& metrics) const;
};

/// Applies the summary-delta to the summary table (paper Figure 7).
///
/// Each summary-delta tuple affects exactly one summary tuple:
///  * no corresponding tuple       -> insert;
///  * COUNT(*) would reach zero    -> delete;
///  * a deleted value ties/beats a group's MIN/MAX (and values remain)
///                                 -> recompute that group from base data;
///  * otherwise                    -> in-place update, with per-expression
///    COUNT(e) deciding when SUM/MIN/MAX become NULL.
///
/// PRECONDITION: the catalog's base tables must already reflect the
/// changes the summary-delta was computed from (the paper's assumption
/// for MIN/MAX recomputation). Throws std::runtime_error on deltas that
/// are inconsistent with the summary table (e.g. a deletion for a group
/// that does not exist).
RefreshStats Refresh(const rel::Catalog& catalog, SummaryTable& view,
                     const rel::Table& summary_delta,
                     const RefreshOptions& options = {});

}  // namespace sdelta::core

#endif  // SDELTA_CORE_REFRESH_H_
