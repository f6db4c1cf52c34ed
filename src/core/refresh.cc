#include "core/refresh.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/propagate.h"
#include "core/view_def.h"
#include "relational/flat_hash.h"
#include "relational/group_key.h"
#include "relational/operators.h"
#include "relational/packed_key.h"

namespace sdelta::core {

using rel::GroupKey;
using rel::Row;
using rel::Table;
using rel::Value;

namespace {

/// Column bookkeeping shared by both refresh strategies.
struct AggregateLayout {
  rel::AggregateKind kind;
  size_t index;            ///< column index in the physical row
  size_t companion_index;  ///< index of the COUNT(e) companion column
};

struct RefreshLayout {
  size_t num_groups;
  size_t arity;  ///< summary-table columns (delta rows may carry extras)
  size_t count_star_index;
  /// Index of the hidden kTaintedColumn in delta rows, or npos.
  size_t tainted_index = static_cast<size_t>(-1);
  bool has_minmax = false;
  std::vector<AggregateLayout> aggregates;

  /// Whether the delta group may contain deletion contributions. Deltas
  /// without the marker column (hand-built or legacy) are conservatively
  /// treated as tainted.
  bool Tainted(const Row& delta_row) const {
    if (tainted_index == static_cast<size_t>(-1)) return true;
    const Value& v = delta_row[tainted_index];
    return !v.is_null() && v.as_int64() != 0;
  }
};

RefreshLayout MakeLayout(const SummaryTable& view,
                         const rel::Table& summary_delta) {
  RefreshLayout layout;
  const AugmentedView& def = view.def();
  layout.num_groups = view.num_group_columns();
  layout.arity = view.schema().NumColumns();
  layout.count_star_index = view.schema().Resolve(def.count_star_column);
  if (auto idx = summary_delta.schema().IndexOf(kTaintedColumn)) {
    layout.tainted_index = *idx;
  }
  for (const rel::AggregateSpec& a : def.physical.aggregates) {
    AggregateLayout al;
    al.kind = a.kind;
    al.index = view.schema().Resolve(a.output_name);
    al.companion_index =
        view.schema().Resolve(def.companion_count.at(a.output_name));
    layout.has_minmax |= (a.kind == rel::AggregateKind::kMin ||
                          a.kind == rel::AggregateKind::kMax);
    layout.aggregates.push_back(al);
  }
  return layout;
}

int64_t AsCount(const Value& v) {
  if (v.is_null()) return 0;
  return v.as_int64();
}

Value AddIgnoringNull(const Value& a, const Value& b) {
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  return Value::Add(a, b);
}

Value MinIgnoringNull(const Value& a, const Value& b) {
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  return Value::Compare(a, b) <= 0 ? a : b;
}

Value MaxIgnoringNull(const Value& a, const Value& b) {
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  return Value::Compare(a, b) >= 0 ? a : b;
}

/// Figure 7's recompute test for one summary tuple against one delta
/// tuple: does some MIN/MAX possibly need recomputation from base data?
bool NeedsRecompute(const RefreshLayout& layout, const Row& old_row,
                    const Row& delta_row) {
  for (const AggregateLayout& al : layout.aggregates) {
    if (al.kind != rel::AggregateKind::kMin &&
        al.kind != rel::AggregateKind::kMax) {
      continue;
    }
    const Value& old_m = old_row[al.index];
    const Value& delta_m = delta_row[al.index];
    if (old_m.is_null() || delta_m.is_null()) continue;
    const int64_t remaining = AsCount(old_row[al.companion_index]) +
                              AsCount(delta_row[al.companion_index]);
    if (remaining <= 0) continue;  // all values gone -> NULL, no recompute
    const int cmp = Value::Compare(delta_m, old_m);
    if (al.kind == rel::AggregateKind::kMin ? cmp <= 0 : cmp >= 0) {
      return true;
    }
  }
  return false;
}

/// Figure 7's in-place update: combines one summary row with one delta
/// row (no MIN/MAX recompute needed). Writes the result into `old_row`.
void UpdateInPlace(const RefreshLayout& layout, Row& old_row,
                   const Row& delta_row) {
  // Read all companion totals before any column is overwritten.
  std::vector<int64_t> companion_total(layout.aggregates.size());
  for (size_t i = 0; i < layout.aggregates.size(); ++i) {
    const AggregateLayout& al = layout.aggregates[i];
    companion_total[i] = AsCount(old_row[al.companion_index]) +
                         AsCount(delta_row[al.companion_index]);
  }
  std::vector<Value> new_values(layout.aggregates.size());
  for (size_t i = 0; i < layout.aggregates.size(); ++i) {
    const AggregateLayout& al = layout.aggregates[i];
    const Value& old_v = old_row[al.index];
    const Value& delta_v = delta_row[al.index];
    const bool is_count = al.kind == rel::AggregateKind::kCount ||
                          al.kind == rel::AggregateKind::kCountStar;
    if (companion_total[i] == 0) {
      // No values remain for this expression: COUNT columns read 0,
      // everything else reads NULL.
      new_values[i] = is_count ? Value::Int64(0) : Value::Null();
      continue;
    }
    switch (al.kind) {
      case rel::AggregateKind::kCountStar:
      case rel::AggregateKind::kCount:
      case rel::AggregateKind::kSum:
        new_values[i] = AddIgnoringNull(old_v, delta_v);
        break;
      case rel::AggregateKind::kMin:
        new_values[i] = MinIgnoringNull(old_v, delta_v);
        break;
      case rel::AggregateKind::kMax:
        new_values[i] = MaxIgnoringNull(old_v, delta_v);
        break;
      case rel::AggregateKind::kAvg:
        throw std::logic_error("AVG in physical summary table");
    }
  }
  for (size_t i = 0; i < layout.aggregates.size(); ++i) {
    old_row[layout.aggregates[i].index] = std::move(new_values[i]);
  }
}

/// The fact rows that can feed a group in `keys`: those whose group-by
/// columns on the fact table match the fact-side part of some key. Keys
/// and rows encode through one codec over the fact columns, whose NULL
/// sentinel makes NULL match NULL as GROUP BY does (a HashJoin semi-join
/// would drop NULL keys); values that escape the packed layout go
/// through a boxed set. nullopt when no group column is on the fact
/// table: every row may then contribute.
std::optional<Table> FactRowsForKeys(const rel::Catalog& catalog,
                                     const ViewDef& def,
                                     const std::vector<GroupKey>& keys) {
  const Table& fact = catalog.GetTable(def.fact_table);
  // The joined schema starts with the fact columns, in fact order.
  const rel::Schema joined = JoinedSchema(catalog, def);
  std::vector<size_t> positions;  // in the group key
  std::vector<size_t> columns;    // in the fact table
  for (size_t i = 0; i < def.group_by.size(); ++i) {
    const size_t idx = joined.Resolve(def.group_by[i]);
    if (idx < fact.schema().NumColumns()) {
      positions.push_back(i);
      columns.push_back(idx);
    }
  }
  if (columns.empty()) return std::nullopt;

  rel::DictionaryArena arena;
  const rel::PackedKeyCodec codec =
      rel::PackedKeyCodec::ForTableColumns(fact, columns, &arena);
  rel::FlatHashMap<rel::PackedKey, bool, rel::PackedKeyHash> packed;
  std::unordered_set<GroupKey, rel::GroupKeyHash> boxed;
  packed.Reserve(keys.size());
  GroupKey part;
  for (const GroupKey& k : keys) {
    part.clear();
    for (size_t p : positions) part.push_back(k[p]);
    std::optional<rel::PackedKey> pk;
    if (codec.packable()) pk = codec.EncodeKey(part);
    if (pk.has_value()) {
      packed.FindOrInsert(*pk, true);
    } else {
      boxed.insert(part);
    }
  }

  using Encode = rel::PackedKeyCodec::ColumnarEncode;
  std::vector<size_t> hits;
  for (size_t r = 0; r < fact.NumRows(); ++r) {
    rel::PackedKey pk;
    const Encode encoded =
        codec.packable()
            ? codec.EncodeColumns(fact, columns, r,
                                  rel::PackedKeyCodec::StringMode::kLookupOnly,
                                  &pk)
            : Encode::kEscaped;
    bool hit = false;
    if (encoded == Encode::kPacked) {
      hit = packed.Find(pk) != nullptr;
    } else if (encoded == Encode::kEscaped) {
      part.clear();
      for (size_t c : columns) part.push_back(fact.ValueAt(r, c));
      hit = boxed.count(part) > 0;
    }  // kUnknownString: no key holds that string
    if (hit) hits.push_back(r);
  }
  Table out(fact.schema(), fact.name());
  out.AppendGather(fact, hits);
  return out;
}

/// Recomputes every group in `keys` (assumed distinct — summary-delta
/// keys are grouped) from the (already updated) base data and writes the
/// fresh rows into the summary table, in `keys` order. Only the fact
/// rows matching the keys run through the view's own HashJoin -> Select
/// -> GroupBy pipeline, the one EvaluateView uses. Traced as
/// refresh.recompute_scan (rows = fact rows fed to the join) even when
/// `keys` is empty, so every refresh.view has the same span shape.
void BatchRecompute(const rel::Catalog& catalog, SummaryTable& view,
                    const std::vector<GroupKey>& keys, RefreshStats& stats,
                    obs::Tracer* tracer) {
  obs::TraceSpan span(tracer, "refresh.recompute_scan");
  if (keys.empty()) {
    span.Attr("rows", uint64_t{0});
    return;
  }
  const ViewDef& def = view.def().physical;
  const std::optional<Table> survivors = FactRowsForKeys(catalog, def, keys);
  const Table& input = survivors.has_value()
                           ? *survivors
                           : catalog.GetTable(def.fact_table);
  stats.recompute_scan_rows += input.NumRows();
  span.Attr("rows", static_cast<uint64_t>(input.NumRows()));
  const Table fresh =
      rel::GroupBy(JoinedRelation(catalog, def, input),
                   rel::GroupCols(def.group_by), def.aggregates);

  std::unordered_map<GroupKey, size_t, rel::GroupKeyHash> fresh_rows;
  for (size_t r = 0; r < fresh.NumRows(); ++r) {
    GroupKey key;
    for (size_t g = 0; g < def.group_by.size(); ++g) {
      key.push_back(fresh.ValueAt(r, g));
    }
    fresh_rows.emplace(std::move(key), r);
  }
  const size_t count_star = view.schema().Resolve(view.def().count_star_column);
  for (const GroupKey& key : keys) {
    auto it = fresh_rows.find(key);
    if (it == fresh_rows.end() ||
        AsCount(fresh.ValueAt(it->second, count_star)) <= 0) {
      // The group vanished from base data; a consistent delta would have
      // deleted it via COUNT(*), so treat as inconsistency.
      throw std::runtime_error(
          "refresh: recomputed group has no base rows in view " +
          view.name());
    }
    Row* row = view.FindMutable(key);
    if (row == nullptr) {
      view.Insert(fresh.RowAt(it->second));
    } else {
      *row = fresh.RowAt(it->second);
    }
    ++stats.recomputed_groups;
  }
}

RefreshStats RefreshCursor(const rel::Catalog& catalog, SummaryTable& view,
                           const Table& summary_delta,
                           const RefreshOptions& options) {
  RefreshStats stats;
  const RefreshLayout layout = MakeLayout(view, summary_delta);
  // Delta keys are grouped (distinct), so a plain vector is the
  // recompute set — in delta order, which keeps the batch-recompute
  // writeback deterministic.
  std::vector<GroupKey> recompute;
  GroupKey key;  // scratch, reused across delta rows
  // The cursor loop; closed before the batched recompute so that scan is
  // its sibling under refresh.view. Per-group recomputes nest inside it.
  std::optional<obs::TraceSpan> apply(std::in_place, options.tracer,
                                      "refresh.apply");

  for (size_t ti = 0; ti < summary_delta.NumRows(); ++ti) {
    const Row t = summary_delta.RowAt(ti);
    key.assign(t.begin(), t.begin() + layout.num_groups);
    // Read through the position; only the update-in-place path writes
    // (and so copies the row's page if an epoch shares it).
    const std::optional<size_t> pos = view.Locate(key);
    if (!pos.has_value()) {
      const int64_t count = AsCount(t[layout.count_star_index]);
      if (count < 0) {
        throw std::runtime_error(
            "refresh: delta deletes from non-existent group in view " +
            view.name());
      }
      if (count == 0) {
        // A net no-op for a group that never existed (e.g. a fact row
        // inserted while its dimension row moved away in the same
        // batch): every aggregate delta cancels; nothing to apply.
        continue;
      }
      if (layout.has_minmax && layout.Tainted(t)) {
        // A freshly appearing group whose delta mixes insertions and
        // deletions (dimension moves): the delta MIN/MAX may reflect
        // rows that did not survive — recompute from base data.
        recompute.push_back(std::move(key));
        continue;
      }
      view.Insert(Row(t.begin(), t.begin() + layout.arity));
      ++stats.inserted;
      continue;
    }
    const Row& old_row = view.RowAt(*pos);
    const int64_t count_after = AsCount(old_row[layout.count_star_index]) +
                                AsCount(t[layout.count_star_index]);
    if (count_after < 0) {
      throw std::runtime_error(
          "refresh: COUNT(*) would go negative in view " + view.name());
    }
    if (count_after == 0) {
      view.Erase(key);
      ++stats.deleted;
      continue;
    }
    const bool may_have_deletions =
        !options.trust_untainted_minmax || layout.Tainted(t);
    if (may_have_deletions && NeedsRecompute(layout, old_row, t)) {
      ++stats.minmax_recomputes;
      if (options.batch_minmax_recompute) {
        recompute.push_back(std::move(key));
      } else {
        BatchRecompute(catalog, view, {std::move(key)}, stats,
                       options.tracer);
      }
      continue;
    }
    UpdateInPlace(layout, view.MutableRowAt(*pos), t);
    ++stats.updated;
  }

  apply.reset();
  BatchRecompute(catalog, view, recompute, stats, options.tracer);
  return stats;
}

RefreshStats RefreshMerge(const rel::Catalog& catalog, SummaryTable& view,
                          const Table& summary_delta,
                          const RefreshOptions& options) {
  RefreshStats stats;
  const RefreshLayout layout = MakeLayout(view, summary_delta);
  // The merge pass up to the rebuilt table; the recompute scan follows
  // as its sibling under refresh.view.
  std::optional<obs::TraceSpan> apply(std::in_place, options.tracer,
                                      "refresh.apply");

  auto key_less = [&](const Row& a, const Row& b) {
    for (size_t i = 0; i < layout.num_groups; ++i) {
      const int c = Value::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  };

  std::vector<Row> old_rows;
  old_rows.reserve(view.NumRows());
  for (size_t r = 0; r < view.NumRows(); ++r) old_rows.push_back(view.RowAt(r));
  std::vector<Row> delta_rows = summary_delta.MaterializeRows();
  std::sort(old_rows.begin(), old_rows.end(), key_less);
  std::sort(delta_rows.begin(), delta_rows.end(), key_less);

  std::vector<Row> merged;
  merged.reserve(old_rows.size() + delta_rows.size());
  std::vector<GroupKey> recompute_keys;

  size_t i = 0;
  size_t j = 0;
  while (i < old_rows.size() || j < delta_rows.size()) {
    int order;
    if (i == old_rows.size()) {
      order = 1;
    } else if (j == delta_rows.size()) {
      order = -1;
    } else {
      order = key_less(old_rows[i], delta_rows[j])
                  ? -1
                  : (key_less(delta_rows[j], old_rows[i]) ? 1 : 0);
    }
    if (order < 0) {
      merged.push_back(std::move(old_rows[i++]));  // untouched group
    } else if (order > 0) {
      Row& t = delta_rows[j++];
      const int64_t count = AsCount(t[layout.count_star_index]);
      if (count < 0) {
        throw std::runtime_error(
            "refresh: delta deletes from non-existent group in view " +
            view.name());
      }
      if (count == 0) continue;  // net no-op for a never-existing group
      if (layout.has_minmax && layout.Tainted(t)) {
        recompute_keys.emplace_back(t.begin(),
                                    t.begin() + layout.num_groups);
        continue;  // recomputed (and inserted) from base data below
      }
      merged.push_back(Row(t.begin(), t.begin() + layout.arity));
      ++stats.inserted;
    } else {
      Row& old_row = old_rows[i++];
      const Row& t = delta_rows[j++];
      const int64_t count_after =
          AsCount(old_row[layout.count_star_index]) +
          AsCount(t[layout.count_star_index]);
      if (count_after < 0) {
        throw std::runtime_error(
            "refresh: COUNT(*) would go negative in view " + view.name());
      }
      if (count_after == 0) {
        ++stats.deleted;
        continue;  // drop the group
      }
      const bool may_have_deletions =
          !options.trust_untainted_minmax || layout.Tainted(t);
      if (may_have_deletions && NeedsRecompute(layout, old_row, t)) {
        ++stats.minmax_recomputes;
        recompute_keys.emplace_back(old_row.begin(),
                                    old_row.begin() + layout.num_groups);
        merged.push_back(std::move(old_row));  // placeholder; fixed below
        continue;
      }
      UpdateInPlace(layout, old_row, t);
      merged.push_back(std::move(old_row));
      ++stats.updated;
    }
  }

  Table rebuilt(view.schema(), view.name());
  rebuilt.Reserve(merged.size());
  for (Row& r : merged) rebuilt.Insert(std::move(r));
  view.LoadFrom(rebuilt);
  apply.reset();

  // Merge always batches MIN/MAX recomputation: the table was already
  // rewritten wholesale, so per-group scans would have no benefit.
  BatchRecompute(catalog, view, recompute_keys, stats, options.tracer);
  return stats;
}

}  // namespace

void RefreshStats::EmitTo(obs::MetricsRegistry& metrics) const {
  metrics.Add("refresh.inserts", inserted);
  metrics.Add("refresh.deletes", deleted);
  metrics.Add("refresh.updates", updated);
  metrics.Add("refresh.recomputed_groups", recomputed_groups);
  metrics.Add("refresh.recompute_scan_rows", recompute_scan_rows);
  metrics.Add("refresh.minmax_recomputes", minmax_recomputes);
  // Shared with propagate's per-operator key tallies, so the warehouse
  // can derive one batch-wide key.packed_ratio gauge.
  metrics.Add("key.packed_rows", key_packed_ops);
  metrics.Add("key.fallback_rows", key_fallback_ops);
}

RefreshStats Refresh(const rel::Catalog& catalog, SummaryTable& view,
                     const rel::Table& summary_delta,
                     const RefreshOptions& options) {
  const size_t arity = view.schema().NumColumns();
  const size_t delta_arity = summary_delta.schema().NumColumns();
  const bool has_taint =
      summary_delta.schema().IndexOf(kTaintedColumn).has_value();
  if (delta_arity != arity && !(has_taint && delta_arity == arity + 1)) {
    throw std::invalid_argument(
        "summary-delta arity does not match summary table " + view.name());
  }
  const uint64_t parent =
      options.parent_span != 0
          ? options.parent_span
          : (options.tracer != nullptr ? options.tracer->CurrentSpan() : 0);
  obs::TraceSpan span(options.tracer, "refresh.view", parent);
  span.Attr("view", view.name());
  span.Attr("strategy",
            options.strategy == RefreshStrategy::kCursor ? "cursor" : "merge");
  span.Attr("delta_rows", static_cast<uint64_t>(summary_delta.NumRows()));
  const uint64_t packed_before = view.packed_key_ops();
  const uint64_t fallback_before = view.fallback_key_ops();
  const rel::ProbeStats probes_before = view.probe_stats();
  RefreshStats stats;
  switch (options.strategy) {
    case RefreshStrategy::kCursor:
      stats = RefreshCursor(catalog, view, summary_delta, options);
      break;
    case RefreshStrategy::kMerge:
      stats = RefreshMerge(catalog, view, summary_delta, options);
      break;
  }
  // Fold this refresh's summary-table index traffic into the stats.
  stats.key_packed_ops += view.packed_key_ops() - packed_before;
  stats.key_fallback_ops += view.fallback_key_ops() - fallback_before;
  if (options.metrics != nullptr) {
    const rel::ProbeStats probes_after = view.probe_stats();
    const uint64_t ops = probes_after.ops - probes_before.ops;
    if (ops > 0) {
      const uint64_t steps = probes_after.steps - probes_before.steps;
      options.metrics->Observe(
          "hash.probe_len",
          static_cast<double>(steps) / static_cast<double>(ops));
    }
  }
  span.Attr("updated", static_cast<uint64_t>(stats.updated));
  span.Attr("inserted", static_cast<uint64_t>(stats.inserted));
  span.Attr("deleted", static_cast<uint64_t>(stats.deleted));
  span.Attr("minmax_recomputes",
            static_cast<uint64_t>(stats.minmax_recomputes));
  if (options.metrics != nullptr) stats.EmitTo(*options.metrics);
  return stats;
}

}  // namespace sdelta::core
