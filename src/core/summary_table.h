#ifndef SDELTA_CORE_SUMMARY_TABLE_H_
#define SDELTA_CORE_SUMMARY_TABLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/self_maintenance.h"
#include "core/view_def.h"
#include "relational/flat_hash.h"
#include "relational/group_key.h"
#include "relational/packed_key.h"

namespace sdelta::core {

/// A materialized summary table: the physical rows of an AugmentedView
/// with a hash index on the group-by columns (the paper's composite
/// index), so the refresh function's per-tuple lookup is O(1).
///
/// Row layout matches ViewOutputSchema(physical): group-by values first,
/// then one column per physical aggregate.
class SummaryTable {
 public:
  /// Creates an empty summary table for the given definition.
  SummaryTable(AugmentedView def, const rel::Catalog& catalog);

  SummaryTable(const SummaryTable&) = delete;
  SummaryTable& operator=(const SummaryTable&) = delete;
  SummaryTable(SummaryTable&&) = default;
  SummaryTable& operator=(SummaryTable&&) = default;

  const AugmentedView& def() const { return def_; }
  const std::string& name() const { return def_.physical.name; }
  const rel::Schema& schema() const { return schema_; }
  size_t NumRows() const { return rows_.size(); }
  size_t num_group_columns() const { return num_group_columns_; }
  const std::vector<rel::Row>& rows() const { return rows_; }

  /// Discards current contents and evaluates the physical view from the
  /// catalog's base tables (initial load / rematerialization).
  void MaterializeFrom(const rel::Catalog& catalog);

  /// Replaces current contents with the given physical relation (must
  /// have this table's schema arity; keys must be unique).
  void LoadFrom(const rel::Table& physical_rows);

  /// The group key of a physical row (its first num_group_columns()
  /// values).
  rel::GroupKey KeyOf(const rel::Row& row) const;

  /// Keyed access. Pointers are invalidated by any mutation.
  const rel::Row* Find(const rel::GroupKey& key) const;
  rel::Row* FindMutable(const rel::GroupKey& key);

  /// Inserts a new group row; the key must not be present (throws
  /// std::logic_error otherwise — refresh guarantees this).
  void Insert(rel::Row row);

  /// Removes the group; returns false if absent.
  bool Erase(const rel::GroupKey& key);

  /// Copies the physical rows out as a plain Table (tests, examples).
  rel::Table ToTable() const;

  /// ToTable() in canonical row order (see CanonicalizeRows).
  rel::Table ToCanonicalTable() const;

  /// The user-visible (logical) rows, with AVG reconstructed.
  rel::Table ToLogicalTable() const;

  /// The key codec built over this view's group-by columns. String
  /// columns draw their dictionaries from the catalog pool by column
  /// name, so codes agree across batches (and across views grouping on
  /// the same column).
  const rel::PackedKeyCodec& codec() const { return codec_; }
  bool keys_packed() const { return codec_.packable(); }

  /// Index-operation tallies (Find/Insert/Erase), split by path. Feeds
  /// the key.packed_ratio metric and the shell's `dicts` command.
  uint64_t packed_key_ops() const { return packed_ops_; }
  uint64_t fallback_key_ops() const { return fallback_ops_; }
  const rel::ProbeStats& probe_stats() const {
    return packed_index_.probe_stats();
  }

 private:
  AugmentedView def_;
  rel::Schema schema_;
  size_t num_group_columns_ = 0;
  std::vector<size_t> group_idx_;  // 0..num_group_columns_-1 (EncodeRow arg)
  rel::PackedKeyCodec codec_;
  std::vector<rel::Row> rows_;
  // Every group lives in exactly one index: packed_index_ when its key
  // encodes, boxed_index_ otherwise (a key that escapes the codec never
  // Value-equals one that packs, so lookups probe a single index).
  rel::FlatHashMap<rel::PackedKey, size_t, rel::PackedKeyHash> packed_index_;
  std::unordered_map<rel::GroupKey, size_t, rel::GroupKeyHash> boxed_index_;
  // Mutated on const Find: accounting only. Refresh probes one view from
  // one thread (parallel refresh is one task per view), so no races.
  mutable uint64_t packed_ops_ = 0;
  mutable uint64_t fallback_ops_ = 0;
};

/// Canonical row order for byte-comparisons that must not depend on
/// physical row placement: rows sorted by every column left-to-right
/// under Value::Compare. Summary schemas lead with the group-by columns
/// and keys are unique, so the order is total and the sorted CSV of a
/// summary table is a pure function of its *contents* — the byte-compare
/// anchor for replica convergence (src/replica/), where insertion order
/// legitimately differs.
rel::Table CanonicalizeRows(const rel::Table& physical_rows);

}  // namespace sdelta::core

#endif  // SDELTA_CORE_SUMMARY_TABLE_H_
