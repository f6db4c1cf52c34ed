#ifndef SDELTA_CORE_SUMMARY_TABLE_H_
#define SDELTA_CORE_SUMMARY_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
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
///
/// Storage is copy-on-write (DESIGN.md §9.1): rows live in fixed-size
/// pages and the group index in one block, each held by shared_ptr and
/// stamped with the share generation it was created in. Share() hands
/// out an immutable table over the same pages and index and starts a new
/// generation; a later write clones the page (or the index) it touches
/// when that page was stamped before the current generation. So a
/// published share never changes, and publishing costs O(pages) plus
/// the pages refresh dirties afterwards, not a copy of every row.
class SummaryTable {
 public:
  /// Rows per storage page: the unit Share() shares and a write after
  /// it copies (page-size sweep in EXPERIMENTS.md).
  static constexpr size_t kPageRows = 64;
  /// Rows per scan segment, a whole number of pages: the unit whose
  /// columnar form Share() rebuilds when any of its pages changed.
  static constexpr size_t kSegmentRows = 16384;

  /// Creates an empty summary table for the given definition.
  SummaryTable(AugmentedView def, const rel::Catalog& catalog);

  SummaryTable& operator=(const SummaryTable&) = delete;
  SummaryTable(SummaryTable&&) = default;
  SummaryTable& operator=(SummaryTable&&) = default;

  const AugmentedView& def() const { return def_; }
  const std::string& name() const { return def_.physical.name; }
  const rel::Schema& schema() const { return schema_; }
  size_t NumRows() const { return num_rows_; }
  size_t num_group_columns() const { return num_group_columns_; }

  /// The row at physical position `pos` (< NumRows()). Positions are
  /// stable until the next Insert/Erase/LoadFrom.
  const rel::Row& RowAt(size_t pos) const {
    return pages_[pos / kPageRows]->rows[pos % kPageRows];
  }

  /// Discards current contents and evaluates the physical view from the
  /// catalog's base tables (initial load / rematerialization).
  void MaterializeFrom(const rel::Catalog& catalog);

  /// Replaces current contents with the given physical relation (must
  /// have this table's schema arity; keys must be unique).
  void LoadFrom(const rel::Table& physical_rows);

  /// The group key of a physical row (its first num_group_columns()
  /// values).
  rel::GroupKey KeyOf(const rel::Row& row) const;

  /// The physical position of the group's row, if present.
  std::optional<size_t> Locate(const rel::GroupKey& key) const;

  /// Keyed access. Pointers are invalidated by any mutation.
  const rel::Row* Find(const rel::GroupKey& key) const;
  rel::Row* FindMutable(const rel::GroupKey& key);

  /// The row at `pos`, writable: clones its page first when the page is
  /// shared with a published Share().
  rel::Row& MutableRowAt(size_t pos);

  /// Inserts a new group row; the key must not be present (throws
  /// std::logic_error otherwise — refresh guarantees this).
  void Insert(rel::Row row);

  /// Removes the group; returns false if absent.
  bool Erase(const rel::GroupKey& key);

  /// An immutable table over this table's current pages, index and
  /// codec, for publishing. Later writes here copy what they touch, so
  /// the share never changes. Segments holding a page written since the
  /// last share get their columnar scan form rebuilt here. Resets
  /// rows_copied().
  std::shared_ptr<const SummaryTable> Share();

  /// Rows copied by copy-on-write page clones since the last Share() —
  /// a pure function of the writes made, not of when shares are
  /// dropped.
  uint64_t rows_copied() const { return rows_copied_; }

  /// The physical rows as columnar tables in row order, one per scan
  /// segment (at most kSegmentRows rows each), for readers
  /// that consume segments without concatenating them. A share returns
  /// the segments Share() built; a segment written since then is
  /// rebuilt from its rows.
  std::vector<std::shared_ptr<const rel::Table>> ColumnarSegments() const;

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
  const rel::ProbeStats& probe_stats() const { return probes_; }

 private:
  struct Page {
    uint64_t generation = 0;
    std::vector<rel::Row> rows;  // at most kPageRows
  };
  static constexpr size_t kSegmentPages = kSegmentRows / kPageRows;
  static_assert(kSegmentRows % kPageRows == 0);

  // The rows of pages [i * kSegmentPages, (i + 1) * kSegmentPages) in
  // columnar form, so scans append column runs instead of boxed rows.
  // Valid while every page in range is stamped <= `generation` and the
  // range still holds the same number of rows.
  struct Segment {
    uint64_t generation = 0;
    std::shared_ptr<const rel::Table> columns;
  };
  // Every group lives in exactly one map: packed when its key encodes,
  // boxed otherwise (a key that escapes the codec never Value-equals one
  // that packs, so lookups probe a single map).
  struct Index {
    uint64_t generation = 0;
    rel::FlatHashMap<rel::PackedKey, size_t, rel::PackedKeyHash> packed;
    std::unordered_map<rel::GroupKey, size_t, rel::GroupKeyHash> boxed;
  };

  // Share() only: the copy holds the same pages and index.
  SummaryTable(const SummaryTable&) = default;

  Page& MutablePage(size_t page);
  Index& MutableIndex();
  /// Whether segment `s` still matches its pages (see Segment).
  bool SegmentValid(size_t s) const;
  /// Segment `s` built afresh from its pages' rows.
  std::shared_ptr<const rel::Table> BuildSegment(size_t s) const;

  AugmentedView def_;
  rel::Schema schema_;
  size_t num_group_columns_ = 0;
  std::vector<size_t> group_idx_;  // 0..num_group_columns_-1 (EncodeRow arg)
  rel::PackedKeyCodec codec_;
  std::vector<std::shared_ptr<Page>> pages_;
  size_t num_rows_ = 0;
  std::shared_ptr<Index> index_;
  std::vector<Segment> segments_;
  // Bumped by Share(): pages and index stamped earlier may be held by a
  // share and are cloned before any write.
  uint64_t generation_ = 0;
  uint64_t rows_copied_ = 0;
  // Mutated on const Find: accounting only, kept per table object (not
  // in the shared index) so readers of a share never race the writer.
  // Refresh probes one view from one thread (parallel refresh is one
  // task per view).
  mutable uint64_t packed_ops_ = 0;
  mutable uint64_t fallback_ops_ = 0;
  mutable rel::ProbeStats probes_;
};

/// Canonical row order for byte-comparisons that must not depend on
/// physical row placement: rows sorted by every column left-to-right
/// under Value::Compare. Summary schemas lead with the group-by columns
/// and keys are unique, so the order is total and the sorted CSV of a
/// summary table is a pure function of its *contents* — the byte-compare
/// anchor for WAL replay convergence (tests/service/log_shipping_test.cc),
/// where insertion order legitimately differs.
rel::Table CanonicalizeRows(const rel::Table& physical_rows);

}  // namespace sdelta::core

#endif  // SDELTA_CORE_SUMMARY_TABLE_H_
