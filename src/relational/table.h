#ifndef SDELTA_RELATIONAL_TABLE_H_
#define SDELTA_RELATIONAL_TABLE_H_

#include <string>
#include <vector>

#include "relational/column.h"
#include "relational/flat_hash.h"
#include "relational/group_key.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace sdelta::rel {

/// An in-memory relation with bag (multiset) semantics, stored
/// column-wise: one typed ColumnVector per schema column (int64 /
/// double / dictionary-coded string vectors plus a per-column null
/// bitmap; see column.h for the boxed escape hatch). Hot operators read
/// and write columns directly; cold paths (CSV, shell printing, tests)
/// materialize row views via RowAt / MaterializeRows.
///
/// Deletion is O(1) swap-with-back across all columns. An optional
/// whole-row hash index (EnableRowIndex) accelerates EraseOneEqual from
/// O(n) to expected O(1); the warehouse enables it on fact tables so
/// that applying a deferred deletion set of d rows against an n-row
/// fact table costs O(d) instead of O(d*n). The index hashes rows
/// straight out of the columns (HashRowAt), never materializing them.
///
/// Table deliberately has no notion of keys or constraints — duplicates
/// are allowed, exactly as the paper's pos table allows duplicate sales.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema, std::string name = "");

  /// Builds a table directly from pre-assembled columns (the vectorized
  /// operators construct outputs this way). Every column must hold
  /// exactly `num_rows` values and the column count must match the
  /// schema; violations throw std::invalid_argument.
  static Table FromColumns(Schema schema, std::string name,
                           std::vector<ColumnVector> columns, size_t num_rows);

  const std::string& name() const { return name_; }
  /// Renames the table in place (replaces the old take-rows-and-
  /// reinsert idiom used to retitle an operator result).
  void SetName(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }
  size_t NumRows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Materializes row i as a tuple of Values (string columns copy).
  Row RowAt(size_t i) const;

  /// Materializes one cell.
  Value ValueAt(size_t row, size_t col) const { return columns_[col].At(row); }

  /// Materializes every row — test/debug convenience, O(rows * cols).
  std::vector<Row> MaterializeRows() const;

  /// Direct read access to a column's storage for vectorized loops.
  const ColumnVector& column_data(size_t i) const { return columns_[i]; }

  /// Reserves storage for n rows in every column vector — and in the
  /// row index when enabled — so bulk loads neither reallocate columns
  /// nor rehash the index repeatedly.
  void Reserve(size_t n) {
    for (ColumnVector& c : columns_) c.Reserve(n);
    if (row_index_enabled_) row_index_.Reserve(n);
  }

  /// Appends a row. The row must have schema().NumColumns() values; this
  /// is checked (cheaply) and violations throw std::invalid_argument.
  void Insert(const Row& row);

  /// Appends all of src's rows column-wise (bulk vector copies when the
  /// storage modes line up). Arity must match; column *types* need not —
  /// mismatched values demote the destination column, exactly as if the
  /// rows had been Inserted one by one.
  void AppendColumnsFrom(const Table& src);

  /// Move flavor: steals src's column storage wholesale when this table
  /// is empty and the schemas' types match; falls back to a copy.
  void AppendColumnsFrom(Table&& src);

  /// Appends src's rows at positions `rows`, in order (columnar gather).
  void AppendGather(const Table& src, const std::vector<size_t>& rows);

  /// Removes one row equal to `target` (bag semantics: if the row occurs
  /// k times, one occurrence is removed). Returns true if a row was
  /// removed. Expected O(1) with the row index enabled, O(n) otherwise.
  bool EraseOneEqual(const Row& target);

  /// Removes the row at position i (swap-with-back).
  void EraseAt(size_t i);

  /// Removes all rows (keeps schema and index mode).
  void Clear();

  /// Hash of row i, equal to HashRow(RowAt(i)) without materializing.
  size_t HashRowAt(size_t i) const;

  /// RowAt(i) == target under Value equality, without materializing.
  bool RowEqualsAt(size_t i, const Row& target) const;

  /// Builds and maintains a whole-row hash index. Idempotent.
  void EnableRowIndex();
  bool row_index_enabled() const { return row_index_enabled_; }

  /// Deep equality as bags: same schema and same multiset of rows.
  /// O(n) with hashing. Used heavily by tests.
  static bool BagEquals(const Table& a, const Table& b);

  /// Heap bytes held by the column storage (excludes shared
  /// dictionaries; feeds the table.bytes gauge and the shell's
  /// `tables` layout breakdown).
  size_t ApproxBytes() const;

  /// Renders up to `max_rows` rows for debugging/examples.
  std::string ToString(size_t max_rows = 20) const;

 private:
  void IndexInsert(size_t pos);
  void IndexErase(size_t pos);

  std::string name_;
  Schema schema_;
  std::vector<ColumnVector> columns_;
  size_t num_rows_ = 0;
  bool row_index_enabled_ = false;
  // hash(row) -> positions with that hash (collisions resolved by compare).
  // HashRowAt output is already avalanched, so the map hashes by identity.
  FlatHashMap<size_t, size_t, IdentityHash> row_index_;
};

}  // namespace sdelta::rel

#endif  // SDELTA_RELATIONAL_TABLE_H_
