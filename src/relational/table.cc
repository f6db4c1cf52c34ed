#include "relational/table.h"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace sdelta::rel {

namespace {

std::vector<ColumnVector> ColumnsFor(const Schema& schema) {
  std::vector<ColumnVector> columns;
  columns.reserve(schema.NumColumns());
  for (const Column& c : schema.columns()) columns.emplace_back(c.type);
  return columns;
}

}  // namespace

Table::Table(Schema schema, std::string name)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      columns_(ColumnsFor(schema_)) {}

Table Table::FromColumns(Schema schema, std::string name,
                         std::vector<ColumnVector> columns, size_t num_rows) {
  if (columns.size() != schema.NumColumns()) {
    throw std::invalid_argument(
        "FromColumns: " + std::to_string(columns.size()) +
        " columns do not match schema " + schema.ToString());
  }
  for (const ColumnVector& c : columns) {
    if (c.size() != num_rows) {
      throw std::invalid_argument(
          "FromColumns: column has " + std::to_string(c.size()) +
          " rows, expected " + std::to_string(num_rows));
    }
  }
  Table t(std::move(schema), std::move(name));
  t.columns_ = std::move(columns);
  t.num_rows_ = num_rows;
  return t;
}

Row Table::RowAt(size_t i) const {
  Row row;
  row.reserve(columns_.size());
  for (const ColumnVector& c : columns_) row.push_back(c.At(i));
  return row;
}

std::vector<Row> Table::MaterializeRows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) rows.push_back(RowAt(i));
  return rows;
}

void Table::Insert(const Row& row) {
  if (row.size() != schema_.NumColumns()) {
    throw std::invalid_argument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        schema_.ToString() + " of table '" + name_ + "'");
  }
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Append(row[c]);
  ++num_rows_;
  if (row_index_enabled_) IndexInsert(num_rows_ - 1);
}

void Table::AppendColumnsFrom(const Table& src) {
  if (src.schema_.NumColumns() != schema_.NumColumns()) {
    throw std::invalid_argument("AppendColumnsFrom arity mismatch: {" +
                                schema_.ToString() + "} vs {" +
                                src.schema_.ToString() + "}");
  }
  const size_t first = num_rows_;
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendRange(src.columns_[c], 0, src.num_rows_);
  }
  num_rows_ += src.num_rows_;
  if (row_index_enabled_) {
    for (size_t i = first; i < num_rows_; ++i) IndexInsert(i);
  }
}

void Table::AppendColumnsFrom(Table&& src) {
  if (num_rows_ == 0 && !row_index_enabled_ &&
      src.schema_.NumColumns() == schema_.NumColumns()) {
    bool same_types = true;
    for (size_t c = 0; c < columns_.size(); ++c) {
      same_types &= schema_.column(c).type == src.schema_.column(c).type;
    }
    if (same_types) {
      columns_ = std::move(src.columns_);
      num_rows_ = src.num_rows_;
      src.columns_ = ColumnsFor(src.schema_);
      src.num_rows_ = 0;
      src.row_index_.Clear();
      return;
    }
  }
  AppendColumnsFrom(static_cast<const Table&>(src));
  src.Clear();  // rvalue source: drain it, as the move contract promises
}

void Table::AppendGather(const Table& src, const std::vector<size_t>& rows) {
  if (src.schema_.NumColumns() != schema_.NumColumns()) {
    throw std::invalid_argument("AppendGather arity mismatch: {" +
                                schema_.ToString() + "} vs {" +
                                src.schema_.ToString() + "}");
  }
  const size_t first = num_rows_;
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendGather(src.columns_[c], rows);
  }
  num_rows_ += rows.size();
  if (row_index_enabled_) {
    for (size_t i = first; i < num_rows_; ++i) IndexInsert(i);
  }
}

bool Table::EraseOneEqual(const Row& target) {
  if (row_index_enabled_) {
    const size_t h = HashRow(target);
    size_t found_pos = num_rows_;
    // Collect the position first: EraseAt rewrites the index, which must
    // not happen while the probe chain is being walked.
    row_index_.ForEachEqual(h, [&](size_t pos) {
      if (RowEqualsAt(pos, target)) {
        found_pos = pos;
        return true;
      }
      return false;
    });
    if (found_pos == num_rows_) return false;
    EraseAt(found_pos);
    return true;
  }
  for (size_t i = 0; i < num_rows_; ++i) {
    if (RowEqualsAt(i, target)) {
      EraseAt(i);
      return true;
    }
  }
  return false;
}

void Table::EraseAt(size_t i) {
  if (i >= num_rows_) {
    throw std::invalid_argument("EraseAt out of range");
  }
  const size_t last = num_rows_ - 1;
  if (row_index_enabled_) {
    IndexErase(i);
    if (i != last) {
      IndexErase(last);
    }
  }
  for (ColumnVector& c : columns_) c.EraseAtSwap(i);
  --num_rows_;
  if (row_index_enabled_ && i != last) {
    IndexInsert(i);
  }
}

void Table::Clear() {
  for (ColumnVector& c : columns_) c.Clear();
  num_rows_ = 0;
  row_index_.Clear();
}

size_t Table::HashRowAt(size_t i) const {
  // Must equal HashRow(RowAt(i)): same combine, same per-value hash.
  size_t seed = columns_.size();
  for (const ColumnVector& c : columns_) {
    seed = HashCombine(seed, AvalancheMix(c.HashAt(i)));
  }
  return AvalancheMix(seed);
}

bool Table::RowEqualsAt(size_t i, const Row& target) const {
  if (target.size() != columns_.size()) return false;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (!columns_[c].EqualsAt(i, target[c])) return false;
  }
  return true;
}

void Table::EnableRowIndex() {
  if (row_index_enabled_) return;
  row_index_enabled_ = true;
  row_index_.Clear();
  row_index_.Reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) IndexInsert(i);
}

void Table::IndexInsert(size_t pos) {
  row_index_.InsertMulti(HashRowAt(pos), pos);
}

void Table::IndexErase(size_t pos) {
  const size_t h = HashRowAt(pos);
  if (!row_index_.EraseOneIf(h, [pos](size_t p) { return p == pos; })) {
    throw std::logic_error("row index out of sync in table '" + name_ + "'");
  }
}

bool Table::BagEquals(const Table& a, const Table& b) {
  if (a.NumRows() != b.NumRows()) return false;
  if (a.schema().NumColumns() != b.schema().NumColumns()) return false;
  // Count multiplicities of a's rows, subtract b's.
  FlatHashMap<size_t, size_t, IdentityHash> counts;
  counts.Reserve(a.NumRows());
  for (size_t i = 0; i < a.num_rows_; ++i) {
    counts.InsertMulti(a.HashRowAt(i), i);
  }
  for (size_t j = 0; j < b.num_rows_; ++j) {
    const size_t h = b.HashRowAt(j);
    const Row rb = b.RowAt(j);
    if (!counts.EraseOneIf(
            h, [&](size_t ai) { return a.RowEqualsAt(ai, rb); })) {
      return false;
    }
  }
  return counts.empty();
}

size_t Table::ApproxBytes() const {
  size_t bytes = 0;
  for (const ColumnVector& c : columns_) bytes += c.ApproxBytes();
  return bytes;
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << (name_.empty() ? "<anon>" : name_) << " [" << schema_.ToString()
     << "] " << num_rows_ << " rows\n";
  for (size_t i = 0; i < num_rows_ && i < max_rows; ++i) {
    os << "  " << RowToString(RowAt(i)) << "\n";
  }
  if (num_rows_ > max_rows) {
    os << "  ... (" << num_rows_ - max_rows << " more)\n";
  }
  return os.str();
}

}  // namespace sdelta::rel
