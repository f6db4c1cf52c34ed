#include "core/summary_table.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

namespace sdelta::core {

SummaryTable::SummaryTable(AugmentedView def, const rel::Catalog& catalog)
    : def_(std::move(def)),
      schema_(ViewOutputSchema(catalog, def_.physical)),
      num_group_columns_(def_.physical.group_by.size()),
      index_(std::make_shared<Index>()) {
  group_idx_.resize(num_group_columns_);
  std::iota(group_idx_.begin(), group_idx_.end(), size_t{0});
  // Output schema columns carry bare names ("city"), so every view
  // grouping on the same column shares one pool dictionary — which is
  // what keeps codes stable across batches and across views.
  codec_ = rel::PackedKeyCodec::ForColumns(
      schema_, group_idx_, [&catalog](const rel::Column& c) {
        return &catalog.dictionaries().ForColumn(c.name);
      });
}

void SummaryTable::MaterializeFrom(const rel::Catalog& catalog) {
  LoadFrom(EvaluateView(catalog, def_.physical));
}

void SummaryTable::LoadFrom(const rel::Table& physical_rows) {
  if (physical_rows.schema().NumColumns() != schema_.NumColumns()) {
    throw std::invalid_argument("LoadFrom arity mismatch for summary table " +
                                name());
  }
  // Fresh pages and index: anything a share holds is left alone.
  pages_.clear();
  segments_.clear();
  num_rows_ = 0;
  index_ = std::make_shared<Index>();
  index_->generation = generation_;
  pages_.reserve((physical_rows.NumRows() + kPageRows - 1) / kPageRows);
  if (codec_.packable()) {
    index_->packed.Reserve(physical_rows.NumRows());
  } else {
    index_->boxed.reserve(physical_rows.NumRows());
  }
  for (size_t i = 0; i < physical_rows.NumRows(); ++i) {
    Insert(physical_rows.RowAt(i));
  }
}

rel::GroupKey SummaryTable::KeyOf(const rel::Row& row) const {
  return rel::GroupKey(row.begin(), row.begin() + num_group_columns_);
}

std::optional<size_t> SummaryTable::Locate(const rel::GroupKey& key) const {
  if (codec_.packable()) {
    const std::optional<rel::PackedKey> pk = codec_.EncodeKey(key);
    if (pk.has_value()) {
      ++packed_ops_;
      const size_t* pos = index_->packed.Find(*pk, probes_);
      if (pos == nullptr) return std::nullopt;
      return *pos;
    }
  }
  ++fallback_ops_;
  auto it = index_->boxed.find(key);
  if (it == index_->boxed.end()) return std::nullopt;
  return it->second;
}

const rel::Row* SummaryTable::Find(const rel::GroupKey& key) const {
  const std::optional<size_t> pos = Locate(key);
  return pos.has_value() ? &RowAt(*pos) : nullptr;
}

rel::Row* SummaryTable::FindMutable(const rel::GroupKey& key) {
  const std::optional<size_t> pos = Locate(key);
  return pos.has_value() ? &MutableRowAt(*pos) : nullptr;
}

SummaryTable::Page& SummaryTable::MutablePage(size_t page) {
  std::shared_ptr<Page>& slot = pages_[page];
  if (slot->generation < generation_) {
    rows_copied_ += slot->rows.size();
    auto clone = std::make_shared<Page>();
    clone->generation = generation_;
    clone->rows.reserve(kPageRows);
    clone->rows = slot->rows;
    slot = std::move(clone);
  }
  return *slot;
}

SummaryTable::Index& SummaryTable::MutableIndex() {
  if (index_->generation < generation_) {
    auto clone = std::make_shared<Index>(*index_);
    clone->generation = generation_;
    index_ = std::move(clone);
  }
  return *index_;
}

rel::Row& SummaryTable::MutableRowAt(size_t pos) {
  return MutablePage(pos / kPageRows).rows[pos % kPageRows];
}

void SummaryTable::Insert(rel::Row row) {
  if (row.size() != schema_.NumColumns()) {
    throw std::invalid_argument("row arity mismatch for summary table " +
                                name());
  }
  Index& index = MutableIndex();
  std::optional<rel::PackedKey> pk;
  if (codec_.packable()) pk = codec_.EncodeRow(row, group_idx_);
  if (pk.has_value()) {
    ++packed_ops_;
    auto [slot, inserted] = index.packed.FindOrInsert(*pk, num_rows_, probes_);
    if (!inserted) {
      throw std::logic_error("duplicate group inserted into summary table " +
                             name());
    }
  } else {
    ++fallback_ops_;
    auto [it, inserted] = index.boxed.emplace(KeyOf(row), num_rows_);
    if (!inserted) {
      throw std::logic_error("duplicate group inserted into summary table " +
                             name());
    }
  }
  if (num_rows_ % kPageRows == 0) {
    auto page = std::make_shared<Page>();
    page->generation = generation_;
    page->rows.reserve(kPageRows);
    pages_.push_back(std::move(page));
  }
  MutablePage(pages_.size() - 1).rows.push_back(std::move(row));
  ++num_rows_;
}

bool SummaryTable::Erase(const rel::GroupKey& key) {
  Index& index = MutableIndex();
  size_t pos = num_rows_;
  std::optional<rel::PackedKey> pk;
  if (codec_.packable()) pk = codec_.EncodeKey(key);
  if (pk.has_value()) {
    ++packed_ops_;
    if (!index.packed.EraseOneIf(*pk, [&pos](size_t p) {
          pos = p;
          return true;
        })) {
      return false;
    }
  } else {
    ++fallback_ops_;
    auto it = index.boxed.find(key);
    if (it == index.boxed.end()) return false;
    pos = it->second;
    index.boxed.erase(it);
  }
  // Swap-with-last: the last row moves into the hole and its page
  // shrinks (both pages cloned first if a share holds them).
  const size_t last = num_rows_ - 1;
  Page& tail = MutablePage(last / kPageRows);
  if (pos != last) {
    rel::Row& hole = MutableRowAt(pos);
    hole = std::move(tail.rows.back());
    // Re-point the moved row's index entry (it lives in whichever map
    // its own key encodes into — independent of the erased key's path).
    std::optional<rel::PackedKey> mk;
    if (codec_.packable()) mk = codec_.EncodeRow(hole, group_idx_);
    if (mk.has_value()) {
      size_t* slot = index.packed.Find(*mk, probes_);
      if (slot == nullptr) {
        throw std::logic_error("summary index out of sync for table " +
                               name());
      }
      *slot = pos;
    } else {
      index.boxed[KeyOf(hole)] = pos;
    }
  }
  tail.rows.pop_back();
  if (tail.rows.empty()) pages_.pop_back();
  --num_rows_;
  return true;
}

bool SummaryTable::SegmentValid(size_t s) const {
  if (s >= segments_.size() || segments_[s].columns == nullptr) return false;
  const size_t begin = s * kSegmentPages;
  const size_t end = std::min(begin + kSegmentPages, pages_.size());
  size_t rows = 0;
  for (size_t p = begin; p < end; ++p) {
    if (pages_[p]->generation > segments_[s].generation) return false;
    rows += pages_[p]->rows.size();
  }
  return rows == segments_[s].columns->NumRows();
}

std::shared_ptr<const rel::Table> SummaryTable::BuildSegment(size_t s) const {
  auto columns = std::make_shared<rel::Table>(schema_, name());
  const size_t begin = s * kSegmentPages;
  const size_t end = std::min(begin + kSegmentPages, pages_.size());
  columns->Reserve((end - begin) * kPageRows);
  for (size_t p = begin; p < end; ++p) {
    for (const rel::Row& r : pages_[p]->rows) columns->Insert(r);
  }
  return columns;
}

std::vector<std::shared_ptr<const rel::Table>>
SummaryTable::ColumnarSegments() const {
  const size_t num_segments = (pages_.size() + kSegmentPages - 1) /
                              kSegmentPages;
  std::vector<std::shared_ptr<const rel::Table>> out;
  out.reserve(num_segments);
  for (size_t s = 0; s < num_segments; ++s) {
    out.push_back(SegmentValid(s) ? segments_[s].columns : BuildSegment(s));
  }
  return out;
}

std::shared_ptr<const SummaryTable> SummaryTable::Share() {
  // Every page written since the last share is stamped generation_;
  // rebuild the columnar form of the segments holding one.
  const size_t num_segments = (pages_.size() + kSegmentPages - 1) /
                              kSegmentPages;
  segments_.resize(num_segments);
  for (size_t s = 0; s < num_segments; ++s) {
    if (!SegmentValid(s)) segments_[s] = Segment{generation_, BuildSegment(s)};
  }
  std::shared_ptr<const SummaryTable> share(new SummaryTable(*this));
  ++generation_;
  rows_copied_ = 0;
  return share;
}

rel::Table SummaryTable::ToTable() const {
  rel::Table out(schema_, name());
  out.Reserve(num_rows_);
  for (const std::shared_ptr<const rel::Table>& segment : ColumnarSegments()) {
    out.AppendColumnsFrom(*segment);
  }
  return out;
}

rel::Table SummaryTable::ToLogicalTable() const {
  return LogicalRows(def_, ToTable());
}

rel::Table SummaryTable::ToCanonicalTable() const {
  return CanonicalizeRows(ToTable());
}

rel::Table CanonicalizeRows(const rel::Table& physical_rows) {
  std::vector<size_t> order(physical_rows.NumRows());
  std::iota(order.begin(), order.end(), size_t{0});
  const size_t num_columns = physical_rows.schema().NumColumns();
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t c = 0; c < num_columns; ++c) {
      const int cmp = rel::Value::Compare(physical_rows.ValueAt(a, c),
                                          physical_rows.ValueAt(b, c));
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  rel::Table out(physical_rows.schema(), physical_rows.name());
  out.Reserve(physical_rows.NumRows());
  out.AppendGather(physical_rows, order);
  return out;
}

}  // namespace sdelta::core
