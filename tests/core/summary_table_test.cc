#include "core/summary_table.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "relational/csv.h"
#include "tiny_catalog.h"

namespace sdelta::core {
namespace {

using rel::Expression;
using rel::GroupKey;
using rel::Value;
using sdelta::testing::TinyCatalog;

AugmentedView SidView(const rel::Catalog& c) {
  ViewDef v;
  v.name = "SID_sales";
  v.fact_table = "pos";
  v.group_by = {"storeID", "itemID", "date"};
  v.aggregates = {rel::CountStar("TotalCount"),
                  rel::Sum(Expression::Column("qty"), "TotalQuantity")};
  return AugmentForSelfMaintenance(c, v);
}

TEST(SummaryTableTest, MaterializeFromCatalog) {
  rel::Catalog c = TinyCatalog();
  SummaryTable st(SidView(c), c);
  EXPECT_EQ(st.NumRows(), 0u);
  st.MaterializeFrom(c);
  EXPECT_EQ(st.NumRows(), 5u);  // 6 pos rows, one duplicate group
  EXPECT_EQ(st.num_group_columns(), 3u);
}

TEST(SummaryTableTest, FindByKey) {
  rel::Catalog c = TinyCatalog();
  SummaryTable st(SidView(c), c);
  st.MaterializeFrom(c);
  GroupKey key = {Value::Int64(1), Value::Int64(10), Value::Int64(1)};
  const rel::Row* row = st.Find(key);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[3].as_int64(), 2);  // TotalCount of the duplicate group
  EXPECT_EQ((*row)[4].as_int64(), 8);  // 5 + 3
  GroupKey missing = {Value::Int64(9), Value::Int64(9), Value::Int64(9)};
  EXPECT_EQ(st.Find(missing), nullptr);
}

TEST(SummaryTableTest, InsertEraseRoundTrip) {
  rel::Catalog c = TinyCatalog();
  SummaryTable st(SidView(c), c);
  st.MaterializeFrom(c);
  const size_t before = st.NumRows();

  // Schema: group-bys + TotalCount + TotalQuantity + COUNT(qty) companion.
  ASSERT_EQ(st.schema().NumColumns(), 6u);
  rel::Row fresh = {Value::Int64(7), Value::Int64(10), Value::Int64(9),
                    Value::Int64(1), Value::Int64(4), Value::Int64(1)};
  st.Insert(fresh);
  EXPECT_EQ(st.NumRows(), before + 1);
  GroupKey key = {Value::Int64(7), Value::Int64(10), Value::Int64(9)};
  ASSERT_NE(st.Find(key), nullptr);
  EXPECT_TRUE(st.Erase(key));
  EXPECT_FALSE(st.Erase(key));
  EXPECT_EQ(st.NumRows(), before);
}

TEST(SummaryTableTest, DuplicateInsertThrows) {
  rel::Catalog c = TinyCatalog();
  SummaryTable st(SidView(c), c);
  st.MaterializeFrom(c);
  rel::Row dup = st.RowAt(0);
  EXPECT_THROW(st.Insert(dup), std::logic_error);
}

TEST(SummaryTableTest, ArityMismatchThrows) {
  rel::Catalog c = TinyCatalog();
  SummaryTable st(SidView(c), c);
  EXPECT_THROW(st.Insert({Value::Int64(1)}), std::invalid_argument);
}

TEST(SummaryTableTest, EraseKeepsIndexConsistent) {
  rel::Catalog c = TinyCatalog();
  SummaryTable st(SidView(c), c);
  st.MaterializeFrom(c);
  // Erase every group one by one, always via a fresh key of row 0.
  while (st.NumRows() > 0) {
    GroupKey key = st.KeyOf(st.RowAt(0));
    EXPECT_TRUE(st.Erase(key));
    EXPECT_EQ(st.Find(key), nullptr);
  }
}

TEST(SummaryTableTest, FindMutableAllowsUpdate) {
  rel::Catalog c = TinyCatalog();
  SummaryTable st(SidView(c), c);
  st.MaterializeFrom(c);
  GroupKey key = {Value::Int64(1), Value::Int64(10), Value::Int64(1)};
  rel::Row* row = st.FindMutable(key);
  ASSERT_NE(row, nullptr);
  (*row)[4] = Value::Int64(99);
  EXPECT_EQ((*st.Find(key))[4].as_int64(), 99);
}

TEST(SummaryTableTest, ToTableMatchesEvaluate) {
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SidView(c);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);
  EXPECT_TRUE(rel::Table::BagEquals(EvaluateView(c, av.physical),
                                    st.ToTable()));
}

TEST(SummaryTableTest, LoadFromReplaces) {
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SidView(c);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);
  rel::Table empty(st.schema());
  st.LoadFrom(empty);
  EXPECT_EQ(st.NumRows(), 0u);
}

// Copy-on-write storage: the tests below fill several pages with
// synthetic SID_sales groups. Group i is (storeID = s(i), itemID = 10,
// date = 1) with s(i) = i + 1, or -(i + 1) when `escaping` — negative
// ints escape the packed codec, so those groups live in the boxed index.
int64_t StoreOf(size_t i, bool escaping) {
  const int64_t id = static_cast<int64_t>(i) + 1;
  return escaping ? -id : id;
}

GroupKey KeyFor(size_t i, bool escaping) {
  return {Value::Int64(StoreOf(i, escaping)), Value::Int64(10),
          Value::Int64(1)};
}

rel::Row RowFor(size_t i, bool escaping) {
  return {Value::Int64(StoreOf(i, escaping)), Value::Int64(10),
          Value::Int64(1), Value::Int64(1), Value::Int64(static_cast<int64_t>(i)),
          Value::Int64(1)};
}

rel::Table ManyGroups(const rel::Schema& schema, size_t n, bool escaping) {
  rel::Table t(schema);
  for (size_t i = 0; i < n; ++i) t.Insert(RowFor(i, escaping));
  return t;
}

std::string CanonicalCsv(const SummaryTable& st) {
  return rel::ToCsvString(st.ToCanonicalTable());
}

void ExpectShareIsolated(bool escaping) {
  constexpr size_t kPage = SummaryTable::kPageRows;
  constexpr size_t n = 3 * kPage + 5;  // the last page is partial
  rel::Catalog c = TinyCatalog();
  SummaryTable st(SidView(c), c);
  st.LoadFrom(ManyGroups(st.schema(), n, escaping));
  // Escaping keys take the boxed index; the others all pack.
  EXPECT_EQ(st.fallback_key_ops() > 0, escaping);

  const std::shared_ptr<const SummaryTable> share = st.Share();
  const std::string before = CanonicalCsv(*share);
  // The share scans its pages' columnar form; it reads back the rows.
  EXPECT_EQ(before, rel::ToCsvString(CanonicalizeRows(
                        ManyGroups(st.schema(), n, escaping))));
  std::vector<rel::Row> physical;
  for (size_t r = 0; r < share->NumRows(); ++r) {
    physical.push_back(share->RowAt(r));
  }

  // Updates in place on two pages, an insert, and an erase in page 0
  // whose swap-with-last pulls the tail row across three pages.
  (*st.FindMutable(KeyFor(0, escaping)))[4] = Value::Int64(-100);
  (*st.FindMutable(KeyFor(kPage + 1, escaping)))[4] = Value::Int64(-200);
  st.Insert(RowFor(n + 100, escaping));
  ASSERT_TRUE(st.Erase(KeyFor(2, escaping)));
  EXPECT_EQ(st.KeyOf(st.RowAt(2)), KeyFor(n + 100, escaping));
  EXPECT_NE(CanonicalCsv(st), before);

  EXPECT_EQ(CanonicalCsv(*share), before);
  ASSERT_EQ(share->NumRows(), n);
  for (size_t r = 0; r < n; ++r) EXPECT_EQ(share->RowAt(r), physical[r]);
  for (size_t i = 0; i < n; ++i) {
    const rel::Row* row = share->Find(KeyFor(i, escaping));
    ASSERT_NE(row, nullptr) << i;
    EXPECT_EQ(*row, physical[i]);
  }
  EXPECT_EQ(share->Find(KeyFor(n + 100, escaping)), nullptr);
  EXPECT_EQ(st.Find(KeyFor(2, escaping)), nullptr);

  // A second share, then a wholesale reload: both shares stay intact.
  const std::shared_ptr<const SummaryTable> second = st.Share();
  const std::string second_before = CanonicalCsv(*second);
  st.LoadFrom(ManyGroups(st.schema(), 2, escaping));
  EXPECT_EQ(st.NumRows(), 2u);
  EXPECT_EQ(CanonicalCsv(*second), second_before);
  EXPECT_EQ(CanonicalCsv(*share), before);
  EXPECT_NE(second->Find(KeyFor(n + 100, escaping)), nullptr);
}

TEST(SummaryTableTest, ShareIsIsolatedFromLaterWrites) {
  ExpectShareIsolated(/*escaping=*/false);
}

TEST(SummaryTableTest, ShareIsIsolatedFromLaterWritesOnBoxedKeys) {
  ExpectShareIsolated(/*escaping=*/true);
}

TEST(SummaryTableTest, RowsCopiedCountsOnlyDirtyPages) {
  constexpr size_t kPage = SummaryTable::kPageRows;
  rel::Catalog c = TinyCatalog();
  SummaryTable st(SidView(c), c);
  st.LoadFrom(ManyGroups(st.schema(), 4 * kPage, /*escaping=*/false));
  // Nothing is shared yet: writes happen in place.
  (*st.FindMutable(KeyFor(0, false)))[4] = Value::Int64(1);
  EXPECT_EQ(st.rows_copied(), 0u);

  const std::shared_ptr<const SummaryTable> share = st.Share();
  EXPECT_EQ(st.rows_copied(), 0u);
  // Two writes to page 0 and one to page 2 copy those two pages once.
  (*st.FindMutable(KeyFor(0, false)))[4] = Value::Int64(2);
  (*st.FindMutable(KeyFor(1, false)))[4] = Value::Int64(3);
  (*st.FindMutable(KeyFor(2 * kPage + 3, false)))[4] = Value::Int64(4);
  EXPECT_EQ(st.rows_copied(), 2 * kPage);
  // Reads copy nothing; an insert past full pages opens a fresh page.
  EXPECT_NE(st.Find(KeyFor(3 * kPage, false)), nullptr);
  st.Insert(RowFor(4 * kPage, false));
  EXPECT_EQ(st.rows_copied(), 2 * kPage);
  // The count is per epoch: Share() starts it over.
  const std::shared_ptr<const SummaryTable> next = st.Share();
  EXPECT_EQ(st.rows_copied(), 0u);
  (*st.FindMutable(KeyFor(0, false)))[4] = Value::Int64(5);
  EXPECT_EQ(st.rows_copied(), kPage);
}

}  // namespace
}  // namespace sdelta::core
