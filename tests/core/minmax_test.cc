#include <gtest/gtest.h>

#include "core/maintenance.h"
#include "core/propagate.h"
#include "core/refresh.h"
#include "oracle.h"
#include "tiny_catalog.h"

namespace sdelta::core {
namespace {

using rel::Expression;
using rel::Table;
using rel::Value;
using sdelta::testing::PosRow;
using sdelta::testing::TinyCatalog;

/// SiC_sales: group by (storeID, category), with MIN(date) — the paper's
/// non-self-maintainable aggregate.
AugmentedView SicView(const rel::Catalog& c) {
  ViewDef v;
  v.name = "SiC_sales";
  v.fact_table = "pos";
  v.joins = {DimensionJoin{"items", "itemID", "itemID"}};
  v.group_by = {"storeID", "category"};
  v.aggregates = {rel::CountStar("TotalCount"),
                  rel::Min(Expression::Column("date"), "EarliestSale"),
                  rel::Max(Expression::Column("date"), "LatestSale"),
                  rel::Sum(Expression::Column("qty"), "TotalQuantity")};
  return AugmentForSelfMaintenance(c, v);
}

RefreshStats Cycle(rel::Catalog& c, SummaryTable& st,
                   const ChangeSet& changes, const RefreshOptions& ropts = {}) {
  Table sd = ComputeSummaryDelta(c, st.def(), changes);
  ApplyChangeSet(c, changes);
  return Refresh(c, st, sd, ropts);
}

ChangeSet EmptyChanges(const rel::Catalog& c) {
  ChangeSet changes;
  changes.fact_table = "pos";
  changes.fact = DeltaSet(c.GetTable("pos").schema());
  return changes;
}

TEST(MinMaxTest, DeletingTheMinimumForcesRecompute) {
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SicView(c);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);

  // Group (2, toys) has dates {2, 3}; min = 2. Delete the date-2 row.
  ChangeSet changes = EmptyChanges(c);
  changes.fact.deletions.Insert(PosRow(2, 20, 2, 1));
  RefreshStats stats = Cycle(c, st, changes);
  EXPECT_EQ(stats.recomputed_groups, 1u);
  EXPECT_EQ(stats.minmax_recomputes, 1u);
  EXPECT_GT(stats.recompute_scan_rows, 0u);

  const rel::Row* row = st.Find({Value::Int64(2), Value::String("toys")});
  ASSERT_NE(row, nullptr);
  const size_t min_idx = st.schema().Resolve("EarliestSale");
  EXPECT_EQ((*row)[min_idx].as_int64(), 3);  // recomputed from base
}

TEST(MinMaxTest, DeletingTheMaximumForcesRecompute) {
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SicView(c);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);

  // Group (2, toys) dates {2, 3}; max = 3.
  ChangeSet changes = EmptyChanges(c);
  changes.fact.deletions.Insert(PosRow(2, 20, 3, 4));
  RefreshStats stats = Cycle(c, st, changes);
  EXPECT_EQ(stats.recomputed_groups, 1u);
  const rel::Row* row = st.Find({Value::Int64(2), Value::String("toys")});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[st.schema().Resolve("LatestSale")].as_int64(), 2);
}

TEST(MinMaxTest, DeletingNonExtremeValueUpdatesInPlace) {
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SicView(c);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);

  // Group (1, food) has dates {1, 1}; deleting one of two equal-date rows
  // still leaves min=max=1... that ties the extremum and triggers the
  // paper's conservative recompute. Use group (2, toys) and delete
  // NOTHING extreme: impossible with 2 rows — so craft: insert a middle
  // row first, then delete it.
  ChangeSet add = EmptyChanges(c);
  add.fact.insertions.Insert(PosRow(2, 20, 9, 1));  // dates now {2,3,9}?
  Cycle(c, st, add);  // max becomes 9

  ChangeSet del = EmptyChanges(c);
  del.fact.deletions.Insert(PosRow(2, 20, 3, 4));  // middle value 3
  RefreshStats stats = Cycle(c, st, del);
  EXPECT_EQ(stats.recomputed_groups, 0u);
  EXPECT_EQ(stats.minmax_recomputes, 0u);
  EXPECT_EQ(stats.updated, 1u);
  const rel::Row* row = st.Find({Value::Int64(2), Value::String("toys")});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[st.schema().Resolve("EarliestSale")].as_int64(), 2);
  EXPECT_EQ((*row)[st.schema().Resolve("LatestSale")].as_int64(), 9);
}

TEST(MinMaxTest, InsertionBelowMinCombinesByDefaultRecomputesInPaperMode) {
  // Same scenario under both modes: an insertion below the stored MIN.
  for (const bool trust : {true, false}) {
    SCOPED_TRACE(trust ? "default" : "paper-faithful");
    rel::Catalog c = TinyCatalog();
    AugmentedView av = SicView(c);
    SummaryTable st(av, c);
    st.MaterializeFrom(c);

    ChangeSet changes = EmptyChanges(c);
    changes.fact.insertions.Insert(PosRow(2, 20, 1, 1));  // below min 2
    RefreshOptions ropts;
    ropts.trust_untainted_minmax = trust;
    RefreshStats stats = Cycle(c, st, changes, ropts);
    EXPECT_EQ(stats.recomputed_groups, trust ? 0u : 1u);
    EXPECT_EQ(stats.minmax_recomputes, trust ? 0u : 1u);
    const rel::Row* row = st.Find({Value::Int64(2), Value::String("toys")});
    ASSERT_NE(row, nullptr);
    EXPECT_EQ((*row)[st.schema().Resolve("EarliestSale")].as_int64(), 1);
  }
}

TEST(MinMaxTest, InsertionAboveMaxConservativelyRecomputesPaperMode) {
  // Figure 7 cannot distinguish an inserted new maximum from a deleted
  // old one, so it recomputes; the value still comes out right. This is
  // the paper-faithful mode (trust_untainted_minmax = false).
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SicView(c);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);

  ChangeSet changes = EmptyChanges(c);
  changes.fact.insertions.Insert(PosRow(2, 20, 5, 1));  // above max 3
  RefreshOptions paper;
  paper.trust_untainted_minmax = false;
  RefreshStats stats = Cycle(c, st, changes, paper);
  EXPECT_EQ(stats.recomputed_groups, 1u);
  const rel::Row* row = st.Find({Value::Int64(2), Value::String("toys")});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[st.schema().Resolve("LatestSale")].as_int64(), 5);
  EXPECT_EQ((*row)[st.schema().Resolve("EarliestSale")].as_int64(), 2);
}

TEST(MinMaxTest, UntaintedInsertionBeyondExtremumCombinesInPlace) {
  // Default mode: the delta's taint marker shows the group saw no
  // deletions, so §3.1 applies (MIN/MAX self-maintainable under
  // insertions) and no base scan happens.
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SicView(c);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);

  ChangeSet changes = EmptyChanges(c);
  changes.fact.insertions.Insert(PosRow(2, 20, 5, 1));   // above max 3
  changes.fact.insertions.Insert(PosRow(2, 20, 1, 2));   // below min 2
  RefreshStats stats = Cycle(c, st, changes);
  EXPECT_EQ(stats.recomputed_groups, 0u);
  EXPECT_EQ(stats.minmax_recomputes, 0u);
  EXPECT_EQ(stats.recompute_scan_rows, 0u);
  EXPECT_EQ(stats.updated, 1u);
  const rel::Row* row = st.Find({Value::Int64(2), Value::String("toys")});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[st.schema().Resolve("LatestSale")].as_int64(), 5);
  EXPECT_EQ((*row)[st.schema().Resolve("EarliestSale")].as_int64(), 1);
}

TEST(MinMaxTest, TaintedGroupStillRecomputesInDefaultMode) {
  // A deletion in the same group taints it: the optimization must not
  // skip the base recompute.
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SicView(c);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);

  ChangeSet changes = EmptyChanges(c);
  changes.fact.insertions.Insert(PosRow(2, 20, 9, 1));
  changes.fact.deletions.Insert(PosRow(2, 20, 2, 1));  // delete the min
  RefreshStats stats = Cycle(c, st, changes);
  EXPECT_EQ(stats.recomputed_groups, 1u);
  EXPECT_EQ(stats.minmax_recomputes, 1u);
  const rel::Row* row = st.Find({Value::Int64(2), Value::String("toys")});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[st.schema().Resolve("EarliestSale")].as_int64(), 3);
  EXPECT_EQ((*row)[st.schema().Resolve("LatestSale")].as_int64(), 9);
}

TEST(MinMaxTest, PerGroupRecomputeMatchesBatched) {
  auto make_changes = [](const rel::Catalog& cat) {
    ChangeSet changes = EmptyChanges(cat);
    changes.fact.deletions.Insert(PosRow(2, 20, 2, 1));
    changes.fact.deletions.Insert(PosRow(1, 10, 1, 5));
    changes.fact.insertions.Insert(PosRow(1, 20, 1, 3));
    return changes;
  };
  ViewDef v = SicView(TinyCatalog()).physical;

  RefreshOptions per_group;
  per_group.batch_minmax_recompute = false;
  sdelta::testing::ExpectMaintainedEqualsRecomputed(&TinyCatalog, {v},
                                                    make_changes, per_group);
  sdelta::testing::ExpectMaintainedEqualsRecomputed(&TinyCatalog, {v},
                                                    make_changes,
                                                    RefreshOptions{});
}

TEST(MinMaxTest, GroupVanishesEntirely) {
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SicView(c);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);
  const size_t before = st.NumRows();

  // Delete both rows of (2, toys): the group must disappear, no scan.
  ChangeSet changes = EmptyChanges(c);
  changes.fact.deletions.Insert(PosRow(2, 20, 2, 1));
  changes.fact.deletions.Insert(PosRow(2, 20, 3, 4));
  RefreshStats stats = Cycle(c, st, changes);
  EXPECT_EQ(stats.deleted, 1u);
  EXPECT_EQ(stats.recomputed_groups, 0u);
  EXPECT_EQ(st.NumRows(), before - 1);
  EXPECT_EQ(st.Find({Value::Int64(2), Value::String("toys")}), nullptr);
}

TEST(MinMaxTest, MergeStrategyRecomputesToo) {
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SicView(c);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);

  ChangeSet changes = EmptyChanges(c);
  changes.fact.deletions.Insert(PosRow(2, 20, 2, 1));
  RefreshOptions ropts;
  ropts.strategy = RefreshStrategy::kMerge;
  RefreshStats stats = Cycle(c, st, changes, ropts);
  EXPECT_EQ(stats.recomputed_groups, 1u);
  EXPECT_EQ(stats.minmax_recomputes, 1u);
  const rel::Row* row = st.Find({Value::Int64(2), Value::String("toys")});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[st.schema().Resolve("EarliestSale")].as_int64(), 3);
}

TEST(MinMaxTest, NullForeignKeyRowsStayOutOfRecompute) {
  // A fact row with a NULL foreign key joins nothing, not even a
  // dimension row whose key is NULL: the recompute must see the same
  // join EvaluateView does.
  auto make_catalog = [] {
    rel::Catalog c;
    rel::Schema items_s;
    items_s.AddColumn("itemID", rel::ValueType::kInt64);
    items_s.AddColumn("category", rel::ValueType::kString);
    Table items(items_s, "items");
    items.Insert({Value::Int64(10), Value::String("food")});
    items.Insert({Value::Null(), Value::String("food")});
    c.AddTable(std::move(items));
    rel::Schema pos_s;
    for (const char* col : {"storeID", "itemID", "date", "qty"}) {
      pos_s.AddColumn(col, rel::ValueType::kInt64);
    }
    Table pos(pos_s, "pos");
    pos.Insert(PosRow(1, 10, 5, 1));
    pos.Insert(PosRow(1, 10, 7, 1));
    pos.Insert({Value::Int64(1), Value::Null(), Value::Int64(2),
                Value::Int64(1)});
    c.AddTable(std::move(pos));
    c.DeclareForeignKey("pos", "itemID", "items", "itemID");
    return c;
  };
  ViewDef v;
  v.name = "SiC_sales";
  v.fact_table = "pos";
  v.joins = {DimensionJoin{"items", "itemID", "itemID"}};
  v.group_by = {"storeID", "category"};
  v.aggregates = {rel::CountStar("TotalCount"),
                  rel::Min(Expression::Column("date"), "EarliestSale")};
  auto make_changes = [](const rel::Catalog& cat) {
    ChangeSet changes = EmptyChanges(cat);
    changes.fact.deletions.Insert(PosRow(1, 10, 5, 1));  // the minimum
    return changes;
  };
  sdelta::testing::ExpectMaintainedEqualsRecomputed(make_catalog, {v},
                                                    make_changes);
}

}  // namespace
}  // namespace sdelta::core
