#include <gtest/gtest.h>

#include "core/maintenance.h"
#include "core/propagate.h"
#include "core/refresh.h"
#include "oracle.h"

namespace sdelta::core {
namespace {

using rel::Expression;
using rel::Table;
using rel::Value;

/// A fact table whose aggregated column x is nullable (paper §3.1: in the
/// presence of nulls, both COUNT(*) and COUNT(e) are required to make
/// SUM(e) self-maintainable).
rel::Catalog NullableCatalog() {
  rel::Catalog c;
  rel::Schema s;
  s.AddColumn("g", rel::ValueType::kInt64);
  s.AddColumn("x", rel::ValueType::kInt64);
  rel::Table f(s, "f");
  f.Insert({Value::Int64(1), Value::Int64(10)});
  f.Insert({Value::Int64(1), Value::Null()});
  f.Insert({Value::Int64(2), Value::Null()});
  f.Insert({Value::Int64(2), Value::Null()});
  f.Insert({Value::Int64(3), Value::Int64(7)});
  f.Insert({Value::Int64(3), Value::Int64(2)});
  c.AddTable(std::move(f));
  return c;
}

ViewDef NullableView() {
  ViewDef v;
  v.name = "v";
  v.fact_table = "f";
  v.group_by = {"g"};
  v.aggregates = {rel::CountStar("n"),
                  rel::Count(Expression::Column("x"), "nx"),
                  rel::Sum(Expression::Column("x"), "sx"),
                  rel::Min(Expression::Column("x"), "mn"),
                  rel::Max(Expression::Column("x"), "mx")};
  return v;
}

rel::Row FRow(int64_t g, Value x) { return {Value::Int64(g), std::move(x)}; }

ChangeSet Changes(const rel::Catalog& c) {
  ChangeSet ch;
  ch.fact_table = "f";
  ch.fact = DeltaSet(c.GetTable("f").schema());
  return ch;
}

TEST(NullHandlingTest, AllNullGroupHasNullSumAndMinMax) {
  rel::Catalog c = NullableCatalog();
  AugmentedView av = AugmentForSelfMaintenance(c, NullableView());
  SummaryTable st(av, c);
  st.MaterializeFrom(c);
  const rel::Row* g2 = st.Find({Value::Int64(2)});
  ASSERT_NE(g2, nullptr);
  const rel::Schema& s = st.schema();
  EXPECT_EQ((*g2)[s.Resolve("n")].as_int64(), 2);
  EXPECT_EQ((*g2)[s.Resolve("nx")].as_int64(), 0);
  EXPECT_TRUE((*g2)[s.Resolve("sx")].is_null());
  EXPECT_TRUE((*g2)[s.Resolve("mn")].is_null());
  EXPECT_TRUE((*g2)[s.Resolve("mx")].is_null());
}

TEST(NullHandlingTest, DeletingLastNonNullValueNullsAggregates) {
  // Group 1 has x = {10, NULL}. Deleting the 10 leaves COUNT(*)=1 but
  // COUNT(x)=0, so SUM/MIN/MAX become NULL (Figure 7's COUNT(e) rule).
  rel::Catalog c = NullableCatalog();
  AugmentedView av = AugmentForSelfMaintenance(c, NullableView());
  SummaryTable st(av, c);
  st.MaterializeFrom(c);

  ChangeSet ch = Changes(c);
  ch.fact.deletions.Insert(FRow(1, Value::Int64(10)));
  Table sd = ComputeSummaryDelta(c, av, ch);
  ApplyChangeSet(c, ch);
  RefreshStats stats = Refresh(c, st, sd);
  EXPECT_EQ(stats.recomputed_groups, 0u);  // COUNT(e) hit 0: no base scan

  const rel::Row* g1 = st.Find({Value::Int64(1)});
  ASSERT_NE(g1, nullptr);
  const rel::Schema& s = st.schema();
  EXPECT_EQ((*g1)[s.Resolve("n")].as_int64(), 1);
  EXPECT_EQ((*g1)[s.Resolve("nx")].as_int64(), 0);
  EXPECT_TRUE((*g1)[s.Resolve("sx")].is_null());
  EXPECT_TRUE((*g1)[s.Resolve("mn")].is_null());
  EXPECT_TRUE((*g1)[s.Resolve("mx")].is_null());
}

TEST(NullHandlingTest, FirstNonNullValueArrives) {
  // Group 2 is all-null; inserting x=5 must give SUM/MIN/MAX = 5.
  rel::Catalog c = NullableCatalog();
  AugmentedView av = AugmentForSelfMaintenance(c, NullableView());
  SummaryTable st(av, c);
  st.MaterializeFrom(c);

  ChangeSet ch = Changes(c);
  ch.fact.insertions.Insert(FRow(2, Value::Int64(5)));
  Table sd = ComputeSummaryDelta(c, av, ch);
  ApplyChangeSet(c, ch);
  Refresh(c, st, sd);

  const rel::Row* g2 = st.Find({Value::Int64(2)});
  const rel::Schema& s = st.schema();
  EXPECT_EQ((*g2)[s.Resolve("nx")].as_int64(), 1);
  EXPECT_EQ((*g2)[s.Resolve("sx")].as_int64(), 5);
  EXPECT_EQ((*g2)[s.Resolve("mn")].as_int64(), 5);
  EXPECT_EQ((*g2)[s.Resolve("mx")].as_int64(), 5);
}

TEST(NullHandlingTest, NullOnlyChangesLeaveAggregatesAlone) {
  rel::Catalog c = NullableCatalog();
  AugmentedView av = AugmentForSelfMaintenance(c, NullableView());
  SummaryTable st(av, c);
  st.MaterializeFrom(c);

  ChangeSet ch = Changes(c);
  ch.fact.insertions.Insert(FRow(3, Value::Null()));
  Table sd = ComputeSummaryDelta(c, av, ch);
  ApplyChangeSet(c, ch);
  Refresh(c, st, sd);

  const rel::Row* g3 = st.Find({Value::Int64(3)});
  const rel::Schema& s = st.schema();
  EXPECT_EQ((*g3)[s.Resolve("n")].as_int64(), 3);
  EXPECT_EQ((*g3)[s.Resolve("nx")].as_int64(), 2);
  EXPECT_EQ((*g3)[s.Resolve("sx")].as_int64(), 9);
  EXPECT_EQ((*g3)[s.Resolve("mn")].as_int64(), 2);
}

TEST(NullHandlingTest, MixedNullBatchesMatchOracle) {
  auto make_catalog = &NullableCatalog;
  // Grouping on the nullable column puts the x = NULL rows (g = 1, 2, 2)
  // in one group. Deleting its minimum g forces a recompute, which must
  // find the NULL group in base data (NULL keys match, as in GROUP BY).
  ViewDef by_x;
  by_x.name = "by_x";
  by_x.fact_table = "f";
  by_x.group_by = {"x"};
  by_x.aggregates = {rel::CountStar("n"),
                     rel::Min(Expression::Column("g"), "mg")};
  auto make_changes = [](const rel::Catalog& cat) {
    ChangeSet ch;
    ch.fact_table = "f";
    ch.fact = DeltaSet(cat.GetTable("f").schema());
    ch.fact.insertions.Insert(FRow(1, Value::Null()));
    ch.fact.insertions.Insert(FRow(2, Value::Int64(4)));
    ch.fact.insertions.Insert(FRow(4, Value::Null()));  // brand-new group
    ch.fact.deletions.Insert(FRow(1, Value::Int64(10)));
    ch.fact.deletions.Insert(FRow(3, Value::Int64(2)));
    ch.fact.deletions.Insert(FRow(1, Value::Null()));  // by_x's NULL-group min
    return ch;
  };
  RefreshOptions merge;
  merge.strategy = RefreshStrategy::kMerge;
  RefreshOptions per_group;
  per_group.batch_minmax_recompute = false;
  for (const RefreshOptions& ropts : {RefreshOptions{}, merge, per_group}) {
    sdelta::testing::ExpectMaintainedEqualsRecomputed(
        make_catalog, {NullableView(), by_x}, make_changes, ropts);
  }
}

TEST(NullHandlingTest, NewGroupWithOnlyNullValues) {
  rel::Catalog c = NullableCatalog();
  AugmentedView av = AugmentForSelfMaintenance(c, NullableView());
  SummaryTable st(av, c);
  st.MaterializeFrom(c);

  ChangeSet ch = Changes(c);
  ch.fact.insertions.Insert(FRow(9, Value::Null()));
  Table sd = ComputeSummaryDelta(c, av, ch);
  ApplyChangeSet(c, ch);
  RefreshStats stats = Refresh(c, st, sd);
  EXPECT_EQ(stats.inserted, 1u);
  const rel::Row* g9 = st.Find({Value::Int64(9)});
  ASSERT_NE(g9, nullptr);
  const rel::Schema& s = st.schema();
  EXPECT_EQ((*g9)[s.Resolve("n")].as_int64(), 1);
  EXPECT_EQ((*g9)[s.Resolve("nx")].as_int64(), 0);
  EXPECT_TRUE((*g9)[s.Resolve("sx")].is_null());
}

}  // namespace
}  // namespace sdelta::core
