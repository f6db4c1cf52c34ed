#include "lattice/answer.h"

#include <gtest/gtest.h>

#include "core/sql_parser.h"
#include "test_util.h"
#include "warehouse/retail_schema.h"
#include "warehouse/warehouse.h"
#include "warehouse/workload.h"

namespace sdelta::lattice {
namespace {

using core::ViewDef;
using rel::Expression;
using sdelta::testing::ExpectBagEq;

warehouse::Warehouse MakeWarehouse() {
  warehouse::RetailConfig config;
  config.num_stores = 15;
  config.num_items = 80;
  config.num_pos_rows = 3000;
  config.seed = 77;
  warehouse::Warehouse wh(warehouse::MakeRetailCatalog(config));
  wh.DefineSummaryTables(warehouse::RetailSummaryTables());
  return wh;
}

ViewDef RegionQuery() {
  ViewDef q;
  q.name = "q";
  q.fact_table = "pos";
  q.joins = {core::DimensionJoin{"stores", "storeID", "storeID"}};
  q.group_by = {"region"};
  q.aggregates = {rel::Sum(Expression::Column("qty"), "total")};
  return q;
}

TEST(AnswerTest, RegionQueryServedFromSmallestView) {
  warehouse::Warehouse wh = MakeWarehouse();
  AnswerResult r = wh.Query(RegionQuery());
  EXPECT_FALSE(r.from_base);
  // sR_sales (5 rows) is the cheapest source for a region rollup.
  EXPECT_EQ(r.source_view, "sR_sales");
  EXPECT_EQ(r.rows.NumRows(), 5u);

  // The answer equals base-table evaluation.
  ViewDef q = RegionQuery();
  rel::Table expected = core::EvaluateView(wh.catalog(), q);
  // expected carries COUNT-free logical columns in the same layout.
  ExpectBagEq(expected, r.rows);
}

TEST(AnswerTest, CityQueryServedFromSomeSummaryTable) {
  warehouse::Warehouse wh = MakeWarehouse();
  ViewDef q;
  q.name = "q";
  q.fact_table = "pos";
  q.joins = {core::DimensionJoin{"stores", "storeID", "storeID"}};
  q.group_by = {"city"};
  q.aggregates = {rel::CountStar("n")};
  AnswerResult r = wh.Query(q);
  // Both sCD_sales (direct) and SiC_sales (via the stores FK on its
  // storeID group-by) can serve this; the chooser picks by cost.
  EXPECT_FALSE(r.from_base);
  EXPECT_FALSE(r.source_view.empty());
  ExpectBagEq(core::EvaluateView(wh.catalog(), q), r.rows);
}

TEST(AnswerTest, MinAggregateServedFromSic) {
  warehouse::Warehouse wh = MakeWarehouse();
  ViewDef q;
  q.name = "q";
  q.fact_table = "pos";
  q.joins = {core::DimensionJoin{"items", "itemID", "itemID"}};
  q.group_by = {"category"};
  q.aggregates = {rel::Min(Expression::Column("date"), "first_sale")};
  AnswerResult r = wh.Query(q);
  EXPECT_FALSE(r.from_base);
  EXPECT_EQ(r.source_view, "SiC_sales");
  ExpectBagEq(core::EvaluateView(wh.catalog(), q), r.rows);
}

TEST(AnswerTest, UnservableQueryFallsBackToBase) {
  warehouse::Warehouse wh = MakeWarehouse();
  // MAX(price) is not computed by any summary table and price is not a
  // group-by attribute anywhere.
  ViewDef q;
  q.name = "q";
  q.fact_table = "pos";
  q.group_by = {"storeID"};
  q.aggregates = {rel::Max(Expression::Column("price"), "top_price")};
  AnswerResult r = wh.Query(q);
  EXPECT_TRUE(r.from_base);
  EXPECT_TRUE(r.source_view.empty());
  ExpectBagEq(core::EvaluateView(wh.catalog(), q), r.rows);
}

TEST(AnswerTest, AvgReconstructedFromSumAndCount) {
  warehouse::Warehouse wh = MakeWarehouse();
  ViewDef q;
  q.name = "q";
  q.fact_table = "pos";
  q.joins = {core::DimensionJoin{"stores", "storeID", "storeID"}};
  q.group_by = {"region"};
  q.aggregates = {rel::Avg(Expression::Column("qty"), "avg_qty")};
  AnswerResult r = wh.Query(q);
  EXPECT_FALSE(r.from_base);
  // Answer equals base evaluation of the logical view (AVG division).
  rel::Table expected = core::EvaluateView(wh.catalog(), q);
  sdelta::testing::ExpectBagApproxEq(expected, r.rows);
}

TEST(AnswerTest, SqlTextQueries) {
  warehouse::Warehouse wh = MakeWarehouse();
  AnswerResult r = wh.Query(
      "SELECT region, SUM(qty) AS total FROM pos, stores "
      "WHERE pos.storeID = stores.storeID GROUP BY region");
  EXPECT_EQ(r.source_view, "sR_sales");
  EXPECT_EQ(r.rows.NumRows(), 5u);
  EXPECT_EQ(r.rows.schema().column(1).name, "total");
}

TEST(AnswerTest, AnswersStayCorrectAcrossBatches) {
  warehouse::Warehouse wh = MakeWarehouse();
  wh.RunBatch(warehouse::MakeUpdateGeneratingChanges(wh.catalog(), 300, 1));
  wh.RunBatch(
      warehouse::MakeInsertionGeneratingChanges(wh.catalog(), 200, 2));
  ViewDef q = RegionQuery();
  AnswerResult r = wh.Query(q);
  EXPECT_FALSE(r.from_base);
  ExpectBagEq(core::EvaluateView(wh.catalog(), q), r.rows);
}

TEST(AnswerTest, QueryReadsFewerRowsThanBase) {
  warehouse::Warehouse wh = MakeWarehouse();
  AnswerResult from_view = wh.Query(RegionQuery());
  EXPECT_LT(from_view.rows_read,
            wh.catalog().GetTable("pos").NumRows() / 10);
}

TEST(AnswerTest, MismatchedSummariesThrow) {
  warehouse::Warehouse wh = MakeWarehouse();
  std::vector<const core::SummaryTable*> wrong;  // empty, not parallel
  EXPECT_THROW(
      AnswerQuery(wh.catalog(), wh.vlattice(), wrong, RegionQuery()),
      std::invalid_argument);
}

// A summary table larger than one scan segment is answered segment by
// segment and the partial groups merged; every aggregate kind must come
// out as base evaluation does, before and after a batch.
TEST(AnswerTest, QueriesSpanningSegmentsMatchBase) {
  warehouse::RetailConfig config;
  config.num_pos_rows = 40000;
  config.seed = 5;
  warehouse::Warehouse wh(warehouse::MakeRetailCatalog(config));
  ViewDef view;
  view.name = "SIDm_sales";
  view.fact_table = "pos";
  view.group_by = {"storeID", "itemID", "date"};
  view.aggregates = {rel::CountStar("n"),
                     rel::Sum(Expression::Column("qty"), "total"),
                     rel::Min(Expression::Column("qty"), "lo"),
                     rel::Max(Expression::Column("qty"), "hi")};
  wh.DefineSummaryTables({view});
  ASSERT_GT(wh.summary("SIDm_sales").ColumnarSegments().size(), 1u);

  std::vector<ViewDef> queries;
  for (const char* sql :
       {"SELECT itemID, SUM(qty) AS q, MIN(qty) AS lo, MAX(qty) AS hi, "
        "COUNT(*) AS n FROM pos GROUP BY itemID",
        "SELECT region, SUM(qty) AS q, AVG(qty) AS a FROM pos, stores "
        "WHERE pos.storeID = stores.storeID GROUP BY region"}) {
    queries.push_back(core::ParseQuery(wh.catalog(), sql));
  }
  ViewDef scalar;  // no GROUP BY: one group per segment, then one overall
  scalar.name = "q";
  scalar.fact_table = "pos";
  scalar.aggregates = {rel::CountStar("n"),
                       rel::Max(Expression::Column("qty"), "hi")};
  queries.push_back(scalar);
  for (int round = 0; round < 2; ++round) {
    for (const ViewDef& q : queries) {
      SCOPED_TRACE(q.name + " round " + std::to_string(round));
      AnswerResult r = wh.Query(q);
      EXPECT_EQ(r.source_view, "SIDm_sales");
      ExpectBagEq(core::EvaluateView(wh.catalog(), q), r.rows);
    }
    wh.RunBatch(warehouse::MakeUpdateGeneratingChanges(wh.catalog(), 2000, 9));
  }
}

}  // namespace
}  // namespace sdelta::lattice
