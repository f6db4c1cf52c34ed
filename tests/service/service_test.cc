#include "service/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/delta.h"
#include "core/sql_parser.h"
#include "core/view_def.h"
#include "relational/csv.h"
#include "warehouse/retail_schema.h"
#include "warehouse/workload.h"

namespace sdelta::service {
namespace {

namespace fs = std::filesystem;

warehouse::RetailConfig SmallConfig() {
  warehouse::RetailConfig config;
  config.num_stores = 10;
  config.num_cities = 5;
  config.num_regions = 3;
  config.num_items = 50;
  config.num_categories = 6;
  config.num_dates = 20;
  config.num_pos_rows = 1200;
  config.seed = 77;
  return config;
}

constexpr char kRegionQuery[] =
    "SELECT region, SUM(qty) AS q FROM pos, stores "
    "WHERE pos.storeID = stores.storeID GROUP BY region";
constexpr char kDateQuery[] =
    "SELECT date, SUM(qty) AS q FROM pos GROUP BY date";

int64_t TotalOfLastColumn(const rel::Table& rows) {
  int64_t total = 0;
  const size_t col = rows.schema().NumColumns() - 1;
  for (const rel::Row& row : rows.MaterializeRows()) total += row[col].as_int64();
  return total;
}

int64_t QtyOf(const rel::Table& rows) {
  const size_t col = *rows.schema().IndexOf("qty");
  int64_t total = 0;
  for (const rel::Row& row : rows.MaterializeRows()) total += row[col].as_int64();
  return total;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sdelta_service_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    // The mirror catalog evolves in lockstep with the service's
    // warehouse, so workload generators see the same state.
    mirror_ = warehouse::MakeRetailCatalog(SmallConfig());
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<WarehouseService> OpenService(bool auto_batching = false,
                                                size_t num_threads = 1) {
    WarehouseService::Options options;
    options.auto_batching = auto_batching;
    options.warehouse.num_threads = num_threads;
    return WarehouseService::Open(dir_.string(),
                                  warehouse::MakeRetailCatalog(SmallConfig()),
                                  warehouse::RetailSummaryTables(), options);
  }

  /// Generates an insertion-generating change set from the mirror and
  /// applies it there, keeping the mirror in lockstep.
  core::ChangeSet NextChanges(size_t size, uint64_t seed) {
    core::ChangeSet changes =
        warehouse::MakeInsertionGeneratingChanges(mirror_, size, seed);
    core::ApplyChangeSet(mirror_, changes);
    return changes;
  }

  fs::path dir_;
  rel::Catalog mirror_;
};

TEST_F(ServiceTest, FreshOpenServesInitialEpoch) {
  auto svc = OpenService();
  const ReadSnapshot snap = svc->Snapshot();
  EXPECT_EQ(snap.epoch(), 1u);
  EXPECT_EQ(snap.NumViews(), 4u);
  const lattice::AnswerResult result = snap.Query(kRegionQuery);
  EXPECT_FALSE(result.from_base);
  EXPECT_GT(result.rows.NumRows(), 0u);
  const WarehouseService::Stats stats = svc->GetStats();
  EXPECT_EQ(stats.last_seq, 0u);
  EXPECT_EQ(stats.applied_seq, 0u);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.recovered_records, 0u);
}

TEST_F(ServiceTest, AppendFlushAdvancesEpochAndTotals) {
  auto svc = OpenService();
  const int64_t before = TotalOfLastColumn(svc->Snapshot().Query(kRegionQuery).rows);

  core::ChangeSet changes = NextChanges(100, 1);
  const int64_t delta_qty = QtyOf(changes.fact.insertions);
  const uint64_t seq = svc->Append(std::move(changes));
  EXPECT_EQ(seq, 1u);
  svc->Flush();

  const ReadSnapshot snap = svc->Snapshot();
  EXPECT_EQ(snap.epoch(), 2u);
  EXPECT_EQ(TotalOfLastColumn(snap.Query(kRegionQuery).rows),
            before + delta_qty);
  const WarehouseService::Stats stats = svc->GetStats();
  EXPECT_EQ(stats.last_seq, 1u);
  EXPECT_EQ(stats.applied_seq, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.queue_changesets, 0u);
}

TEST_F(ServiceTest, PinnedSnapshotIsImmuneToLaterBatches) {
  auto svc = OpenService();
  const ReadSnapshot old_snap = svc->Snapshot();
  const std::string old_answer =
      rel::ToCsvString(old_snap.Query(kDateQuery).rows);

  svc->Append(NextChanges(150, 2));
  svc->Flush();
  svc->Append(NextChanges(150, 3));
  svc->Flush();

  // The pinned epoch still answers from its frozen tables.
  EXPECT_EQ(rel::ToCsvString(old_snap.Query(kDateQuery).rows), old_answer);
  EXPECT_EQ(old_snap.epoch(), 1u);
  // A fresh pin sees the new state.
  const ReadSnapshot new_snap = svc->Snapshot();
  EXPECT_EQ(new_snap.epoch(), 3u);
  EXPECT_NE(rel::ToCsvString(new_snap.Query(kDateQuery).rows), old_answer);
}

TEST_F(ServiceTest, FlushCoalescesQueuedChangeSets) {
  auto svc = OpenService();
  svc->Append(NextChanges(50, 4));
  svc->Append(NextChanges(50, 5));
  svc->Append(NextChanges(50, 6));
  svc->Flush();
  const WarehouseService::Stats stats = svc->GetStats();
  EXPECT_EQ(stats.last_seq, 3u);
  EXPECT_EQ(stats.applied_seq, 3u);
  // One maintenance batch applied all three queued change sets.
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(svc->metrics().counter("service.coalesced_changesets"), 3u);
  EXPECT_EQ(svc->metrics().counter("service.appends"), 3u);
}

TEST_F(ServiceTest, EpochSharesUntouchedViewsAndRebuildsChangedOnes) {
  auto svc = OpenService();
  const ReadSnapshot before = svc->Snapshot();
  // The initial epoch shares the freshly loaded pages: nothing copied.
  EXPECT_EQ(svc->metrics().counter("service.epoch_views_rebuilt"), 0u);
  EXPECT_EQ(svc->metrics().counter("service.epoch_views_shared"), 4u);
  EXPECT_EQ(svc->metrics().counter("service.epoch_rows_copied"), 0u);
  svc->Append(NextChanges(100, 7));
  svc->Flush();
  const ReadSnapshot after = svc->Snapshot();
  // Insertion-generating changes write every retail view (they all see
  // qty), so each view copies the pages it wrote that epoch 1 holds.
  EXPECT_EQ(svc->metrics().counter("service.epoch_views_rebuilt"), 4u);
  EXPECT_EQ(svc->metrics().counter("service.epoch_views_shared"), 4u);
  EXPECT_GT(svc->metrics().counter("service.epoch_rows_copied"), 0u);
  EXPECT_EQ(before.epoch() + 1, after.epoch());
}

// Publication follows the change, not the view (DESIGN.md §9.1): at 50k
// pos rows, an insertion-class batch copies a few pages per view, well
// under 5% of the rows the epoch publishes.
TEST_F(ServiceTest, EpochRowsCopiedStayFarBelowPublishedRows) {
  warehouse::RetailConfig config;
  config.num_pos_rows = 50000;
  config.seed = 7;
  rel::Catalog mirror = warehouse::MakeRetailCatalog(config);
  WarehouseService::Options options;
  options.auto_batching = false;
  auto svc = WarehouseService::Open(dir_.string(),
                                    warehouse::MakeRetailCatalog(config),
                                    warehouse::RetailSummaryTables(), options);
  core::ChangeSet changes =
      warehouse::MakeInsertionGeneratingChanges(mirror, 5000, 11);
  core::ApplyChangeSet(mirror, changes);
  svc->Append(std::move(changes));
  svc->Flush();

  const ReadSnapshot snap = svc->Snapshot();
  uint64_t published_rows = 0;
  for (const std::string& name : snap.ViewNames()) {
    published_rows += snap.view(name).NumRows();
  }
  const uint64_t copied = svc->metrics().counter("service.epoch_rows_copied");
  EXPECT_GT(copied, 0u);
  EXPECT_LT(copied * 20, published_rows)
      << copied << " rows copied of " << published_rows << " published";
  // SID_sales spans several scan segments, only the tail one rebuilt by
  // this epoch; the item rollup reads them all and matches base data.
  const char* item_sql = "SELECT itemID, SUM(qty) AS q FROM pos GROUP BY itemID";
  EXPECT_TRUE(rel::Table::BagEquals(
      core::EvaluateView(mirror, core::ParseQuery(mirror, item_sql)),
      snap.Query(item_sql).rows));
}

TEST_F(ServiceTest, SnapshotRejectsBaseOnlyQueries) {
  auto svc = OpenService();
  // Grouping by price is not derivable from any retail summary table.
  EXPECT_THROW(svc->Snapshot().Query(
                   "SELECT price, SUM(qty) AS q FROM pos GROUP BY price"),
               std::runtime_error);
}

TEST_F(ServiceTest, WithWriterAddsViewAndPublishesFreshEpoch) {
  auto svc = OpenService();
  svc->Append(NextChanges(80, 8));
  svc->Flush();
  svc->WithWriter([](warehouse::Warehouse& wh) {
    wh.AddSummaryTable(
        "CREATE VIEW city_sales AS SELECT city, SUM(qty) AS total_qty "
        "FROM pos, stores WHERE pos.storeID = stores.storeID GROUP BY city");
  });
  const ReadSnapshot snap = svc->Snapshot();
  EXPECT_EQ(snap.NumViews(), 5u);
  const lattice::AnswerResult result = snap.Query(
      "SELECT city, SUM(qty) AS q FROM pos, stores "
      "WHERE pos.storeID = stores.storeID GROUP BY city");
  EXPECT_FALSE(result.from_base);
  // Maintenance keeps the new view fresh.
  const int64_t before = TotalOfLastColumn(result.rows);
  core::ChangeSet changes = NextChanges(60, 9);
  const int64_t delta_qty = QtyOf(changes.fact.insertions);
  svc->Append(std::move(changes));
  svc->Flush();
  EXPECT_EQ(TotalOfLastColumn(svc->Snapshot()
                                  .Query("SELECT city, SUM(qty) AS q FROM pos, "
                                         "stores WHERE pos.storeID = "
                                         "stores.storeID GROUP BY city")
                                  .rows),
            before + delta_qty);
}

TEST_F(ServiceTest, DimensionChangesRefreshReaderCatalog) {
  auto svc = OpenService();
  core::ChangeSet recat =
      warehouse::MakeItemRecategorization(mirror_, 5, 10);
  core::ApplyChangeSet(mirror_, recat);
  svc->Append(std::move(recat));
  svc->Flush();
  // The category query still answers consistently from the snapshot.
  const lattice::AnswerResult result = svc->Snapshot().Query(
      "SELECT category, SUM(qty) AS q FROM pos, items "
      "WHERE pos.itemID = items.itemID GROUP BY category");
  EXPECT_FALSE(result.from_base);
  EXPECT_GT(result.rows.NumRows(), 0u);
}

TEST_F(ServiceTest, AppendAfterStopThrows) {
  auto svc = OpenService();
  svc->Append(NextChanges(30, 11));
  svc->Stop();
  EXPECT_THROW(svc->Append(NextChanges(30, 12)), std::runtime_error);
  // Stop drained: the first change set was applied.
  EXPECT_EQ(svc->GetStats().applied_seq, 1u);
}

TEST_F(ServiceTest, AutoBatchingAppliesWithoutExplicitFlush) {
  WarehouseService::Options options;
  options.auto_batching = true;
  options.queue.max_batch_rows = 1;          // apply as soon as possible
  options.queue.max_batch_delay_seconds = 0.001;
  auto svc = WarehouseService::Open(dir_.string(),
                                    warehouse::MakeRetailCatalog(SmallConfig()),
                                    warehouse::RetailSummaryTables(), options);
  svc->Append(NextChanges(40, 13));
  // Poll: the background loop must install without any Flush call.
  for (int i = 0; i < 2000 && svc->GetStats().applied_seq < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(svc->GetStats().applied_seq, 1u);
  EXPECT_GE(svc->Snapshot().epoch(), 2u);
}

TEST_F(ServiceTest, StatsAndWindowMetricsArePopulated) {
  auto svc = OpenService();
  svc->Append(NextChanges(100, 14));
  svc->Flush();
  const WarehouseService::Stats stats = svc->GetStats();
  EXPECT_GT(stats.last_refresh_window_seconds, 0.0);
  // The swap window is the pointer assignment: well under a millisecond
  // even on a loaded container.
  EXPECT_LT(stats.last_refresh_window_seconds, 0.1);
  EXPECT_EQ(svc->metrics().histogram("service.refresh_window").count, 1u);
  EXPECT_GT(svc->metrics().counter("service.wal_bytes"), 0u);
  const warehouse::BatchReport report = svc->LastReport();
  EXPECT_EQ(report.views.size(), 4u);
}

}  // namespace
}  // namespace sdelta::service
