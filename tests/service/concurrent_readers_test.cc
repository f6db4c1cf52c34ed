// Concurrent-reader acceptance test (ISSUE 5): readers pinning
// snapshots and querying while the maintenance loop continuously
// installs new epochs must never observe a partially refreshed view.
//
// Invariant: within one snapshot, the total SUM(qty) is the same no
// matter which summary table answers it (region rollup vs date rollup)
// — a torn epoch, where one view is newer than another, breaks the
// equality because every batch strictly adds qty. CI runs this suite
// under TSAN as well, which proves data-race freedom of the
// epoch-swap/pin protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/delta.h"
#include "core/self_maintenance.h"
#include "core/summary_table.h"
#include "service/service.h"
#include "warehouse/retail_schema.h"
#include "warehouse/workload.h"

namespace sdelta::service {
namespace {

namespace fs = std::filesystem;

warehouse::RetailConfig SmallConfig() {
  warehouse::RetailConfig config;
  config.num_stores = 10;
  config.num_cities = 4;
  config.num_regions = 2;
  config.num_items = 40;
  config.num_categories = 5;
  config.num_dates = 15;
  config.num_pos_rows = 800;
  config.seed = 555;
  return config;
}

int64_t Total(const rel::Table& rows) {
  int64_t total = 0;
  const size_t col = rows.schema().NumColumns() - 1;
  for (const rel::Row& row : rows.MaterializeRows()) total += row[col].as_int64();
  return total;
}

TEST(ConcurrentReadersTest, SnapshotsAreAlwaysEpochConsistent) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("sdelta_readers_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  WarehouseService::Options options;
  options.auto_batching = true;
  options.queue.max_batch_rows = 64;  // install epochs aggressively
  options.queue.max_batch_delay_seconds = 0.001;
  options.warehouse.num_threads = 2;
  auto svc = WarehouseService::Open(dir.string(),
                                    warehouse::MakeRetailCatalog(SmallConfig()),
                                    warehouse::RetailSummaryTables(), options);

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> queries{0};

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const ReadSnapshot snap = svc->Snapshot();
        const int64_t by_region = Total(
            snap.Query("SELECT region, SUM(qty) AS q FROM pos, stores "
                       "WHERE pos.storeID = stores.storeID GROUP BY region")
                .rows);
        const int64_t by_date = Total(
            snap.Query("SELECT date, SUM(qty) AS q FROM pos GROUP BY date")
                .rows);
        if (by_region != by_date) {
          failed.store(true);
          ADD_FAILURE() << "torn snapshot at epoch " << snap.epoch() << ": "
                        << by_region << " (by region) vs " << by_date
                        << " (by date)";
          return;
        }
        if (snap.epoch() < last_epoch) {
          failed.store(true);
          ADD_FAILURE() << "epoch went backwards: " << last_epoch << " -> "
                        << snap.epoch();
          return;
        }
        last_epoch = snap.epoch();
        queries.fetch_add(2);
      }
    });
  }

  // Writer: a steady stream of qty-adding change sets.
  rel::Catalog mirror = warehouse::MakeRetailCatalog(SmallConfig());
  for (uint64_t i = 0; i < 25 && !failed.load(); ++i) {
    core::ChangeSet changes =
        warehouse::MakeInsertionGeneratingChanges(mirror, 60, 1000 + i);
    core::ApplyChangeSet(mirror, changes);
    svc->Append(std::move(changes));
  }
  svc->Flush();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(svc->GetStats().applied_seq, 25u);
  svc->Stop();
  svc.reset();
  fs::remove_all(dir);
}

// Installing a new epoch drops the previous one; when no reader pins it,
// that teardown frees every page only it held. It must run after the
// pin mutex is released, so a concurrent Pin() is never stuck behind it.
// The old epoch's view here has a deleter that waits (up to 2 s) for a
// Pin() issued from inside the teardown to return.
TEST(ConcurrentReadersTest, InstallReleasesOldEpochOutsidePinLock) {
  const rel::Catalog catalog = warehouse::MakeRetailCatalog(SmallConfig());
  const core::AugmentedView view = core::AugmentForSelfMaintenance(
      catalog, warehouse::RetailSummaryTables()[0]);
  VersionedTables versioned;

  std::mutex mu;
  std::condition_variable cv;
  bool pinned = false;
  bool pinned_during_teardown = false;
  std::thread pinner;
  auto deleter = [&](const core::SummaryTable* table) {
    pinner = std::thread([&] {
      versioned.Pin();
      std::scoped_lock lock(mu);
      pinned = true;
      cv.notify_all();
    });
    {
      std::unique_lock lock(mu);
      pinned_during_teardown =
          cv.wait_for(lock, std::chrono::seconds(2), [&] { return pinned; });
    }
    delete table;
  };

  auto old_epoch = std::make_shared<Epoch>();
  old_epoch->number = 1;
  old_epoch->views.push_back(std::shared_ptr<const core::SummaryTable>(
      new core::SummaryTable(view, catalog), deleter));
  versioned.Install(std::move(old_epoch));

  auto next = std::make_shared<Epoch>();
  next->number = 2;
  versioned.Install(std::move(next));  // drops the last reference to epoch 1
  ASSERT_TRUE(pinner.joinable());
  pinner.join();
  EXPECT_TRUE(pinned_during_teardown)
      << "Pin() blocked while the displaced epoch was being freed";
  EXPECT_EQ(versioned.Current()->number, 2u);
}

}  // namespace
}  // namespace sdelta::service
