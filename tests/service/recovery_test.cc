// Crash-recovery acceptance test (ISSUE 5): kill the service after WAL
// append but before the refresh commit, restart, and require the
// replayed state to be byte-identical (CSV-identical summary tables) to
// an uninterrupted run — at num_threads = 1 and 8.
//
// The "crash" is simulated faithfully at the file level: acknowledged-
// but-unapplied change sets are appended straight to the WAL with a
// second WalWriter after the service is gone, which leaves exactly the
// on-disk state a kill between Append's WAL write and the maintenance
// loop's epoch install would leave.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/delta.h"
#include "relational/csv.h"
#include "service/service.h"
#include "service/wal.h"
#include "warehouse/retail_schema.h"
#include "warehouse/warehouse.h"
#include "warehouse/workload.h"

namespace sdelta::service {
namespace {

namespace fs = std::filesystem;

warehouse::RetailConfig SmallConfig() {
  warehouse::RetailConfig config;
  config.num_stores = 12;
  config.num_cities = 5;
  config.num_regions = 3;
  config.num_items = 60;
  config.num_categories = 7;
  config.num_dates = 25;
  config.num_pos_rows = 1500;
  config.seed = 402;
  return config;
}

/// The change-set trajectory both the oracle and the service runs use:
/// `rounds` repetitions of six mixed change sets, reseeded per round.
std::vector<core::ChangeSet> MakeTrajectory(size_t rounds = 1) {
  rel::Catalog mirror = warehouse::MakeRetailCatalog(SmallConfig());
  std::vector<core::ChangeSet> out;
  const struct {
    int kind;  // 0 = update, 1 = insertion, 2 = recategorization
    size_t size;
    uint64_t seed;
  } specs[] = {{0, 120, 21}, {1, 90, 22},  {2, 4, 23},
               {0, 150, 24}, {1, 100, 25}, {0, 80, 26}};
  for (size_t n = 0; n < 6 * rounds; ++n) {
    const auto& spec = specs[n % 6];
    const uint64_t seed = spec.seed + 10 * (n / 6);
    core::ChangeSet changes;
    switch (spec.kind) {
      case 0:
        changes =
            warehouse::MakeUpdateGeneratingChanges(mirror, spec.size, seed);
        break;
      case 1:
        changes =
            warehouse::MakeInsertionGeneratingChanges(mirror, spec.size, seed);
        break;
      default:
        changes = warehouse::MakeItemRecategorization(mirror, spec.size, seed);
        break;
    }
    core::ApplyChangeSet(mirror, changes);
    out.push_back(std::move(changes));
  }
  return out;
}

/// Oracle: a plain warehouse applying one RunBatch per change set — the
/// uninterrupted (per-append-flush) run the recovered service must match.
std::map<std::string, std::string> OracleSummaries(
    const std::vector<core::ChangeSet>& trajectory) {
  warehouse::Warehouse wh(warehouse::MakeRetailCatalog(SmallConfig()));
  wh.DefineSummaryTables(warehouse::RetailSummaryTables());
  for (const core::ChangeSet& changes : trajectory) wh.RunBatch(changes);
  std::map<std::string, std::string> out;
  for (const core::AugmentedView& av : wh.vlattice().views) {
    out[av.name()] = rel::ToCsvString(wh.summary(av.name()).ToTable());
  }
  return out;
}

std::map<std::string, std::string> SnapshotSummaries(
    const WarehouseService& svc) {
  const ReadSnapshot snap = svc.Snapshot();
  std::map<std::string, std::string> out;
  for (const std::string& name : snap.ViewNames()) {
    out[name] = rel::ToCsvString(snap.view(name).ToTable());
  }
  return out;
}

class RecoveryTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sdelta_recovery_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    dir_str_ = dir_.string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<WarehouseService> OpenService(size_t num_threads) {
    WarehouseService::Options options;
    options.auto_batching = false;
    options.warehouse.num_threads = num_threads;
    return WarehouseService::Open(dir_str_,
                                  warehouse::MakeRetailCatalog(SmallConfig()),
                                  warehouse::RetailSummaryTables(), options);
  }

  std::string WalPath() const { return (dir_ / "wal.log").string(); }

  fs::path dir_;
  std::string dir_str_;
};

TEST_P(RecoveryTest, ReplayAfterCrashIsByteIdentical) {
  const size_t threads = GetParam();
  const std::vector<core::ChangeSet> trajectory = MakeTrajectory();
  const auto oracle = OracleSummaries(trajectory);

  // Phase 1: the service durably accepts the first half and applies it.
  const size_t applied = 3;
  {
    auto svc = OpenService(threads);
    for (size_t i = 0; i < applied; ++i) {
      svc->Append(trajectory[i]);
      svc->Flush();
    }
  }  // clean shutdown — but NO checkpoint, so recovery replays from seq 1

  // Phase 2: the "crash". The remaining change sets reach the WAL (they
  // were acknowledged) but no batch ever commits them.
  {
    WalWriter writer(WalPath(), /*first_seq=*/1, /*sync=*/false);
    for (size_t i = applied; i < trajectory.size(); ++i) {
      writer.Append(i + 1, trajectory[i]);
    }
  }

  // Phase 3: restart. Open replays the full WAL through the batch path.
  auto svc = OpenService(threads);
  EXPECT_EQ(svc->GetStats().recovered_records, trajectory.size());
  EXPECT_EQ(svc->GetStats().last_seq, trajectory.size());
  EXPECT_EQ(SnapshotSummaries(*svc), oracle);
}

TEST_P(RecoveryTest, CheckpointTruncatesWalAndRecoveryReplaysOnlyTail) {
  const size_t threads = GetParam();
  const std::vector<core::ChangeSet> trajectory = MakeTrajectory();
  const auto oracle = OracleSummaries(trajectory);

  {
    auto svc = OpenService(threads);
    for (size_t i = 0; i < 4; ++i) {
      svc->Append(trajectory[i]);
      svc->Flush();
    }
    svc->Checkpoint();
    EXPECT_EQ(svc->GetStats().checkpoint_seq, 4u);
    EXPECT_EQ(svc->GetStats().checkpoints, 1u);
    // Two more acknowledged changes after the checkpoint...
    svc->Append(trajectory[4]);
    svc->Flush();
    svc->Append(trajectory[5]);
    svc->Flush();
    // ...then crash: drop the service. Seq 5 and 6 live only in the WAL.
  }

  auto svc = OpenService(threads);
  // Only the tail past the checkpoint is replayed.
  EXPECT_EQ(svc->GetStats().recovered_records, 2u);
  EXPECT_EQ(svc->GetStats().checkpoint_seq, 4u);
  EXPECT_EQ(svc->GetStats().last_seq, 6u);
  EXPECT_EQ(SnapshotSummaries(*svc), oracle);

  // The recovered service keeps working: checkpoint again and reopen.
  svc->Checkpoint();
  svc.reset();
  auto svc2 = OpenService(threads);
  EXPECT_EQ(svc2->GetStats().recovered_records, 0u);
  EXPECT_EQ(SnapshotSummaries(*svc2), oracle);
}

TEST_P(RecoveryTest, TornWalTailIsDiscarded) {
  const size_t threads = GetParam();
  const std::vector<core::ChangeSet> trajectory = MakeTrajectory();

  fs::create_directories(dir_);
  {
    WalWriter writer(WalPath(), 1, false);
    for (size_t i = 0; i < trajectory.size(); ++i) {
      writer.Append(i + 1, trajectory[i]);
    }
  }
  // Tear the last record mid-payload: it was never acknowledged.
  fs::resize_file(WalPath(), fs::file_size(WalPath()) - 11);

  std::vector<core::ChangeSet> acknowledged(trajectory.begin(),
                                            trajectory.end() - 1);
  const auto oracle = OracleSummaries(acknowledged);
  auto svc = OpenService(threads);
  EXPECT_EQ(svc->GetStats().recovered_records, acknowledged.size());
  EXPECT_EQ(SnapshotSummaries(*svc), oracle);
}

TEST_P(RecoveryTest, AppendsAfterTornTailRecoverySurviveNextCrash) {
  const size_t threads = GetParam();
  const std::vector<core::ChangeSet> trajectory = MakeTrajectory();
  const auto oracle = OracleSummaries(trajectory);

  // Seqs 1..4 reach the WAL; the seq-4 record is torn mid-payload.
  fs::create_directories(dir_);
  {
    WalWriter writer(WalPath(), 1, false);
    for (size_t i = 0; i < 4; ++i) writer.Append(i + 1, trajectory[i]);
  }
  fs::resize_file(WalPath(), fs::file_size(WalPath()) - 11);

  // First recovery discards the torn record and must truncate it, so
  // that the re-appended seq 4 and the new seq 5 land on the good
  // prefix — not after garbage bytes the next scan would stop at.
  {
    auto svc = OpenService(threads);
    EXPECT_EQ(svc->GetStats().recovered_records, 3u);
    EXPECT_EQ(svc->Append(trajectory[3]), 4u);
    svc->Flush();
    EXPECT_EQ(svc->Append(trajectory[4]), 5u);
    svc->Flush();
  }  // crash again: no checkpoint, seqs 4-5 live only in the WAL

  auto svc = OpenService(threads);
  EXPECT_EQ(svc->GetStats().recovered_records, 5u);
  EXPECT_EQ(svc->GetStats().last_seq, 5u);
  svc->Append(trajectory[5]);
  svc->Flush();
  EXPECT_EQ(SnapshotSummaries(*svc), oracle);
}

TEST_P(RecoveryTest, RecoveryKeepsWriterBatchBoundaries) {
  // Several drains of three change sets each, stopped with no
  // checkpoint: recovery must rerun the writer's batches (from its WAL
  // markers), not one batch per record, so the physical row order of
  // every view — not just its canonical contents — survives the restart.
  const size_t threads = GetParam();
  const std::vector<core::ChangeSet> trajectory = MakeTrajectory(/*rounds=*/2);
  std::map<std::string, std::string> writer_rows;
  {
    auto svc = OpenService(threads);
    for (size_t i = 0; i < trajectory.size(); ++i) {
      svc->Append(trajectory[i]);
      if (i % 3 == 2) svc->Flush();
    }
    EXPECT_EQ(svc->GetStats().batches, trajectory.size() / 3);
    writer_rows = SnapshotSummaries(*svc);
  }

  auto svc = OpenService(threads);
  EXPECT_EQ(svc->GetStats().recovered_records, trajectory.size());
  EXPECT_EQ(SnapshotSummaries(*svc), writer_rows);
}

INSTANTIATE_TEST_SUITE_P(Threads, RecoveryTest, ::testing::Values(1, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace sdelta::service
