// Log shipping from the WAL (DESIGN.md §15): a consumer replays each
// marker's range as one batch through ReplayWal, the reader recovery
// uses. ShipLogReplayTest pins the consumer contract against a live
// writer; WalCrashTest cuts the WAL at every byte of one drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/delta.h"
#include "core/summary_table.h"
#include "core/view_def.h"
#include "relational/csv.h"
#include "service/service.h"
#include "service/wal.h"
#include "warehouse/persistence.h"
#include "warehouse/retail_schema.h"
#include "warehouse/warehouse.h"
#include "warehouse/workload.h"

namespace sdelta::service {
namespace {

namespace fs = std::filesystem;

warehouse::RetailConfig SmallConfig() {
  return {.num_stores = 15, .num_cities = 6, .num_regions = 3,
          .num_items = 80, .num_categories = 8, .num_dates = 30,
          .num_pos_rows = 600, .seed = 913};
}

/// Canonical (row-order-independent) CSV of every view in a snapshot.
std::map<std::string, std::string> CanonicalViews(const ReadSnapshot& snap) {
  std::map<std::string, std::string> out;
  for (const std::string& name : snap.ViewNames()) {
    out[name] = rel::ToCsvString(snap.view(name).ToCanonicalTable());
  }
  return out;
}

std::unique_ptr<WarehouseService> OpenService(const fs::path& dir,
                                             bool auto_batching = false) {
  WarehouseService::Options options;
  options.auto_batching = auto_batching;
  options.warehouse.num_threads = 1;
  return WarehouseService::Open(dir.string(),
                                warehouse::MakeRetailCatalog(SmallConfig()),
                                warehouse::RetailSummaryTables(), options);
}

/// A log-shipping consumer, reduced to the contract DESIGN.md §15 sets:
/// bootstrap like the writer, replay the installed batches of wal.prev
/// then wal.log past the last sequence applied, and refuse gaps. One
/// that finds a gap is over a checkpoint behind and must bootstrap from
/// the writer's checkpoint.
struct Consumer {
  std::unique_ptr<warehouse::Warehouse> wh;
  uint64_t applied_seq = 0;
  uint64_t epoch = 0;

  Consumer()
      : wh(std::make_unique<warehouse::Warehouse>(
            warehouse::MakeRetailCatalog(SmallConfig()))) {
    wh->DefineSummaryTables(warehouse::RetailSummaryTables());
  }

  /// Applies every installed batch it can reach without a gap; returns
  /// false when it stopped at one.
  bool CatchUp(const fs::path& dir) {
    const std::string log = (dir / "wal.log").string();
    bool gap = false;
    for (const std::string& path : {PreviousWalPath(log), log}) {
      ReplayWal(path, wh->catalog(), applied_seq, [&](WalBatch batch) {
        // Past the last marker: not installed yet, wait for the marker.
        if (gap || batch.epoch == 0) return;
        gap = batch.first_seq != applied_seq + 1;
        if (gap) return;
        wh->RunBatch(batch.changes);
        applied_seq = batch.last_seq;
        epoch = batch.epoch;
      });
    }
    return !gap;
  }

  /// Restarts from the writer's last checkpoint (quiescent writer).
  void Bootstrap(const fs::path& dir) {
    const fs::path ckpt = dir / "checkpoint";
    wh = std::make_unique<warehouse::Warehouse>(warehouse::LoadWarehouse(
        ckpt.string(), warehouse::RetailSummaryTables()));
    std::ifstream in(ckpt / "SEQ");
    ASSERT_TRUE(in >> applied_seq);
  }

  /// Canonical CSV of every view: as maintained, or recomputed from
  /// scratch over `recompute` when given.
  std::map<std::string, std::string> Views(
      const rel::Catalog* recompute = nullptr) const {
    std::map<std::string, std::string> out;
    for (const core::AugmentedView& av : wh->vlattice().views) {
      out[av.name()] = rel::ToCsvString(
          recompute != nullptr
              ? core::CanonicalizeRows(
                    core::EvaluateView(*recompute, av.physical))
              : wh->summary(av.name()).ToCanonicalTable());
    }
    return out;
  }
};

/// A writer service on a temp data dir, plus a mirror catalog for
/// generating its change stream.
struct Writer {
  fs::path dir;
  rel::Catalog mirror;
  std::unique_ptr<WarehouseService> svc;

  explicit Writer(const std::string& tag, bool auto_batching = false)
      : dir(fs::temp_directory_path() /
            ("sdelta_logship_test_" + std::to_string(::getpid()) + "_" + tag)),
        mirror(warehouse::MakeRetailCatalog(SmallConfig())) {
    fs::remove_all(dir);
    svc = OpenService(dir, auto_batching);
  }
  ~Writer() {
    svc.reset();
    fs::remove_all(dir);
  }

  core::ChangeSet Next(uint64_t seed, bool insertion = false,
                       size_t rows = 200) {
    core::ChangeSet changes =
        insertion
            ? warehouse::MakeInsertionGeneratingChanges(mirror, rows, seed)
            : warehouse::MakeUpdateGeneratingChanges(mirror, rows, seed);
    core::ApplyChangeSet(mirror, changes);
    return changes;
  }

  /// One drain of `count` change sets (one epoch, one marker).
  void Step(uint64_t seed, bool insertion = false, size_t count = 1) {
    for (size_t i = 0; i < count; ++i) svc->Append(Next(seed + i, insertion));
    svc->Flush();
  }
};

TEST(ShipLogReplayTest, ConvergesByteIdenticalPerEpoch) {
  Writer writer("converge");
  Consumer consumer;
  // Before any traffic both sides hold the same bootstrap state.
  EXPECT_EQ(consumer.Views(), CanonicalViews(writer.svc->Snapshot()));

  uint64_t seed = 100;
  for (int round = 0; round < 3; ++round) {
    writer.Step(++seed, /*insertion=*/round == 1, /*count=*/round + 1);
    ASSERT_TRUE(consumer.CatchUp(writer.dir));
    // Per-epoch assertion: the last marker carries the writer's epoch,
    // and its replay reproduces that epoch's canonical state.
    EXPECT_EQ(consumer.epoch, writer.svc->GetStats().epoch);
    EXPECT_EQ(consumer.Views(), CanonicalViews(writer.svc->Snapshot()));
  }
  EXPECT_EQ(consumer.applied_seq, writer.svc->GetStats().applied_seq);
}

TEST(ShipLogReplayTest, WriterRestartReshipsWalRecoveredBatches) {
  // A change set can be WAL-durable yet never installed (a crash
  // between append and batch). Reopening replays it and marks it under
  // a fresh epoch numbered past every marker the WAL holds.
  Writer writer("reship");
  writer.Step(801);
  writer.Step(802, /*insertion=*/false, /*count=*/2);
  writer.svc.reset();
  {
    // The crash: two acknowledged change sets reach the WAL, unmarked.
    WalWriter wal((writer.dir / "wal.log").string(), 1, false);
    wal.Append(4, writer.Next(803));
    wal.Append(5, writer.Next(804, /*insertion=*/true));
  }
  Consumer early;
  ASSERT_TRUE(early.CatchUp(writer.dir));
  EXPECT_EQ(early.applied_seq, 3u);  // the unmarked tail is "not yet"
  const uint64_t old_epoch = early.epoch;

  writer.svc = OpenService(writer.dir);
  EXPECT_EQ(writer.svc->GetStats().recovered_records, 5u);
  EXPECT_GT(writer.svc->GetStats().epoch, old_epoch);
  ASSERT_TRUE(early.CatchUp(writer.dir));
  EXPECT_EQ(early.applied_seq, 5u);
  EXPECT_EQ(early.epoch, writer.svc->GetStats().epoch);
  EXPECT_EQ(early.Views(), CanonicalViews(writer.svc->Snapshot()));

  // A consumer from nothing replays the re-marked log, and new writer
  // epochs continue past everything already marked.
  writer.Step(805);
  Consumer late;
  ASSERT_TRUE(late.CatchUp(writer.dir));
  EXPECT_GT(late.epoch, early.epoch);
  EXPECT_EQ(late.epoch, writer.svc->GetStats().epoch);
  EXPECT_EQ(late.Views(), CanonicalViews(writer.svc->Snapshot()));
}

TEST(ShipLogReplayTest, WriterCheckpointRacingShipsStaysConsistent) {
  // Interleaves checkpoints with drains while a consumer pulls after
  // every step: the new WAL generation a checkpoint starts must be
  // invisible to a consumer at most one generation behind.
  Writer writer("ckptrace");
  Consumer consumer;
  Consumer one_behind;

  uint64_t seed = 900;
  for (int round = 0; round < 3; ++round) {
    writer.Step(++seed);
    writer.svc->Checkpoint();
    writer.Step(++seed, /*insertion=*/false, /*count=*/2);
    ASSERT_TRUE(consumer.CatchUp(writer.dir));
    EXPECT_EQ(consumer.epoch, writer.svc->GetStats().epoch);
    EXPECT_EQ(consumer.Views(), CanonicalViews(writer.svc->Snapshot()));
    if (round == 0) {
      ASSERT_TRUE(one_behind.CatchUp(writer.dir));
    }
  }
  EXPECT_EQ(consumer.applied_seq, 9u);

  // `one_behind` stopped at seq 3. Two checkpoints later wal.prev starts
  // at seq 5, so it refuses the gap and bootstraps from the checkpoint.
  EXPECT_FALSE(one_behind.CatchUp(writer.dir));
  EXPECT_EQ(one_behind.applied_seq, 3u);
  one_behind.Bootstrap(writer.dir);
  EXPECT_EQ(one_behind.applied_seq, 7u);
  ASSERT_TRUE(one_behind.CatchUp(writer.dir));
  EXPECT_EQ(one_behind.applied_seq, 9u);
  EXPECT_EQ(one_behind.Views(), CanonicalViews(writer.svc->Snapshot()));

  // A consumer starting from nothing is more than one generation behind
  // as well, and converges the same way.
  Consumer late;
  EXPECT_FALSE(late.CatchUp(writer.dir));
  late.Bootstrap(writer.dir);
  ASSERT_TRUE(late.CatchUp(writer.dir));
  EXPECT_EQ(late.Views(), CanonicalViews(writer.svc->Snapshot()));
}

TEST(ShipLogReplayTest, EachChangeSetIsWrittenOnce) {
  // Shipping writes no payload copy: after N appends in B drains, the
  // data dir's log bytes are the WAL header, the N records, and B
  // payload-free markers.
  Writer writer("bytes");
  constexpr size_t kDrains = 4;
  uint64_t seed = 40;
  for (size_t d = 0; d < kDrains; ++d) {
    writer.Step(++seed, /*insertion=*/d % 2 == 1, /*count=*/d + 1);
  }
  obs::MetricsRegistry& m = writer.svc->metrics();
  EXPECT_EQ(m.counter("service.wal_records"), 1u + 2u + 3u + 4u);
  EXPECT_EQ(m.counter("service.wal_markers"), kDrains);
  uintmax_t log_bytes = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(writer.dir)) {
    if (entry.is_regular_file()) log_bytes += entry.file_size();
  }
  EXPECT_EQ(log_bytes, kWalHeaderBytes + m.counter("service.wal_bytes") +
                           kDrains * kWalMarkerBytes);
}

TEST(ShipLogReplayTest, ConsumerTailsWalWhileWriterCheckpointsAndRunsDdl) {
  // The writer appends with auto-batching while a consumer thread tails
  // the WAL; the main thread interleaves Checkpoint and WithWriter, both
  // of which wait for the maintenance thread while it writes markers.
  Writer writer("tail", /*auto_batching=*/true);
  std::atomic<bool> stop{false};
  Consumer consumer;
  std::thread tail([&] {
    while (!stop.load()) consumer.CatchUp(writer.dir);
  });
  uint64_t seed = 500;
  for (int i = 0; i < 24; ++i) {
    writer.svc->Append(writer.Next(++seed, /*insertion=*/i % 3 == 0));
    if (i % 8 == 7) writer.svc->Checkpoint();
    if (i % 8 == 3) {
      writer.svc->WithWriter([](warehouse::Warehouse& wh) {
        EXPECT_EQ(wh.vlattice().views.size(), 4u);
      });
    }
  }
  writer.svc->Flush();
  stop.store(true);
  tail.join();

  // Quiescent now: a consumer that fell more than a generation behind
  // bootstraps, then both converge on the writer's state.
  if (!consumer.CatchUp(writer.dir)) {
    consumer.Bootstrap(writer.dir);
    ASSERT_TRUE(consumer.CatchUp(writer.dir));
  }
  EXPECT_EQ(consumer.applied_seq, 24u);
  EXPECT_EQ(consumer.Views(), CanonicalViews(writer.svc->Snapshot()));
}

TEST(WalCrashTest, EveryCutOfTheLastDrainRecovers) {
  // Three drains of three change sets, a checkpoint between the second
  // and the third. A crash at every byte of the third drain's records
  // and marker: a copy of the data dir, its WAL cut there, is reopened.
  Writer writer("crash");
  Consumer shape;  // the views to recompute
  std::vector<std::map<std::string, std::string>> oracle;
  for (uint64_t i = 0; i < 9; ++i) {
    if (i == 6) writer.svc->Checkpoint();
    writer.svc->Append(writer.Next(300 + i, /*insertion=*/i >= 6,
                                   /*rows=*/i < 6 ? 4 : 1));
    if (i % 3 == 2) writer.svc->Flush();
    // oracle[k]: recomputation over the checkpointed change sets plus
    // the first k of the third drain.
    if (i >= 5) oracle.push_back(shape.Views(&writer.mirror));
  }
  writer.svc.reset();

  const fs::path copy = writer.dir.string() + "_copy";
  const std::string log = (copy / "wal.log").string();
  const auto ignore = [](WalBatch) {};
  const uintmax_t end = fs::file_size(writer.dir / "wal.log");
  for (uintmax_t cut = kWalHeaderBytes; cut <= end; ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    fs::remove_all(copy);
    fs::copy(writer.dir, copy, fs::copy_options::recursive);
    fs::resize_file(log, cut);
    const WalReplayReport kept = ReplayWal(log, writer.mirror, 0, ignore);
    const uint64_t kept_epoch = std::max(
        kept.max_epoch,
        ReplayWal(PreviousWalPath(log), writer.mirror, 0, ignore).max_epoch);

    // Recovery equals recomputation over the records the cut kept, and
    // numbers epochs (its own and those of the markers it adds for
    // unmarked records) past every kept marker.
    auto svc = OpenService(copy);
    const auto recovered = CanonicalViews(svc->Snapshot());
    ASSERT_LT(kept.records, oracle.size());
    EXPECT_EQ(recovered, oracle[kept.records]);
    EXPECT_GT(svc->GetStats().epoch, kept_epoch);
    svc.reset();

    // A consumer replaying the reopened writer's WAL (both generations)
    // converges to it.
    Consumer consumer;
    ASSERT_TRUE(consumer.CatchUp(copy));
    EXPECT_EQ(consumer.applied_seq, 6 + kept.records);  // none unmarked
    EXPECT_EQ(consumer.Views(), recovered);
    if (HasFailure()) break;  // one cut's report is enough
  }
  fs::remove_all(copy);
}

}  // namespace
}  // namespace sdelta::service
