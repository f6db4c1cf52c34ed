// Epoch-shipping replication (DESIGN.md §15): a ReadReplica that
// replays the writer's ship stream converges to byte-identical summary
// state — asserted per epoch — and every failure path (CRC-corrupt
// record, duplicate delivery, sequence gap, replica restart, writer
// checkpoint racing a ship, bootstrap from a writer checkpoint)
// resolves to that same convergence.
#include "replica/replica.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/delta.h"
#include "relational/csv.h"
#include "replica/transport.h"
#include "service/service.h"
#include "warehouse/retail_schema.h"
#include "warehouse/workload.h"

namespace sdelta::replica {
namespace {

namespace fs = std::filesystem;

warehouse::RetailConfig SmallConfig() {
  warehouse::RetailConfig config;
  config.num_stores = 15;
  config.num_cities = 6;
  config.num_regions = 3;
  config.num_items = 80;
  config.num_categories = 8;
  config.num_dates = 30;
  config.num_pos_rows = 2500;
  config.seed = 913;
  return config;
}

/// Canonical (row-order-independent) CSV of every view in a snapshot.
std::map<std::string, std::string> CanonicalViews(
    const service::ReadSnapshot& snap) {
  std::map<std::string, std::string> out;
  for (const std::string& name : snap.ViewNames()) {
    out[name] = rel::ToCsvString(snap.view(name).ToCanonicalTable());
  }
  return out;
}

/// A writer service + mirror catalog for generating its change stream,
/// publishing ship records into `ship`.
struct Writer {
  fs::path dir;
  rel::Catalog mirror;
  std::unique_ptr<service::WarehouseService> svc;

  Writer(const std::string& tag, ShipPublisher* ship)
      : dir(fs::temp_directory_path() /
            ("sdelta_replica_test_" + std::to_string(::getpid()) + "_" + tag)),
        mirror(warehouse::MakeRetailCatalog(SmallConfig())) {
    fs::remove_all(dir);
    svc = OpenService(ship);
  }
  ~Writer() {
    svc.reset();
    fs::remove_all(dir);
  }

  std::unique_ptr<service::WarehouseService> OpenService(ShipPublisher* ship) {
    service::WarehouseService::Options options;
    options.auto_batching = false;  // deterministic batch boundaries
    options.ship = ship;
    return service::WarehouseService::Open(
        dir.string(), warehouse::MakeRetailCatalog(SmallConfig()),
        warehouse::RetailSummaryTables(), options);
  }

  /// One shipped batch: append a change set and flush (= one drain, one
  /// epoch, one ship record).
  void Step(uint64_t seed, bool insertion = false) {
    core::ChangeSet changes =
        insertion
            ? warehouse::MakeInsertionGeneratingChanges(mirror, 150, seed)
            : warehouse::MakeUpdateGeneratingChanges(mirror, 200, seed);
    core::ApplyChangeSet(mirror, changes);
    svc->Append(std::move(changes));
    svc->Flush();
  }
};

std::unique_ptr<ReadReplica> OpenReplica(const std::string& tag,
                                         ShipTransport* transport,
                                         ReadReplica::Options options = {}) {
  const fs::path dir = fs::temp_directory_path() /
                       ("sdelta_replica_test_" + std::to_string(::getpid()) +
                        "_" + tag + "_replica");
  return ReadReplica::Open(dir.string(),
                           warehouse::MakeRetailCatalog(SmallConfig()),
                           warehouse::RetailSummaryTables(), transport,
                           std::move(options));
}

struct ReplicaDirGuard {
  std::string dir;
  explicit ReplicaDirGuard(std::string d) : dir(std::move(d)) {}
  ~ReplicaDirGuard() { fs::remove_all(dir); }
};

TEST(ReplicaTest, ConvergesByteIdenticalPerEpoch) {
  LoopbackShipTransport loop;
  Writer writer("converge", &loop);
  std::unique_ptr<ReadReplica> replica = OpenReplica("converge", &loop);
  ReplicaDirGuard guard(replica->data_dir());

  // Before any traffic both sides serve epoch state from the same
  // bootstrap materialization.
  EXPECT_EQ(CanonicalViews(replica->Snapshot()),
            CanonicalViews(writer.svc->Snapshot()));

  uint64_t seed = 100;
  for (int round = 0; round < 3; ++round) {
    writer.Step(++seed, /*insertion=*/round == 1);
    const ReadReplica::CatchupReport report = replica->Catchup();
    EXPECT_EQ(report.applied, 1u);
    EXPECT_EQ(report.crc_rejects, 0u);
    EXPECT_EQ(report.gap_rejects, 0u);
    EXPECT_GE(report.seconds, 0.0);  // the measured catch-up lag
    // Per-epoch assertion: the replica reached the writer's epoch and
    // serves byte-identical canonical state for it.
    EXPECT_EQ(replica->Snapshot().epoch(), writer.svc->Snapshot().epoch());
    EXPECT_EQ(replica->applied_epoch(), writer.svc->GetStats().epoch);
    EXPECT_EQ(CanonicalViews(replica->Snapshot()),
              CanonicalViews(writer.svc->Snapshot()));
  }
  EXPECT_EQ(replica->applied_seq(), writer.svc->GetStats().applied_seq);
}

TEST(ReplicaTest, CorruptRecordIsRejectedAndReRequested) {
  LoopbackShipTransport loop;
  Writer writer("corrupt", &loop);
  std::unique_ptr<ReadReplica> replica = OpenReplica("corrupt", &loop);
  ReplicaDirGuard guard(replica->data_dir());

  writer.Step(201);
  loop.CorruptNextFetch();
  ReadReplica::CatchupReport report = replica->Catchup();
  EXPECT_EQ(report.applied, 0u);
  EXPECT_EQ(report.crc_rejects, 1u);
  EXPECT_EQ(replica->applied_epoch(), 0u);

  // Re-request: the cursor did not advance, so the next pass gets the
  // intact bytes and applies them.
  report = replica->Catchup();
  EXPECT_EQ(report.applied, 1u);
  EXPECT_EQ(report.crc_rejects, 0u);
  EXPECT_EQ(CanonicalViews(replica->Snapshot()),
            CanonicalViews(writer.svc->Snapshot()));
  EXPECT_EQ(replica->metrics().Snapshot().counters.at("replica.crc_rejects"),
            1u);
}

TEST(ReplicaTest, DuplicateDeliveryIsSkippedBySequence) {
  LoopbackShipTransport loop;
  Writer writer("dup", &loop);
  std::unique_ptr<ReadReplica> replica = OpenReplica("dup", &loop);
  ReplicaDirGuard guard(replica->data_dir());

  writer.Step(301);
  loop.DuplicateNextFetch();
  // One pass sees the record twice (delivery without cursor advance,
  // then the regular delivery): applied once, deduped once.
  const ReadReplica::CatchupReport report = replica->Catchup();
  EXPECT_EQ(report.applied, 1u);
  EXPECT_EQ(report.duplicates, 1u);
  EXPECT_EQ(CanonicalViews(replica->Snapshot()),
            CanonicalViews(writer.svc->Snapshot()));
}

TEST(ReplicaTest, SequenceGapIsRefusedUntilHealed) {
  LoopbackShipTransport loop;
  Writer writer("gap", &loop);
  std::unique_ptr<ReadReplica> replica = OpenReplica("gap", &loop);
  ReplicaDirGuard guard(replica->data_dir());

  writer.Step(401);
  writer.Step(402);
  loop.DropNextFetch();
  // The transport skips record 1 and delivers record 2: applying it
  // would fork the state, so the replica refuses without advancing.
  ReadReplica::CatchupReport report = replica->Catchup();
  EXPECT_EQ(report.applied, 0u);
  EXPECT_EQ(report.gap_rejects, 1u);
  EXPECT_EQ(replica->applied_epoch(), 0u);

  // The fault was one-shot; the healed stream replays in order.
  report = replica->Catchup();
  EXPECT_EQ(report.applied, 2u);
  EXPECT_EQ(report.gap_rejects, 0u);
  EXPECT_EQ(CanonicalViews(replica->Snapshot()),
            CanonicalViews(writer.svc->Snapshot()));
}

TEST(ReplicaTest, RestartResumesFromLastAppliedEpoch) {
  LoopbackShipTransport loop;
  Writer writer("restart", &loop);
  std::string replica_dir;
  uint64_t epoch_at_checkpoint = 0;
  {
    std::unique_ptr<ReadReplica> replica = OpenReplica("restart", &loop);
    replica_dir = replica->data_dir();
    writer.Step(601);
    writer.Step(602);
    replica->Catchup();
    epoch_at_checkpoint = writer.svc->GetStats().epoch;
    EXPECT_EQ(replica->applied_epoch(), epoch_at_checkpoint);
    replica->Checkpoint();
  }
  ReplicaDirGuard guard(replica_dir);

  // Two more writer batches land while the replica is down.
  writer.Step(603);
  writer.Step(604);

  std::unique_ptr<ReadReplica> replica = ReadReplica::Open(
      replica_dir, warehouse::MakeRetailCatalog(SmallConfig()),
      warehouse::RetailSummaryTables(), &loop, {});
  // The checkpoint restored the applied markers — no replay of old
  // records, only the two new ones.
  EXPECT_EQ(replica->applied_epoch(), epoch_at_checkpoint);
  const ReadReplica::CatchupReport report = replica->Catchup();
  EXPECT_EQ(report.applied, 2u);
  EXPECT_EQ(report.duplicates, 0u);
  EXPECT_EQ(replica->applied_epoch(), writer.svc->GetStats().epoch);
  EXPECT_EQ(CanonicalViews(replica->Snapshot()),
            CanonicalViews(writer.svc->Snapshot()));
}

TEST(ReplicaTest, BootstrapFromWriterCheckpointDedupsHistory) {
  LoopbackShipTransport loop;
  Writer writer("bootstrap", &loop);
  writer.Step(701);
  writer.Step(702);
  // Checkpoint the writer *between* ships — the checkpointed state
  // already contains records 1..2; the stream still carries them.
  writer.svc->Checkpoint();
  const uint64_t epoch_at_checkpoint = writer.svc->GetStats().epoch;
  writer.Step(703);

  ReadReplica::Options options;
  options.bootstrap_checkpoint =
      (fs::path(writer.svc->data_dir()) / "checkpoint").string();
  std::unique_ptr<ReadReplica> replica =
      OpenReplica("bootstrap", &loop, std::move(options));
  ReplicaDirGuard guard(replica->data_dir());

  // The clone starts at the checkpoint's seq/epoch floor.
  EXPECT_EQ(replica->applied_seq(), 2u);
  EXPECT_EQ(replica->applied_epoch(), epoch_at_checkpoint);
  const ReadReplica::CatchupReport report = replica->Catchup();
  // History before the checkpoint is deduped by sequence, the one
  // post-checkpoint record applies.
  EXPECT_EQ(report.duplicates, 2u);
  EXPECT_EQ(report.applied, 1u);
  EXPECT_EQ(CanonicalViews(replica->Snapshot()),
            CanonicalViews(writer.svc->Snapshot()));
}

TEST(ReplicaTest, WriterRestartReshipsWalRecoveredBatches) {
  // A batch can be WAL-durable yet never shipped (writer ran without a
  // ship sink, or crashed between append and publish). On reopen with a
  // sink, WAL replay re-ships the recovered records under fresh epochs,
  // and new epochs number past the stream's history.
  LoopbackShipTransport loop;
  Writer writer("reship", /*ship=*/nullptr);
  writer.Step(801);
  writer.Step(802);
  const auto writer_state = CanonicalViews(writer.svc->Snapshot());
  writer.svc->Stop();
  writer.svc.reset();

  // Reopen the same data dir with the ship sink attached: the WAL tail
  // (never checkpointed) replays and re-ships.
  writer.svc = writer.OpenService(&loop);
  EXPECT_EQ(loop.records(), 2u);
  EXPECT_EQ(CanonicalViews(writer.svc->Snapshot()), writer_state);

  std::unique_ptr<ReadReplica> replica = OpenReplica("reship", &loop);
  ReplicaDirGuard guard(replica->data_dir());
  const ReadReplica::CatchupReport report = replica->Catchup();
  EXPECT_EQ(report.applied, 2u);
  EXPECT_EQ(CanonicalViews(replica->Snapshot()), writer_state);

  // New writer epochs continue past everything already shipped.
  writer.Step(803);
  replica->Catchup();
  EXPECT_GT(replica->applied_epoch(), 2u);
  EXPECT_EQ(CanonicalViews(replica->Snapshot()),
            CanonicalViews(writer.svc->Snapshot()));
}

TEST(ReplicaTest, WriterCheckpointRacingShipsStaysConsistent) {
  // Interleaves checkpoints with shipped batches while a replica pulls
  // after every step: the WAL truncation a checkpoint performs must be
  // invisible to the ship stream, and a bootstrap from any of the
  // checkpoints must still converge.
  LoopbackShipTransport loop;
  Writer writer("ckptrace", &loop);
  std::unique_ptr<ReadReplica> replica = OpenReplica("ckptrace", &loop);
  ReplicaDirGuard guard(replica->data_dir());

  uint64_t seed = 900;
  for (int round = 0; round < 3; ++round) {
    writer.Step(++seed);
    writer.svc->Checkpoint();
    writer.Step(++seed);
    replica->Catchup();
    EXPECT_EQ(replica->applied_epoch(), writer.svc->GetStats().epoch);
    EXPECT_EQ(CanonicalViews(replica->Snapshot()),
              CanonicalViews(writer.svc->Snapshot()));
  }
  EXPECT_EQ(loop.records(), 6u);

  // The lag metrics observed real catch-up passes.
  const auto counters = replica->metrics().Snapshot().counters;
  EXPECT_EQ(counters.at("replica.records_applied"), 6u);
  EXPECT_EQ(counters.at("replica.crc_rejects"), 0u);
  EXPECT_EQ(counters.at("replica.gap_rejects"), 0u);
}

}  // namespace
}  // namespace sdelta::replica
