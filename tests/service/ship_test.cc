// Epoch ship log (DESIGN.md §15). ShipTest pins the framing: CRC-covered
// frames, the exact on-disk bytes, torn-tail detection, and the durable
// FileShipLog's scan/truncate/resume behavior. ShipLogReplayTest pins the
// writer's side of the consumer contract: replaying the log reproduces
// the writer's canonical views per epoch, after WAL re-ship, and across
// checkpoints.
#include "service/ship.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
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

/// Every intact record of the ship log at `path`, in order; the whole
/// file must decode (FileShipLog cuts torn tails before appending).
std::vector<ShipRecord> ReadShipLog(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  std::vector<ShipRecord> records;
  if (!CheckShipHeader(bytes)) return records;
  size_t offset = kShipHeaderSize;
  ShipRecord rec;
  size_t next = 0;
  while (DecodeShipRecord(bytes, offset, &rec, &next) == ShipDecode::kOk) {
    records.push_back(rec);
    offset = next;
  }
  EXPECT_EQ(offset, bytes.size()) << "undecodable bytes in " << path;
  return records;
}

ShipRecord MakeRecord(uint64_t epoch, uint64_t first, uint64_t last,
                      const std::string& payload) {
  ShipRecord rec;
  rec.epoch = epoch;
  rec.first_seq = first;
  rec.last_seq = last;
  rec.payload.assign(payload.begin(), payload.end());
  return rec;
}

std::vector<uint8_t> StreamOf(const std::vector<ShipRecord>& records) {
  std::vector<uint8_t> bytes = ShipStreamHeader();
  for (const ShipRecord& rec : records) {
    const std::vector<uint8_t> frame = EncodeShipRecord(rec);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

TEST(ShipTest, EncodeDecodeRoundtrip) {
  const ShipRecord rec = MakeRecord(7, 3, 5, "payload bytes");
  const std::vector<uint8_t> bytes = StreamOf({rec});
  ShipRecord out;
  size_t next = 0;
  ASSERT_EQ(DecodeShipRecord(bytes, kShipHeaderSize, &out, &next),
            ShipDecode::kOk);
  EXPECT_EQ(out.epoch, 7u);
  EXPECT_EQ(out.first_seq, 3u);
  EXPECT_EQ(out.last_seq, 5u);
  EXPECT_EQ(std::string(out.payload.begin(), out.payload.end()),
            "payload bytes");
  EXPECT_EQ(next, bytes.size());
}

TEST(ShipTest, EmptyPayloadRoundtrips) {
  const std::vector<uint8_t> bytes = StreamOf({MakeRecord(1, 1, 1, "")});
  ShipRecord out;
  size_t next = 0;
  ASSERT_EQ(DecodeShipRecord(bytes, kShipHeaderSize, &out, &next),
            ShipDecode::kOk);
  EXPECT_TRUE(out.payload.empty());
}

TEST(ShipTest, EveryFlippedByteIsCaught) {
  // The CRC covers the whole frame (epoch, seqs, length) plus the
  // payload: flipping any byte of the record must yield kCorrupt — or
  // kNeedMore for length-field flips that make the frame claim more
  // bytes than the buffer holds. No flip may decode as a different
  // valid record.
  const std::vector<uint8_t> clean = StreamOf({MakeRecord(9, 4, 6, "abc")});
  for (size_t i = kShipHeaderSize; i < clean.size(); ++i) {
    std::vector<uint8_t> bent = clean;
    bent[i] ^= 0x01;
    ShipRecord out;
    size_t next = 0;
    const ShipDecode result =
        DecodeShipRecord(bent, kShipHeaderSize, &out, &next);
    EXPECT_NE(result, ShipDecode::kOk) << "flipped byte " << i;
  }
}

TEST(ShipTest, TornTailNeedsMore) {
  const std::vector<uint8_t> clean = StreamOf({MakeRecord(2, 1, 2, "hello")});
  for (size_t cut = kShipHeaderSize; cut < clean.size(); ++cut) {
    const std::vector<uint8_t> torn(clean.begin(), clean.begin() + cut);
    ShipRecord out;
    size_t next = 0;
    EXPECT_EQ(DecodeShipRecord(torn, kShipHeaderSize, &out, &next),
              ShipDecode::kNeedMore)
        << "cut at " << cut;
  }
}

TEST(ShipTest, GoldenStreamBytes) {
  // The SDSHIP1 format on disk: header, then one record whose epoch
  // spans all eight bytes. crc = crc32(the 28 frame bytes + payload).
  const std::vector<uint8_t> golden = {
      0x53, 0x44, 0x53, 0x48, 0x49, 0x50, 0x31, 0x0a, 0x01,  // "SDSHIP1\n" v1
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,        // epoch
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,        // first_seq
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,        // last_seq
      0x06, 0x00, 0x00, 0x00,                                // payload_len
      0x6c, 0xc1, 0xf0, 0xbd,                                // crc
      0x73, 0x64, 0x65, 0x6c, 0x74, 0x61,                    // "sdelta"
  };
  const std::vector<uint8_t> bytes =
      StreamOf({MakeRecord(0x0102030405060708ULL, 3, 5, "sdelta")});
  EXPECT_EQ(bytes, golden);
  ShipRecord out;
  size_t next = 0;
  ASSERT_EQ(DecodeShipRecord(golden, kShipHeaderSize, &out, &next),
            ShipDecode::kOk);
  EXPECT_EQ(out.epoch, 0x0102030405060708ULL);
  EXPECT_EQ(next, golden.size());
}

TEST(ShipTest, HeaderValidation) {
  std::vector<uint8_t> header = ShipStreamHeader();
  EXPECT_TRUE(CheckShipHeader(header));
  EXPECT_FALSE(CheckShipHeader({header.begin(), header.begin() + 4}));
  std::vector<uint8_t> bad_magic = header;
  bad_magic[0] = 'X';
  EXPECT_THROW(CheckShipHeader(bad_magic), std::runtime_error);
  std::vector<uint8_t> bad_version = header;
  bad_version.back() = 99;
  EXPECT_THROW(CheckShipHeader(bad_version), std::runtime_error);
}

TEST(ShipTest, FileShipLogResumesAndTruncatesTornTail) {
  const fs::path path =
      fs::temp_directory_path() /
      ("sdelta_ship_test_" + std::to_string(::getpid()) + ".ship");
  fs::remove(path);

  {
    FileShipLog log(path.string());
    EXPECT_EQ(log.MaxEpoch(), 0u);
    log.Publish(MakeRecord(1, 1, 1, "one"));
    log.Publish(MakeRecord(2, 2, 3, "two"));
    EXPECT_EQ(log.MaxEpoch(), 2u);
    EXPECT_EQ(log.max_seq(), 3u);
    EXPECT_EQ(log.records(), 2u);
  }
  {
    // Reopen scans the stream: epoch numbering resumes past history.
    FileShipLog log(path.string());
    EXPECT_EQ(log.MaxEpoch(), 2u);
    EXPECT_EQ(log.max_seq(), 3u);
    EXPECT_EQ(log.records(), 2u);
  }
  const uintmax_t intact_size = fs::file_size(path);
  {
    // A torn append (crash mid-write): garbage bytes after the last
    // intact record.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "garbage torn tail";
  }
  {
    FileShipLog log(path.string());
    EXPECT_EQ(log.records(), 2u);
    log.Publish(MakeRecord(3, 4, 4, "three"));
  }
  // The torn bytes were cut before the new record went in: the whole
  // stream decodes cleanly end to end.
  EXPECT_GT(fs::file_size(path), intact_size);
  const std::vector<ShipRecord> records = ReadShipLog(path.string());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].epoch, 3u);
  fs::remove(path);
}

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
std::map<std::string, std::string> CanonicalViews(const ReadSnapshot& snap) {
  std::map<std::string, std::string> out;
  for (const std::string& name : snap.ViewNames()) {
    out[name] = rel::ToCsvString(snap.view(name).ToCanonicalTable());
  }
  return out;
}

/// A consumer of the ship log, reduced to the contract DESIGN.md §15
/// sets: bootstrap like the writer, skip records already applied (by
/// last_seq), refuse gaps, and run each payload through RunBatch.
struct Consumer {
  warehouse::Warehouse wh{warehouse::MakeRetailCatalog(SmallConfig())};
  uint64_t applied_seq = 0;
  uint64_t epoch = 0;

  Consumer() { wh.DefineSummaryTables(warehouse::RetailSummaryTables()); }

  void CatchUp(const std::string& log_path) {
    for (const ShipRecord& rec : ReadShipLog(log_path)) {
      if (rec.last_seq <= applied_seq) continue;
      ASSERT_EQ(rec.first_seq, applied_seq + 1) << "sequence gap";
      wh.RunBatch(DecodeChangeSet(wh.catalog(), rec.payload));
      applied_seq = rec.last_seq;
      epoch = rec.epoch;
    }
  }

  std::map<std::string, std::string> Views() const {
    std::map<std::string, std::string> out;
    for (const core::AugmentedView& av : wh.vlattice().views) {
      out[av.name()] =
          rel::ToCsvString(wh.summary(av.name()).ToCanonicalTable());
    }
    return out;
  }
};

/// A writer service publishing into <dir>/ship.log (or shipping nothing),
/// plus a mirror catalog for generating its change stream.
struct Writer {
  fs::path dir;
  rel::Catalog mirror;
  std::unique_ptr<FileShipLog> log;
  std::unique_ptr<WarehouseService> svc;

  Writer(const std::string& tag, bool ship)
      : dir(fs::temp_directory_path() /
            ("sdelta_ship_test_" + std::to_string(::getpid()) + "_" + tag)),
        mirror(warehouse::MakeRetailCatalog(SmallConfig())) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    Open(ship);
  }
  ~Writer() {
    svc.reset();
    log.reset();
    fs::remove_all(dir);
  }

  std::string log_path() const { return (dir / "ship.log").string(); }

  /// (Re)opens the service on the same data dir.
  void Open(bool ship) {
    if (svc != nullptr) svc->Stop();
    svc.reset();
    log = ship ? std::make_unique<FileShipLog>(log_path()) : nullptr;
    WarehouseService::Options options;
    options.auto_batching = false;  // deterministic batch boundaries
    options.ship = log.get();
    svc = WarehouseService::Open(dir.string(),
                                 warehouse::MakeRetailCatalog(SmallConfig()),
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

TEST(ShipLogReplayTest, ConvergesByteIdenticalPerEpoch) {
  Writer writer("converge", /*ship=*/true);
  Consumer consumer;
  // Before any traffic both sides hold the same bootstrap state.
  EXPECT_EQ(consumer.Views(), CanonicalViews(writer.svc->Snapshot()));

  uint64_t seed = 100;
  for (int round = 0; round < 3; ++round) {
    writer.Step(++seed, /*insertion=*/round == 1);
    consumer.CatchUp(writer.log_path());
    // Per-epoch assertion: the log's last record carries the writer's
    // epoch, and its replay reproduces that epoch's canonical state.
    EXPECT_EQ(consumer.epoch, writer.svc->GetStats().epoch);
    EXPECT_EQ(consumer.Views(), CanonicalViews(writer.svc->Snapshot()));
  }
  EXPECT_EQ(consumer.applied_seq, writer.svc->GetStats().applied_seq);
}

TEST(ShipLogReplayTest, WriterRestartReshipsWalRecoveredBatches) {
  // A batch can be WAL-durable yet never shipped (writer ran without a
  // ship sink, or crashed between append and publish). On reopen with a
  // sink, WAL replay re-ships the recovered records under fresh epochs,
  // and new epochs number past the stream's history.
  Writer writer("reship", /*ship=*/false);
  writer.Step(801);
  writer.Step(802);
  const auto writer_state = CanonicalViews(writer.svc->Snapshot());

  // Reopen the same data dir with the log attached: the WAL tail (never
  // checkpointed) replays and re-ships, one record per WAL record.
  writer.Open(/*ship=*/true);
  EXPECT_EQ(CanonicalViews(writer.svc->Snapshot()), writer_state);
  const std::vector<ShipRecord> reshipped = ReadShipLog(writer.log_path());
  ASSERT_EQ(reshipped.size(), 2u);
  EXPECT_EQ(reshipped[0].first_seq, 1u);
  EXPECT_EQ(reshipped[0].last_seq, 1u);
  EXPECT_EQ(reshipped[1].first_seq, 2u);
  EXPECT_EQ(reshipped[1].last_seq, 2u);

  Consumer consumer;
  consumer.CatchUp(writer.log_path());
  EXPECT_EQ(consumer.Views(), writer_state);

  // New writer epochs continue past everything already shipped.
  writer.Step(803);
  const std::vector<ShipRecord> records = ReadShipLog(writer.log_path());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_GT(records[2].epoch, reshipped[0].epoch);
  EXPECT_GT(records[2].epoch, reshipped[1].epoch);
  consumer.CatchUp(writer.log_path());
  EXPECT_EQ(consumer.epoch, writer.svc->GetStats().epoch);
  EXPECT_EQ(consumer.Views(), CanonicalViews(writer.svc->Snapshot()));
}

TEST(ShipLogReplayTest, WriterCheckpointRacingShipsStaysConsistent) {
  // Interleaves checkpoints with shipped batches while a consumer pulls
  // after every step: the WAL truncation a checkpoint performs must be
  // invisible to the ship log.
  Writer writer("ckptrace", /*ship=*/true);
  Consumer consumer;

  uint64_t seed = 900;
  for (int round = 0; round < 3; ++round) {
    writer.Step(++seed);
    writer.svc->Checkpoint();
    writer.Step(++seed);
    consumer.CatchUp(writer.log_path());
    EXPECT_EQ(consumer.epoch, writer.svc->GetStats().epoch);
    EXPECT_EQ(consumer.Views(), CanonicalViews(writer.svc->Snapshot()));
  }
  EXPECT_EQ(ReadShipLog(writer.log_path()).size(), 6u);

  // A consumer starting from nothing replays all six to the same state.
  Consumer late;
  late.CatchUp(writer.log_path());
  EXPECT_EQ(late.applied_seq, 6u);
  EXPECT_EQ(late.Views(), CanonicalViews(writer.svc->Snapshot()));
}

}  // namespace
}  // namespace sdelta::service
