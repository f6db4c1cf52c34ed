#include "service/wal.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "relational/csv.h"
#include "service/ingest.h"
#include "warehouse/retail_schema.h"
#include "warehouse/workload.h"

namespace sdelta::service {
namespace {

namespace fs = std::filesystem;

warehouse::RetailConfig SmallConfig() {
  warehouse::RetailConfig config;
  config.num_stores = 8;
  config.num_items = 40;
  config.num_pos_rows = 400;
  config.seed = 7;
  return config;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (fs::temp_directory_path() /
             ("sdelta_wal_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".log"))
                .string();
    fs::remove(path_);
    catalog_ = warehouse::MakeRetailCatalog(SmallConfig());
  }
  void TearDown() override {
    fs::remove(path_);
    fs::remove(PreviousWalPath(path_));
  }

  core::ChangeSet MakeChanges(uint64_t seed) const {
    return warehouse::MakeUpdateGeneratingChanges(catalog_, 40, seed);
  }

  /// Every batch of the log past `after_seq`; without markers, one per
  /// record.
  std::vector<WalBatch> ReplayAll(uint64_t after_seq,
                                  WalReplayReport* report = nullptr) const {
    std::vector<WalBatch> batches;
    WalReplayReport r = ReplayWal(path_, catalog_, after_seq,
                                  [&](WalBatch batch) {
                                    batches.push_back(std::move(batch));
                                  });
    if (report) *report = r;
    return batches;
  }

  /// Records 1..`records`, then `markers` ({epoch, first_seq, last_seq}
  /// each): the scan must reject the log with a clean error, also when
  /// the cutoff is past every record (markers are checked regardless).
  void ExpectMarkersRejected(
      uint64_t records, const std::vector<std::array<uint64_t, 3>>& markers) {
    {
      WalWriter writer(path_, 1, false);
      for (uint64_t seq = 1; seq <= records; ++seq) {
        writer.Append(seq, MakeChanges(seq));
      }
      for (const auto& [epoch, first, last] : markers) {
        writer.AppendMarker(epoch, first, last);
      }
    }
    EXPECT_THROW(ReplayAll(0), std::runtime_error);
    EXPECT_THROW(ReplayAll(records), std::runtime_error);
  }

  std::string path_;
  rel::Catalog catalog_;
};

std::string ChangesCsv(const core::ChangeSet& c) {
  std::string out = c.fact_table + "\n";
  out += rel::ToCsvString(c.fact.insertions);
  out += rel::ToCsvString(c.fact.deletions);
  for (const auto& [name, d] : c.dimensions) {
    out += name + "\n" + rel::ToCsvString(d.insertions) +
           rel::ToCsvString(d.deletions);
  }
  return out;
}

TEST_F(WalTest, EncodeDecodeRoundTrip) {
  core::ChangeSet changes = MakeChanges(11);
  // Add a dimension delta and some awkward values.
  core::ChangeSet recat = warehouse::MakeItemRecategorization(catalog_, 3, 5);
  changes.dimensions = std::move(recat.dimensions);
  const std::vector<uint8_t> payload = EncodeChangeSet(changes);
  const core::ChangeSet decoded = DecodeChangeSet(catalog_, payload);
  EXPECT_EQ(ChangesCsv(decoded), ChangesCsv(changes));
  // Deterministic encoding: identical change sets → identical bytes.
  EXPECT_EQ(EncodeChangeSet(decoded), payload);
}

TEST_F(WalTest, HugeRowCountIsRejectedWithoutAllocation) {
  const core::ChangeSet changes = MakeChanges(13);
  std::vector<uint8_t> payload = EncodeChangeSet(changes);
  // Layout: fact table name (u32 length + bytes), then the fact
  // insertions table (u32 column count + u64 row count + values).
  const size_t rows_off = 4 + changes.fact_table.size() + 4;
  ASSERT_LT(rows_off + 8, payload.size());
  const uint64_t huge_rows = 0x20000000c8ULL;
  for (size_t i = 0; i < 8; ++i) {
    payload[rows_off + i] = static_cast<uint8_t>(huge_rows >> (8 * i));
  }
  EXPECT_THROW(DecodeChangeSet(catalog_, payload), std::runtime_error);
}

TEST_F(WalTest, DuplicateDimensionIsRejected) {
  // The encoder iterates a map, so it never repeats a dimension table. A
  // payload that does is corrupt: keeping either delta would silently
  // change what a replay applies.
  core::ChangeSet changes = MakeChanges(17);
  const std::vector<uint8_t> no_dims = EncodeChangeSet(changes);
  changes.dimensions =
      warehouse::MakeItemRecategorization(catalog_, 3, 5).dimensions;
  ASSERT_EQ(changes.dimensions.size(), 1u);
  const std::vector<uint8_t> one_dim = EncodeChangeSet(changes);
  // Layout: ... + u32 dimension count + (name, insertions, deletions)*.
  const std::vector<uint8_t> section(one_dim.begin() + no_dims.size(),
                                     one_dim.end());
  std::vector<uint8_t> payload(no_dims.begin(), no_dims.end() - 4);
  payload.insert(payload.end(), {2, 0, 0, 0});
  payload.insert(payload.end(), section.begin(), section.end());
  payload.insert(payload.end(), section.begin(), section.end());
  try {
    DecodeChangeSet(catalog_, payload);
    FAIL() << "a repeated dimension table decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate dimension"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(WalTest, AppendAndReplay) {
  {
    WalWriter writer(path_, /*first_seq=*/1, /*sync=*/false);
    writer.Append(1, MakeChanges(1));
    writer.Append(2, MakeChanges(2));
    writer.Append(3, MakeChanges(3));
  }
  WalReplayReport report;
  const std::vector<WalBatch> records = ReplayAll(0, &report);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].last_seq, 1u);
  EXPECT_EQ(records[2].last_seq, 3u);
  EXPECT_EQ(report.records, 3u);
  EXPECT_EQ(report.last_seq, 3u);
  EXPECT_FALSE(report.tail_truncated);
  EXPECT_EQ(ChangesCsv(records[1].changes), ChangesCsv(MakeChanges(2)));
}

TEST_F(WalTest, ReplayCutoffSkipsCheckpointedRecords) {
  {
    WalWriter writer(path_, 1, false);
    for (uint64_t seq = 1; seq <= 5; ++seq) writer.Append(seq, MakeChanges(seq));
  }
  WalReplayReport report;
  const std::vector<WalBatch> records = ReplayAll(/*after_seq=*/3, &report);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].last_seq, 4u);
  EXPECT_EQ(records[1].last_seq, 5u);
  // The scan still verified the whole log.
  EXPECT_EQ(report.records, 5u);
}

TEST_F(WalTest, MissingFileIsEmptyLog) {
  WalReplayReport report;
  EXPECT_TRUE(ReplayAll(0, &report).empty());
  EXPECT_EQ(report.records, 0u);
  EXPECT_FALSE(report.tail_truncated);
}

// On-disk layout from wal.h: the header ("SDWAL1\n" + version +
// first_seq + epoch_floor), then records framed by seq + len + crc.
constexpr size_t kHeaderBytes = kWalHeaderBytes;

void OverwriteByte(const std::string& path, size_t offset, uint8_t value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(value));
  ASSERT_TRUE(f.good());
}

TEST_F(WalTest, TornTailIsTruncatedCleanly) {
  size_t record1_bytes = 0;
  {
    WalWriter writer(path_, 1, false);
    record1_bytes = writer.Append(1, MakeChanges(1));
    writer.Append(2, MakeChanges(2));
  }
  // Chop bytes off the last record: replay keeps record 1, flags the tail.
  const auto full = fs::file_size(path_);
  fs::resize_file(path_, full - 7);
  WalReplayReport report;
  const std::vector<WalBatch> records = ReplayAll(0, &report);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].last_seq, 1u);
  EXPECT_TRUE(report.tail_truncated);
  EXPECT_EQ(report.valid_bytes, kHeaderBytes + record1_bytes);

  // Appending after recovery requires truncating to valid_bytes first
  // (the service's Open does this); the new record then replays.
  fs::resize_file(path_, report.valid_bytes);
  {
    WalWriter writer(path_, 1, false);
    writer.Append(2, MakeChanges(12));
  }
  const std::vector<WalBatch> again = ReplayAll(0, &report);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[1].last_seq, 2u);
  EXPECT_FALSE(report.tail_truncated);
  EXPECT_EQ(ChangesCsv(again[1].changes), ChangesCsv(MakeChanges(12)));
}

TEST_F(WalTest, CorruptLengthFieldTruncatesWithoutHugeAllocation) {
  size_t record1_bytes = 0;
  {
    WalWriter writer(path_, 1, false);
    record1_bytes = writer.Append(1, MakeChanges(1));
    writer.Append(2, MakeChanges(2));
  }
  // Smash record 2's length field to 0xFFFFFFFF (~4 GiB): replay must
  // stop at a clean torn tail, not attempt the allocation.
  const size_t len_off = kHeaderBytes + record1_bytes + 8;
  for (size_t i = 0; i < 4; ++i) OverwriteByte(path_, len_off + i, 0xFF);
  WalReplayReport report;
  const std::vector<WalBatch> records = ReplayAll(0, &report);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(report.tail_truncated);
  EXPECT_EQ(report.valid_bytes, kHeaderBytes + record1_bytes);
}

TEST_F(WalTest, CorruptSeqFieldFailsCrc) {
  size_t record1_bytes = 0;
  {
    WalWriter writer(path_, 1, false);
    record1_bytes = writer.Append(1, MakeChanges(1));
    writer.Append(2, MakeChanges(2));
  }
  // Flip a bit in record 2's sequence number: the frame CRC covers it,
  // so the record must not replay with a bogus seq.
  OverwriteByte(path_, kHeaderBytes + record1_bytes, 0x7F);
  WalReplayReport report;
  const std::vector<WalBatch> records = ReplayAll(0, &report);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].last_seq, 1u);
  EXPECT_TRUE(report.tail_truncated);
}

TEST_F(WalTest, ZeroLengthFileIsEmptyLog) {
  std::ofstream(path_, std::ios::binary).close();
  ASSERT_EQ(fs::file_size(path_), 0u);
  WalReplayReport report;
  EXPECT_TRUE(ReplayAll(0, &report).empty());
  EXPECT_FALSE(report.tail_truncated);
  // A writer opened on the empty file lays down a header and appends.
  {
    WalWriter writer(path_, 1, false);
    writer.Append(1, MakeChanges(1));
  }
  EXPECT_EQ(ReplayAll(0, &report).size(), 1u);
}

TEST_F(WalTest, TornHeaderIsEmptyTruncatedLog) {
  std::ofstream(path_, std::ios::binary) << "SDW";  // crash mid-header
  WalReplayReport report;
  EXPECT_TRUE(ReplayAll(0, &report).empty());
  EXPECT_TRUE(report.tail_truncated);
  EXPECT_EQ(report.valid_bytes, 0u);
}

TEST_F(WalTest, CorruptPayloadStopsReplay) {
  {
    WalWriter writer(path_, 1, false);
    writer.Append(1, MakeChanges(1));
    writer.Append(2, MakeChanges(2));
    writer.Append(3, MakeChanges(3));
  }
  // Flip one byte in the middle record's payload region.
  const auto size = fs::file_size(path_);
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(size / 2));
  char b = 0;
  f.read(&b, 1);
  f.seekp(static_cast<std::streamoff>(size / 2));
  b = static_cast<char>(b ^ 0x5A);
  f.write(&b, 1);
  f.close();

  WalReplayReport report;
  const std::vector<WalBatch> records = ReplayAll(0, &report);
  EXPECT_LT(records.size(), 3u);
  EXPECT_TRUE(report.tail_truncated);
}

TEST_F(WalTest, ResetTruncatesAndAdvancesFirstSeq) {
  WalWriter writer(path_, 1, false);
  writer.Append(1, MakeChanges(1));
  writer.Append(2, MakeChanges(2));
  writer.AppendMarker(/*epoch=*/4, 1, 2);
  writer.Reset(/*first_seq=*/3, /*epoch_floor=*/5);
  WalReplayReport report;
  EXPECT_TRUE(ReplayAll(0, &report).empty());
  EXPECT_EQ(report.first_seq, 3u);
  EXPECT_EQ(report.max_epoch, 5u);  // the header floor
  writer.Append(3, MakeChanges(3));
  const std::vector<WalBatch> records = ReplayAll(2, &report);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].last_seq, 3u);

  // The previous generation is kept whole beside the new one.
  std::vector<WalBatch> prev;
  report = ReplayWal(PreviousWalPath(path_), catalog_, 0,
                     [&](WalBatch batch) { prev.push_back(std::move(batch)); });
  ASSERT_EQ(prev.size(), 1u);
  EXPECT_EQ(prev[0].epoch, 4u);
  EXPECT_EQ(prev[0].last_seq, 2u);
  EXPECT_FALSE(report.tail_truncated);
}

TEST_F(WalTest, Crc32KnownVector) {
  // The IEEE CRC-32 of "123456789" is 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xCBF43926u);
}

TEST_F(WalTest, BadHeaderIsRejected) {
  WalWriter(path_, 1, false).Append(1, MakeChanges(1));
  OverwriteByte(path_, 7, 1);  // version 1 had no epoch floor
  EXPECT_THROW(ReplayAll(0), std::runtime_error);
  OverwriteByte(path_, 7, 2);
  OverwriteByte(path_, 0, 'X');  // magic
  EXPECT_THROW(ReplayAll(0), std::runtime_error);
}

TEST_F(WalTest, MarkerRoundTripCoalescesItsRecords) {
  {
    WalWriter writer(path_, 1, false, /*epoch_floor=*/2);
    for (uint64_t seq = 1; seq <= 3; ++seq) writer.Append(seq, MakeChanges(seq));
    writer.AppendMarker(/*epoch=*/7, 1, 3);
    writer.Append(4, MakeChanges(4));
  }
  WalReplayReport report;
  const std::vector<WalBatch> batches = ReplayAll(0, &report);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].epoch, 7u);
  EXPECT_EQ(batches[0].first_seq, 1u);
  EXPECT_EQ(batches[0].last_seq, 3u);
  std::vector<IngestItem> items(3);
  for (uint64_t i = 0; i < 3; ++i) items[i].changes = MakeChanges(i + 1);
  EXPECT_EQ(ChangesCsv(batches[0].changes),
            ChangesCsv(CoalesceChanges(std::move(items))));
  // Past the last marker: acknowledged, not installed, one per record.
  EXPECT_EQ(batches[1].epoch, 0u);
  EXPECT_EQ(batches[1].first_seq, 4u);
  EXPECT_EQ(ChangesCsv(batches[1].changes), ChangesCsv(MakeChanges(4)));
  EXPECT_EQ(report.records, 4u);
  EXPECT_EQ(report.max_epoch, 7u);
  EXPECT_FALSE(report.tail_truncated);

  // A reader that applied through seq 3 dedups the marked batch; one
  // that stopped inside it cannot resume from this log.
  ASSERT_EQ(ReplayAll(3).size(), 1u);
  EXPECT_THROW(ReplayAll(2), std::runtime_error);
}

TEST_F(WalTest, InvertedMarkerRangeIsRejected) {
  ExpectMarkersRejected(2, {{1, 2, 1}});
}

TEST_F(WalTest, OverlappingMarkerIsRejected) {
  ExpectMarkersRejected(3, {{1, 1, 2}, {2, 2, 3}});
}

TEST_F(WalTest, MarkerPastTheLastRecordIsRejected) {
  ExpectMarkersRejected(1, {{1, 1, 2}});
}

TEST_F(WalTest, MarkerSkippingRecordsIsRejected) {
  ExpectMarkersRejected(2, {{1, 2, 2}});  // seq 1 is never marked
}

TEST_F(WalTest, TruncatedMarkerIsTornTail) {
  {
    WalWriter writer(path_, 1, false);
    writer.Append(1, MakeChanges(1));
    writer.Append(2, MakeChanges(2));
    writer.AppendMarker(3, 1, 2);
  }
  const size_t marker_at = fs::file_size(path_) - kWalMarkerBytes;
  for (size_t cut = marker_at + kWalMarkerBytes - 1; cut > marker_at; --cut) {
    fs::resize_file(path_, cut);
    WalReplayReport report;
    const std::vector<WalBatch> batches = ReplayAll(0, &report);
    EXPECT_TRUE(report.tail_truncated) << "cut at " << cut;
    EXPECT_EQ(report.valid_bytes, marker_at) << "cut at " << cut;
    // The records survive, unmarked: recovery replays them one by one.
    ASSERT_EQ(batches.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(batches[0].epoch + batches[1].epoch, 0u) << "cut at " << cut;
  }
}

TEST_F(WalTest, EveryFlippedMarkerByteIsCaught) {
  // The CRC covers the marker's seq, length, epoch and range: flipping
  // any byte must read as a torn tail, never as a different marker.
  {
    WalWriter writer(path_, 1, false);
    writer.Append(1, MakeChanges(1));
    writer.AppendMarker(9, 1, 1);
  }
  const size_t size = fs::file_size(path_);
  std::ifstream in(path_, std::ios::binary);
  const std::vector<uint8_t> clean{std::istreambuf_iterator<char>(in), {}};
  for (size_t i = size - kWalMarkerBytes; i < size; ++i) {
    OverwriteByte(path_, i, clean[i] ^ 0x01);
    WalReplayReport report;
    const std::vector<WalBatch> batches = ReplayAll(0, &report);
    EXPECT_TRUE(report.tail_truncated) << "flipped byte " << i;
    ASSERT_EQ(batches.size(), 1u) << "flipped byte " << i;
    EXPECT_EQ(batches[0].epoch, 0u) << "flipped byte " << i;
    OverwriteByte(path_, i, clean[i]);
  }
}

TEST_F(WalTest, LiveTailTreatsInFlightAppendAsNotYet) {
  // A consumer tailing the log sees the writer's appends byte by byte.
  // Whatever prefix it reads, the installed batches before it decode,
  // and a half-written record or marker is "not yet": no error, and no
  // marked batch for it until the marker is whole.
  size_t first_batch_end = kHeaderBytes + kWalMarkerBytes;
  {
    WalWriter writer(path_, 1, false);
    first_batch_end += writer.Append(1, MakeChanges(1));
    first_batch_end += writer.Append(2, MakeChanges(2));
    writer.AppendMarker(5, 1, 2);
    writer.Append(3, MakeChanges(3));
    writer.AppendMarker(6, 3, 3);
  }
  const size_t full = fs::file_size(path_);
  for (size_t cut = full; cut >= first_batch_end; --cut) {
    fs::resize_file(path_, cut);
    std::vector<WalBatch> installed;
    ASSERT_NO_THROW(ReplayWal(path_, catalog_, 0, [&](WalBatch batch) {
      if (batch.epoch != 0) installed.push_back(std::move(batch));
    })) << "cut at " << cut;
    ASSERT_EQ(installed.size(), cut == full ? 2u : 1u) << "cut at " << cut;
    EXPECT_EQ(installed[0].epoch, 5u);
    EXPECT_EQ(installed[0].last_seq, 2u);
  }
}

}  // namespace
}  // namespace sdelta::service
