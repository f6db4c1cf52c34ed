#include "service/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "relational/csv.h"
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
  void TearDown() override { fs::remove(path_); }

  core::ChangeSet MakeChanges(uint64_t seed) const {
    return warehouse::MakeUpdateGeneratingChanges(catalog_, 40, seed);
  }

  std::vector<WalRecord> ReplayAll(uint64_t after_seq,
                                   WalReplayReport* report = nullptr) const {
    std::vector<WalRecord> records;
    WalReplayReport r = ReplayWal(path_, catalog_, after_seq,
                                  [&](WalRecord rec) {
                                    records.push_back(std::move(rec));
                                  });
    if (report) *report = r;
    return records;
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
  const std::vector<WalRecord> records = ReplayAll(0, &report);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_EQ(records[2].seq, 3u);
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
  const std::vector<WalRecord> records = ReplayAll(/*after_seq=*/3, &report);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq, 4u);
  EXPECT_EQ(records[1].seq, 5u);
  // The scan still verified the whole log.
  EXPECT_EQ(report.records, 5u);
}

TEST_F(WalTest, MissingFileIsEmptyLog) {
  WalReplayReport report;
  EXPECT_TRUE(ReplayAll(0, &report).empty());
  EXPECT_EQ(report.records, 0u);
  EXPECT_FALSE(report.tail_truncated);
}

// On-disk layout constants from wal.h: 16-byte header ("SDWAL1\n" +
// version + first_seq), 16-byte record frame (seq + len + crc).
constexpr size_t kHeaderBytes = 16;
constexpr size_t kFrameBytes = 16;

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
  const std::vector<WalRecord> records = ReplayAll(0, &report);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_TRUE(report.tail_truncated);
  EXPECT_EQ(report.valid_bytes, kHeaderBytes + record1_bytes);

  // Appending after recovery requires truncating to valid_bytes first
  // (the service's Open does this); the new record then replays.
  fs::resize_file(path_, report.valid_bytes);
  {
    WalWriter writer(path_, 1, false);
    writer.Append(2, MakeChanges(12));
  }
  const std::vector<WalRecord> again = ReplayAll(0, &report);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[1].seq, 2u);
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
  const std::vector<WalRecord> records = ReplayAll(0, &report);
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
  const std::vector<WalRecord> records = ReplayAll(0, &report);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 1u);
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
  const std::vector<WalRecord> records = ReplayAll(0, &report);
  EXPECT_LT(records.size(), 3u);
  EXPECT_TRUE(report.tail_truncated);
}

TEST_F(WalTest, ResetTruncatesAndAdvancesFirstSeq) {
  WalWriter writer(path_, 1, false);
  writer.Append(1, MakeChanges(1));
  writer.Append(2, MakeChanges(2));
  writer.Reset(/*first_seq=*/3);
  WalReplayReport report;
  EXPECT_TRUE(ReplayAll(0, &report).empty());
  EXPECT_EQ(report.first_seq, 3u);
  writer.Append(3, MakeChanges(3));
  const std::vector<WalRecord> records = ReplayAll(2, &report);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 3u);
}

TEST_F(WalTest, Crc32KnownVector) {
  // The IEEE CRC-32 of "123456789" is 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xCBF43926u);
}

}  // namespace
}  // namespace sdelta::service
