#include "service/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace sdelta::service {

namespace {

constexpr char kMagic[7] = {'S', 'D', 'W', 'A', 'L', '1', '\n'};
constexpr uint8_t kVersion = 1;
constexpr size_t kHeaderSize = sizeof(kMagic) + 1 + 8;
// Record framing: u64 seq + u32 len + u32 crc.
constexpr size_t kFrameSize = 8 + 4 + 4;

const std::array<uint32_t, 256>& CrcTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

void PutString(std::vector<uint8_t>& out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void PutValue(std::vector<uint8_t>& out, const rel::Value& v) {
  switch (v.type()) {
    case rel::ValueType::kNull:
      out.push_back(0);
      return;
    case rel::ValueType::kInt64:
      out.push_back(1);
      PutU64(out, static_cast<uint64_t>(v.as_int64()));
      return;
    case rel::ValueType::kDouble: {
      out.push_back(2);
      uint64_t bits = 0;
      const double d = v.as_double();
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      PutU64(out, bits);
      return;
    }
    case rel::ValueType::kString:
      out.push_back(3);
      PutString(out, v.as_string());
      return;
  }
  throw std::logic_error("WAL: unencodable value type");
}

void PutTable(std::vector<uint8_t>& out, const rel::Table& table) {
  PutU32(out, static_cast<uint32_t>(table.schema().NumColumns()));
  PutU64(out, table.NumRows());
  const size_t cols = table.schema().NumColumns();
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t c = 0; c < cols; ++c) PutValue(out, table.ValueAt(r, c));
  }
}

/// Bounds-checked big-to-little reader over a payload buffer.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint32_t U32() {
    Need(4);
    const uint32_t v = GetU32(data_ + pos_);
    pos_ += 4;
    return v;
  }
  uint64_t U64() {
    Need(8);
    const uint64_t v = GetU64(data_ + pos_);
    pos_ += 8;
    return v;
  }
  uint8_t U8() {
    Need(1);
    return data_[pos_++];
  }
  std::string String() {
    const uint32_t n = U32();
    Need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  rel::Value Value() {
    switch (U8()) {
      case 0:
        return rel::Value::Null();
      case 1:
        return rel::Value::Int64(static_cast<int64_t>(U64()));
      case 2: {
        const uint64_t bits = U64();
        double d = 0;
        std::memcpy(&d, &bits, sizeof(d));
        return rel::Value::Double(d);
      }
      case 3:
        return rel::Value::String(String());
      default:
        throw std::runtime_error("WAL: unknown value tag");
    }
  }
  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  void Need(size_t n) {
    if (size_ - pos_ < n) throw std::runtime_error("WAL: truncated payload");
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

void ReadTableInto(Reader& in, rel::Table& out) {
  const uint32_t cols = in.U32();
  if (cols != out.schema().NumColumns()) {
    throw std::runtime_error("WAL: table arity mismatch for " + out.name());
  }
  const uint64_t rows = in.U64();
  // Every encoded value takes at least its tag byte, so a row count the
  // rest of the payload cannot hold is corrupt: reject it before Reserve
  // turns it into a huge allocation.
  if (cols > 0 && rows > in.remaining() / cols) {
    throw std::runtime_error("WAL: row count exceeds payload for " +
                             out.name());
  }
  out.Reserve(out.NumRows() + rows);
  for (uint64_t r = 0; r < rows; ++r) {
    rel::Row row;
    row.reserve(cols);
    for (uint32_t c = 0; c < cols; ++c) row.push_back(in.Value());
    out.Insert(std::move(row));
  }
}

core::DeltaSet ReadDeltaSet(Reader& in, const rel::Schema& schema) {
  core::DeltaSet delta(schema);
  ReadTableInto(in, delta.insertions);
  ReadTableInto(in, delta.deletions);
  return delta;
}

}  // namespace

uint32_t Crc32Feed(uint32_t state, const uint8_t* data, size_t size) {
  const auto& table = CrcTable();
  for (size_t i = 0; i < size; ++i) {
    state = table[(state ^ data[i]) & 0xFF] ^ (state >> 8);
  }
  return state;
}

uint32_t Crc32(const uint8_t* data, size_t size) {
  return Crc32Feed(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> EncodeChangeSet(const core::ChangeSet& changes) {
  std::vector<uint8_t> out;
  PutString(out, changes.fact_table);
  PutTable(out, changes.fact.insertions);
  PutTable(out, changes.fact.deletions);
  PutU32(out, static_cast<uint32_t>(changes.dimensions.size()));
  // std::map iteration is name-ordered, so the encoding is deterministic.
  for (const auto& [name, delta] : changes.dimensions) {
    PutString(out, name);
    PutTable(out, delta.insertions);
    PutTable(out, delta.deletions);
  }
  return out;
}

core::ChangeSet DecodeChangeSet(const rel::Catalog& catalog,
                                const std::vector<uint8_t>& payload) {
  Reader in(payload.data(), payload.size());
  core::ChangeSet changes;
  changes.fact_table = in.String();
  if (!catalog.HasTable(changes.fact_table)) {
    throw std::runtime_error("WAL: unknown fact table '" + changes.fact_table +
                             "'");
  }
  changes.fact =
      ReadDeltaSet(in, catalog.GetTable(changes.fact_table).schema());
  const uint32_t dims = in.U32();
  for (uint32_t i = 0; i < dims; ++i) {
    const std::string name = in.String();
    if (!catalog.HasTable(name)) {
      throw std::runtime_error("WAL: unknown dimension table '" + name + "'");
    }
    // The encoder iterates a map, so a repeated name is corruption;
    // emplace would silently drop the second delta.
    if (!changes.dimensions
             .emplace(name, ReadDeltaSet(in, catalog.GetTable(name).schema()))
             .second) {
      throw std::runtime_error("WAL: duplicate dimension table '" + name +
                               "'");
    }
  }
  if (!in.AtEnd()) throw std::runtime_error("WAL: trailing payload bytes");
  return changes;
}

WalWriter::WalWriter(std::string path, uint64_t first_seq, bool sync)
    : path_(std::move(path)), sync_(sync) {
  OpenOrCreate(first_seq);
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void WalWriter::OpenOrCreate(uint64_t first_seq) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) throw std::runtime_error("WAL: cannot open " + path_);
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size > 0) return;  // existing log: append after its tail
  std::vector<uint8_t> header(kMagic, kMagic + sizeof(kMagic));
  header.push_back(kVersion);
  PutU64(header, first_seq);
  if (::write(fd_, header.data(), header.size()) !=
      static_cast<ssize_t>(header.size())) {
    throw std::runtime_error("WAL: cannot write header to " + path_);
  }
  if (sync_) ::fsync(fd_);
}

size_t WalWriter::Append(uint64_t seq, const core::ChangeSet& changes) {
  const std::vector<uint8_t> payload = EncodeChangeSet(changes);
  std::vector<uint8_t> frame;
  frame.reserve(kFrameSize + payload.size());
  PutU64(frame, seq);
  PutU32(frame, static_cast<uint32_t>(payload.size()));
  // The CRC covers seq + len + payload, so a flipped bit anywhere in the
  // record — including a bogus length that would otherwise drive a huge
  // allocation — reads as a torn tail.
  uint32_t crc_state = Crc32Feed(0xFFFFFFFFu, frame.data(), frame.size());
  crc_state = Crc32Feed(crc_state, payload.data(), payload.size());
  PutU32(frame, crc_state ^ 0xFFFFFFFFu);
  frame.insert(frame.end(), payload.begin(), payload.end());
  // One write call per record keeps torn records to the file tail.
  if (::write(fd_, frame.data(), frame.size()) !=
      static_cast<ssize_t>(frame.size())) {
    append_failed_ = true;  // latch for healthy(): the log is wedged
    throw std::runtime_error("WAL: append failed on " + path_);
  }
  if (sync_) ::fsync(fd_);
  return frame.size();
}

void WalWriter::Reset(uint64_t first_seq) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  // Build the fresh empty log beside the old one and rename it into
  // place: every crash point leaves either the old complete log or the
  // new headered one, never a header-less file.
  const std::string tmp = path_ + ".reset";
  const int tmp_fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (tmp_fd < 0) throw std::runtime_error("WAL: cannot create " + tmp);
  std::vector<uint8_t> header(kMagic, kMagic + sizeof(kMagic));
  header.push_back(kVersion);
  PutU64(header, first_seq);
  const ssize_t written = ::write(tmp_fd, header.data(), header.size());
  if (written != static_cast<ssize_t>(header.size())) {
    ::close(tmp_fd);
    throw std::runtime_error("WAL: cannot write header to " + tmp);
  }
  if (sync_) ::fsync(tmp_fd);
  ::close(tmp_fd);
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    throw std::runtime_error("WAL: cannot rename " + tmp + " over " + path_);
  }
  OpenOrCreate(first_seq);
  // A successful reset just proved the log is writable again.
  append_failed_ = false;
}

WalReplayReport ReplayWal(const std::string& path, const rel::Catalog& catalog,
                          uint64_t after_seq,
                          const std::function<void(WalRecord)>& fn) {
  WalReplayReport report;
  std::ifstream in(path, std::ios::binary);
  if (!in) return report;  // no log yet: empty
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  if (file_size == 0) return report;  // crashed before the header: empty
  if (file_size < kHeaderSize) {
    // Torn header write. Records only follow a complete header, so
    // nothing was ever acknowledged; flag the tail so the caller
    // truncates to valid_bytes (0) before appending.
    report.tail_truncated = true;
    return report;
  }
  std::array<char, kHeaderSize> header{};
  in.read(header.data(), header.size());
  if (in.gcount() != static_cast<std::streamsize>(header.size()) ||
      std::memcmp(header.data(), kMagic, sizeof(kMagic)) != 0 ||
      header[sizeof(kMagic)] != static_cast<char>(kVersion)) {
    throw std::runtime_error("WAL: bad header in " + path);
  }
  report.first_seq = GetU64(
      reinterpret_cast<const uint8_t*>(header.data()) + sizeof(kMagic) + 1);
  report.valid_bytes = kHeaderSize;

  std::array<char, kFrameSize> frame{};
  uint64_t offset = kHeaderSize;
  while (true) {
    in.read(frame.data(), frame.size());
    if (in.gcount() == 0) break;  // clean end of log
    if (in.gcount() != static_cast<std::streamsize>(frame.size())) {
      report.tail_truncated = true;  // torn frame
      break;
    }
    offset += kFrameSize;
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(frame.data());
    const uint64_t seq = GetU64(bytes);
    const uint32_t len = GetU32(bytes + 8);
    const uint32_t crc = GetU32(bytes + 12);
    if (len > file_size - offset) {
      // A corrupt length field would fail the CRC anyway; checking it
      // against the bytes actually present avoids attempting an up-to-
      // 4 GiB payload allocation first.
      report.tail_truncated = true;
      break;
    }
    std::vector<uint8_t> payload(len);
    in.read(reinterpret_cast<char*>(payload.data()), len);
    if (in.gcount() != static_cast<std::streamsize>(len)) {
      report.tail_truncated = true;  // torn payload
      break;
    }
    offset += len;
    uint32_t crc_state = Crc32Feed(0xFFFFFFFFu, bytes, 12);
    crc_state = Crc32Feed(crc_state, payload.data(), payload.size());
    if ((crc_state ^ 0xFFFFFFFFu) != crc) {
      report.tail_truncated = true;  // corrupt record: never acknowledged
      break;
    }
    WalRecord record;
    record.seq = seq;
    // Decode even below the replay cutoff: a decode failure is corruption
    // and must stop the scan, checkpointed or not.
    record.changes = DecodeChangeSet(catalog, payload);
    ++report.records;
    report.last_seq = seq;
    report.valid_bytes = offset;
    if (seq > after_seq) fn(std::move(record));
  }
  return report;
}

}  // namespace sdelta::service
