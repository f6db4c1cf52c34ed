#include "service/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "service/ingest.h"

namespace sdelta::service {

namespace {

// The little-endian byte codec, written byte-by-byte so the format is
// host-order independent.
void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t{p[i]} << (8 * i);
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t{p[i]} << (8 * i);
  return v;
}

constexpr char kMagic[7] = {'S', 'D', 'W', 'A', 'L', '1', '\n'};
constexpr uint8_t kVersion = 2;
// Record framing: u64 seq + u32 len + u32 crc.
constexpr size_t kFrameSize = 8 + 4 + 4;
// A marker is the frame with seq 0 (change sets number from 1) around
// u64 epoch + u64 first_seq + u64 last_seq.
constexpr uint64_t kMarkerSeq = 0;
constexpr uint32_t kMarkerPayload = 8 + 8 + 8;
static_assert(kFrameSize + kMarkerPayload == kWalMarkerBytes);

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

/// Incremental CRC-32: a running state seeded with 0xFFFFFFFF; the
/// checksum is the final state ^ 0xFFFFFFFF. Frames are checksummed
/// then payload without copying them into one buffer.
uint32_t Crc32Feed(uint32_t state, const uint8_t* data, size_t size) {
  const auto& table = CrcTable();
  for (size_t i = 0; i < size; ++i) {
    state = table[(state ^ data[i]) & 0xFF] ^ (state >> 8);
  }
  return state;
}

/// seq + len + crc + payload. The CRC covers seq + len + payload, so a
/// flipped bit anywhere in the record — including a bogus length that
/// would otherwise drive a huge allocation — reads as a torn tail.
std::vector<uint8_t> Frame(uint64_t seq, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  frame.reserve(kFrameSize + payload.size());
  PutU64(frame, seq);
  PutU32(frame, static_cast<uint32_t>(payload.size()));
  uint32_t crc_state = Crc32Feed(0xFFFFFFFFu, frame.data(), frame.size());
  crc_state = Crc32Feed(crc_state, payload.data(), payload.size());
  PutU32(frame, crc_state ^ 0xFFFFFFFFu);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
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

std::string PreviousWalPath(const std::string& path) {
  return std::filesystem::path(path).replace_extension(".prev").string();
}

WalWriter::WalWriter(std::string path, uint64_t first_seq, bool sync,
                     uint64_t epoch_floor)
    : path_(std::move(path)), sync_(sync) {
  fd_ = OpenLog(path_, first_seq, epoch_floor);
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

bool WalWriter::healthy() const {
  std::scoped_lock lock(mu_);
  return fd_ >= 0 && !append_failed_;
}

int WalWriter::OpenLog(const std::string& path, uint64_t first_seq,
                       uint64_t epoch_floor) const {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) throw std::runtime_error("WAL: cannot open " + path);
  if (::lseek(fd, 0, SEEK_END) > 0) return fd;  // append after its tail
  std::vector<uint8_t> header(kMagic, kMagic + sizeof(kMagic));
  header.push_back(kVersion);
  PutU64(header, first_seq);
  PutU64(header, epoch_floor);
  if (::write(fd, header.data(), header.size()) !=
      static_cast<ssize_t>(header.size())) {
    ::close(fd);
    throw std::runtime_error("WAL: cannot write header to " + path);
  }
  if (sync_) ::fsync(fd);
  return fd;
}

size_t WalWriter::AppendFrame(uint64_t seq,
                              const std::vector<uint8_t>& payload) {
  const std::vector<uint8_t> frame = Frame(seq, payload);
  std::scoped_lock lock(mu_);
  // One write call per record keeps torn records to the file tail.
  if (::write(fd_, frame.data(), frame.size()) !=
      static_cast<ssize_t>(frame.size())) {
    append_failed_ = true;  // latch for healthy(): the log is wedged
    throw std::runtime_error("WAL: append failed on " + path_);
  }
  if (sync_) ::fsync(fd_);
  return frame.size();
}

size_t WalWriter::Append(uint64_t seq, const core::ChangeSet& changes) {
  return AppendFrame(seq, EncodeChangeSet(changes));
}

void WalWriter::AppendMarker(uint64_t epoch, uint64_t first_seq,
                             uint64_t last_seq) {
  std::vector<uint8_t> payload;
  PutU64(payload, epoch);
  PutU64(payload, first_seq);
  PutU64(payload, last_seq);
  AppendFrame(kMarkerSeq, payload);
}

void WalWriter::Reset(uint64_t first_seq, uint64_t epoch_floor) {
  std::scoped_lock lock(mu_);
  // Build the fresh empty log beside the old one, keep the old one as
  // the previous generation by a hard link, and rename the fresh one
  // into place: every crash point leaves a complete log at path_.
  const std::string tmp = path_ + ".reset";
  const std::string prev = PreviousWalPath(path_);
  ::unlink(tmp.c_str());
  ::close(OpenLog(tmp, first_seq, epoch_floor));
  ::unlink(prev.c_str());
  if (::link(path_.c_str(), prev.c_str()) != 0) {
    throw std::runtime_error("WAL: cannot keep " + path_ + " as " + prev);
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    throw std::runtime_error("WAL: cannot rename " + tmp + " over " + path_);
  }
  ::close(fd_);
  fd_ = -1;
  fd_ = OpenLog(path_, first_seq, epoch_floor);
  // A successful reset just proved the log is writable again.
  append_failed_ = false;
}

WalReplayReport ReplayWal(const std::string& path, const rel::Catalog& catalog,
                          uint64_t after_seq,
                          const std::function<void(WalBatch)>& fn) {
  WalReplayReport report;
  std::ifstream in(path, std::ios::binary);
  if (!in) return report;  // no log yet: empty
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  if (file_size == 0) return report;  // crashed before the header: empty
  if (file_size < kWalHeaderBytes) {
    // Torn header write. Records only follow a complete header, so
    // nothing was ever acknowledged; flag the tail so the caller
    // truncates to valid_bytes (0) before appending.
    report.tail_truncated = true;
    return report;
  }
  std::array<char, kWalHeaderBytes> header{};
  in.read(header.data(), header.size());
  if (in.gcount() != static_cast<std::streamsize>(header.size()) ||
      std::memcmp(header.data(), kMagic, sizeof(kMagic)) != 0 ||
      header[sizeof(kMagic)] != static_cast<char>(kVersion)) {
    throw std::runtime_error("WAL: bad header in " + path);
  }
  const uint8_t* header_bytes =
      reinterpret_cast<const uint8_t*>(header.data()) + sizeof(kMagic) + 1;
  report.first_seq = GetU64(header_bytes);
  report.max_epoch = GetU64(header_bytes + 8);
  report.valid_bytes = kWalHeaderBytes;

  // Records past the last marker (with seq > after_seq), waiting for
  // the marker that says how the writer batched them.
  std::deque<IngestItem> pending;
  uint64_t marked_seq = report.first_seq - 1;  // last seq a marker covered
  std::array<char, kFrameSize> frame{};
  uint64_t offset = kWalHeaderBytes;
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
    if (seq != kMarkerSeq) {
      IngestItem item;
      item.seq = seq;
      // Decode even below the replay cutoff: a decode failure is
      // corruption and must stop the scan, checkpointed or not.
      item.changes = DecodeChangeSet(catalog, payload);
      ++report.records;
      report.last_seq = seq;
      report.valid_bytes = offset;
      if (seq > after_seq) pending.push_back(std::move(item));
      continue;
    }
    if (len != kMarkerPayload) throw std::runtime_error("WAL: bad marker size");
    const uint64_t epoch = GetU64(payload.data());
    const uint64_t first = GetU64(payload.data() + 8);
    const uint64_t last = GetU64(payload.data() + 16);
    if (first > last) throw std::runtime_error("WAL: inverted marker range");
    if (first != marked_seq + 1) {  // overlaps or skips unmarked records
      throw std::runtime_error("WAL: marker does not follow the previous one");
    }
    if (last > report.last_seq) {
      throw std::runtime_error("WAL: marker past the last record");
    }
    marked_seq = last;
    report.max_epoch = std::max(report.max_epoch, epoch);
    report.valid_bytes = offset;
    if (last <= after_seq) continue;
    if (first <= after_seq) {
      throw std::runtime_error("WAL: marker straddles the replay cutoff");
    }
    std::vector<IngestItem> run;
    while (!pending.empty() && pending.front().seq <= last) {
      run.push_back(std::move(pending.front()));
      pending.pop_front();
    }
    if (run.size() != last - first + 1 || run.front().seq != first) {
      throw std::runtime_error("WAL: marker does not match its records");
    }
    // CoalesceChanges rejects a marker spanning two fact tables.
    fn({epoch, first, last, CoalesceChanges(std::move(run))});
  }
  for (IngestItem& item : pending) {
    fn({/*epoch=*/0, item.seq, item.seq, std::move(item.changes)});
  }
  return report;
}

}  // namespace sdelta::service
