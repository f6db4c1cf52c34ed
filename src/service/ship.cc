#include "service/ship.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "service/wal.h"

namespace sdelta::service {

namespace {

// Ship logs are local files; a single record over 1 GiB is framing
// corruption, not data.
constexpr uint32_t kMaxPayload = 1u << 30;

}  // namespace

std::vector<uint8_t> ShipStreamHeader() {
  std::vector<uint8_t> out(kShipMagic, kShipMagic + sizeof(kShipMagic));
  out.push_back(kShipVersion);
  return out;
}

std::vector<uint8_t> EncodeShipRecord(const ShipRecord& record) {
  std::vector<uint8_t> out;
  out.reserve(kShipFrameSize + record.payload.size());
  PutU64(out, record.epoch);
  PutU64(out, record.first_seq);
  PutU64(out, record.last_seq);
  PutU32(out, static_cast<uint32_t>(record.payload.size()));
  // CRC over everything framed so far (epoch/seqs/len) plus the payload.
  uint32_t crc = Crc32Feed(0xFFFFFFFFu, out.data(), out.size());
  crc = Crc32Feed(crc, record.payload.data(), record.payload.size());
  PutU32(out, crc ^ 0xFFFFFFFFu);
  out.insert(out.end(), record.payload.begin(), record.payload.end());
  return out;
}

ShipDecode DecodeShipRecord(const std::vector<uint8_t>& buffer, size_t offset,
                            ShipRecord* out, size_t* next_offset) {
  if (offset > buffer.size() || buffer.size() - offset < kShipFrameSize) {
    return ShipDecode::kNeedMore;
  }
  const uint8_t* frame = buffer.data() + offset;
  const uint32_t len = GetU32(frame + 24);
  if (len > kMaxPayload) return ShipDecode::kCorrupt;
  if (buffer.size() - offset - kShipFrameSize < len) {
    return ShipDecode::kNeedMore;
  }
  const uint32_t stored_crc = GetU32(frame + 28);
  // CRC input = the 28 pre-crc frame bytes + payload. The crc field
  // sits between them, so feed the two pieces separately.
  uint32_t crc = Crc32Feed(0xFFFFFFFFu, frame, 28);
  crc = Crc32Feed(crc, frame + kShipFrameSize, len);
  if ((crc ^ 0xFFFFFFFFu) != stored_crc) return ShipDecode::kCorrupt;
  out->epoch = GetU64(frame);
  out->first_seq = GetU64(frame + 8);
  out->last_seq = GetU64(frame + 16);
  out->payload.assign(frame + kShipFrameSize, frame + kShipFrameSize + len);
  *next_offset = offset + kShipFrameSize + len;
  return ShipDecode::kOk;
}

bool CheckShipHeader(const std::vector<uint8_t>& buffer) {
  if (buffer.size() < kShipHeaderSize) return false;
  if (std::memcmp(buffer.data(), kShipMagic, sizeof(kShipMagic)) != 0) {
    throw std::runtime_error("ship: bad stream magic");
  }
  if (buffer[sizeof(kShipMagic)] != kShipVersion) {
    throw std::runtime_error("ship: unsupported stream version");
  }
  return true;
}

FileShipLog::FileShipLog(std::string path) : path_(std::move(path)) {
  namespace fs = std::filesystem;
  uint64_t valid_bytes = 0;
  bool fresh = true;
  if (fs::exists(path_) && fs::file_size(path_) > 0) {
    std::ifstream in(path_, std::ios::binary);
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    if (CheckShipHeader(bytes)) {
      fresh = false;
      size_t offset = kShipHeaderSize;
      ShipRecord rec;
      size_t next = 0;
      while (DecodeShipRecord(bytes, offset, &rec, &next) == ShipDecode::kOk) {
        if (rec.epoch > max_epoch_) max_epoch_ = rec.epoch;
        if (rec.last_seq > max_seq_) max_seq_ = rec.last_seq;
        ++records_;
        offset = next;
      }
      valid_bytes = offset;
      if (offset != bytes.size()) {
        // Torn/corrupt tail: it was written but never decodable, so no
        // consumer can have applied it. Cut it before appending.
        fs::resize_file(path_, valid_bytes);
      }
    }
    // A file shorter than the header is a torn creation: rewrite it.
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) throw std::runtime_error("ship: cannot open " + path_);
  if (fresh) {
    if (valid_bytes == 0 && fs::exists(path_) && fs::file_size(path_) > 0) {
      fs::resize_file(path_, 0);
    }
    const std::vector<uint8_t> header = ShipStreamHeader();
    if (::write(fd_, header.data(), header.size()) !=
        static_cast<ssize_t>(header.size())) {
      throw std::runtime_error("ship: cannot write header to " + path_);
    }
  }
}

FileShipLog::~FileShipLog() {
  if (fd_ >= 0) ::close(fd_);
}

void FileShipLog::Publish(const ShipRecord& record) {
  const std::vector<uint8_t> bytes = EncodeShipRecord(record);
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (n < 0) throw std::runtime_error("ship: write failed for " + path_);
    written += static_cast<size_t>(n);
  }
  if (record.epoch > max_epoch_) max_epoch_ = record.epoch;
  if (record.last_seq > max_seq_) max_seq_ = record.last_seq;
  ++records_;
}

}  // namespace sdelta::service
