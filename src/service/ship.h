#ifndef SDELTA_SERVICE_SHIP_H_
#define SDELTA_SERVICE_SHIP_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sdelta::service {

/// Epoch ship log (DESIGN.md §15): the writer publishes one ShipRecord
/// per maintenance batch it installs — the coalesced change set the
/// batch applied, stamped with the epoch readers saw after the install
/// and the WAL sequence range it covered. A consumer that applies ship
/// records in order runs the exact batch trajectory of the writer, so
/// its summary state per epoch is byte-identical (the determinism
/// contract of the batch pipeline).
///
/// Stream layout (all integers little-endian, the WAL's byte codec):
///   header:  "SDSHIP1\n" (8 bytes) + u8 version
///   record:  u64 epoch + u64 first_seq + u64 last_seq
///            + u32 payload_len + u32 crc + payload
/// where crc = crc32(epoch + first_seq + last_seq + payload_len bytes
/// + payload) — the same IEEE CRC-32 the WAL uses, covering the frame
/// fields so a corrupted epoch/seq/length is detected, not just a
/// corrupted payload. The payload is EncodeChangeSet bytes.
struct ShipRecord {
  uint64_t epoch = 0;
  uint64_t first_seq = 0;  ///< first WAL sequence coalesced into this batch
  uint64_t last_seq = 0;   ///< last WAL sequence coalesced into this batch
  std::vector<uint8_t> payload;
};

inline constexpr char kShipMagic[8] = {'S', 'D', 'S', 'H', 'I', 'P', '1', '\n'};
inline constexpr uint8_t kShipVersion = 1;
/// magic + version byte.
inline constexpr size_t kShipHeaderSize = sizeof(kShipMagic) + 1;
/// epoch + first_seq + last_seq + payload_len + crc.
inline constexpr size_t kShipFrameSize = 8 + 8 + 8 + 4 + 4;

/// The 9 stream-header bytes.
std::vector<uint8_t> ShipStreamHeader();

/// Serializes one record (frame + payload, no stream header).
std::vector<uint8_t> EncodeShipRecord(const ShipRecord& record);

enum class ShipDecode {
  kOk,        ///< *out filled, *next_offset is the following record
  kNeedMore,  ///< the buffer ends mid-record (nothing shipped yet / torn)
  kCorrupt,   ///< CRC mismatch or an impossible length
};

/// Decodes the record starting at `offset` of `buffer`. On kOk fills
/// *out and *next_offset; on kNeedMore/kCorrupt both are untouched.
ShipDecode DecodeShipRecord(const std::vector<uint8_t>& buffer, size_t offset,
                            ShipRecord* out, size_t* next_offset);

/// Validates a stream header at the front of `buffer`. Throws
/// std::runtime_error on a wrong magic or version; returns false (not
/// yet a full header) when the buffer is shorter than the header.
bool CheckShipHeader(const std::vector<uint8_t>& buffer);

/// Where the writer publishes installed epochs. Publish is called from
/// the maintenance thread only, strictly in epoch order.
class ShipPublisher {
 public:
  virtual ~ShipPublisher() = default;
  virtual void Publish(const ShipRecord& record) = 0;
  /// Largest epoch ever published into this sink (0 when fresh). A
  /// writer restarting against an existing stream fast-forwards its
  /// epoch numbering past this, so consumers never see an epoch reused
  /// for a different batch.
  virtual uint64_t MaxEpoch() const { return 0; }
};

/// Durable file-backed ship stream: the writer appends via Publish, an
/// out-of-process consumer tails the same file. Opening scans an
/// existing stream (truncating a torn tail, which no consumer can have
/// decoded) to recover max epoch/seq.
class FileShipLog : public ShipPublisher {
 public:
  explicit FileShipLog(std::string path);
  ~FileShipLog() override;
  FileShipLog(const FileShipLog&) = delete;
  FileShipLog& operator=(const FileShipLog&) = delete;

  void Publish(const ShipRecord& record) override;
  uint64_t MaxEpoch() const override { return max_epoch_; }
  uint64_t max_seq() const { return max_seq_; }
  uint64_t records() const { return records_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  uint64_t max_epoch_ = 0;
  uint64_t max_seq_ = 0;
  uint64_t records_ = 0;
};

}  // namespace sdelta::service

#endif  // SDELTA_SERVICE_SHIP_H_
