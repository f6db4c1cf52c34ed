#ifndef SDELTA_SERVICE_WAL_H_
#define SDELTA_SERVICE_WAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/delta.h"
#include "relational/catalog.h"

namespace sdelta::service {

/// Write-ahead log for ingest durability (DESIGN.md §9).
///
/// File layout:
///   header:  "SDWAL1\n" (7 bytes) + u8 version (1) + u64 first_seq
///   record:  u64 seq + u32 payload_len + u32 crc + payload
/// where crc = crc32(seq bytes + payload_len bytes + payload), so a
/// corrupted sequence number or length field is detected, not just a
/// corrupted payload.
///
/// The payload is a self-describing binary ChangeSet (fact-table name,
/// fact insert/delete rows, per-dimension deltas; values carry a type
/// tag). All integers are little-endian, written byte-by-byte so the
/// format is host-order independent.
///
/// Durability contract: Append returns only after the record is written
/// to the stream (and fsync'd when `sync` is on), so an acknowledged
/// change set survives a crash. Recovery replays every record with
/// seq > the checkpoint's last applied sequence; a torn tail record
/// (short payload or CRC mismatch) terminates replay cleanly — it was
/// never acknowledged. Before appending to a log whose scan reported
/// tail_truncated, the caller must truncate the file to the report's
/// valid_bytes: bytes written after the garbage tail would be invisible
/// to the next recovery scan.

/// CRC-32 (IEEE 802.3 polynomial, the zlib crc32) over a byte buffer.
uint32_t Crc32(const uint8_t* data, size_t size);

/// Incremental CRC-32: feed buffers into a running state seeded with
/// 0xFFFFFFFF; the checksum is the final state ^ 0xFFFFFFFF. Framed
/// records (WAL, ship log) checksum frame then payload without copying
/// them into one buffer.
uint32_t Crc32Feed(uint32_t state, const uint8_t* data, size_t size);

/// The little-endian byte codec of the WAL and the ship log, written
/// byte-by-byte so both formats are host-order independent.
inline void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

inline void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

inline uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t{p[i]} << (8 * i);
  return v;
}

inline uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t{p[i]} << (8 * i);
  return v;
}

/// Serializes a change set to the WAL payload encoding (exposed for
/// tests; the encoding is deterministic — identical change sets produce
/// identical bytes).
std::vector<uint8_t> EncodeChangeSet(const core::ChangeSet& changes);

/// Decodes a WAL payload. Schemas are resolved against `catalog` (the
/// table names in the payload must exist). Throws std::runtime_error on
/// malformed payloads (wrong arity, unknown or repeated table, truncated
/// buffer).
core::ChangeSet DecodeChangeSet(const rel::Catalog& catalog,
                                const std::vector<uint8_t>& payload);

/// One replayed WAL record.
struct WalRecord {
  uint64_t seq = 0;
  core::ChangeSet changes;
};

/// Result of scanning a WAL file.
struct WalReplayReport {
  uint64_t first_seq = 1;     ///< header first_seq (next expected record)
  uint64_t records = 0;       ///< records decoded successfully
  uint64_t last_seq = 0;      ///< seq of the last good record (0 if none)
  uint64_t valid_bytes = 0;   ///< file offset just past the last intact
                              ///< record (header size if none; 0 when the
                              ///< file is missing, empty, or its header
                              ///< itself is torn)
  bool tail_truncated = false;  ///< a torn/corrupt record ended the scan
};

/// Appender. Opens (creating if absent) the log at `path`; an existing
/// log is appended to. `first_seq` is written into the header when the
/// file is created fresh.
class WalWriter {
 public:
  /// `sync` = fsync after every append (durability); off for benches.
  WalWriter(std::string path, uint64_t first_seq, bool sync);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record; returns the bytes written (record framing +
  /// payload). Throws std::runtime_error on IO failure.
  size_t Append(uint64_t seq, const core::ChangeSet& changes);

  /// Truncates the log: the file is replaced by an empty log whose
  /// header says the next record is `first_seq` (checkpoint commit).
  /// The fresh header is written to a side file and rename(2)-d into
  /// place, so a crash mid-reset leaves either the old complete log or
  /// the new empty one — never a header-less file.
  void Reset(uint64_t first_seq);

  const std::string& path() const { return path_; }

  /// The /healthz "WAL writable" check: the log fd is open and no
  /// append has failed since. Append failures throw to the producer
  /// AND latch this false — a scrape can see the wedged log even if
  /// every producer swallowed its exception.
  bool healthy() const { return fd_ >= 0 && !append_failed_; }

 private:
  void OpenOrCreate(uint64_t first_seq);

  std::string path_;
  bool sync_ = true;
  int fd_ = -1;
  std::atomic<bool> append_failed_{false};
};

/// Scans the log at `path`, invoking `fn` for every intact record with
/// seq > `after_seq` in file order. Returns the scan report. A missing
/// or zero-length file is an empty log (0 records); a file shorter than
/// the header is a torn creation (empty, tail_truncated = true). A torn
/// or CRC-corrupt record stops the scan (tail_truncated = true);
/// everything before it is replayed, and the caller must truncate the
/// file to valid_bytes before appending to it.
WalReplayReport ReplayWal(const std::string& path, const rel::Catalog& catalog,
                          uint64_t after_seq,
                          const std::function<void(WalRecord)>& fn);

}  // namespace sdelta::service

#endif  // SDELTA_SERVICE_WAL_H_
