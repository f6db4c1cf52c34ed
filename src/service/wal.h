#ifndef SDELTA_SERVICE_WAL_H_
#define SDELTA_SERVICE_WAL_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/delta.h"
#include "relational/catalog.h"

namespace sdelta::service {

/// Write-ahead log for ingest durability (DESIGN.md §9) and the
/// service's log-shipping stream (DESIGN.md §15).
///
/// File layout:
///   header:  "SDWAL1\n" (7 bytes) + u8 version (2) + u64 first_seq
///            + u64 epoch_floor
///   record:  u64 seq + u32 payload_len + u32 crc + payload
/// where crc = crc32(seq bytes + payload_len bytes + payload), so a
/// corrupted sequence number or length field is detected, not just a
/// corrupted payload.
///
/// Two record kinds share that frame: a change set (seq >= 1; a
/// self-describing binary ChangeSet whose values carry a type tag) and a
/// marker (seq == 0; u64 epoch + first_seq + last_seq: the writer
/// installed change sets [first_seq, last_seq] as one batch at that
/// epoch, which is above the header's epoch_floor). Integers are
/// little-endian.
///
/// Durability contract: Append returns only after the record is written
/// to the stream (and fsync'd when `sync` is on), so an acknowledged
/// change set survives a crash; a torn tail was never acknowledged.

/// CRC-32 (IEEE 802.3 polynomial, the zlib crc32) over a byte buffer.
uint32_t Crc32(const uint8_t* data, size_t size);

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

/// Bytes of the log header: magic + version + first_seq + epoch_floor.
inline constexpr size_t kWalHeaderBytes = 7 + 1 + 8 + 8;
/// Bytes one marker takes in the log: frame + epoch + first_seq + last_seq.
inline constexpr size_t kWalMarkerBytes = 16 + 24;

/// Where a checkpoint keeps the previous log generation:
/// `<dir>/wal.log` -> `<dir>/wal.prev`.
std::string PreviousWalPath(const std::string& path);

/// One batch of the log: the change sets [first_seq, last_seq] folded by
/// CoalesceChanges into the change set one RunBatch applies.
struct WalBatch {
  uint64_t epoch = 0;  ///< the marker's epoch; 0 = past the last marker
  uint64_t first_seq = 0;
  uint64_t last_seq = 0;
  core::ChangeSet changes;
};

/// Result of scanning a WAL file.
struct WalReplayReport {
  uint64_t first_seq = 1;     ///< header first_seq (next expected record)
  uint64_t records = 0;       ///< change-set records decoded successfully
  uint64_t last_seq = 0;      ///< seq of the last good record (0 if none)
  uint64_t max_epoch = 0;     ///< largest of the header's epoch_floor and
                              ///< every marker's epoch
  uint64_t valid_bytes = 0;   ///< file offset just past the last intact
                              ///< record (header size if none; 0 when the
                              ///< file is missing, empty, or its header
                              ///< itself is torn)
  bool tail_truncated = false;  ///< a torn/corrupt record ended the scan
};

/// Appender. Opens (creating if absent) the log at `path`; an existing
/// log is appended to. `first_seq` and `epoch_floor` are written into
/// the header when the file is created fresh. Append, AppendMarker and
/// Reset may be called from different threads: writes are serialized
/// inside the writer.
class WalWriter {
 public:
  /// `sync` = fsync after every append (durability); off for benches.
  WalWriter(std::string path, uint64_t first_seq, bool sync,
            uint64_t epoch_floor = 0);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one change-set record; returns the bytes written (record
  /// framing + payload). Throws std::runtime_error on IO failure.
  size_t Append(uint64_t seq, const core::ChangeSet& changes);

  /// Appends a marker: change sets [first_seq, last_seq] were installed
  /// as one batch at `epoch`. Throws std::runtime_error on IO failure.
  void AppendMarker(uint64_t epoch, uint64_t first_seq, uint64_t last_seq);

  /// Starts a new, empty log generation at `first_seq` (checkpoint
  /// commit) and keeps the current one at PreviousWalPath. The old log
  /// is hard-linked there and a fresh header renamed over `path`, so
  /// every crash point leaves a complete log at `path`.
  void Reset(uint64_t first_seq, uint64_t epoch_floor);

  const std::string& path() const { return path_; }

  /// The /healthz "WAL writable" check: the log fd is open and no
  /// append has failed since. Append failures throw to the producer
  /// AND latch this false — a scrape can see the wedged log even if
  /// every producer swallowed its exception.
  bool healthy() const;

 private:
  /// Opens `path` for append, laying down a header if it is empty.
  int OpenLog(const std::string& path, uint64_t first_seq,
              uint64_t epoch_floor) const;
  size_t AppendFrame(uint64_t seq, const std::vector<uint8_t>& payload);

  std::string path_;
  bool sync_ = true;
  mutable std::mutex mu_;
  int fd_ = -1;                // guarded by mu_
  bool append_failed_ = false;  // guarded by mu_
};

/// Scans the log at `path` and hands `fn` every batch with last_seq >
/// `after_seq`, in sequence order — the one reader of the log, shared
/// by recovery and log-shipping consumers (DESIGN.md §15):
///   - each marker's change sets, coalesced exactly as the writer's
///     RunBatch saw them and stamped with the marker's epoch;
///   - then each record past the last marker as its own batch with
///     epoch 0: acknowledged but not yet installed. Recovery applies
///     these; a consumer waits for their marker.
/// A missing or zero-length file is an empty log; a file shorter than
/// the header is a torn creation. A torn or CRC-corrupt record or marker
/// stops the scan (tail_truncated = true): the writer must truncate the
/// file to valid_bytes before appending, and a consumer tailing a live
/// log reads it as an in-flight append to retry later. Corruption that
/// passes the CRC throws std::runtime_error: an undecodable payload, or
/// a marker whose range is inverted, does not start right after the
/// previous marker, runs past the last record, straddles `after_seq`,
/// or spans two fact tables.
WalReplayReport ReplayWal(const std::string& path, const rel::Catalog& catalog,
                          uint64_t after_seq,
                          const std::function<void(WalBatch)>& fn);

}  // namespace sdelta::service

#endif  // SDELTA_SERVICE_WAL_H_
