#ifndef SDELTA_REPLICA_REPLICA_H_
#define SDELTA_REPLICA_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/http_endpoint.h"
#include "obs/metrics.h"
#include "replica/transport.h"
#include "service/versioned.h"
#include "warehouse/warehouse.h"

namespace sdelta::replica {

/// A read-only warehouse replica (DESIGN.md §15): tails a ship stream,
/// applies each record through the normal batch pipeline, and installs
/// the writer's epoch numbers into its own VersionedTables — so a
/// caught-up replica serves exactly the snapshots the writer's readers
/// see, byte-identical per epoch (the pipeline's determinism contract:
/// same change-set trajectory, same summary bytes).
///
/// The replica owns a full Warehouse (base tables included) because
/// refresh needs base state for MIN/MAX recomputation under deletions;
/// applying the shipped change sets keeps it in lockstep with the
/// writer. It never originates maintenance: the only mutation path is
/// Catchup(). Readers use Snapshot()/Query and the HTTP scrape routes
/// (/metrics, /healthz, /epochs) — the same serving surface as the
/// writer service.
///
/// Failure handling per Catchup pull:
///   - CRC-corrupt bytes: counted (replica.crc_rejects) and re-requested
///     — the cursor does not advance, so the next pull retries.
///   - Duplicate record (last_seq <= applied_seq, e.g. a retransmission
///     or pre-bootstrap history): skipped, cursor advances.
///   - Sequence gap (first_seq > applied_seq + 1): counted
///     (replica.gap_rejects) and refused without advancing — the record
///     is re-requested until the gap heals.
/// DDL is not shipped: a writer schema change requires re-bootstrapping
/// replicas from a fresh writer checkpoint (documented limitation).
class ReadReplica {
 public:
  struct Options {
    warehouse::Warehouse::Options warehouse;
    /// External registry for replica.* and pipeline series; null = the
    /// replica owns a private registry (metrics()).
    obs::MetricsRegistry* metrics = nullptr;
    /// HTTP scrape endpoint: < 0 disabled, 0 ephemeral port, > 0 fixed.
    int http_port = -1;
    double slow_query_threshold_seconds = 0.1;
    /// First-boot state: a *writer* checkpoint directory to clone
    /// (SaveWarehouse layout + SEQ + EPOCH markers). Ignored when the
    /// replica has its own checkpoint in data_dir. Empty = bootstrap
    /// from the `bootstrap` catalog at seq 0 and replay the whole ship
    /// stream.
    std::string bootstrap_checkpoint;
  };

  /// Opens the replica on `data_dir` (created if needed; holds replica
  /// checkpoints). Restore precedence: own checkpoint, then
  /// Options::bootstrap_checkpoint, then fresh from `bootstrap` +
  /// `views`. `transport` must outlive the replica.
  static std::unique_ptr<ReadReplica> Open(std::string data_dir,
                                           rel::Catalog bootstrap,
                                           std::vector<core::ViewDef> views,
                                           ShipTransport* transport,
                                           Options options);
  static std::unique_ptr<ReadReplica> Open(std::string data_dir,
                                           rel::Catalog bootstrap,
                                           std::vector<core::ViewDef> views,
                                           ShipTransport* transport) {
    return Open(std::move(data_dir), std::move(bootstrap), std::move(views),
                transport, Options());
  }

  ~ReadReplica();
  ReadReplica(const ReadReplica&) = delete;
  ReadReplica& operator=(const ReadReplica&) = delete;

  struct CatchupReport {
    uint64_t applied = 0;     ///< records applied (epochs installed)
    uint64_t duplicates = 0;  ///< records skipped by sequence dedup
    uint64_t crc_rejects = 0;
    uint64_t gap_rejects = 0;
    double seconds = 0;  ///< wall time of this pass (the catch-up lag)
  };

  /// Pulls and applies ship records until the stream is dry or a
  /// reject (CRC/gap) stops the pass; rejected records stay at the
  /// cursor and the next Catchup re-requests them.
  CatchupReport Catchup();

  /// Pins the current epoch — same read surface as the writer service.
  service::ReadSnapshot Snapshot() const { return versioned_.Pin(); }

  /// Snapshots warehouse + applied markers to <data_dir>/checkpoint
  /// with the writer's tmp/prev rename protocol, so a restart resumes
  /// from the last applied epoch instead of replaying the stream.
  void Checkpoint();

  uint64_t applied_epoch() const { return applied_epoch_.load(); }
  uint64_t applied_seq() const { return applied_seq_.load(); }
  uint64_t cursor() const { return cursor_.load(); }

  obs::MetricsRegistry& metrics() { return *metrics_; }
  const std::string& data_dir() const { return data_dir_; }
  /// The bound scrape port; -1 when disabled.
  int http_port() const;

 private:
  ReadReplica(std::string data_dir, warehouse::Warehouse wh, Options options,
              std::unique_ptr<obs::MetricsRegistry> owned_metrics,
              ShipTransport* transport, uint64_t applied_epoch,
              uint64_t applied_seq, uint64_t start_cursor);

  /// Builds the epoch installed after applying one ship record: each
  /// view is a copy-on-write Share() of this replica's table.
  std::shared_ptr<const service::Epoch> BuildEpoch(uint64_t number,
                                                   bool dims_changed);
  void StartHttp(uint16_t port);
  void EmitGauges();
  std::vector<std::string> FactTableNames() const;

  const std::string data_dir_;
  Options options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  ShipTransport* transport_ = nullptr;
  service::ServiceObs obs_;
  warehouse::Warehouse warehouse_;
  service::VersionedTables versioned_;
  std::atomic<uint64_t> applied_epoch_{0};
  std::atomic<uint64_t> applied_seq_{0};
  std::atomic<uint64_t> cursor_{0};
  std::unique_ptr<obs::HttpEndpoint> http_;
};

}  // namespace sdelta::replica

#endif  // SDELTA_REPLICA_REPLICA_H_
