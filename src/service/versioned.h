#ifndef SDELTA_SERVICE_VERSIONED_H_
#define SDELTA_SERVICE_VERSIONED_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/summary_table.h"
#include "lattice/answer.h"
#include "lattice/vlattice.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "relational/catalog.h"

namespace sdelta::service {

/// The service's shared observability context (DESIGN.md §11), handed
/// to every epoch so reader-side paths (snapshot queries) report into
/// the same sinks as the maintenance thread. Owned by WarehouseService;
/// snapshots must not outlive it. All pointers are nullable.
struct ServiceObs {
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  obs::EventLog* events = nullptr;
  obs::SloTracker* slo = nullptr;
  /// Correlation-ID source for snapshot queries: each query takes the
  /// next id, stamps its trace span, and tags any SlowQuery event.
  std::atomic<uint64_t> next_request_id{0};
  /// A snapshot query slower than this records a SlowQuery event.
  double slow_query_threshold_seconds = 0.1;
};

/// One immutable reader-visible version of the warehouse's summary
/// state (DESIGN.md §9). Everything a query needs is pinned inside:
/// per-view summary tables, the lattice they form, and a reader-side
/// catalog (schemas, foreign keys, FDs, and dimension rows — fact
/// tables are present schema-only, so snapshot queries that would fall
/// back to base data are rejected instead of silently answered empty).
///
/// Each view is a copy-on-write SummaryTable::Share() of the writer's
/// table, so consecutive epochs hold the same row pages except the ones
/// refresh wrote in between (DESIGN.md §9.1).
struct Epoch {
  uint64_t number = 0;
  std::shared_ptr<const lattice::VLattice> lattice;
  /// Parallel to lattice->views.
  std::vector<std::shared_ptr<const core::SummaryTable>> views;
  std::shared_ptr<const rel::Catalog> catalog;
  /// Shared service registry for answer.* accounting; may be null.
  /// Owned by the service — snapshots must not outlive it.
  obs::MetricsRegistry* metrics = nullptr;
  /// Shared observability context (request ids, events, tracer); may be
  /// null (e.g. epochs built outside a service). Same lifetime rule as
  /// `metrics`.
  ServiceObs* obs = nullptr;
};

/// A pinned epoch: the cheap read handle. Copyable; holding one keeps
/// every table of its epoch alive while refresh installs newer epochs
/// beside it. All methods are const and safe to call from any number of
/// threads concurrently with ongoing maintenance.
class ReadSnapshot {
 public:
  explicit ReadSnapshot(std::shared_ptr<const Epoch> epoch)
      : epoch_(std::move(epoch)) {}

  uint64_t epoch() const { return epoch_->number; }
  size_t NumViews() const { return epoch_->views.size(); }
  std::vector<std::string> ViewNames() const;

  /// The pinned physical summary table (throws std::invalid_argument on
  /// an unknown name).
  const core::SummaryTable& view(const std::string& name) const;

  /// Answers an aggregate query from the cheapest pinned view that
  /// derives it — the paper's reader path, running entirely against
  /// this epoch. A query no pinned view can answer throws
  /// std::runtime_error (base-table fallback needs the live warehouse).
  lattice::AnswerResult Query(const core::ViewDef& query) const;
  lattice::AnswerResult Query(const std::string& sql) const;

 private:
  std::shared_ptr<const Epoch> epoch_;
};

/// The swap point between the maintenance thread and readers. Readers
/// pin the current epoch (a shared_ptr copy under a mutex); refresh
/// builds the next epoch off to the side and installs it with one
/// pointer swap — the whole reader-visible batch window.
class VersionedTables {
 public:
  ReadSnapshot Pin() const;
  std::shared_ptr<const Epoch> Current() const;

  /// Installs `next` as the current epoch and returns the seconds the
  /// swap itself took (the measured service.refresh_window). The
  /// displaced epoch is released after the pin mutex is dropped.
  double Install(std::shared_ptr<const Epoch> next);

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const Epoch> current_;
};

/// Builds the reader-side catalog for an epoch: copies schemas, foreign
/// keys, functional dependencies, and the rows of every table NOT named
/// in `fact_tables`; fact tables are added schema-only. Dimension
/// tables are small (the paper's stores/items), so the copy is cheap
/// and gives readers join inputs consistent with the epoch.
std::shared_ptr<const rel::Catalog> MakeReaderCatalog(
    const rel::Catalog& writer, const std::vector<std::string>& fact_tables);

}  // namespace sdelta::service

#endif  // SDELTA_SERVICE_VERSIONED_H_
