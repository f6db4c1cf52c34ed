#include "replica/replica.h"

#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/maintenance.h"
#include "obs/export_prometheus.h"
#include "obs/json.h"
#include "service/wal.h"
#include "warehouse/persistence.h"

namespace sdelta::replica {

namespace fs = std::filesystem;

namespace {

constexpr const char* kCheckpointDir = "checkpoint";
constexpr const char* kCheckpointTmp = "checkpoint.tmp";
constexpr const char* kCheckpointPrev = "checkpoint.prev";
/// Writer-checkpoint markers (see service/service.cc).
constexpr const char* kSeqFile = "SEQ";
constexpr const char* kEpochFile = "EPOCH";
/// Replica marker: "epoch seq cursor" on one line.
constexpr const char* kAppliedFile = "APPLIED";

uint64_t ReadMarker(const fs::path& path) {
  std::ifstream in(path);
  uint64_t v = 0;
  if (!(in >> v)) {
    throw std::runtime_error("replica: missing or unreadable " +
                             path.string());
  }
  return v;
}

void WriteApplied(const fs::path& path, uint64_t epoch, uint64_t seq,
                  uint64_t cursor) {
  std::ofstream out(path, std::ios::trunc);
  out << epoch << " " << seq << " " << cursor << "\n";
  if (!out) {
    throw std::runtime_error("replica: cannot write " + path.string());
  }
}

void ReadApplied(const fs::path& path, uint64_t* epoch, uint64_t* seq,
                 uint64_t* cursor) {
  std::ifstream in(path);
  if (!(in >> *epoch >> *seq >> *cursor)) {
    throw std::runtime_error("replica: missing or unreadable " +
                             path.string());
  }
}

}  // namespace

std::unique_ptr<ReadReplica> ReadReplica::Open(std::string data_dir,
                                               rel::Catalog bootstrap,
                                               std::vector<core::ViewDef> views,
                                               ShipTransport* transport,
                                               Options options) {
  fs::create_directories(data_dir);
  const fs::path dir(data_dir);
  const fs::path ckpt = dir / kCheckpointDir;
  const fs::path tmp = dir / kCheckpointTmp;
  const fs::path prev = dir / kCheckpointPrev;

  // Same crash cleanup as the writer's checkpoint protocol: discard an
  // unfinished tmp; restore prev when the swap itself was interrupted.
  std::error_code ec;
  fs::remove_all(tmp, ec);
  if (!fs::exists(ckpt) && fs::exists(prev)) {
    fs::rename(prev, ckpt);
  } else {
    fs::remove_all(prev, ec);
  }

  auto owned = options.metrics
                   ? std::unique_ptr<obs::MetricsRegistry>()
                   : std::make_unique<obs::MetricsRegistry>();
  obs::MetricsRegistry* metrics =
      options.metrics ? options.metrics : owned.get();
  options.metrics = metrics;
  options.warehouse.metrics = metrics;

  uint64_t applied_epoch = 0;
  uint64_t applied_seq = 0;
  uint64_t start_cursor = 0;

  std::unique_ptr<warehouse::Warehouse> wh;
  if (fs::exists(ckpt / "manifest.txt")) {
    // Resume from our own checkpoint: re-fetch only what we have not
    // applied (the stream cursor was persisted with the state).
    ReadApplied(ckpt / kAppliedFile, &applied_epoch, &applied_seq,
                &start_cursor);
    wh = std::make_unique<warehouse::Warehouse>(
        warehouse::LoadWarehouse(ckpt.string(), views, options.warehouse));
  } else if (!options.bootstrap_checkpoint.empty()) {
    // First boot from a writer checkpoint: adopt its applied sequence
    // (dedup will skip any ship records at or below it) and read the
    // whole stream from the start.
    const fs::path writer_ckpt(options.bootstrap_checkpoint);
    if (!fs::exists(writer_ckpt / "manifest.txt")) {
      throw std::runtime_error("replica: bootstrap checkpoint missing at " +
                               writer_ckpt.string());
    }
    applied_seq = ReadMarker(writer_ckpt / kSeqFile);
    if (fs::exists(writer_ckpt / kEpochFile)) {
      applied_epoch = ReadMarker(writer_ckpt / kEpochFile);
    }
    wh = std::make_unique<warehouse::Warehouse>(warehouse::LoadWarehouse(
        writer_ckpt.string(), views, options.warehouse));
  } else {
    // Fresh: same bootstrap catalog + views as the writer's first boot,
    // replay the stream from record one.
    wh = std::make_unique<warehouse::Warehouse>(std::move(bootstrap),
                                                options.warehouse);
    wh->DefineSummaryTables(views);
  }

  return std::unique_ptr<ReadReplica>(
      new ReadReplica(std::move(data_dir), std::move(*wh), std::move(options),
                      std::move(owned), transport, applied_epoch, applied_seq,
                      start_cursor));
}

ReadReplica::ReadReplica(std::string data_dir, warehouse::Warehouse wh,
                         Options options,
                         std::unique_ptr<obs::MetricsRegistry> owned_metrics,
                         ShipTransport* transport, uint64_t applied_epoch,
                         uint64_t applied_seq, uint64_t start_cursor)
    : data_dir_(std::move(data_dir)),
      options_(std::move(options)),
      owned_metrics_(std::move(owned_metrics)),
      metrics_(options_.metrics),
      transport_(transport),
      warehouse_(std::move(wh)) {
  obs_.metrics = metrics_;
  obs_.slow_query_threshold_seconds = options_.slow_query_threshold_seconds;
  applied_epoch_.store(applied_epoch);
  applied_seq_.store(applied_seq);
  cursor_.store(start_cursor);
  // Pre-register the failure-path counters so expositions always carry
  // them (and lag dashboards see explicit zeros).
  metrics_->Add("replica.crc_rejects", 0);
  metrics_->Add("replica.gap_rejects", 0);
  metrics_->Add("replica.duplicates_skipped", 0);
  metrics_->Add("replica.records_applied", 0);
  versioned_.Install(BuildEpoch(applied_epoch, /*dims_changed=*/true));
  EmitGauges();
  if (options_.http_port >= 0) {
    StartHttp(static_cast<uint16_t>(options_.http_port));
  }
}

ReadReplica::~ReadReplica() {
  if (http_) http_->Stop();
}

std::vector<std::string> ReadReplica::FactTableNames() const {
  std::set<std::string> facts;
  for (const rel::ForeignKey& fk : warehouse_.catalog().foreign_keys()) {
    facts.insert(fk.fact_table);
  }
  for (const core::AugmentedView& v : warehouse_.vlattice().views) {
    facts.insert(v.physical.fact_table);
  }
  return {facts.begin(), facts.end()};
}

std::shared_ptr<const service::Epoch> ReadReplica::BuildEpoch(
    uint64_t number, bool dims_changed) {
  const std::shared_ptr<const service::Epoch> prev = versioned_.Current();
  const lattice::VLattice& wl = warehouse_.vlattice();
  auto next = std::make_shared<service::Epoch>();
  next->number = number;
  next->metrics = metrics_;
  next->obs = &obs_;
  next->lattice = prev ? prev->lattice
                       : std::make_shared<lattice::VLattice>(wl);
  if (prev && !dims_changed) {
    next->catalog = prev->catalog;
  } else {
    next->catalog =
        service::MakeReaderCatalog(warehouse_.catalog(), FactTableNames());
  }
  next->views.reserve(wl.views.size());
  for (const core::AugmentedView& view : wl.views) {
    next->views.push_back(
        warehouse_.summary_mutable(view.physical.name).Share());
  }
  return next;
}

ReadReplica::CatchupReport ReadReplica::Catchup() {
  core::Stopwatch sw;
  CatchupReport report;
  while (true) {
    ShipFetch fetch = transport_->Fetch(cursor_.load());
    if (fetch.corrupt) {
      // Torn/garbled record: reject, keep the cursor, re-request on the
      // next pass (by then the sender has the intact bytes).
      ++report.crc_rejects;
      metrics_->Add("replica.crc_rejects");
      break;
    }
    if (!fetch.have) {
      cursor_.store(fetch.next_cursor);  // header normalization only
      break;
    }
    const ShipRecord& rec = fetch.record;
    if (rec.last_seq <= applied_seq_.load()) {
      // Retransmission duplicate or pre-bootstrap history: already in
      // our state; skip past it. Adopt the epoch stamp so the lag gauge
      // doesn't understate progress after a writer-side replay re-ship.
      ++report.duplicates;
      metrics_->Add("replica.duplicates_skipped");
      if (rec.epoch > applied_epoch_.load()) applied_epoch_.store(rec.epoch);
      cursor_.store(fetch.next_cursor);
      continue;
    }
    if (rec.first_seq > applied_seq_.load() + 1) {
      // A record is missing between applied_seq and this one. Applying
      // out of order would fork the state; refuse and do not advance —
      // re-request until the stream heals.
      ++report.gap_rejects;
      metrics_->Add("replica.gap_rejects");
      break;
    }
    core::ChangeSet changes =
        service::DecodeChangeSet(warehouse_.catalog(), rec.payload);
    const bool dims_changed = !changes.dimensions.empty();
    warehouse_.RunBatch(changes);
    versioned_.Install(BuildEpoch(rec.epoch, dims_changed));
    applied_epoch_.store(rec.epoch);
    applied_seq_.store(rec.last_seq);
    cursor_.store(fetch.next_cursor);
    ++report.applied;
    metrics_->Add("replica.records_applied");
    metrics_->Add("replica.bytes_applied",
                  kShipFrameSize + rec.payload.size());
  }
  report.seconds = sw.ElapsedSeconds();
  metrics_->Set("replica.catchup_seconds", report.seconds);
  metrics_->Set("replica.catchup_records", static_cast<double>(report.applied));
  EmitGauges();
  return report;
}

void ReadReplica::Checkpoint() {
  const fs::path dir(data_dir_);
  const fs::path ckpt = dir / kCheckpointDir;
  const fs::path tmp = dir / kCheckpointTmp;
  const fs::path prev = dir / kCheckpointPrev;
  std::error_code ec;
  fs::remove_all(tmp, ec);
  warehouse::SaveWarehouse(warehouse_, tmp.string());
  WriteApplied(tmp / kAppliedFile, applied_epoch_.load(), applied_seq_.load(),
               cursor_.load());
  fs::remove_all(prev, ec);
  if (fs::exists(ckpt)) fs::rename(ckpt, prev);
  fs::rename(tmp, ckpt);
  fs::remove_all(prev, ec);
  metrics_->Add("replica.checkpoints");
}

void ReadReplica::EmitGauges() {
  metrics_->Set("replica.applied_epoch",
                static_cast<double>(applied_epoch_.load()));
  metrics_->Set("replica.applied_seq",
                static_cast<double>(applied_seq_.load()));
  metrics_->Set("replica.cursor", static_cast<double>(cursor_.load()));
}

int ReadReplica::http_port() const {
  return http_ != nullptr && http_->running() ? static_cast<int>(http_->port())
                                              : -1;
}

void ReadReplica::StartHttp(uint16_t port) {
  http_ = std::make_unique<obs::HttpEndpoint>();
  http_->Route("/metrics", [this](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = obs::ExportPrometheus(*metrics_);
    return r;
  });
  http_->Route("/healthz", [this](const obs::HttpRequest&) {
    obs::Json doc = obs::Json::Object();
    doc.Set("healthy", obs::Json::Bool(true));
    doc.Set("role", obs::Json::Str("replica"));
    doc.Set("applied_epoch",
            obs::Json::Int(static_cast<int64_t>(applied_epoch_.load())));
    doc.Set("applied_seq",
            obs::Json::Int(static_cast<int64_t>(applied_seq_.load())));
    obs::HttpResponse r;
    r.body = doc.Dump(2) + "\n";
    return r;
  });
  http_->Route("/epochs", [this](const obs::HttpRequest&) {
    const std::shared_ptr<const service::Epoch> cur = versioned_.Current();
    obs::Json doc = obs::Json::Object();
    doc.Set("epoch", obs::Json::Int(static_cast<int64_t>(cur->number)));
    doc.Set("applied_seq",
            obs::Json::Int(static_cast<int64_t>(applied_seq_.load())));
    obs::Json views = obs::Json::Array();
    for (size_t i = 0; i < cur->views.size(); ++i) {
      obs::Json v = obs::Json::Object();
      v.Set("name", obs::Json::Str(cur->lattice->views[i].physical.name));
      v.Set("rows",
            obs::Json::Int(static_cast<int64_t>(cur->views[i]->NumRows())));
      views.Append(std::move(v));
    }
    doc.Set("views", std::move(views));
    obs::HttpResponse r;
    r.body = doc.Dump(2) + "\n";
    return r;
  });
  http_->Start(port);
}

}  // namespace sdelta::replica
