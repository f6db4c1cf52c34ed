// An interactive warehouse shell over the paper's retail schema, now
// running on the concurrent service runtime (src/service/): ingested
// batches go through the WAL + maintenance loop, queries answer from
// pinned epoch snapshots, and the service can checkpoint to disk.
// Reads commands from stdin.
//
//   ./build/examples/warehouse_shell [pos_rows] [data_dir] [http_port]
//
// `data_dir` holds the WAL and checkpoints (default: a per-process temp
// directory, wiped on exit). Start from a fresh directory when changing
// the set of summary tables: a checkpoint records their schemas.
// `http_port` starts the embedded scrape endpoint on 127.0.0.1 (0 =
// pick an ephemeral port; the bound port is printed at startup). Routes:
// /metrics /healthz /varz /epochs /events /timeseries /profile /anomalies.
// `http_port` -1 leaves the endpoint off. Every installed batch is
// marked in <data_dir>/wal.log, so an out-of-process consumer can tail
// the WAL and replay the writer's batches (DESIGN.md §15). A malformed
// numeric argument or an extra argument prints the usage line and exits
// with status 2.
//
// Commands:
//   CREATE VIEW ...   define + materialize a summary table (SQL dialect)
//   SELECT ...        answer a query (from a pinned snapshot when a view
//                     derives it, else from the live warehouse)
//   DROP <name>       remove a summary table
//   tables            list base tables with per-column storage layout
//                     (column type, storage mode, null count, dict size)
//   summaries         list summary tables
//   lattice           show derives edges and the propagation plan
//   batch <kind> <n>  append a change set and flush; kind = update |
//                     insert | backfill | recat
//   explain <kind> <n> [dot|json]
//                     annotated plan tree (estimates only) for such a
//                     batch, without running it
//   explain analyze <kind> <n> [dot|json]
//                     run the batch and annotate the tree with actual
//                     cardinalities and refresh outcomes
//   service stats     queue depth, epoch, staleness, last refresh window
//   service flush     force a maintenance batch and wait for it
//   service checkpoint
//                     snapshot to <data_dir>/checkpoint + start a new WAL
//                     generation (the old one stays at wal.prev)
//   service slo       SLO targets, violation counts, burn rate, health
//   service events    the structured event log
//   history [metric]  per-batch metric history from the time-series ring
//                     (no metric: list the recorded series)
//   profile [collapsed]
//                     cumulative self-time profile of the maintenance
//                     path; `collapsed` prints flamegraph.pl input
//   anomalies         detector state + flight-recorder bundles on disk
//   metrics           Prometheus text exposition of all pipeline metrics
//   dicts             per-column string dictionaries and per-view packed
//                     key stats (see DESIGN.md §8)
//   save <dir>        snapshot catalog + summaries
//   help, quit
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "obs/export_prometheus.h"
#include "service/service.h"
#include "warehouse/persistence.h"
#include "warehouse/retail_schema.h"
#include "warehouse/warehouse.h"
#include "warehouse/workload.h"

using namespace sdelta;  // NOLINT: example brevity

namespace {

void PrintHelp() {
  std::printf(
      "commands: CREATE VIEW ... | SELECT ... | DROP <view> | tables |\n"
      "          summaries | lattice | batch <update|insert|backfill|"
      "recat> <n> |\n"
      "          explain [analyze] <kind> <n> [dot|json] |\n"
      "          service <stats|flush|checkpoint|slo|events> | metrics |\n"
      "          history [metric] | profile [collapsed] | anomalies |\n"
      "          dicts | save <dir> | help | quit\n");
}

core::ChangeSet MakeChanges(const rel::Catalog& catalog,
                            const std::string& kind, size_t n, uint64_t seed) {
  if (kind == "update") {
    return warehouse::MakeUpdateGeneratingChanges(catalog, n, seed);
  }
  if (kind == "insert") {
    return warehouse::MakeInsertionGeneratingChanges(catalog, n, seed);
  }
  if (kind == "backfill") {
    return warehouse::MakeBackfillChanges(catalog, n, seed);
  }
  if (kind == "recat") {
    return warehouse::MakeItemRecategorization(catalog, n, seed);
  }
  throw std::invalid_argument("unknown batch kind '" + kind + "'");
}

/// Generates a change set against the quiescent live catalog.
core::ChangeSet MakeChangesQuiesced(service::WarehouseService& svc,
                                    const std::string& kind, size_t n,
                                    uint64_t seed) {
  core::ChangeSet changes;
  svc.WithWriter([&](warehouse::Warehouse& wh) {
    changes = MakeChanges(wh.catalog(), kind, n, seed);
  });
  return changes;
}

void RunBatchCommand(service::WarehouseService& svc, const std::string& kind,
                     size_t n, uint64_t seed) {
  const uint64_t seq =
      svc.Append(MakeChangesQuiesced(svc, kind, n, seed));
  svc.Flush();
  const warehouse::BatchReport report = svc.LastReport();
  const service::WarehouseService::Stats stats = svc.GetStats();
  std::printf(
      "seq %llu applied | propagate %.2f ms | refresh %.2f ms | "
      "reader window %.3f ms\n",
      static_cast<unsigned long long>(seq), 1e3 * report.propagate_seconds,
      1e3 * report.refresh_seconds,
      1e3 * stats.last_refresh_window_seconds);
  for (const warehouse::ViewBatchReport& v : report.views) {
    std::printf("  %-16s delta=%6zu  +%zu ~%zu -%zu (recomputed %zu)\n",
                v.view.c_str(), v.delta_rows, v.refresh.inserted,
                v.refresh.updated, v.refresh.deleted,
                v.refresh.recomputed_groups);
  }
}

void PrintServiceStats(service::WarehouseService& svc) {
  const service::WarehouseService::Stats s = svc.GetStats();
  std::printf("epoch             %llu\n",
              static_cast<unsigned long long>(s.epoch));
  std::printf("seq (acked/applied/checkpointed) %llu / %llu / %llu\n",
              static_cast<unsigned long long>(s.last_seq),
              static_cast<unsigned long long>(s.applied_seq),
              static_cast<unsigned long long>(s.checkpoint_seq));
  std::printf("queue depth       %zu change sets, %zu rows\n",
              s.queue_changesets, s.queue_rows);
  std::printf("staleness         %.3f s\n", s.staleness_seconds);
  std::printf("last refresh window %.3f ms\n",
              1e3 * s.last_refresh_window_seconds);
  std::printf("batches           %llu (checkpoints %llu, recovered %llu)\n",
              static_cast<unsigned long long>(s.batches),
              static_cast<unsigned long long>(s.checkpoints),
              static_cast<unsigned long long>(s.recovered_records));
}

void PrintServiceSlo(service::WarehouseService& svc) {
  std::printf("%s\n", svc.slo().ToJson().Dump(2).c_str());
  const service::WarehouseService::Health h = svc.CheckHealth();
  std::printf(
      "health: %s (wal_writable=%d maintenance_alive=%d "
      "queue_below_high_water=%d slo_ok=%d staleness=%.3fs)\n",
      h.healthy() ? "ok" : "DEGRADED", h.wal_writable, h.maintenance_alive,
      h.queue_below_high_water, h.slo_ok, h.staleness_seconds);
}

void PrintServiceEvents(service::WarehouseService& svc) {
  const std::vector<obs::Event> events = svc.events().Snapshot();
  std::printf("%llu recorded, %llu dropped, %zu retained\n",
              static_cast<unsigned long long>(svc.events().total_recorded()),
              static_cast<unsigned long long>(svc.events().dropped_count()),
              events.size());
  for (const obs::Event& e : events) {
    std::printf("  #%-4llu %11.6fs %-14s batch=%-4llu req=%-4llu seq=%-5llu "
                "value=%-10.6g %s\n",
                static_cast<unsigned long long>(e.id), 1e-9 * e.ts_ns,
                obs::EventTypeName(e.type),
                static_cast<unsigned long long>(e.batch_id),
                static_cast<unsigned long long>(e.request_id),
                static_cast<unsigned long long>(e.seq), e.value,
                e.detail.c_str());
  }
}

void PrintHistory(service::WarehouseService& svc, const std::string& metric) {
  const obs::TimeSeriesStore* ts = svc.timeseries();
  if (ts == nullptr) {
    std::printf("time-series store disabled (timeseries_capacity = 0)\n");
    return;
  }
  if (metric.empty()) {
    std::printf("%zu batches retained (%llu appended, %llu beyond the "
                "ring); series:\n",
                ts->size(), static_cast<unsigned long long>(ts->appended()),
                static_cast<unsigned long long>(ts->dropped()));
    for (const auto& [name, kind] : ts->SeriesNames()) {
      std::printf("  %-44s %s\n", name.c_str(), obs::SampleKindName(kind));
    }
    return;
  }
  const std::vector<obs::TimeSeriesPoint> points = ts->Query(metric);
  if (points.empty()) {
    std::printf("no samples for '%s' (try 'history' for the series list)\n",
                metric.c_str());
    return;
  }
  for (const obs::TimeSeriesPoint& p : points) {
    std::printf("  batch %-6llu %.6g\n",
                static_cast<unsigned long long>(p.batch_id), p.value);
  }
}

void PrintProfile(service::WarehouseService& svc, const std::string& format) {
  const obs::Profiler* profiler = svc.profiler();
  if (profiler == nullptr) {
    std::printf("profiler disabled (Options::profile = false)\n");
    return;
  }
  if (format == "collapsed") {
    // flamegraph.pl input: pipe to tools/flamegraph.pl or speedscope.
    std::printf("%s", profiler->ToCollapsed().c_str());
    return;
  }
  std::printf("%llu batches profiled\n",
              static_cast<unsigned long long>(profiler->batches()));
  std::printf("%s", profiler->ToText().c_str());
}

void PrintAnomalies(service::WarehouseService& svc) {
  const obs::AnomalyDetector* detector = svc.anomalies();
  if (detector == nullptr) {
    std::printf("anomaly detection disabled (Options::anomaly.enabled)\n");
    return;
  }
  std::printf("%llu checks, %llu detections\n",
              static_cast<unsigned long long>(detector->checks()),
              static_cast<unsigned long long>(detector->detections()));
  for (const obs::Anomaly& a : detector->recent()) {
    std::printf("  batch %-6llu %-10s %-36s value=%.6g baseline=%.6g "
                "threshold=%.6g\n",
                static_cast<unsigned long long>(a.batch_id), a.kind.c_str(),
                a.metric.c_str(), a.value, a.baseline, a.threshold);
  }
  if (const obs::FlightRecorder* rec = svc.flight_recorder()) {
    const std::vector<std::string> bundles = rec->ListBundles();
    std::printf("flight-recorder bundles in %s:\n", rec->options().dir.c_str());
    for (const std::string& b : bundles) std::printf("  %s\n", b.c_str());
    if (bundles.empty()) std::printf("  (none)\n");
  }
}

constexpr const char* kUsage =
    "usage: warehouse_shell [pos_rows] [data_dir] [http_port]\n";

/// Parses the whole of `arg` as a T within [lo, hi]; anything else
/// (empty, trailing characters, out of range) prints the usage line and
/// exits non-zero.
template <typename T>
T ParseArg(const char* name, const char* arg, T lo, T hi) {
  const char* end = arg + std::strlen(arg);
  T value{};
  const std::from_chars_result r = std::from_chars(arg, end, value);
  if (r.ec != std::errc() || r.ptr != end || value < lo || value > hi) {
    std::fprintf(stderr, "warehouse_shell: bad %s '%s'\n%s", name, arg,
                 kUsage);
    std::exit(2);
  }
  return value;
}

void PrintExplain(const lattice::ExplainResult& explain,
                  const std::string& format) {
  if (format == "dot") {
    std::printf("%s", explain.ToDot().c_str());
  } else if (format == "json") {
    std::printf("%s\n", explain.ToJson().Dump(1).c_str());
  } else {
    std::printf("%s", explain.ToText().c_str());
  }
}

/// explain [analyze] <kind> [n] [dot|json]. Plain explain peeks at the
/// *next* batch's change set without consuming the seed; analyze runs
/// the batch for real (same seed stepping as `batch`).
void RunExplainCommand(service::WarehouseService& svc, std::istringstream& in,
                       uint64_t* seed) {
  std::string kind;
  in >> kind;
  bool analyze = false;
  if (kind == "analyze") {
    analyze = true;
    in >> kind;
  }
  size_t n = 0;
  in >> n;
  if (n == 0) n = 1000;
  std::string format;
  in >> format;
  const uint64_t use_seed = analyze ? ++*seed : *seed + 1;
  svc.WithWriter([&](warehouse::Warehouse& wh) {
    core::ChangeSet changes = MakeChanges(wh.catalog(), kind, n, use_seed);
    PrintExplain(analyze ? wh.ExplainAnalyze(changes) : wh.Explain(changes),
                 format);
  });
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 4) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  warehouse::RetailConfig config;
  constexpr size_t kMaxSize = std::numeric_limits<size_t>::max();
  config.num_pos_rows =
      argc > 1 ? ParseArg<size_t>("pos_rows", argv[1], 0, kMaxSize) : 20000;
  const bool temp_data_dir = argc <= 2;
  const std::string data_dir =
      temp_data_dir ? (std::filesystem::temp_directory_path() /
                       ("sdelta_shell_" + std::to_string(::getpid())))
                          .string()
                    : std::string(argv[2]);

  obs::MetricsRegistry metrics;
  service::WarehouseService::Options options;
  options.metrics = &metrics;
  options.auto_batching = false;  // the shell flushes explicitly
  // The shell is a diagnosis surface: keep the whole historical layer on
  // (per-batch history, maintenance profile, anomaly flight recorder).
  options.profile = true;
  options.anomaly.enabled = true;
  if (argc > 3) {
    options.http_port = ParseArg<int>("http_port", argv[3], -1, 65535);
  }

  auto svc = service::WarehouseService::Open(
      data_dir, warehouse::MakeRetailCatalog(config),
      /*views=*/{}, options);
  std::printf(
      "retail warehouse service ready: pos=%zu rows, data dir %s.\n"
      "Type 'help'.\n",
      config.num_pos_rows, data_dir.c_str());
  if (svc->http_port() >= 0) {
    std::printf(
        "scrape endpoint: http://127.0.0.1:%d  "
        "(/metrics /healthz /varz /epochs /events /timeseries /profile "
        "/anomalies)\n",
        svc->http_port());
  }

  uint64_t seed = 1;
  std::string line;
  std::printf("> ");
  while (std::getline(std::cin, line)) {
    try {
      std::istringstream in(line);
      std::string word;
      in >> word;
      std::string upper = word;
      for (char& c : upper) c = static_cast<char>(std::toupper(c));

      if (word.empty()) {
        // fallthrough to prompt
      } else if (upper == "QUIT" || upper == "EXIT") {
        break;
      } else if (upper == "HELP") {
        PrintHelp();
      } else if (upper == "TABLES") {
        svc->WithWriter([](warehouse::Warehouse& wh) {
          for (const std::string& name : wh.catalog().TableNames()) {
            const rel::Table& t = wh.catalog().GetTable(name);
            std::printf("  %-10s %zu rows, %zu bytes\n", name.c_str(),
                        t.NumRows(), t.ApproxBytes());
            for (size_t c = 0; c < t.schema().NumColumns(); ++c) {
              const rel::ColumnVector& cv = t.column_data(c);
              std::printf("    %-16s %-7s %-6s nulls=%zu",
                          t.schema().column(c).name.c_str(),
                          rel::ValueTypeName(t.schema().column(c).type),
                          cv.StorageName(), cv.null_count());
              if (cv.dict() != nullptr) {
                std::printf(" dict=%zu codes", cv.dict()->size());
              }
              std::printf("\n");
            }
          }
        });
      } else if (upper == "SUMMARIES") {
        const service::ReadSnapshot snap = svc->Snapshot();
        for (const std::string& name : snap.ViewNames()) {
          std::printf("  %-16s %zu rows (epoch %llu)\n", name.c_str(),
                      snap.view(name).NumRows(),
                      static_cast<unsigned long long>(snap.epoch()));
        }
      } else if (upper == "LATTICE") {
        svc->WithWriter([](warehouse::Warehouse& wh) {
          std::printf("%s", wh.vlattice().ToString().c_str());
          std::printf("plan:\n%s", wh.plan().ToString(wh.vlattice()).c_str());
        });
      } else if (upper == "BATCH") {
        std::string kind;
        size_t n = 0;
        in >> kind >> n;
        RunBatchCommand(*svc, kind, n == 0 ? 1000 : n, ++seed);
      } else if (upper == "EXPLAIN") {
        RunExplainCommand(*svc, in, &seed);
      } else if (upper == "SERVICE") {
        std::string sub;
        in >> sub;
        if (sub == "stats") {
          PrintServiceStats(*svc);
        } else if (sub == "flush") {
          svc->Flush();
          std::printf("flushed through seq %llu\n",
                      static_cast<unsigned long long>(
                          svc->GetStats().applied_seq));
        } else if (sub == "checkpoint") {
          svc->Checkpoint();
          const service::WarehouseService::Stats s = svc->GetStats();
          std::printf("checkpointed at seq %llu (old WAL kept as wal.prev)\n",
                      static_cast<unsigned long long>(s.checkpoint_seq));
        } else if (sub == "slo") {
          PrintServiceSlo(*svc);
        } else if (sub == "events") {
          PrintServiceEvents(*svc);
        } else {
          std::printf("usage: service <stats|flush|checkpoint|slo|events>\n");
        }
      } else if (upper == "HISTORY") {
        std::string metric;
        in >> metric;
        PrintHistory(*svc, metric);
      } else if (upper == "PROFILE") {
        std::string format;
        in >> format;
        PrintProfile(*svc, format);
      } else if (upper == "ANOMALIES") {
        PrintAnomalies(*svc);
      } else if (upper == "METRICS") {
        std::printf("%s", obs::ExportPrometheus(metrics).c_str());
      } else if (upper == "DICTS") {
        svc->WithWriter([](warehouse::Warehouse& wh) {
          std::printf("dictionaries (%zu entries total):\n",
                      wh.catalog().dictionaries().TotalEntries());
          for (const auto& [column, entries] :
               wh.catalog().dictionaries().Entries()) {
            std::printf("  %-16s %zu codes\n", column.c_str(), entries);
          }
          std::printf("summary key paths:\n");
          for (const core::AugmentedView& av : wh.vlattice().views) {
            const core::SummaryTable& st = wh.summary(av.name());
            uint64_t packed = st.packed_key_ops();
            uint64_t fallback = st.fallback_key_ops();
            uint64_t total = packed + fallback;
            std::printf("  %-16s %-8s ops=%llu packed=%.1f%%\n",
                        av.name().c_str(),
                        st.keys_packed() ? "packed" : "boxed",
                        static_cast<unsigned long long>(total),
                        total == 0 ? 0.0
                                   : 100.0 * static_cast<double>(packed) /
                                         static_cast<double>(total));
          }
        });
      } else if (upper == "DROP") {
        std::string name;
        in >> name;
        svc->WithWriter(
            [&](warehouse::Warehouse& wh) { wh.DropSummaryTable(name); });
        std::printf("dropped %s\n", name.c_str());
      } else if (upper == "SAVE") {
        std::string dir;
        in >> dir;
        svc->WithWriter([&](warehouse::Warehouse& wh) {
          warehouse::SaveWarehouse(wh, dir);
        });
        std::printf("saved to %s\n", dir.c_str());
      } else if (upper == "CREATE") {
        svc->WithWriter(
            [&](warehouse::Warehouse& wh) { wh.AddSummaryTable(line); });
        const service::ReadSnapshot snap = svc->Snapshot();
        const std::string name = snap.ViewNames().back();
        std::printf("defined %s (%zu rows)\n", name.c_str(),
                    snap.view(name).NumRows());
      } else if (upper == "SELECT") {
        lattice::AnswerResult r;
        try {
          // Snapshot path: answered from a pinned epoch, concurrent
          // with any in-flight maintenance.
          r = svc->Snapshot().Query(line);
        } catch (const std::runtime_error&) {
          // No pinned view derives it — fall back to the live
          // warehouse (base-table evaluation).
          svc->WithWriter(
              [&](warehouse::Warehouse& wh) { r = wh.Query(line); });
        }
        std::printf("-- answered from %s (%zu rows read)\n",
                    r.from_base ? "base tables" : r.source_view.c_str(),
                    r.rows_read);
        std::printf("%s", r.rows.ToString(20).c_str());
      } else {
        std::printf("unknown command; try 'help'\n");
      }
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
    std::printf("> ");
  }
  svc->Stop();
  svc.reset();
  if (temp_data_dir) {
    std::error_code ec;
    std::filesystem::remove_all(data_dir, ec);
  }
  std::printf("bye\n");
  return 0;
}
