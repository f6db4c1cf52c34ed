// Service-runtime availability bench (EXPERIMENTS.md): how much reader
// throughput does background maintenance cost, and how long is the
// batch window during which it could cost anything?
//
// Cases (keyed by {case, readers}):
//   readers_idle              - N reader threads hammer snapshot
//       queries against a quiescent service; each runs a fixed query
//       count, so the workload is deterministic and QPS is the only
//       timing output.
//   readers_with_maintenance  - the same readers run concurrently with
//       a producer appending a fixed trajectory of insertion change
//       sets through the WAL + maintenance loop, flushing after every
//       kChangeSetsPerFlush of them (explicit batch boundaries, so the
//       batch and epoch counts do not depend on timing). The service's
//       refresh-window histogram (the epoch-install swap, i.e. the
//       paper's batch window as experienced by readers) is reported
//       alongside.
//   readers_with_scraping     - readers_with_maintenance plus a scraper
//       thread hammering the embedded HTTP endpoint's /metrics route
//       over a real socket for the whole run: the observability tax.
//       Gated by the same reader-p99 tolerance as the maintenance case.
//   readers_profiler_on       - readers_with_maintenance with the whole
//       historical layer enabled (span profiler, per-batch time-series
//       snapshots, anomaly checks). Emits p99_overhead_ratio (reader
//       p99 vs the plain maintenance run), gated at baseline 1.0 with
//       5% tolerance: the committed proof the diagnostics stay off the
//       read path.
//
// Writes BENCH_service.json entries for the CI bench gate:
// appended_changesets / appended_rows / batches / epochs are exact (the
// trajectory and its flush points are deterministic; a mismatch means
// the ingest path dropped or split work), refresh_window_ms_mean /
// refresh_window_ms_p99 are tolerance-gated timings, qps is recorded
// but ignored by the gate (QPS is higher-is-better, so a one-sided
// upper gate would point the wrong way).
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_common.h"
#include "core/maintenance.h"
#include "obs/export_json.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "warehouse/workload.h"

namespace sdelta::bench {
namespace {

namespace fs = std::filesystem;

constexpr size_t kPosRows = 50000;
constexpr size_t kReaderThreads = 4;
constexpr size_t kQueriesPerIdleReader = 400;
constexpr size_t kChangeSets = 120;
constexpr size_t kRowsPerChangeSet = 64;
constexpr size_t kChangeSetsPerFlush = 40;

constexpr char kRegionQuery[] =
    "SELECT region, SUM(qty) AS q FROM pos, stores "
    "WHERE pos.storeID = stores.storeID GROUP BY region";
constexpr char kCategoryQuery[] =
    "SELECT category, SUM(qty) AS q FROM pos, items "
    "WHERE pos.itemID = items.itemID GROUP BY category";

std::vector<obs::Json>& ServiceEntries() {
  static auto* entries = new std::vector<obs::Json>();
  return *entries;
}

struct RunResult {
  double seconds = 0;
  uint64_t queries = 0;
  uint64_t appended_changesets = 0;
  uint64_t appended_rows = 0;
  obs::Histogram query_latency;
  obs::Histogram refresh_window;
  uint64_t batches = 0;
  uint64_t epochs = 0;
  uint64_t scrapes = 0;
};

std::unique_ptr<service::WarehouseService> OpenService(
    const fs::path& dir, bool with_http = false, bool with_profiler = false) {
  service::WarehouseService::Options options;
  options.auto_batching = false;  // batches form only at Flush
  if (with_http) options.http_port = 0;  // ephemeral loopback port
  if (with_profiler) {
    // The whole historical layer (DESIGN.md §13): per-batch time-series
    // snapshots, maintenance-path profiling, and anomaly checks with
    // default rules. Steady-state reader overhead is gated below.
    options.profile = true;
    options.anomaly.enabled = true;
  }
  return service::WarehouseService::Open(
      dir.string(), warehouse::MakeRetailCatalog(PaperConfig(kPosRows)),
      warehouse::RetailSummaryTables(), options);
}

/// One blocking HTTP/1.0 GET against the service's loopback endpoint;
/// returns true when the response is a 200 with a body.
bool ScrapeOnce(int port, const char* path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request = std::string("GET ") + path + " HTTP/1.0\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return false;
  }
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response.rfind("HTTP/1.0 200", 0) == 0 &&
         response.find("\r\n\r\n") != std::string::npos;
}

/// The scraper: alternates the exporter routes until `stop` flips, so
/// every reader latency sample in the scraping case was taken while
/// the exporter lock traffic was live.
void ScraperLoop(int port, const std::atomic<bool>* stop,
                 uint64_t* scrapes_out) {
  static const char* kRoutes[] = {"/metrics", "/healthz", "/epochs"};
  uint64_t done = 0;
  while (!stop->load(std::memory_order_acquire)) {
    if (!ScrapeOnce(port, kRoutes[done % 3])) {
      std::fprintf(stderr, "bench_service: scrape failed\n");
      std::abort();
    }
    ++done;
  }
  *scrapes_out = done;
}

/// One reader: alternates the two derivable aggregate queries against
/// freshly pinned snapshots until its quota (fixed count, or until
/// `stop` flips for the contention run).
void ReaderLoop(const service::WarehouseService& svc, size_t fixed_queries,
                const std::atomic<bool>* stop, uint64_t* queries_out,
                obs::Histogram* latency_out) {
  uint64_t done = 0;
  obs::Histogram latency;
  while (stop != nullptr ? !stop->load(std::memory_order_acquire)
                         : done < fixed_queries) {
    core::Stopwatch sw;
    const service::ReadSnapshot snap = svc.Snapshot();
    const lattice::AnswerResult a =
        snap.Query(done % 2 == 0 ? kRegionQuery : kCategoryQuery);
    latency.Observe(sw.ElapsedSeconds());
    if (a.rows.NumRows() == 0) {
      std::fprintf(stderr, "bench_service: empty query result\n");
      std::abort();
    }
    ++done;
  }
  *queries_out = done;
  *latency_out = latency;
}

RunResult RunIdle(const fs::path& dir) {
  auto svc = OpenService(dir);
  RunResult r;
  std::vector<uint64_t> counts(kReaderThreads, 0);
  std::vector<obs::Histogram> latencies(kReaderThreads);
  std::vector<std::thread> readers;
  core::Stopwatch sw;
  for (size_t i = 0; i < kReaderThreads; ++i) {
    readers.emplace_back(ReaderLoop, std::cref(*svc), kQueriesPerIdleReader,
                         nullptr, &counts[i], &latencies[i]);
  }
  for (std::thread& t : readers) t.join();
  r.seconds = sw.ElapsedSeconds();
  for (uint64_t c : counts) r.queries += c;
  for (const obs::Histogram& h : latencies) r.query_latency.MergeFrom(h);
  r.epochs = svc->GetStats().epoch;
  svc->Stop();
  return r;
}

RunResult RunWithMaintenance(const fs::path& dir, bool with_scraper = false,
                             bool with_profiler = false) {
  auto svc = OpenService(dir, with_scraper, with_profiler);
  RunResult r;
  std::atomic<bool> stop{false};
  std::vector<uint64_t> counts(kReaderThreads, 0);
  std::vector<obs::Histogram> latencies(kReaderThreads);
  std::vector<std::thread> readers;
  std::thread scraper;
  if (with_scraper) {
    scraper = std::thread(ScraperLoop, svc->http_port(), &stop, &r.scrapes);
  }

  // The producer's mirror catalog evolves in lockstep with the
  // service's warehouse so the workload generator sees current keys.
  rel::Catalog mirror = warehouse::MakeRetailCatalog(PaperConfig(kPosRows));

  core::Stopwatch sw;
  for (size_t i = 0; i < kReaderThreads; ++i) {
    readers.emplace_back(ReaderLoop, std::cref(*svc), size_t{0}, &stop,
                         &counts[i], &latencies[i]);
  }
  for (size_t i = 0; i < kChangeSets; ++i) {
    core::ChangeSet changes = warehouse::MakeInsertionGeneratingChanges(
        mirror, kRowsPerChangeSet, /*seed=*/9000 + i);
    core::ApplyChangeSet(mirror, changes);
    r.appended_rows += changes.fact.insertions.NumRows();
    svc->Append(std::move(changes));
    if ((i + 1) % kChangeSetsPerFlush == 0) svc->Flush();
  }
  svc->Flush();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  if (scraper.joinable()) scraper.join();
  r.seconds = sw.ElapsedSeconds();

  for (uint64_t c : counts) r.queries += c;
  for (const obs::Histogram& h : latencies) r.query_latency.MergeFrom(h);
  r.appended_changesets = kChangeSets;
  r.refresh_window = svc->metrics().histogram("service.refresh_window");
  const service::WarehouseService::Stats stats = svc->GetStats();
  r.batches = stats.batches;
  r.epochs = stats.epoch;
  if (stats.applied_seq != kChangeSets) {
    std::fprintf(stderr, "bench_service: applied %llu of %zu change sets\n",
                 static_cast<unsigned long long>(stats.applied_seq),
                 kChangeSets);
    std::abort();
  }
  svc->Stop();
  return r;
}

void AddEntry(const std::string& kase, const RunResult& r,
              bool with_windows) {
  obs::Json e = obs::Json::Object();
  e.Set("case", obs::Json::Str(kase));
  e.Set("readers", obs::Json::Int(static_cast<int64_t>(kReaderThreads)));
  e.Set("queries", obs::Json::Int(static_cast<int64_t>(r.queries)));
  e.Set("qps", obs::Json::Double(r.seconds > 0
                                     ? static_cast<double>(r.queries) / r.seconds
                                     : 0));
  e.Set("query_ms_p99", obs::Json::Double(r.query_latency.P99() * 1e3));
  e.Set("appended_changesets",
        obs::Json::Int(static_cast<int64_t>(r.appended_changesets)));
  e.Set("appended_rows", obs::Json::Int(static_cast<int64_t>(r.appended_rows)));
  e.Set("batches", obs::Json::Int(static_cast<int64_t>(r.batches)));
  e.Set("epochs", obs::Json::Int(static_cast<int64_t>(r.epochs)));
  if (with_windows) {
    e.Set("refresh_windows", obs::Json::Int(
                                 static_cast<int64_t>(r.refresh_window.count)));
    e.Set("refresh_window_ms_mean",
          obs::Json::Double(r.refresh_window.Mean() * 1e3));
    e.Set("refresh_window_ms_p99",
          obs::Json::Double(r.refresh_window.P99() * 1e3));
  }
  if (r.scrapes > 0) {
    e.Set("scrapes", obs::Json::Int(static_cast<int64_t>(r.scrapes)));
  }
  ServiceEntries().push_back(std::move(e));
}

int Run() {
  const fs::path root =
      fs::temp_directory_path() /
      ("sdelta_bench_service_" + std::to_string(::getpid()));
  fs::remove_all(root);

  std::printf("bench_service: %zu pos rows, %zu readers\n", kPosRows,
              kReaderThreads);

  const RunResult idle = RunIdle(root / "idle");
  std::printf(
      "  readers_idle:             %8.0f qps, p99 %.3f ms "
      "(%llu queries in %.3fs)\n",
      static_cast<double>(idle.queries) / idle.seconds,
      idle.query_latency.P99() * 1e3,
      static_cast<unsigned long long>(idle.queries), idle.seconds);
  AddEntry("readers_idle", idle, /*with_windows=*/false);

  const RunResult busy = RunWithMaintenance(root / "busy");
  std::printf(
      "  readers_with_maintenance: %8.0f qps, p99 %.3f ms "
      "(%llu queries in %.3fs)\n"
      "    %llu change sets / %llu rows in %llu batches, %llu epochs\n"
      "    refresh window: %llu installs, mean %.2f us, p99 %.2f us\n",
      static_cast<double>(busy.queries) / busy.seconds,
      busy.query_latency.P99() * 1e3,
      static_cast<unsigned long long>(busy.queries), busy.seconds,
      static_cast<unsigned long long>(busy.appended_changesets),
      static_cast<unsigned long long>(busy.appended_rows),
      static_cast<unsigned long long>(busy.batches),
      static_cast<unsigned long long>(busy.epochs),
      static_cast<unsigned long long>(busy.refresh_window.count),
      busy.refresh_window.Mean() * 1e6, busy.refresh_window.P99() * 1e6);
  AddEntry("readers_with_maintenance", busy, /*with_windows=*/true);

  const RunResult scraped =
      RunWithMaintenance(root / "scraped", /*with_scraper=*/true);
  std::printf(
      "  readers_with_scraping:    %8.0f qps, p99 %.3f ms "
      "(%llu queries, %llu scrapes in %.3fs)\n",
      static_cast<double>(scraped.queries) / scraped.seconds,
      scraped.query_latency.P99() * 1e3,
      static_cast<unsigned long long>(scraped.queries),
      static_cast<unsigned long long>(scraped.scrapes), scraped.seconds);
  AddEntry("readers_with_scraping", scraped, /*with_windows=*/true);

  // The historical layer's steady-state tax: same workload as
  // readers_with_maintenance with profiling + time-series + anomaly
  // checks on. All of that work happens on the maintenance thread after
  // the epoch install, so readers should not feel it — the gated
  // p99_overhead_ratio (reader p99 vs the plain maintenance run,
  // baseline 1.0) is the <5% proof the diagnostics stay off the read
  // path.
  const RunResult profiled = RunWithMaintenance(
      root / "profiled", /*with_scraper=*/false, /*with_profiler=*/true);
  const double overhead_ratio =
      busy.query_latency.P99() > 0
          ? profiled.query_latency.P99() / busy.query_latency.P99()
          : 0;
  std::printf(
      "  readers_profiler_on:      %8.0f qps, p99 %.3f ms "
      "(p99 overhead ratio %.3f)\n",
      static_cast<double>(profiled.queries) / profiled.seconds,
      profiled.query_latency.P99() * 1e3, overhead_ratio);
  AddEntry("readers_profiler_on", profiled, /*with_windows=*/true);
  ServiceEntries().back().Set("p99_overhead_ratio",
                              obs::Json::Double(overhead_ratio));

  fs::remove_all(root);
  obs::MergeBenchJson("BENCH_service.json", "service",
                      {"case", "readers"}, ServiceEntries());
  std::printf("wrote BENCH_service.json\n");
  return 0;
}

}  // namespace
}  // namespace sdelta::bench

int main() { return sdelta::bench::Run(); }
