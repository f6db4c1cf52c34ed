// Paper-scale service benchmark: opens a service::WarehouseService on the
// paper's 500k-row retail warehouse, drives one seeded workload through
// the public API (Open, Append, Flush, Snapshot, ReadSnapshot::Query) for
// a fixed time, checks the final state against recomputation, and prints
// its metrics. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer table derived
// from the benchmark's spans (--trace 1).
//
// Usage: sdelta_perfbench --workload <update_batches|insert_batches|
//            query_churn> --seed <n> --seconds <s> --trace <0|1>
// Run from a writable directory: data directories go under .bench_tmp/
// and traced runs write their spans under .bench_out/.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "inputs.h"
#include "report.h"
#include "workloads.h"

namespace pb = sdelta::perfbench;

namespace {

using pb::Metric;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "sdelta_perfbench: %s\nusage: sdelta_perfbench --workload "
               "<update_batches|insert_batches|query_churn> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

pb::RunOptions ParseArgs(int argc, char** argv) {
  pb::RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else {
        Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !pb::IsWorkload(o.workload)) {
    Usage("--workload must be update_batches, insert_batches or query_churn");
  }
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunOptions options = ParseArgs(argc, argv);
  options.work_dir =
      ".bench_tmp/run-" + std::to_string(static_cast<long>(::getpid()));

  pb::RunResult run;
  try {
    run = pb::RunWorkload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdelta_perfbench: run aborted: %s\n", e.what());
    std::filesystem::remove_all(options.work_dir);
    return 1;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("config %s\n", pb::DescribeConfig(options.workload).c_str());
  std::printf("input digest %s over the first %llu change sets; %s over "
              "all %llu (%llu appended, %llu rows)\n",
              pb::Hex(run.prefix_digest).c_str(),
              static_cast<unsigned long long>(std::min(
                  pb::Trajectory::kDigestPrefix, run.generated)),
              pb::Hex(run.digest).c_str(),
              static_cast<unsigned long long>(run.generated),
              static_cast<unsigned long long>(run.appended_changesets),
              static_cast<unsigned long long>(run.appended_rows));
  std::printf("batches %llu, wal bytes %llu\n",
              static_cast<unsigned long long>(run.batches),
              static_cast<unsigned long long>(run.wal_bytes));
  std::printf("final state vs recomputation: %s\n",
              run.gate.empty() ? "match" : run.gate.c_str());
  for (const std::string& e : run.errors) std::printf("failure: %s\n", e.c_str());
  std::printf("error_rate = %.6g (%llu failed of %llu attempted)\n",
              static_cast<double>(run.failed) /
                  static_cast<double>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));

  const std::vector<Metric> metrics = options.trace
                                          ? pb::PerLayerMetrics(run)
                                          : pb::EndToEndMetrics(run);
  bool all_finite = true;
  for (const Metric& m : metrics) {
    all_finite = all_finite && std::isfinite(m.value);
    std::printf("%-40s %14.6f %-9s n=%zu%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.n, m.note.empty() ? "" : "  ",
                m.note.c_str());
  }
  if (options.trace) {
    std::filesystem::create_directories(".bench_out");
    const std::string path = ".bench_out/spans-" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    if (pb::SpanRecorder::WriteChromeTrace(run.spans, path)) {
      std::printf("spans: %zu written to %s\n", run.spans.size(), path.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += run.failed == 0 && all_finite ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(run.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
