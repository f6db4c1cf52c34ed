// Ablation (paper §4.2): MIN/MAX recomputation strategy in refresh.
//
// MIN/MAX are not self-maintainable under deletions; when a deletion
// ties or beats a group's extremum, the group must be recomputed from
// base data. This bench compares:
//   * Batched   — collect all affected groups, recompute them in ONE
//                 pass over the base data (our default);
//   * PerGroup  — one pass over the base data per affected group (the
//                 naive reading of Figure 7).
// Each pass feeds only the fact rows matching its groups' fact-side
// key columns to the join and GroupBy (base_rows_scanned counts them).
// The gap grows with the number of affected groups per batch.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/maintenance.h"
#include "obs/metrics.h"

namespace sdelta::bench {
namespace {

constexpr size_t kPosRows = 100000;

/// Shared metrics sink for every cached warehouse in this binary; the
/// bench reads per-iteration counter deltas off it. Leaked so it
/// outlives the cache.
obs::MetricsRegistry& Registry() {
  static auto* registry = new obs::MetricsRegistry();
  return *registry;
}

void RunMinMaxBench(benchmark::State& state, bool batched,
                    bool trust_untainted = true) {
  warehouse::Warehouse::Options options;
  options.refresh.batch_minmax_recompute = batched;
  options.refresh.trust_untainted_minmax = trust_untainted;
  options.metrics = &Registry();
  warehouse::Warehouse& wh = WarehouseCache::Instance().Get(
      kPosRows, options,
      std::string(batched ? "batched" : "pergroup") +
          (trust_untainted ? "" : "-paper"));
  uint64_t seed = 300;
  double scan_rows = 0;
  double recomputed = 0;
  size_t runs = 0;
  const uint64_t minmax0 = Registry().counter("refresh.minmax_recomputes");
  for (auto _ : state) {
    // Update-generating changes: deletions regularly hit group minima of
    // SiC_sales(MIN(date)).
    const core::ChangeSet changes = MakeChanges(
        wh.catalog(), ChangeClass::kUpdate,
        static_cast<size_t>(state.range(0)), ++seed);
    warehouse::BatchReport report = wh.RunBatch(changes);
    state.SetIterationTime(report.refresh_seconds);
    const core::RefreshStats total = report.TotalRefresh();
    scan_rows += static_cast<double>(total.recompute_scan_rows);
    recomputed += static_cast<double>(total.recomputed_groups);
    ++runs;
  }
  state.counters["recomputed_groups"] = recomputed / runs;
  state.counters["base_rows_scanned"] = scan_rows / runs;
  state.counters["minmax_recomputes"] =
      static_cast<double>(Registry().counter("refresh.minmax_recomputes") -
                          minmax0) /
      static_cast<double>(runs);
}

void BM_MinMaxBatchedRecompute(benchmark::State& state) {
  RunMinMaxBench(state, true);
}
void BM_MinMaxPerGroupRecompute(benchmark::State& state) {
  RunMinMaxBench(state, false);
}
// Figure 7 verbatim: every extremum tie/beat recomputes, even for
// insert-only groups (trust_untainted_minmax = false).
void BM_MinMaxPaperConservative(benchmark::State& state) {
  RunMinMaxBench(state, true, /*trust_untainted=*/false);
}

// Backfill workload: insert-only historical rows beating every touched
// group's MIN(date). The taint optimization eliminates the base scan
// entirely; Figure 7 verbatim rescans for every touched group.
void RunBackfill(benchmark::State& state, bool trust_untainted) {
  warehouse::Warehouse::Options options;
  options.refresh.trust_untainted_minmax = trust_untainted;
  options.metrics = &Registry();
  warehouse::Warehouse& wh = WarehouseCache::Instance().Get(
      kPosRows, options,
      trust_untainted ? "backfill-trust" : "backfill-paper");
  uint64_t seed = 900;
  double scan_rows = 0;
  size_t runs = 0;
  for (auto _ : state) {
    warehouse::BatchReport report = wh.RunBatch(
        warehouse::MakeBackfillChanges(
            wh.catalog(), static_cast<size_t>(state.range(0)), ++seed));
    state.SetIterationTime(report.refresh_seconds);
    scan_rows +=
        static_cast<double>(report.TotalRefresh().recompute_scan_rows);
    ++runs;
  }
  state.counters["base_rows_scanned"] = scan_rows / runs;
}

void BM_BackfillTrustUntainted(benchmark::State& state) {
  RunBackfill(state, true);
}
void BM_BackfillPaperConservative(benchmark::State& state) {
  RunBackfill(state, false);
}

BENCHMARK(BM_MinMaxBatchedRecompute)
    ->RangeMultiplier(4)
    ->Range(1000, 16000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK(BM_MinMaxPerGroupRecompute)
    ->RangeMultiplier(4)
    ->Range(1000, 16000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK(BM_MinMaxPaperConservative)
    ->RangeMultiplier(4)
    ->Range(1000, 16000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK(BM_BackfillTrustUntainted)
    ->RangeMultiplier(4)
    ->Range(1000, 16000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK(BM_BackfillPaperConservative)
    ->RangeMultiplier(4)
    ->Range(1000, 16000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace sdelta::bench

BENCHMARK_MAIN();
