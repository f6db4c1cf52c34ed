#ifndef SDELTA_BENCH_BENCH_FIG9_H_
#define SDELTA_BENCH_BENCH_FIG9_H_

#include <benchmark/benchmark.h>

#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/maintenance.h"
#include "lattice/plan.h"
#include "obs/export_json.h"

namespace sdelta::bench {

/// Accumulates one BENCH_fig9.json entry per (panel, series, pos-size,
/// change-size) cell as the benchmarks run; WriteFig9Json merges them
/// into the perf-trajectory file (entries from other panels/binaries are
/// preserved, same-cell entries are replaced).
inline std::vector<obs::Json>& Fig9Entries() {
  static auto* entries = new std::vector<obs::Json>();
  return *entries;
}

/// Returns the new entry so a series can attach its own counters.
inline obs::Json& AddFig9Entry(const std::string& panel,
                               const std::string& series, size_t pos_rows,
                               size_t change_rows, double mean_seconds,
                               size_t delta_rows, size_t threads = 1) {
  obs::Json e = obs::Json::Object();
  e.Set("panel", obs::Json::Str(panel));
  e.Set("series", obs::Json::Str(series));
  e.Set("pos_rows", obs::Json::Int(static_cast<int64_t>(pos_rows)));
  e.Set("change_rows", obs::Json::Int(static_cast<int64_t>(change_rows)));
  e.Set("threads", obs::Json::Int(static_cast<int64_t>(threads)));
  e.Set("host_cpus", obs::Json::Int(static_cast<int64_t>(
                         std::thread::hardware_concurrency())));
  e.Set("ms", obs::Json::Double(mean_seconds * 1e3));
  e.Set("delta_rows", obs::Json::Int(static_cast<int64_t>(delta_rows)));
  Fig9Entries().push_back(std::move(e));
  return Fig9Entries().back();
}

inline void WriteFig9Json(const std::string& path = "BENCH_fig9.json") {
  obs::MergeBenchJson(path, "fig9",
                      {"panel", "series", "pos_rows", "change_rows", "threads"},
                      Fig9Entries());
}

/// Registers the four series of one panel of the paper's Figure 9:
///   * Propagate            — summary-delta computation using the
///                            D-lattice (the lower solid line);
///   * PropagateNoLattice   — every summary-delta from the base changes
///                            (the dotted line);
///   * SummaryDeltaMaint    — propagate + refresh (the upper solid
///                            line; the paper's "maintenance time");
///   * Rematerialize        — recompute all four summary tables from
///                            scratch, exploiting the lattice.
///
/// `sweep_changes` selects the x-axis: change-set size 1k..10k at fixed
/// |pos| (panels a/c) or |pos| 100k..500k at fixed 10k changes (panels
/// b/d). `cls` selects update-generating (a/b) vs insertion-generating
/// (c/d) changes. `panel` tags this binary's rows in BENCH_fig9.json.
///
/// The engine-bearing series (Propagate, SummaryDeltaMaint) are
/// registered once per entry of `thread_counts` (benchmark names get a
/// "/tN" suffix beyond 1; JSON rows carry a `threads` field). The
/// baselines (PropagateNoLattice, Rematerialize) stay serial — they
/// exist to reproduce the paper's serial comparison lines.
inline void RegisterFig9(const std::string& panel, bool sweep_changes,
                         ChangeClass cls,
                         const std::vector<size_t>& thread_counts = {1, 4}) {
  constexpr size_t kFixedPos = 500000;
  constexpr size_t kFixedChanges = 10000;

  auto pos_of = [=](int64_t arg) {
    return sweep_changes ? kFixedPos : static_cast<size_t>(arg);
  };
  auto changes_of = [=](int64_t arg) {
    return sweep_changes ? static_cast<size_t>(arg) : kFixedChanges;
  };
  auto configure = [=](benchmark::internal::Benchmark* b) {
    if (sweep_changes) {
      for (int64_t n = 1000; n <= 10000; n += 1000) b->Arg(n);
    } else {
      for (int64_t n = 100000; n <= 500000; n += 100000) b->Arg(n);
    }
    b->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(2);
  };

  // The serial baselines share the "ro" cache entry with the t=1
  // Propagate series, so both must request the same options.
  warehouse::Warehouse::Options serial_options;
  serial_options.num_threads = 1;

  for (size_t threads : thread_counts) {
    warehouse::Warehouse::Options wh_options;
    wh_options.num_threads = threads;
    const std::string suffix = threads == 1 ? "" : "/t" + std::to_string(threads);
    const std::string ro_tag = "ro" + suffix;

    configure(benchmark::RegisterBenchmark(
        ("Propagate" + suffix).c_str(), [=](benchmark::State& state) {
          warehouse::Warehouse& wh = WarehouseCache::Instance().Get(
              pos_of(state.range(0)), wh_options, ro_tag);
          const core::ChangeSet changes = MakeChanges(
              wh.catalog(), cls, changes_of(state.range(0)), 1);
          core::PropagateStats stats;
          double total = 0;
          size_t runs = 0;
          for (auto _ : state) {
            const double s = wh.PropagateOnly(changes, &stats);
            state.SetIterationTime(s);
            total += s;
            ++runs;
          }
          state.counters["delta_rows"] =
              static_cast<double>(stats.delta_groups);
          AddFig9Entry(panel, "Propagate", pos_of(state.range(0)),
                       changes_of(state.range(0)), total / runs,
                       stats.delta_groups, threads);
        }));

    configure(benchmark::RegisterBenchmark(
        ("SummaryDeltaMaint" + suffix).c_str(), [=](benchmark::State& state) {
          // Each cell mutates a warehouse of its own, freed when the cell
          // ends, so its gated counters depend only on (|pos|, |changes|,
          // seed): not on which cells ran before, nor on the thread count.
          const std::unique_ptr<warehouse::Warehouse> owned =
              MakePaperWarehouse(pos_of(state.range(0)), wh_options);
          warehouse::Warehouse& wh = *owned;
          uint64_t seed = 1000;
          double total = 0;
          double refresh_total = 0;
          size_t runs = 0;
          size_t delta_rows = 0;
          size_t recompute_scan_rows = 0;
          for (auto _ : state) {
            const core::ChangeSet changes = MakeChanges(
                wh.catalog(), cls, changes_of(state.range(0)), ++seed);
            warehouse::BatchReport report = wh.RunBatch(changes);
            state.SetIterationTime(report.maintenance_seconds());
            total += report.maintenance_seconds();
            refresh_total += report.refresh_seconds;
            delta_rows = report.propagate.delta_groups;
            recompute_scan_rows =
                report.TotalRefresh().recompute_scan_rows;
            ++runs;
          }
          state.counters["refresh_ms"] = 1e3 * refresh_total /
                                         static_cast<double>(runs);
          // Like delta_rows, the last batch's count: a deterministic
          // work counter the bench gate compares exactly.
          AddFig9Entry(panel, "SummaryDeltaMaint", pos_of(state.range(0)),
                       changes_of(state.range(0)), total / runs, delta_rows,
                       threads)
              .Set("recompute_scan_rows",
                   obs::Json::Int(static_cast<int64_t>(recompute_scan_rows)));
        }));
  }

  configure(benchmark::RegisterBenchmark(
      "PropagateNoLattice", [=](benchmark::State& state) {
        warehouse::Warehouse& wh = WarehouseCache::Instance().Get(
            pos_of(state.range(0)), serial_options, "ro");
        const lattice::MaintenancePlan no_lattice = lattice::ChoosePlan(
            wh.catalog(), wh.vlattice(), lattice::PlanOptions{false});
        const core::ChangeSet changes = MakeChanges(
            wh.catalog(), cls, changes_of(state.range(0)), 1);
        double total = 0;
        size_t runs = 0;
        size_t delta_rows = 0;
        for (auto _ : state) {
          core::Stopwatch sw;
          lattice::LatticePropagateResult result = lattice::PropagateAll(
              wh.catalog(), wh.vlattice(), no_lattice, changes);
          const double s = sw.ElapsedSeconds();
          state.SetIterationTime(s);
          total += s;
          ++runs;
          delta_rows = result.totals.delta_groups;
          benchmark::DoNotOptimize(result.deltas.data());
        }
        AddFig9Entry(panel, "PropagateNoLattice", pos_of(state.range(0)),
                     changes_of(state.range(0)), total / runs, delta_rows);
      }));

  configure(benchmark::RegisterBenchmark(
      "Rematerialize", [=](benchmark::State& state) {
        warehouse::Warehouse& wh = WarehouseCache::Instance().Get(
            pos_of(state.range(0)), serial_options, "mut");
        uint64_t seed = 5000;
        double total = 0;
        size_t runs = 0;
        for (auto _ : state) {
          const core::ChangeSet changes = MakeChanges(
              wh.catalog(), cls, changes_of(state.range(0)), ++seed);
          const double s = wh.RematerializeAll(changes);
          state.SetIterationTime(s);
          total += s;
          ++runs;
        }
        AddFig9Entry(panel, "Rematerialize", pos_of(state.range(0)),
                     changes_of(state.range(0)), total / runs, 0);
      }));
}

}  // namespace sdelta::bench

#endif  // SDELTA_BENCH_BENCH_FIG9_H_
