#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "stats.h"

namespace sdelta::perfbench {
namespace {

std::string At(const Summary& s) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "tail read at p%.1f", s.tail_rank);
  return buf;
}

std::vector<double> Ms(const std::vector<double>& seconds) {
  std::vector<double> out;
  out.reserve(seconds.size());
  for (double s : seconds) out.push_back(s * 1e3);
  return out;
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return std::nan("");
  double sum = 0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

/// Relative change of b's median over a's, in percent.
double OverheadPct(const std::vector<double>& a, const std::vector<double>& b) {
  return (Median(b) / Median(a) - 1.0) * 100.0;
}

}  // namespace

std::vector<Metric> EndToEndMetrics(const RunResult& run) {
  const Summary setup = Summarize(run.setup_s, 50);
  const Summary visible = Summarize(Ms(run.visible_s), 90);
  const Summary query = Summarize(Ms(run.query_s), 99);
  return {
      {"setup_s", setup.p50, "s", setup.n, "median of Opens"},
      {"visible_ms_p50", visible.p50, "ms", visible.n, ""},
      {"visible_ms_p90", visible.tail, "ms", visible.n, At(visible)},
      {"query_ms_p50", query.p50, "ms", query.n, ""},
      {"query_ms_p99", query.tail, "ms", query.n, At(query)},
      {"query_qps",
       static_cast<double>(run.queries) / run.query_window_s, "1/s",
       run.queries, "all readers"},
      {"peak_rss_mb", run.peak_rss_mb, "MB", 1,
       "closed loops: after " + std::to_string(kRssBatches) +
           " batches; query_churn: at the end"},
  };
}

std::vector<Metric> PerLayerMetrics(const RunResult& run) {
  // Group the spans by what they measured.
  std::vector<const Span*> appends, batches, changesets, snapshots;
  std::map<size_t, std::vector<const Span*>> answers;
  double writer_backlog_max = 0;
  for (const Span& s : run.spans) {
    const std::string name = s.name;
    if (name == "append") appends.push_back(&s);
    if (name == "batch") batches.push_back(&s);
    if (name == "changeset") changesets.push_back(&s);
    if (name == "snapshot") snapshots.push_back(&s);
    if (name == "answer") {
      answers[static_cast<size_t>(s.Get("shape"))].push_back(&s);
    }
    if (name == "writer") writer_backlog_max = s.Get("backlog_rows_max");
  }
  std::sort(batches.begin(), batches.end(), [](const Span* a, const Span* b) {
    return a->Get("batch_index") < b->Get("batch_index");
  });
  std::sort(changesets.begin(), changesets.end(),
            [](const Span* a, const Span* b) { return a->start_s < b->start_s; });

  auto durations_ms = [](const std::vector<const Span*>& spans) {
    std::vector<double> out;
    for (const Span* s : spans) out.push_back(s->duration_s() * 1e3);
    return out;
  };
  auto attr_ms = [](const std::vector<const Span*>& spans, const char* key) {
    std::vector<double> out;
    for (const Span* s : spans) out.push_back(s->Get(key) * 1e3);
    return out;
  };
  // Exact counts: per-batch mean over the first kExactBatches batches of
  // the trajectory (a prefix every run reaches), not over however many
  // batches the run happened to fit.
  const size_t exact_n = std::min(batches.size(), kExactBatches);
  auto exact = [&](const char* key) {
    std::vector<double> xs;
    for (size_t i = 0; i < exact_n; ++i) xs.push_back(batches[i]->Get(key));
    return Mean(xs);
  };

  std::vector<Metric> out;
  auto add = [&](std::string name, double value, const char* unit, size_t n,
                 std::string note = "") {
    out.push_back({std::move(name), value, unit, n, std::move(note)});
  };

  // service: WAL + ingest queue, epoch build + install, coalescing.
  add("service.append_ms_p50", Median(durations_ms(appends)), "ms",
      appends.size());
  {
    double bytes = 0, rows = 0;
    const size_t n = std::min(appends.size(), kExactBatches);
    for (size_t i = 0; i < n; ++i) {
      bytes += appends[i]->Get("wal_bytes");
      rows += appends[i]->Get("rows");
    }
    add("service.wal_bytes_per_row", bytes / rows, "bytes/row", n,
        "first change sets");
  }
  {
    std::vector<double> publish;
    for (const Span* b : batches) {
      publish.push_back((b->Get("window_s") - b->Get("propagate_s") -
                         b->Get("apply_base_s") - b->Get("refresh_s")) *
                        1e3);
    }
    add("service.publish_ms_p50", Median(publish), "ms", publish.size(),
        "batch window minus propagate, apply-base, refresh");
  }
  add("service.publish_view_rows", exact("publish_view_rows"), "rows", exact_n,
      "per batch");
  add("service.epoch_views_rebuilt", exact("views_rebuilt"), "count", exact_n,
      "per batch");
  add("service.epoch_views_shared", exact("views_shared"), "count", exact_n,
      "per batch");
  {
    const Summary snap = Summarize(durations_ms(snapshots), 99);
    add("service.snapshot_ms_p99", snap.tail, "ms", snap.n, At(snap));
  }
  {
    double backlog = writer_backlog_max;
    for (const Span* c : changesets) {
      backlog = std::max(backlog, c->Get("backlog_rows"));
    }
    add("service.backlog_rows_max", backlog, "rows", changesets.size());
  }
  add("service.changesets_per_batch",
      static_cast<double>(run.appended_changesets) /
          static_cast<double>(run.batches),
      "count", run.batches, "appended change sets / batches");
  {
    const Summary late = Summarize(attr_ms(changesets, "late_s"), 90);
    add("service.writer_late_ms_p90", late.tail, "ms", late.n, At(late));
  }

  // warehouse / lattice / core: the LastReport() split of each batch.
  add("warehouse.maintenance_ms_p50", Median(attr_ms(batches, "maintenance_s")),
      "ms", batches.size());
  add("lattice.propagate_ms_p50", Median(attr_ms(batches, "propagate_s")),
      "ms", batches.size());
  add("lattice.delta_rows", exact("delta_rows"), "rows", exact_n, "per batch");
  add("lattice.prepared_rows", exact("prepared_rows"), "rows", exact_n,
      "per batch");
  for (size_t shape = 0; shape < kNumShapes; ++shape) {
    const auto& spans = answers[shape];
    add(std::string("lattice.answer_ms_p50.") + kShapes[shape].name,
        Median(durations_ms(spans)), "ms", spans.size());
  }
  for (size_t shape = 0; shape < kNumShapes; ++shape) {
    // Closed loops: mean over the read-backs of the first batches
    // (exact); query_churn readers see whichever epoch is current, so
    // the median over all queries.
    std::vector<double> prefix, all;
    for (const Span* s : answers[shape]) {
      const double idx = s->Get("batch_index");
      all.push_back(s->Get("rows_read"));
      if (idx >= 0 && idx < static_cast<double>(kExactBatches)) {
        prefix.push_back(s->Get("rows_read"));
      }
    }
    const bool use_prefix = !prefix.empty();
    add(std::string("lattice.answer_rows_read.") + kShapes[shape].name,
        use_prefix ? Mean(prefix) : Median(all), "rows",
        use_prefix ? prefix.size() : all.size(),
        use_prefix ? "read-backs of the first batches" : "median");
  }
  add("core.apply_base_ms_p50", Median(attr_ms(batches, "apply_base_s")), "ms",
      batches.size());
  add("core.refresh_ms_p50", Median(attr_ms(batches, "refresh_s")), "ms",
      batches.size());
  add("core.recompute_scan_rows", exact("recompute_scan_rows"), "rows",
      exact_n, "per batch");
  add("core.recomputed_groups", exact("recomputed_groups"), "count", exact_n,
      "per batch");
  add("core.minmax_recomputes", exact("minmax_recomputes"), "count", exact_n,
      "per batch");
  {
    const double groups = exact("recomputed_groups");
    add("core.scan_rows_per_recomputed_group",
        groups > 0 ? exact("recompute_scan_rows") / groups : 0.0, "rows",
        exact_n, "0 when nothing was recomputed");
  }
  add("core.refresh_inserted", exact("refresh_inserted"), "count", exact_n,
      "per batch");
  add("core.refresh_updated", exact("refresh_updated"), "count", exact_n,
      "per batch");
  add("core.refresh_deleted", exact("refresh_deleted"), "count", exact_n,
      "per batch");

  // The benchmark itself.
  {
    const double visible = OverheadPct(run.visible_s, run.traced_visible_s);
    const double query = OverheadPct(run.query_s, run.traced_query_s);
    char note[160];
    std::snprintf(note, sizeof note,
                  "traced vs untraced halves: mean of visible p50 (%+.2f%%) "
                  "and query p50 (%+.2f%%)",
                  visible, query);
    add("trace_overhead_pct", (visible + query) / 2, "%",
        run.traced_visible_s.size() + run.traced_query_s.size(), note);
  }
  {
    const std::vector<double> v = durations_ms(changesets);
    const size_t q = v.size() / 4;
    double drift = std::nan("");
    if (q > 0) {
      drift = (Median({v.end() - q, v.end()}) /
                   Median({v.begin(), v.begin() + q}) -
               1.0) *
              100.0;
    }
    add("visible_drift_pct", drift, "%", v.size(),
        "last vs first quarter of change sets, median visible time");
  }
  return out;
}

}  // namespace sdelta::perfbench
