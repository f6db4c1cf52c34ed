// End-to-end observability: a traced RunBatch over the retail schema
// must produce (a) a span tree that mirrors the D-lattice propagation
// plan — one span per summary table, parented on the edge's source
// view — and (b) a registry whose counters reproduce the BatchReport.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "obs/export_chrome.h"
#include "obs/export_json.h"
#include "obs/profiler.h"
#include "warehouse/retail_schema.h"
#include "warehouse/warehouse.h"
#include "warehouse/workload.h"

namespace sdelta::warehouse {
namespace {

RetailConfig SmallConfig() {
  RetailConfig config;
  config.num_stores = 15;
  config.num_cities = 6;
  config.num_regions = 3;
  config.num_items = 80;
  config.num_categories = 8;
  config.num_dates = 30;
  config.num_pos_rows = 2500;
  config.seed = 55;
  return config;
}

const obs::SpanRecord* FindSpan(const obs::Tracer& t,
                                const std::string& name) {
  for (const obs::SpanRecord& s : t.spans()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string AttrOf(const obs::SpanRecord& s, const std::string& key) {
  for (const auto& [k, v] : s.attributes) {
    if (k == key) return v;
  }
  return "";
}

/// Runs one traced update batch at `threads` and returns the profiler's
/// fold of it with wall times zeroed, after checking that every
/// refresh.view span splits into exactly refresh.apply (the cursor/merge
/// loop) and refresh.recompute_scan (whose rows = the fact rows the
/// batch's MIN/MAX recompute fed the join).
std::string RefreshProfile(size_t threads) {
  obs::Tracer tracer;
  Warehouse::Options options;
  options.tracer = &tracer;
  options.num_threads = threads;
  Warehouse wh(MakeRetailCatalog(SmallConfig()), options);
  wh.DefineSummaryTables(RetailSummaryTables());
  tracer.Clear();
  const BatchReport report =
      wh.RunBatch(MakeUpdateGeneratingChanges(wh.catalog(), 300, 61));

  std::map<uint64_t, std::vector<std::string>> children;
  for (const obs::SpanRecord& s : tracer.spans()) {
    children[s.parent_id].push_back(s.name);
  }
  size_t views = 0;
  uint64_t scan_rows = 0;
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name == "refresh.recompute_scan") {
      scan_rows += std::stoull(AttrOf(s, "rows"));
    }
    if (s.name != "refresh.view") continue;
    ++views;
    std::vector<std::string> names = children[s.id];
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"refresh.apply",
                                               "refresh.recompute_scan"}))
        << AttrOf(s, "view");
  }
  EXPECT_EQ(views, wh.NumSummaryTables());
  EXPECT_EQ(scan_rows, report.TotalRefresh().recompute_scan_rows);
  // An update batch moves MIN/MAX extrema, so some group is recomputed.
  EXPECT_GT(scan_rows, 0u);

  obs::Profiler profiler;
  profiler.RecordBatch(tracer.spans(), nullptr);
  obs::Json doc = profiler.ToJson();
  obs::NormalizeProfileTimes(doc);
  return doc.Dump(2);
}

class ObsWarehouseTest : public ::testing::Test {
 protected:
  ObsWarehouseTest() : wh_(MakeRetailCatalog(SmallConfig()), MakeOptions()) {
    wh_.DefineSummaryTables(RetailSummaryTables());
    tracer_.Clear();  // drop the Rebuild trace; tests watch the batch
    metrics_.Clear();
  }

  Warehouse::Options MakeOptions() {
    Warehouse::Options o;
    o.tracer = &tracer_;
    o.metrics = &metrics_;
    return o;
  }

  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  Warehouse wh_;
};

TEST_F(ObsWarehouseTest, RunBatchSpanTreeMirrorsThePlan) {
  wh_.RunBatch(MakeUpdateGeneratingChanges(wh_.catalog(), 300, 61));

  const obs::SpanRecord* batch = FindSpan(tracer_, "warehouse.RunBatch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->parent_id, 0u);
  const obs::SpanRecord* phase = FindSpan(tracer_, "propagate");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->parent_id, batch->id);

  // One propagate span per summary table, named after the view and
  // parented on its plan source: the phase span for base-computed
  // deltas, the source view's span for edge-derived ones.
  size_t via_edge = 0;
  for (const lattice::PlanStep& step : wh_.plan().steps) {
    const std::string& view = wh_.vlattice().views[step.view].name();
    SCOPED_TRACE(view);
    const obs::SpanRecord* span = FindSpan(tracer_, view);
    ASSERT_NE(span, nullptr);
    const std::string source = AttrOf(*span, "source");
    if (source == "base") {
      EXPECT_EQ(span->parent_id, phase->id);
    } else {
      const obs::SpanRecord* parent = FindSpan(tracer_, source);
      ASSERT_NE(parent, nullptr);
      EXPECT_EQ(span->parent_id, parent->id);
      ++via_edge;
    }
    EXPECT_NE(AttrOf(*span, "delta_rows"), "");
  }
  // The retail plan (Figure 8) derives at least one view through the
  // lattice rather than from base changes.
  EXPECT_GT(via_edge, 0u);

  // Refresh: one refresh.view span per summary table, under the refresh
  // phase span.
  const obs::SpanRecord* refresh = FindSpan(tracer_, "refresh");
  ASSERT_NE(refresh, nullptr);
  EXPECT_EQ(refresh->parent_id, batch->id);
  size_t refreshed = 0;
  for (const obs::SpanRecord& s : tracer_.spans()) {
    if (s.name != "refresh.view") continue;
    EXPECT_EQ(s.parent_id, refresh->id);
    ++refreshed;
  }
  EXPECT_EQ(refreshed, wh_.NumSummaryTables());

  // Every span is closed with sane timestamps.
  for (const obs::SpanRecord& s : tracer_.spans()) {
    EXPECT_NE(s.end_ns, 0u) << s.name;
    EXPECT_GE(s.end_ns, s.start_ns) << s.name;
  }
}

TEST_F(ObsWarehouseTest, RefreshViewSplitsIntoApplyAndRecomputeScan) {
  // /profile and flame_dump attribute refresh time to the cursor/merge
  // loop and the recompute scan, with the same tree at any thread count.
  const std::string serial = RefreshProfile(1);
  EXPECT_NE(serial.find("refresh.recompute_scan"), std::string::npos);
  EXPECT_EQ(serial, RefreshProfile(4));
}

TEST_F(ObsWarehouseTest, ChromeTraceIsValidJsonWithOneEventPerSpan) {
  wh_.RunBatch(MakeUpdateGeneratingChanges(wh_.catalog(), 300, 61));

  obs::Json doc = obs::Json::Parse(obs::ExportChromeTrace(tracer_));
  const std::vector<obs::Json>& events =
      doc.Find("traceEvents")->items();
  ASSERT_EQ(events.size(), tracer_.spans().size());
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::Json& e = events[i];
    EXPECT_EQ(e.Find("ph")->as_string(), "X");
    EXPECT_GE(e.Find("ts")->as_int(), 0);
    EXPECT_GE(e.Find("dur")->as_int(), 0);
    EXPECT_EQ(e.Find("args")->Find("span_id")->as_int(),
              static_cast<int64_t>(tracer_.spans()[i].id));
  }
  // The lattice parentage is recoverable from args.parent.
  for (const lattice::PlanStep& step : wh_.plan().steps) {
    if (!step.edge.has_value()) continue;
    const std::string& view = wh_.vlattice().views[step.view].name();
    for (const obs::Json& e : events) {
      if (e.Find("name")->as_string() != view) continue;
      const obs::Json* args = e.Find("args");
      if (args->Find("source") != nullptr &&
          args->Find("source")->as_string() != "base") {
        EXPECT_EQ(args->Find("parent")->as_string(),
                  args->Find("source")->as_string());
      }
    }
  }
}

TEST_F(ObsWarehouseTest, BatchReportIsDerivedFromTheRegistry) {
  BatchReport report =
      wh_.RunBatch(MakeUpdateGeneratingChanges(wh_.catalog(), 300, 61));

  EXPECT_EQ(report.propagate.delta_groups,
            metrics_.counter("propagate.delta_rows"));
  EXPECT_GT(report.propagate.delta_groups, 0u);
  EXPECT_EQ(report.propagate_seconds,
            metrics_.gauge("batch.propagate_seconds"));
  EXPECT_EQ(report.refresh_seconds, metrics_.gauge("batch.refresh_seconds"));

  const core::RefreshStats total = report.TotalRefresh();
  EXPECT_EQ(total.updated, metrics_.counter("refresh.updates"));
  EXPECT_EQ(total.inserted, metrics_.counter("refresh.inserts"));
  EXPECT_EQ(total.deleted, metrics_.counter("refresh.deletes"));
  EXPECT_EQ(total.minmax_recomputes,
            metrics_.counter("refresh.minmax_recomputes"));
  EXPECT_GT(total.updated + total.inserted + total.deleted, 0u);

  EXPECT_EQ(metrics_.histogram("batch.maintenance_seconds").count, 1u);

  // A second batch accumulates counters; the report covers its batch.
  BatchReport second =
      wh_.RunBatch(MakeUpdateGeneratingChanges(wh_.catalog(), 200, 62));
  EXPECT_EQ(metrics_.counter("propagate.delta_rows"),
            report.propagate.delta_groups + second.propagate.delta_groups);
  EXPECT_EQ(metrics_.histogram("batch.maintenance_seconds").count, 2u);
}

TEST_F(ObsWarehouseTest, NullSinksStillProduceAFullReport) {
  Warehouse plain(MakeRetailCatalog(SmallConfig()));
  plain.DefineSummaryTables(RetailSummaryTables());
  BatchReport report =
      plain.RunBatch(MakeUpdateGeneratingChanges(plain.catalog(), 300, 61));
  EXPECT_GT(report.propagate.delta_groups, 0u);
  EXPECT_GT(report.views.size(), 0u);
  EXPECT_GE(report.maintenance_seconds(), 0.0);
}

TEST_F(ObsWarehouseTest, QueriesCountHitsAndFallbacks) {
  const std::string sql =
      "SELECT region, SUM(qty) AS q FROM pos, stores "
      "WHERE pos.storeID = stores.storeID GROUP BY region";
  wh_.Query(sql);
  EXPECT_EQ(metrics_.counter("answer.view_hits"), 1u);
  EXPECT_EQ(metrics_.counter("answer.base_fallbacks"), 0u);
  const obs::SpanRecord* span = FindSpan(tracer_, "answer.query");
  ASSERT_NE(span, nullptr);
  EXPECT_NE(AttrOf(*span, "source"), "");
  EXPECT_NE(AttrOf(*span, "source"), "base");
  EXPECT_GT(metrics_.counter("answer.rows_read"), 0u);
}

TEST_F(ObsWarehouseTest, PropagateOnlyAndRematerializeAreInstrumented) {
  const core::ChangeSet changes =
      MakeUpdateGeneratingChanges(wh_.catalog(), 200, 63);
  wh_.PropagateOnly(changes);
  EXPECT_NE(FindSpan(tracer_, "warehouse.PropagateOnly"), nullptr);
  EXPECT_EQ(metrics_.histogram("propagate.seconds").count, 1u);

  wh_.RematerializeAll(changes);
  EXPECT_NE(FindSpan(tracer_, "warehouse.RematerializeAll"), nullptr);
  EXPECT_EQ(metrics_.counter("rematerialize.runs"), 1u);
  EXPECT_EQ(metrics_.histogram("rematerialize.seconds").count, 1u);
}

}  // namespace
}  // namespace sdelta::warehouse
