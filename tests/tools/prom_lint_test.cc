#include "prom_lint_lib.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/export_prometheus.h"
#include "obs/metrics.h"

namespace sdelta::tools {
namespace {

std::string JoinProblems(const std::vector<std::string>& problems) {
  std::string out;
  for (const std::string& p : problems) out += p + "\n";
  return out;
}

TEST(PromLintTest, EmptyDocumentIsClean) {
  EXPECT_TRUE(LintPrometheusText("").empty());
}

TEST(PromLintTest, WellFormedFamiliesLintClean) {
  const char* doc =
      "# HELP sdelta_x_total Things.\n"
      "# TYPE sdelta_x_total counter\n"
      "sdelta_x_total 3\n"
      "# HELP sdelta_g A gauge.\n"
      "# TYPE sdelta_g gauge\n"
      "sdelta_g -0.5\n"
      "# HELP sdelta_h A histogram.\n"
      "# TYPE sdelta_h histogram\n"
      "sdelta_h_bucket{le=\"2\"} 1\n"
      "sdelta_h_bucket{le=\"4\"} 2\n"
      "sdelta_h_bucket{le=\"+Inf\"} 2\n"
      "sdelta_h_sum 6\n"
      "sdelta_h_count 2\n"
      "# HELP sdelta_s A summary.\n"
      "# TYPE sdelta_s summary\n"
      "sdelta_s{quantile=\"0.5\"} 2\n"
      "sdelta_s_sum 6\n"
      "sdelta_s_count 2\n";
  const auto problems = LintPrometheusText(doc);
  EXPECT_TRUE(problems.empty()) << JoinProblems(problems);
}

TEST(PromLintTest, RealExporterOutputLintsClean) {
  obs::MetricsRegistry m;
  m.Add("service.appends", 7);
  m.Set("service.epoch", 3);
  m.Observe("service.refresh_window", 0.001);
  m.Observe("service.refresh_window", 0.5);
  m.Observe("weird name-2", 1.0);
  const auto problems = LintPrometheusText(obs::ExportPrometheus(m));
  EXPECT_TRUE(problems.empty()) << JoinProblems(problems);
}

TEST(PromLintTest, SampleBeforeAnyTypeIsFlagged) {
  const auto problems = LintPrometheusText("sdelta_orphan 1\n");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("precedes any TYPE"), std::string::npos);
}

TEST(PromLintTest, CounterWithoutTotalSuffixIsFlagged) {
  const char* doc =
      "# TYPE sdelta_x counter\n"
      "sdelta_x 3\n";
  const auto problems = LintPrometheusText(doc);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("_total"), std::string::npos);
}

TEST(PromLintTest, NegativeCounterIsFlagged) {
  const char* doc =
      "# TYPE sdelta_x_total counter\n"
      "sdelta_x_total -1\n";
  EXPECT_EQ(LintPrometheusText(doc).size(), 1u);
}

TEST(PromLintTest, DuplicateSeriesIsFlagged) {
  const char* doc =
      "# TYPE sdelta_g gauge\n"
      "sdelta_g 1\n"
      "sdelta_g 2\n";
  const auto problems = LintPrometheusText(doc);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("duplicate series"), std::string::npos);
}

TEST(PromLintTest, LabelsDistinguishSeries) {
  const char* doc =
      "# TYPE sdelta_g gauge\n"
      "sdelta_g{shard=\"a\"} 1\n"
      "sdelta_g{shard=\"b\"} 2\n";
  // Same labels in a different order ARE the same series.
  const char* dup =
      "# TYPE sdelta_g gauge\n"
      "sdelta_g{a=\"1\",b=\"2\"} 1\n"
      "sdelta_g{b=\"2\",a=\"1\"} 2\n";
  EXPECT_TRUE(LintPrometheusText(doc).empty());
  EXPECT_EQ(LintPrometheusText(dup).size(), 1u);
}

TEST(PromLintTest, HistogramBucketWithoutLeIsFlagged) {
  const char* doc =
      "# TYPE sdelta_h histogram\n"
      "sdelta_h_bucket 1\n"
      "sdelta_h_bucket{le=\"+Inf\"} 1\n"
      "sdelta_h_sum 1\n"
      "sdelta_h_count 1\n";
  const auto problems = LintPrometheusText(doc);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("le label"), std::string::npos);
}

TEST(PromLintTest, NonCumulativeBucketsAreFlagged) {
  const char* doc =
      "# TYPE sdelta_h histogram\n"
      "sdelta_h_bucket{le=\"1\"} 5\n"
      "sdelta_h_bucket{le=\"2\"} 3\n"
      "sdelta_h_bucket{le=\"+Inf\"} 5\n"
      "sdelta_h_sum 1\n"
      "sdelta_h_count 5\n";
  const auto problems = LintPrometheusText(doc);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("not cumulative"), std::string::npos);
}

TEST(PromLintTest, MissingInfBucketIsFlagged) {
  const char* doc =
      "# TYPE sdelta_h histogram\n"
      "sdelta_h_bucket{le=\"1\"} 5\n"
      "sdelta_h_sum 1\n"
      "sdelta_h_count 5\n";
  const auto problems = LintPrometheusText(doc);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("+Inf"), std::string::npos);
}

TEST(PromLintTest, InfBucketMustEqualCount) {
  const char* doc =
      "# TYPE sdelta_h histogram\n"
      "sdelta_h_bucket{le=\"+Inf\"} 4\n"
      "sdelta_h_sum 1\n"
      "sdelta_h_count 5\n";
  const auto problems = LintPrometheusText(doc);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("does not equal _count"), std::string::npos);
}

TEST(PromLintTest, MissingSumOrCountIsFlagged) {
  const char* doc =
      "# TYPE sdelta_h histogram\n"
      "sdelta_h_bucket{le=\"+Inf\"} 0\n";
  const auto problems = LintPrometheusText(doc);
  EXPECT_EQ(problems.size(), 2u) << JoinProblems(problems);
}

TEST(PromLintTest, BareSampleOnHistogramFamilyIsFlagged) {
  const char* doc =
      "# TYPE sdelta_h histogram\n"
      "sdelta_h 2\n"
      "sdelta_h_bucket{le=\"+Inf\"} 1\n"
      "sdelta_h_sum 2\n"
      "sdelta_h_count 1\n";
  const auto problems = LintPrometheusText(doc);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("_bucket/_sum/_count"), std::string::npos);
}

TEST(PromLintTest, QuantileSampleInsideHistogramFamilyIsFlagged) {
  // The legacy rider format: strict parsers reject it, and so do we.
  const char* doc =
      "# TYPE sdelta_h histogram\n"
      "sdelta_h{quantile=\"0.5\"} 2\n"
      "sdelta_h_bucket{le=\"+Inf\"} 1\n"
      "sdelta_h_sum 2\n"
      "sdelta_h_count 1\n";
  const auto problems = LintPrometheusText(doc);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("_bucket/_sum/_count"), std::string::npos);
}

TEST(PromLintTest, BareSummarySampleNeedsQuantile) {
  const char* doc =
      "# TYPE sdelta_s summary\n"
      "sdelta_s 2\n"
      "sdelta_s_sum 2\n"
      "sdelta_s_count 1\n";
  const auto problems = LintPrometheusText(doc);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("quantile"), std::string::npos);
}

TEST(PromLintTest, ForeignSampleInsideFamilyIsFlagged) {
  const char* doc =
      "# TYPE sdelta_g gauge\n"
      "sdelta_other 1\n";
  EXPECT_EQ(LintPrometheusText(doc).size(), 1u);
}

TEST(PromLintTest, FamilyDeclaredTwiceIsFlagged) {
  const char* doc =
      "# TYPE sdelta_g gauge\n"
      "sdelta_g 1\n"
      "# TYPE sdelta_g gauge\n"
      "sdelta_g{x=\"1\"} 1\n";
  const auto problems = LintPrometheusText(doc);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("declared twice"), std::string::npos);
}

TEST(PromLintTest, FamilyWithNoSamplesIsFlagged) {
  const char* doc =
      "# TYPE sdelta_a gauge\n"
      "# TYPE sdelta_b gauge\n"
      "sdelta_b 1\n";
  const auto problems = LintPrometheusText(doc);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("has no samples"), std::string::npos);
}

TEST(PromLintTest, MalformedLinesAreFlaggedWithLineNumbers) {
  const char* doc =
      "# TYPE sdelta_g gauge\n"
      "sdelta_g notanumber\n";
  const auto problems = LintPrometheusText(doc);
  // The bad sample is rejected, which also leaves its family empty —
  // both findings carry line numbers.
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("line 2"), std::string::npos);
  EXPECT_NE(problems[0].find("notanumber"), std::string::npos);
}

TEST(PromLintTest, UnterminatedLabelValueIsFlagged) {
  const char* doc =
      "# TYPE sdelta_g gauge\n"
      "sdelta_g{x=\"oops 1\n";
  EXPECT_FALSE(LintPrometheusText(doc).empty());
}

TEST(PromLintTest, MissingTrailingNewlineIsFlagged) {
  const char* doc =
      "# TYPE sdelta_g gauge\n"
      "sdelta_g 1";
  const auto problems = LintPrometheusText(doc);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("trailing newline"), std::string::npos);
}

TEST(PromLintTest, UnknownTypeIsFlagged) {
  EXPECT_EQ(LintPrometheusText("# TYPE sdelta_x wibble\n").size(), 1u);
}

TEST(PromLintTest, ConsistentDiagnosticFamiliesLintClean) {
  const char* doc =
      "# TYPE sdelta_events_capacity gauge\n"
      "sdelta_events_capacity 1024\n"
      "# TYPE sdelta_events_occupancy gauge\n"
      "sdelta_events_occupancy 12\n"
      "# TYPE sdelta_events_recorded gauge\n"
      "sdelta_events_recorded 12\n"
      "# TYPE sdelta_events_dropped gauge\n"
      "sdelta_events_dropped 0\n"
      "# TYPE sdelta_anomaly_checks_total counter\n"
      "sdelta_anomaly_checks_total 20\n"
      "# TYPE sdelta_anomaly_detections_total counter\n"
      "sdelta_anomaly_detections_total 2\n"
      "# TYPE sdelta_anomaly_bundles_written_total counter\n"
      "sdelta_anomaly_bundles_written_total 2\n"
      "# TYPE sdelta_anomaly_bundles_pruned_total counter\n"
      "sdelta_anomaly_bundles_pruned_total 1\n";
  EXPECT_TRUE(LintPrometheusText(doc).empty());
}

TEST(PromLintTest, EventRingDropExceedingRecordedIsFlagged) {
  const char* doc =
      "# TYPE sdelta_events_recorded gauge\n"
      "sdelta_events_recorded 5\n"
      "# TYPE sdelta_events_dropped gauge\n"
      "sdelta_events_dropped 9\n";
  const auto problems = LintPrometheusText(doc);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("sdelta_events_dropped"), std::string::npos);
  EXPECT_NE(problems[0].find("exceeds"), std::string::npos);
}

TEST(PromLintTest, OccupancyBeyondCapacityIsFlagged) {
  const char* doc =
      "# TYPE sdelta_events_capacity gauge\n"
      "sdelta_events_capacity 64\n"
      "# TYPE sdelta_events_occupancy gauge\n"
      "sdelta_events_occupancy 65\n";
  ASSERT_EQ(LintPrometheusText(doc).size(), 1u);
}

TEST(PromLintTest, NegativeDiagnosticGaugeIsFlagged) {
  // Gauges may be negative in general, but the events.*/anomaly.*
  // families are counts — a negative value is an exporter bug.
  const char* doc =
      "# TYPE sdelta_events_occupancy gauge\n"
      "sdelta_events_occupancy -1\n";
  const auto problems = LintPrometheusText(doc);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("non-negative"), std::string::npos);
}

TEST(PromLintTest, BundleCounterConsistencyIsChecked) {
  const char* doc =
      "# TYPE sdelta_anomaly_detections_total counter\n"
      "sdelta_anomaly_detections_total 1\n"
      "# TYPE sdelta_anomaly_bundles_written_total counter\n"
      "sdelta_anomaly_bundles_written_total 3\n"
      "# TYPE sdelta_anomaly_bundles_pruned_total counter\n"
      "sdelta_anomaly_bundles_pruned_total 4\n";
  const auto problems = LintPrometheusText(doc);
  // pruned > written and written > detections both fire.
  EXPECT_EQ(problems.size(), 2u);
}

TEST(PromLintTest, AbsentDiagnosticFamiliesSkipTheCrossChecks) {
  // A service with the anomaly layer off exports neither series; the
  // cross-family checks must not demand them.
  const char* doc =
      "# TYPE sdelta_service_appends_total counter\n"
      "sdelta_service_appends_total 2\n";
  EXPECT_TRUE(LintPrometheusText(doc).empty());
}

}  // namespace
}  // namespace sdelta::tools
