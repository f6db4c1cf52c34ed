#ifndef SDELTA_TOOLS_PROM_LINT_LIB_H_
#define SDELTA_TOOLS_PROM_LINT_LIB_H_

#include <string>
#include <string_view>
#include <vector>

namespace sdelta::tools {

/// Structural validator for the Prometheus text exposition format
/// (version 0.0.4) as produced by obs::ExportPrometheus. Used by the CI
/// endpoint-smoke job and by unit tests, so a format regression fails
/// the build before a real Prometheus server ever sees it.
///
/// Checks:
///   * line structure: HELP/TYPE comments and samples parse; sample
///     values are finite-or-+Inf decimal numbers; label blocks are
///     well-formed (quoted values, escaped specials);
///   * metric names match [a-zA-Z_:][a-zA-Z0-9_:]*, label names match
///     [a-zA-Z_][a-zA-Z0-9_]*;
///   * every sample belongs to a family introduced by a preceding TYPE
///     line; a family's samples are contiguous; no family is declared
///     twice;
///   * counter families: samples carry the `_total` suffix and
///     non-negative values;
///   * histogram families: `_bucket` samples carry an `le` label, their
///     `le` values are sorted ascending and end at "+Inf", cumulative
///     counts are non-decreasing, the +Inf bucket equals `_count`, and
///     `_sum`/`_count` are present. A histogram family may contain ONLY
///     `_bucket`/`_sum`/`_count` series — quantile samples belong in a
///     separate family (our exporter emits `<name>_quantiles` gauges);
///     summary families accept `name{quantile="..."}` samples;
///   * duplicate sample series (same name + label set) are rejected;
///   * diagnostic-layer semantics: events.*/anomaly.* samples are
///     non-negative, events_dropped <= events_recorded, events_occupancy
///     <= events_capacity, anomaly detections <= checks, and bundle
///     counters (pruned <= written <= detections) stay consistent — each
///     check applies only when both series appear in the document.
///
/// Returns the list of problems, one human-readable line each, with
/// 1-based line numbers; empty = the document lints clean.
std::vector<std::string> LintPrometheusText(std::string_view text);

}  // namespace sdelta::tools

#endif  // SDELTA_TOOLS_PROM_LINT_LIB_H_
