#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "workloads.h"

namespace sdelta::perfbench {

/// One reported number: its value, unit, the sample count behind it and
/// a short note on how it was read (e.g. the percentile a tail used).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t n = 0;
  std::string note;
};

/// The end-to-end metrics of an untraced run.
std::vector<Metric> EndToEndMetrics(const RunResult& run);

/// The per-layer table of a traced run, derived from its spans.
std::vector<Metric> PerLayerMetrics(const RunResult& run);

}  // namespace sdelta::perfbench

#endif  // PERFBENCH_REPORT_H_
