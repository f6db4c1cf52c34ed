#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace sdelta::perfbench {

/// Linear-interpolated percentile (numpy's default) of `samples`;
/// `p` in [0, 100]. NaN for an empty sample.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

/// The percentile a tail metric named for `target` is read at: `target`
/// itself when at least ten samples lie beyond it, otherwise the highest
/// percentile that still has ten samples beyond it (never below the
/// median). A p99 needs 1000 samples, a p90 needs 100.
inline double TailRank(double target, size_t n) {
  if (n == 0) return target;
  const double reachable = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
  return std::clamp(reachable, 50.0, target);
}

/// One reported timing: median and tail of a sample, with its count and
/// the percentile the tail was actually read at.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_rank = 0;
};

inline Summary Summarize(const std::vector<double>& samples, double target) {
  Summary s;
  s.n = samples.size();
  s.tail_rank = TailRank(target, samples.size());
  s.p50 = Median(samples);
  s.tail = Percentile(samples, s.tail_rank);
  return s;
}

}  // namespace sdelta::perfbench

#endif  // PERFBENCH_STATS_H_
