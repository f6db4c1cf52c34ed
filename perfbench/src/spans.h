#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sdelta::perfbench {

using Clock = std::chrono::steady_clock;

/// One timed call into the service, recorded from the benchmark's side
/// of the public API. Spans of one change set, one query or one
/// maintenance batch share `trace`; `parent` is the span that caused
/// this one (0 for a root). Attributes carry the numbers the call
/// returned (LastReport() split, RefreshStats, rows_read, counter
/// deltas), keyed by string literals.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  const char* name = "";
  double start_s = 0;  ///< seconds since the recorder's origin
  double end_s = 0;
  std::vector<std::pair<const char*, double>> attrs;

  double duration_s() const { return end_s - start_s; }
  /// The attribute's value, or NaN when the span lacks it.
  double Get(std::string_view key) const {
    for (const auto& [k, v] : attrs) {
      if (key == k) return v;
    }
    return std::nan("");
  }
};

/// In-memory span sink shared by the benchmark's threads. Spans are
/// kept until the run ends and then derived into the per-layer table
/// and written out; nothing is exported while the workload runs.
class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  uint64_t NextId() {
    std::scoped_lock lock(mu_);
    return ++last_id_;
  }

  /// Records a span with a fresh id (returned, to parent children on).
  uint64_t Add(const char* name, uint64_t parent, uint64_t trace,
               Clock::time_point start, Clock::time_point end,
               std::vector<std::pair<const char*, double>> attrs = {}) {
    return AddWithId(NextId(), name, parent, trace, start, end,
                     std::move(attrs));
  }

  /// Records a span whose id was taken earlier with NextId(), so a
  /// parent can be recorded after its children.
  uint64_t AddWithId(uint64_t id, const char* name, uint64_t parent,
                     uint64_t trace, Clock::time_point start,
                     Clock::time_point end,
                     std::vector<std::pair<const char*, double>> attrs = {}) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.trace = trace;
    s.name = name;
    s.start_s = Seconds(start);
    s.end_s = Seconds(end);
    s.attrs = std::move(attrs);
    std::scoped_lock lock(mu_);
    spans_.push_back(std::move(s));
    return id;
  }

  /// All spans recorded so far, ordered by id. Call once the threads
  /// that record have been joined.
  std::vector<Span> Take();

  /// Writes spans as a Chrome trace-event JSON array (one complete
  /// event per span, ids and attributes under "args").
  static bool WriteChromeTrace(const std::vector<Span>& spans,
                               const std::string& path);

 private:
  double Seconds(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  const Clock::time_point origin_;
  std::mutex mu_;
  uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

}  // namespace sdelta::perfbench

#endif  // PERFBENCH_SPANS_H_
