#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace sdelta::perfbench {

// ---- The warehouse and the workloads (README.md gives the reasons) ----

/// Paper scale (§6): 500k pos rows; 100 stores, 1000 items.
inline constexpr size_t kPosRows = 500000;
/// Rows per change set in the closed loops (one change set = one batch).
inline constexpr size_t kBatchRows = 5000;
/// Warehouse num_threads in the closed loops (main thread blocked in
/// Flush + maintenance thread + 3 pool workers: 4 runnable at most).
inline constexpr size_t kClosedLoopThreads = 4;

/// query_churn: 2 readers + 1 writer + 1 maintenance thread (no pool).
inline constexpr size_t kChurnReaders = 2;
inline constexpr size_t kChurnThreads = 1;
/// The open-loop writer: kChurnRate change sets per second, each of
/// kChurnRows update-generating rows, sent on schedule whether or not
/// earlier ones are visible.
inline constexpr double kChurnRate = 20.0;
inline constexpr size_t kChurnRows = 50;
/// Ingest policy: a batch forms once kChurnBatchRows rows are queued
/// (every kChurnBatchRows / (kChurnRate * kChurnRows) seconds); the
/// delay trigger only ends the run's last partial batch.
inline constexpr size_t kChurnBatchRows = 1000;
inline constexpr double kChurnMaxDelaySeconds = 2.0;

/// Opens per untraced run; setup_s is their median.
inline constexpr size_t kSetupOpens = 3;
/// The closed loops read peak_rss_mb once this many batches are done:
/// insert tables grow every batch, so a peak taken at the end of a
/// fixed-time run would grow with the program's speed.
inline constexpr size_t kRssBatches = 20;
/// Exact per-batch counts are means over this many traced batches from
/// the start of the trajectory, so they do not depend on how many
/// batches fit in the run.
inline constexpr size_t kExactBatches = 6;

// ---- The query rotation ----

enum Shape : size_t { kRegion = 0, kCategory, kDate, kItem, kNumShapes };

struct QueryShape {
  const char* name;
  const char* sql;
};

inline constexpr std::array<QueryShape, kNumShapes> kShapes = {{
    {"region",
     "SELECT region, SUM(qty) AS q FROM pos, stores "
     "WHERE pos.storeID = stores.storeID GROUP BY region"},
    {"category",
     "SELECT category, SUM(qty) AS q FROM pos, items "
     "WHERE pos.itemID = items.itemID GROUP BY category"},
    {"date", "SELECT date, SUM(qty) AS q FROM pos GROUP BY date"},
    {"item", "SELECT itemID, SUM(qty) AS q FROM pos GROUP BY itemID"},
}};

/// Each small shape twice per item scan: the median query then falls
/// inside one shape's latency mode (category) instead of on the edge
/// between two, and the item scans fill the top 1/7, where p99 lies.
inline constexpr std::array<Shape, 7> kRotation = {
    kRegion, kCategory, kDate, kRegion, kCategory, kDate, kItem};

// ---- One run ----

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< fresh working directory for data dirs
};

struct RunResult {
  /// End-to-end samples, seconds. In a traced run only the untraced
  /// half of the operations land here; the traced half goes to the
  /// traced_* vectors, and their difference is the tracing overhead.
  std::vector<double> visible_s;
  std::vector<double> query_s;
  std::vector<double> traced_visible_s;
  std::vector<double> traced_query_s;
  std::vector<double> setup_s;
  uint64_t queries = 0;  ///< queries completed, traced or not
  double query_window_s = 0;  ///< wall time over which they ran
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failures
  uint64_t appended_changesets = 0;
  uint64_t appended_rows = 0;
  uint64_t wal_bytes = 0;
  uint64_t batches = 0;
  uint64_t digest = 0;         ///< of the whole trajectory
  uint64_t prefix_digest = 0;  ///< of its first Trajectory::kDigestPrefix
  uint64_t generated = 0;      ///< change sets in the trajectory
  double peak_rss_mb = 0;  ///< 0 until read
  std::string gate;  ///< "" when the final state matched recomputation
  std::vector<Span> spans;
};

/// Runs one workload end to end: opens the service on a fresh data
/// directory, drives the workload for `seconds`, checks the final state
/// against the mirror, and (untraced) times the extra setup Opens.
RunResult RunWorkload(const RunOptions& options);

bool IsWorkload(const std::string& name);

/// One line naming the run's configuration: host CPUs, warehouse size,
/// change-set size, thread counts, batching and durability settings.
std::string DescribeConfig(const std::string& workload);

}  // namespace sdelta::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
