#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/delta.h"
#include "relational/catalog.h"
#include "warehouse/retail_schema.h"

namespace sdelta::perfbench {

/// The paper's retail warehouse (§6) at `pos_rows`: 100 stores in 30
/// cities and 5 regions, 1000 items in 20 categories, 365 sale dates.
/// The catalog's data seed is derived from the workload seed.
warehouse::RetailConfig RetailConfigFor(size_t pos_rows, uint64_t seed);

/// The seeded change-set stream of one run. Change sets are generated
/// here, from the benchmark's own mirror catalog, and the program under
/// test receives only the finished change sets. Commit() applies a
/// change set to the mirror with core::ApplyChangeSet (outside any
/// timed region), so the mirror stays in lockstep with what was
/// appended, and folds its service::EncodeChangeSet bytes into a
/// digest: two runs with equal digests had identical inputs.
class Trajectory {
 public:
  Trajectory(rel::Catalog* mirror, const warehouse::RetailConfig& config,
             uint64_t seed);

  /// Update-generating (paper Fig 9a class): rows/2 deletions of
  /// distinct existing pos rows plus rows/2 insertions over existing
  /// store, item and date values.
  core::ChangeSet NextUpdate(size_t rows);
  /// Insertion-generating (Fig 9c class): `rows` insertions spread over
  /// three dates past every date in pos.
  core::ChangeSet NextInsertion(size_t rows);

  void Commit(const core::ChangeSet& changes);

  /// Digest of every change set committed so far, and of the first
  /// kDigestPrefix only: runs of one seed fit different numbers of
  /// change sets, so the prefix digest is the one two runs compare.
  static constexpr uint64_t kDigestPrefix = 10;
  uint64_t digest() const { return digest_; }
  uint64_t prefix_digest() const { return prefix_digest_; }
  uint64_t committed() const { return committed_; }
  /// Distinct sale dates in the mirror (the date query's group count).
  size_t num_dates() const { return static_cast<size_t>(max_date_); }

 private:
  rel::Catalog* mirror_;
  std::mt19937_64 rng_;
  int64_t num_stores_;
  int64_t num_items_;
  int64_t max_date_;
  uint64_t digest_ = 1469598103934665603ull;  // FNV-1a offset basis
  uint64_t prefix_digest_ = digest_;
  uint64_t committed_ = 0;
};

/// Hex rendering of a digest.
std::string Hex(uint64_t value);

}  // namespace sdelta::perfbench

#endif  // PERFBENCH_INPUTS_H_
