#include "inputs.h"

#include <cstdio>
#include <unordered_set>

#include "service/wal.h"

namespace sdelta::perfbench {

using rel::Value;

warehouse::RetailConfig RetailConfigFor(size_t pos_rows, uint64_t seed) {
  // Spelled out rather than left to RetailConfig's defaults, so the
  // benchmark's warehouse cannot change underneath its baselines.
  warehouse::RetailConfig config;
  config.num_stores = 100;
  config.num_cities = 30;
  config.num_regions = 5;
  config.num_items = 1000;
  config.num_categories = 20;
  config.num_dates = 365;
  config.num_pos_rows = pos_rows;
  config.seed = seed * 0x9E3779B97F4A7C15ull + 1;
  return config;
}

Trajectory::Trajectory(rel::Catalog* mirror,
                       const warehouse::RetailConfig& config, uint64_t seed)
    : mirror_(mirror),
      rng_(seed ^ 0xD1B54A32D192ED03ull),
      num_stores_(static_cast<int64_t>(config.num_stores)),
      num_items_(static_cast<int64_t>(config.num_items)),
      max_date_(static_cast<int64_t>(config.num_dates)) {}

core::ChangeSet Trajectory::NextUpdate(size_t rows) {
  const rel::Table& pos = mirror_->GetTable("pos");
  core::ChangeSet changes;
  changes.fact_table = "pos";
  changes.fact = core::DeltaSet(pos.schema());

  const size_t deletions = std::min(rows / 2, pos.NumRows());
  std::uniform_int_distribution<size_t> row_dist(0, pos.NumRows() - 1);
  std::unordered_set<size_t> picked;
  std::vector<size_t> order;
  order.reserve(deletions);
  while (order.size() < deletions) {
    const size_t r = row_dist(rng_);
    if (picked.insert(r).second) order.push_back(r);
  }
  changes.fact.deletions.Reserve(deletions);
  for (size_t r : order) changes.fact.deletions.Insert(pos.RowAt(r));

  std::uniform_int_distribution<int64_t> store(1, num_stores_);
  std::uniform_int_distribution<int64_t> item(1, num_items_);
  std::uniform_int_distribution<int64_t> date(1, max_date_);
  std::uniform_int_distribution<int64_t> qty(1, 10);
  std::uniform_real_distribution<double> price(1.0, 500.0);
  const size_t insertions = rows - deletions;
  changes.fact.insertions.Reserve(insertions);
  for (size_t k = 0; k < insertions; ++k) {
    const int64_t s = store(rng_);
    const int64_t i = item(rng_);
    const int64_t d = date(rng_);
    const int64_t q = qty(rng_);
    const double p = price(rng_);
    changes.fact.insertions.Insert({Value::Int64(s), Value::Int64(i),
                                    Value::Int64(d), Value::Int64(q),
                                    Value::Double(p)});
  }
  return changes;
}

core::ChangeSet Trajectory::NextInsertion(size_t rows) {
  constexpr int64_t kNewDates = 3;
  const rel::Table& pos = mirror_->GetTable("pos");
  core::ChangeSet changes;
  changes.fact_table = "pos";
  changes.fact = core::DeltaSet(pos.schema());
  std::uniform_int_distribution<int64_t> store(1, num_stores_);
  std::uniform_int_distribution<int64_t> item(1, num_items_);
  std::uniform_int_distribution<int64_t> qty(1, 10);
  std::uniform_real_distribution<double> price(1.0, 500.0);
  changes.fact.insertions.Reserve(rows);
  for (size_t k = 0; k < rows; ++k) {
    // Round-robin over the new dates, so each one is present whenever
    // rows >= kNewDates and num_dates() stays the date group count.
    const int64_t d = max_date_ + 1 + static_cast<int64_t>(k) % kNewDates;
    const int64_t s = store(rng_);
    const int64_t i = item(rng_);
    const int64_t q = qty(rng_);
    const double p = price(rng_);
    changes.fact.insertions.Insert({Value::Int64(s), Value::Int64(i),
                                    Value::Int64(d), Value::Int64(q),
                                    Value::Double(p)});
  }
  return changes;
}

void Trajectory::Commit(const core::ChangeSet& changes) {
  core::ApplyChangeSet(*mirror_, changes);
  const rel::Table& ins = changes.fact.insertions;
  const size_t date_col = ins.schema().Resolve("date");
  for (size_t r = 0; r < ins.NumRows(); ++r) {
    max_date_ = std::max(max_date_, ins.ValueAt(r, date_col).as_int64());
  }
  for (uint8_t byte : service::EncodeChangeSet(changes)) {
    digest_ = (digest_ ^ byte) * 1099511628211ull;  // FNV-1a prime
  }
  if (++committed_ <= kDigestPrefix) prefix_digest_ = digest_;
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace sdelta::perfbench
