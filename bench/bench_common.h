#ifndef SDELTA_BENCH_BENCH_COMMON_H_
#define SDELTA_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "warehouse/retail_schema.h"
#include "warehouse/warehouse.h"
#include "warehouse/workload.h"

namespace sdelta::bench {

/// The paper's experimental configuration (§6): pos 100k–500k rows over
/// 100 stores / 30 cities / 5 regions / 1000 items / 20 categories, with
/// composite indexes on the summary tables' group-by columns (our
/// SummaryTable provides the equivalent hash index).
inline warehouse::RetailConfig PaperConfig(size_t pos_rows,
                                           uint64_t seed = 4242) {
  warehouse::RetailConfig config;
  config.num_stores = 100;
  config.num_cities = 30;
  config.num_regions = 5;
  config.num_items = 1000;
  config.num_categories = 20;
  config.num_dates = 365;
  config.num_pos_rows = pos_rows;
  config.seed = seed;
  return config;
}

enum class ChangeClass { kUpdate, kInsertion };

inline core::ChangeSet MakeChanges(const rel::Catalog& catalog,
                                   ChangeClass cls, size_t n,
                                   uint64_t seed) {
  return cls == ChangeClass::kUpdate
             ? warehouse::MakeUpdateGeneratingChanges(catalog, n, seed)
             : warehouse::MakeInsertionGeneratingChanges(catalog, n, seed);
}

/// A warehouse over the paper-scale retail catalog with the four
/// Figure-1 summary tables materialized.
inline std::unique_ptr<warehouse::Warehouse> MakePaperWarehouse(
    size_t pos_rows, warehouse::Warehouse::Options options = {}) {
  auto wh = std::make_unique<warehouse::Warehouse>(
      warehouse::MakeRetailCatalog(PaperConfig(pos_rows)), options);
  wh->DefineSummaryTables(warehouse::RetailSummaryTables());
  return wh;
}

/// Lazily built, cached warehouses keyed by (pos size, options hash) so
/// a sweep over change sizes shares one instance. Building a 500k-row
/// warehouse with four materialized summary tables takes seconds; the
/// cache keeps bench startup sane.
class WarehouseCache {
 public:
  warehouse::Warehouse& Get(size_t pos_rows,
                            warehouse::Warehouse::Options options = {},
                            const std::string& tag = "") {
    const std::string key = std::to_string(pos_rows) + "/" + tag;
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_.emplace(key, MakePaperWarehouse(pos_rows, options)).first;
    }
    return *it->second;
  }

  static WarehouseCache& Instance() {
    static WarehouseCache* cache = new WarehouseCache();
    return *cache;
  }

 private:
  std::map<std::string, std::unique_ptr<warehouse::Warehouse>> cache_;
};

}  // namespace sdelta::bench

#endif  // SDELTA_BENCH_BENCH_COMMON_H_
