// Satellite (c) of the parallel-engine issue: Warehouse::RunBatch must
// produce byte-identical summary tables at num_threads = 1, 2, and 8 on
// the retail schema, across randomized update- and insertion-generating
// batches with fixed seeds — and the pipeline's counter metrics must be
// identical too (modulo the exec.* family, which only exists when a
// pool is attached but is itself deterministic across pool sizes).
//
// Byte-identical means CSV-identical here: same rows, same order, same
// formatting. The retail views aggregate only int64 columns, so the
// double-SUM addition-order caveat (operators.h) does not apply.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/delta.h"
#include "core/view_def.h"
#include "obs/metrics.h"
#include "relational/csv.h"
#include "relational/packed_key.h"
#include "service/service.h"
#include "test_util.h"
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
  config.seed = 913;
  return config;
}

struct Instance {
  size_t threads;
  obs::MetricsRegistry metrics;
  Warehouse wh;

  explicit Instance(size_t num_threads)
      : threads(num_threads),
        wh(MakeRetailCatalog(SmallConfig()), MakeOptions(num_threads, &metrics)) {
    wh.DefineSummaryTables(RetailSummaryTables());
  }

  static Warehouse::Options MakeOptions(size_t num_threads,
                                        obs::MetricsRegistry* metrics) {
    Warehouse::Options options;
    options.num_threads = num_threads;
    options.metrics = metrics;
    return options;
  }

  /// All summary tables rendered to CSV, keyed by view name.
  std::map<std::string, std::string> Snapshot() const {
    std::map<std::string, std::string> out;
    for (const core::AugmentedView& av : wh.vlattice().views) {
      out[av.name()] = rel::ToCsvString(wh.summary(av.name()).ToTable());
    }
    return out;
  }

  /// Counters split into the exec.* family and everything else.
  std::map<std::string, uint64_t> PipelineCounters() const {
    std::map<std::string, uint64_t> out;
    for (const auto& [name, value] : metrics.Snapshot().counters) {
      if (name.rfind("exec.", 0) != 0) out[name] = value;
    }
    return out;
  }
  std::map<std::string, uint64_t> ExecCounters() const {
    std::map<std::string, uint64_t> out;
    for (const auto& [name, value] : metrics.Snapshot().counters) {
      if (name.rfind("exec.", 0) == 0) out[name] = value;
    }
    return out;
  }
};

TEST(DeterminismTest, RunBatchByteIdenticalAcrossThreadCounts) {
  Instance serial(1);
  Instance two(2);
  Instance eight(8);
  ASSERT_EQ(serial.wh.num_threads(), 1u);
  ASSERT_EQ(serial.wh.pool(), nullptr);
  ASSERT_EQ(two.wh.num_threads(), 2u);
  ASSERT_NE(two.wh.pool(), nullptr);
  ASSERT_EQ(eight.wh.num_threads(), 8u);

  // Initial materialization must already agree.
  EXPECT_EQ(serial.Snapshot(), two.Snapshot());
  EXPECT_EQ(serial.Snapshot(), eight.Snapshot());

  struct BatchSpec {
    bool insertion;
    size_t size;
    uint64_t seed;
  };
  const std::vector<BatchSpec> batches = {
      {false, 400, 101}, {true, 300, 202}, {false, 500, 303}, {true, 200, 404}};

  for (const BatchSpec& b : batches) {
    SCOPED_TRACE("batch seed " + std::to_string(b.seed));
    for (Instance* inst : {&serial, &two, &eight}) {
      // Catalogs evolve in lockstep, so each instance generates an
      // identical change set from its own catalog with the shared seed.
      const core::ChangeSet changes =
          b.insertion
              ? MakeInsertionGeneratingChanges(inst->wh.catalog(), b.size, b.seed)
              : MakeUpdateGeneratingChanges(inst->wh.catalog(), b.size, b.seed);
      inst->wh.RunBatch(changes);
    }
    const auto expected = serial.Snapshot();
    EXPECT_EQ(expected, two.Snapshot());
    EXPECT_EQ(expected, eight.Snapshot());
  }

  // Pipeline counters (rows scanned, delta rows, refresh updates, ...)
  // must not depend on the thread count at all.
  const auto base_counters = serial.PipelineCounters();
  EXPECT_FALSE(base_counters.empty());
  EXPECT_EQ(base_counters, two.PipelineCounters());
  EXPECT_EQ(base_counters, eight.PipelineCounters());

  // exec.* counters (tasks, morsels, waves) are a pure function of the
  // work, never of the worker count — 2 threads and 8 threads agree.
  EXPECT_TRUE(serial.ExecCounters().empty());  // no pool, no exec metrics
  const auto exec_counters = two.ExecCounters();
  EXPECT_FALSE(exec_counters.empty());
  EXPECT_EQ(exec_counters, eight.ExecCounters());
}

TEST(DeterminismTest, PackedAndBoxedKeyPathsProduceIdenticalBatches) {
  // The packed-key fast path must be invisible in the results: the same
  // batch sequence with packed keys globally disabled yields the same
  // CSV snapshots, serial and parallel alike.
  ASSERT_TRUE(rel::PackedKeysEnabled());
  Instance packed(2);
  std::map<std::string, std::string> packed_snapshot;
  {
    const core::ChangeSet changes =
        MakeUpdateGeneratingChanges(packed.wh.catalog(), 400, 555);
    packed.wh.RunBatch(changes);
    packed_snapshot = packed.Snapshot();
  }
  rel::SetPackedKeysEnabled(false);
  std::map<std::string, std::string> boxed_snapshot;
  try {
    Instance boxed(2);
    const core::ChangeSet changes =
        MakeUpdateGeneratingChanges(boxed.wh.catalog(), 400, 555);
    boxed.wh.RunBatch(changes);
    boxed_snapshot = boxed.Snapshot();
  } catch (...) {
    rel::SetPackedKeysEnabled(true);
    throw;
  }
  rel::SetPackedKeysEnabled(true);
  EXPECT_EQ(packed_snapshot, boxed_snapshot);
}

// ISSUE 5 satellite: every service.* counter must be thread-count
// invariant. With explicit flushes the batch boundaries are
// deterministic, so two services differing only in worker count do the
// same appends, WAL writes, batches, coalescing, and epoch view
// rebuild/share decisions — and their whole non-exec counter maps
// (pipeline + service.*) must agree.
TEST(DeterminismTest, ServiceCountersInvariantAcrossThreadCounts) {
  namespace fs = std::filesystem;
  struct ServiceInstance {
    fs::path dir;
    rel::Catalog mirror;
    std::unique_ptr<service::WarehouseService> svc;

    explicit ServiceInstance(size_t num_threads)
        : dir(fs::temp_directory_path() /
              ("sdelta_det_svc_" + std::to_string(::getpid()) + "_t" +
               std::to_string(num_threads))),
          mirror(MakeRetailCatalog(SmallConfig())) {
      fs::remove_all(dir);
      service::WarehouseService::Options options;
      options.auto_batching = false;  // deterministic batch boundaries
      options.warehouse.num_threads = num_threads;
      svc = service::WarehouseService::Open(dir.string(),
                                            MakeRetailCatalog(SmallConfig()),
                                            RetailSummaryTables(), options);
    }
    ~ServiceInstance() {
      svc.reset();
      fs::remove_all(dir);
    }

    std::map<std::string, uint64_t> NonExecCounters() {
      std::map<std::string, uint64_t> out;
      for (const auto& [name, value] : svc->metrics().Snapshot().counters) {
        if (name.rfind("exec.", 0) != 0) out[name] = value;
      }
      return out;
    }
  };

  ServiceInstance serial(1);
  ServiceInstance eight(8);
  for (ServiceInstance* inst : {&serial, &eight}) {
    // Identical trajectory per instance: two coalesced appends, a flush,
    // then a single append + flush, then a checkpoint.
    for (uint64_t seed : {31u, 32u}) {
      core::ChangeSet changes =
          MakeUpdateGeneratingChanges(inst->mirror, 200, seed);
      core::ApplyChangeSet(inst->mirror, changes);
      inst->svc->Append(std::move(changes));
    }
    inst->svc->Flush();
    core::ChangeSet more = MakeInsertionGeneratingChanges(inst->mirror, 150, 33);
    core::ApplyChangeSet(inst->mirror, more);
    inst->svc->Append(std::move(more));
    inst->svc->Flush();
    inst->svc->Checkpoint();
  }

  const auto counters = serial.NonExecCounters();
  EXPECT_FALSE(counters.empty());
  EXPECT_GT(counters.count("service.appends"), 0u);
  EXPECT_GT(counters.count("service.wal_bytes"), 0u);
  EXPECT_GT(counters.count("service.batches"), 0u);
  EXPECT_EQ(counters, eight.NonExecCounters());
}

/// Siblings that each re-join `stores` over the SID_sales summary-delta.
/// With `lattice_friendly = false` no FD attributes are added, so the
/// three stores-joining views stay incomparable and each derives from
/// SID_sales through its own join, all three in one wave.
std::vector<core::ViewDef> SharingViews() {
  auto view = [](const std::string& name,
                 std::vector<core::DimensionJoin> joins,
                 std::vector<std::string> group_by) {
    core::ViewDef v;
    v.name = name;
    v.fact_table = "pos";
    v.joins = std::move(joins);
    v.group_by = std::move(group_by);
    v.aggregates = {rel::CountStar("TotalCount"),
                    rel::Sum(rel::Expression::Column("qty"),
                             "TotalQuantity")};
    return v;
  };
  const core::DimensionJoin stores{"stores", "storeID", "storeID"};
  return {view("SID_sales", {}, {"storeID", "itemID", "date"}),
          view("vCityItem", {stores}, {"city", "itemID"}),
          view("vRegionDate", {stores}, {"region", "date"}),
          view("vCityDate", {stores}, {"city", "date"})};
}

// Sibling views re-joining one dimension over a shared parent delta
// yield byte-identical summary tables at 1, 2, and 8 threads, and every
// view equals its recomputation over the instance's catalog after each
// batch.
TEST(DeterminismTest, SiblingJoinViewsByteIdenticalAcrossThreadCounts) {
  struct SiblingInstance {
    Warehouse wh;
    explicit SiblingInstance(size_t num_threads)
        : wh(MakeRetailCatalog(SmallConfig()), [&] {
            Warehouse::Options options;
            options.lattice_friendly = false;
            options.num_threads = num_threads;
            return options;
          }()) {
      wh.DefineSummaryTables(SharingViews());
    }
    std::map<std::string, std::string> Snapshot() const {
      std::map<std::string, std::string> out;
      for (const core::AugmentedView& av : wh.vlattice().views) {
        out[av.name()] = rel::ToCsvString(wh.summary(av.name()).ToTable());
      }
      return out;
    }
  };

  SiblingInstance serial(1);
  SiblingInstance two(2);
  SiblingInstance eight(8);

  for (uint64_t seed : {71u, 72u, 73u}) {
    SCOPED_TRACE("batch seed " + std::to_string(seed));
    for (SiblingInstance* inst : {&serial, &two, &eight}) {
      const core::ChangeSet changes =
          seed == 72u
              ? MakeInsertionGeneratingChanges(inst->wh.catalog(), 300, seed)
              : MakeUpdateGeneratingChanges(inst->wh.catalog(), 450, seed);
      inst->wh.RunBatch(changes);
      for (const core::AugmentedView& av : inst->wh.vlattice().views) {
        SCOPED_TRACE("view " + av.name() + ", " +
                     std::to_string(inst->wh.num_threads()) + " threads");
        sdelta::testing::ExpectBagEq(
            core::EvaluateView(inst->wh.catalog(), av.physical),
            inst->wh.summary(av.name()).ToTable());
      }
    }
    const auto expected = serial.Snapshot();
    EXPECT_EQ(expected, two.Snapshot());
    EXPECT_EQ(expected, eight.Snapshot());
  }
}

// Epoch publication shares pages copy-on-write, so the rows it copies
// depend only on which summary rows refresh wrote — the same at every
// thread count.
TEST(DeterminismTest, EpochRowsCopiedInvariantAcrossThreads) {
  namespace fs = std::filesystem;
  struct Run {
    size_t threads;
    std::map<std::string, uint64_t> counters;
  };
  std::vector<Run> runs;
  for (size_t threads : {1u, 2u, 8u}) {
    const fs::path dir = fs::temp_directory_path() /
                         ("sdelta_det_cow_" + std::to_string(::getpid()) +
                          "_t" + std::to_string(threads));
    fs::remove_all(dir);
    service::WarehouseService::Options options;
    options.auto_batching = false;
    options.warehouse.num_threads = threads;
    options.warehouse.lattice_friendly = false;
    rel::Catalog mirror = MakeRetailCatalog(SmallConfig());
    auto svc = service::WarehouseService::Open(
        dir.string(), MakeRetailCatalog(SmallConfig()), SharingViews(),
        options);
    for (uint64_t seed : {41u, 42u, 43u}) {
      core::ChangeSet changes =
          seed == 42u ? MakeInsertionGeneratingChanges(mirror, 300, seed)
                      : MakeUpdateGeneratingChanges(mirror, 400, seed);
      core::ApplyChangeSet(mirror, changes);
      svc->Append(std::move(changes));
      svc->Flush();
    }
    std::map<std::string, uint64_t> counters;
    for (const char* name :
         {"service.epoch_rows_copied", "service.epoch_views_rebuilt",
          "service.epoch_views_shared"}) {
      counters[name] = svc->metrics().counter(name);
    }
    svc.reset();
    fs::remove_all(dir);
    runs.push_back({threads, std::move(counters)});
  }
  EXPECT_GT(runs.front().counters.at("service.epoch_rows_copied"), 0u);
  for (const Run& run : runs) {
    EXPECT_EQ(run.counters, runs.front().counters) << run.threads
                                                   << " threads";
  }
}

TEST(DeterminismTest, PropagateOnlyStatsMatchAcrossThreadCounts) {
  Instance serial(1);
  Instance four(4);
  const core::ChangeSet serial_changes =
      MakeUpdateGeneratingChanges(serial.wh.catalog(), 600, 777);
  const core::ChangeSet four_changes =
      MakeUpdateGeneratingChanges(four.wh.catalog(), 600, 777);
  core::PropagateStats s1;
  core::PropagateStats s4;
  serial.wh.PropagateOnly(serial_changes, &s1);
  four.wh.PropagateOnly(four_changes, &s4);
  EXPECT_EQ(s1.prepared_tuples, s4.prepared_tuples);
  EXPECT_EQ(s1.delta_groups, s4.delta_groups);
  EXPECT_EQ(s1.preaggregated, s4.preaggregated);
}

}  // namespace
}  // namespace sdelta::warehouse
