#include "gate.h"

#include <utility>

#include "core/summary_table.h"
#include "inputs.h"
#include "relational/csv.h"
#include "service/service.h"

namespace sdelta::perfbench {

std::string CheckAgainstMirror(const service::ReadSnapshot& snapshot,
                               const rel::Catalog& mirror) {
  for (const std::string& name : snapshot.ViewNames()) {
    const core::SummaryTable& got = snapshot.view(name);
    core::SummaryTable expected(got.def(), mirror);
    expected.MaterializeFrom(mirror);
    if (got.NumRows() != expected.NumRows()) {
      return name + ": " + std::to_string(got.NumRows()) + " rows, expected " +
             std::to_string(expected.NumRows());
    }
    if (rel::ToCsvString(got.ToCanonicalTable()) !=
        rel::ToCsvString(expected.ToCanonicalTable())) {
      return name + ": rows differ from recomputation";
    }
  }
  return "";
}

std::string GateSelfTest(const std::string& dir, uint64_t seed) {
  constexpr size_t kPosRows = 20000;
  constexpr size_t kRows = 200;
  const warehouse::RetailConfig config = RetailConfigFor(kPosRows, seed);

  // Two mirrors fed the same generator stream; `short_mirror` stops one
  // change set early.
  rel::Catalog full_mirror = warehouse::MakeRetailCatalog(config);
  rel::Catalog short_mirror = warehouse::MakeRetailCatalog(config);
  Trajectory full(&full_mirror, config, seed);
  Trajectory partial(&short_mirror, config, seed);

  auto svc = service::WarehouseService::Open(
      dir, warehouse::MakeRetailCatalog(config),
      warehouse::RetailSummaryTables());
  for (int i = 0; i < 2; ++i) {
    core::ChangeSet changes = full.NextUpdate(kRows);
    full.Commit(changes);
    if (i == 0) {
      core::ChangeSet same = partial.NextUpdate(kRows);
      partial.Commit(same);
    }
    svc->Append(std::move(changes));
  }
  svc->Flush();
  const service::ReadSnapshot snap = svc->Snapshot();
  const std::string on_full = CheckAgainstMirror(snap, full_mirror);
  if (!on_full.empty()) return "gate failed on a matching mirror: " + on_full;
  if (CheckAgainstMirror(snap, short_mirror).empty()) {
    return "gate passed on a mirror missing a change set";
  }
  return "";
}

}  // namespace sdelta::perfbench
