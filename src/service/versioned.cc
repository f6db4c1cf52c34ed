#include "service/versioned.h"

#include <algorithm>
#include <stdexcept>

#include "core/maintenance.h"
#include "core/sql_parser.h"
#include "lattice/derives.h"

namespace sdelta::service {

std::vector<std::string> ReadSnapshot::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(epoch_->views.size());
  for (const auto& v : epoch_->views) names.push_back(v->name());
  return names;
}

const core::SummaryTable& ReadSnapshot::view(const std::string& name) const {
  for (const auto& v : epoch_->views) {
    if (v->name() == name) return *v;
  }
  throw std::invalid_argument("snapshot: unknown summary table '" + name +
                              "'");
}

lattice::AnswerResult ReadSnapshot::Query(const core::ViewDef& query) const {
  const Epoch& epoch = *epoch_;
  // Request correlation: every snapshot query takes the next request id
  // so its span, metrics, and any SlowQuery event share one handle.
  ServiceObs* obs = epoch.obs;
  const uint64_t request_id =
      obs != nullptr
          ? obs->next_request_id.fetch_add(1, std::memory_order_relaxed) + 1
          : 0;
  obs::TraceSpan span(obs != nullptr ? obs->tracer : nullptr,
                      "service.query");
  span.Attr("request_id", request_id);
  span.Attr("epoch", epoch.number);
  span.Attr("query", query.name);
  core::Stopwatch sw;
  const core::AugmentedView augmented =
      core::AugmentForSelfMaintenance(*epoch.catalog, query);
  // Reject base fallback up front: the epoch's fact tables are
  // schema-only, so AnswerQuery's base path would answer from zero rows.
  bool derivable = false;
  for (const core::AugmentedView& v : epoch.lattice->views) {
    if (lattice::ComputeDerivation(*epoch.catalog, augmented, v).has_value()) {
      derivable = true;
      break;
    }
  }
  if (!derivable) {
    throw std::runtime_error(
        "snapshot query '" + query.name +
        "' derives from no pinned summary table; base-table queries must go "
        "to the live warehouse");
  }
  std::vector<const core::SummaryTable*> summaries;
  summaries.reserve(epoch.views.size());
  for (const auto& v : epoch.views) summaries.push_back(v.get());
  lattice::AnswerResult result =
      lattice::AnswerQuery(*epoch.catalog, *epoch.lattice, summaries, query,
                           /*tracer=*/nullptr, epoch.metrics);
  const double elapsed = sw.ElapsedSeconds();
  if (obs != nullptr) {
    if (obs->metrics != nullptr) obs->metrics->Add("service.snapshot_queries");
    span.Attr("source_view", result.source_view);
    if (obs->events != nullptr &&
        elapsed > obs->slow_query_threshold_seconds) {
      obs->events->Record(obs::EventType::kSlowQuery, /*batch_id=*/0,
                          request_id, /*seq=*/0, elapsed, query.name);
      if (obs->metrics != nullptr) obs->metrics->Add("service.slow_queries");
    }
  }
  return result;
}

lattice::AnswerResult ReadSnapshot::Query(const std::string& sql) const {
  return Query(core::ParseQuery(*epoch_->catalog, sql));
}

ReadSnapshot VersionedTables::Pin() const {
  std::scoped_lock lock(mu_);
  return ReadSnapshot(current_);
}

std::shared_ptr<const Epoch> VersionedTables::Current() const {
  std::scoped_lock lock(mu_);
  return current_;
}

double VersionedTables::Install(std::shared_ptr<const Epoch> next) {
  // The reader-visible batch window: everything before this point built
  // `next` off to the side; everything readers can observe flips in one
  // pointer swap under the pin mutex.
  core::Stopwatch sw;
  std::shared_ptr<const Epoch> displaced = std::move(next);
  {
    std::scoped_lock lock(mu_);
    current_.swap(displaced);
  }
  const double window = sw.ElapsedSeconds();
  // When no reader pins the displaced epoch, dropping it frees the pages
  // refresh replaced since; that teardown runs here, after the unlock,
  // so it neither blocks Pin() nor counts toward the window.
  displaced.reset();
  return window;
}

std::shared_ptr<const rel::Catalog> MakeReaderCatalog(
    const rel::Catalog& writer, const std::vector<std::string>& fact_tables) {
  auto out = std::make_shared<rel::Catalog>();
  for (const std::string& name : writer.TableNames()) {
    const rel::Table& table = writer.GetTable(name);
    const bool is_fact = std::find(fact_tables.begin(), fact_tables.end(),
                                   name) != fact_tables.end();
    if (is_fact) {
      out->AddTable(rel::Table(table.schema(), name));
    } else {
      out->AddTable(table);  // rows copied: epoch-consistent join input
    }
  }
  for (const rel::ForeignKey& fk : writer.foreign_keys()) {
    out->DeclareForeignKey(fk.fact_table, fk.fact_column, fk.dim_table,
                           fk.dim_column);
  }
  for (const rel::FunctionalDependency& fd :
       writer.functional_dependencies()) {
    out->DeclareFunctionalDependency(fd.table, fd.determinant, fd.dependent);
  }
  return out;
}

}  // namespace sdelta::service
