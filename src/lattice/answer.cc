#include "lattice/answer.h"

#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "lattice/derives.h"

namespace sdelta::lattice {

namespace {

/// Applies `recipe` to the summary table segment by segment, reading
/// each columnar segment in place instead of a concatenated copy. The
/// per-segment results are partial groups of the query; they merge by
/// deriving the query from a view of its own shape (§5.1 — COUNT and SUM
/// add up, MIN and MAX fold), which preserves first-appearance group
/// order.
rel::Table DeriveFromSegments(const rel::Catalog& catalog,
                              const core::AugmentedView& query,
                              const core::DerivationRecipe& recipe,
                              const core::SummaryTable& source) {
  const std::vector<std::shared_ptr<const rel::Table>> segments =
      source.ColumnarSegments();
  if (segments.size() <= 1) {
    return core::ApplyDerivation(
        catalog, recipe, segments.empty() ? source.ToTable() : *segments[0]);
  }
  rel::Table partials = core::ApplyDerivation(catalog, recipe, *segments[0]);
  for (size_t s = 1; s < segments.size(); ++s) {
    partials.AppendColumnsFrom(
        core::ApplyDerivation(catalog, recipe, *segments[s]));
  }
  core::AugmentedView shape = query;
  shape.physical.name += "#partials";
  const std::optional<core::DerivationRecipe> merge =
      ComputeDerivation(catalog, query, shape);
  if (!merge.has_value()) {
    throw std::logic_error("answer: query '" + query.physical.name +
                           "' does not derive from its own partial groups");
  }
  return core::ApplyDerivation(catalog, *merge, partials);
}

}  // namespace

AnswerResult AnswerQuery(const rel::Catalog& catalog, const VLattice& lattice,
                         const std::vector<const core::SummaryTable*>&
                             summaries,
                         const core::ViewDef& query, obs::Tracer* tracer,
                         obs::MetricsRegistry* metrics) {
  if (summaries.size() != lattice.views.size()) {
    throw std::invalid_argument(
        "AnswerQuery: summaries must parallel lattice views");
  }
  obs::TraceSpan span(tracer, "answer.query");
  span.Attr("query", query.name);
  const core::AugmentedView augmented =
      core::AugmentForSelfMaintenance(catalog, query);

  // Pick the cheapest summary table the query derives from.
  const core::SummaryTable* best = nullptr;
  core::DerivationRecipe best_recipe;
  size_t best_cost = std::numeric_limits<size_t>::max();
  for (size_t i = 0; i < lattice.views.size(); ++i) {
    std::optional<core::DerivationRecipe> recipe =
        ComputeDerivation(catalog, augmented, lattice.views[i]);
    if (!recipe.has_value()) continue;
    // Cost: rows scanned, inflated per dimension join on the rewrite.
    const size_t cost =
        summaries[i]->NumRows() * (1 + recipe->joins.size());
    if (cost < best_cost) {
      best_cost = cost;
      best = summaries[i];
      best_recipe = std::move(*recipe);
    }
  }

  AnswerResult result;
  if (best == nullptr) {
    result.from_base = true;
    result.rows_read = catalog.GetTable(query.fact_table).NumRows();
    rel::Table physical = core::EvaluateView(catalog, augmented.physical);
    result.rows = core::LogicalRows(augmented, physical);
    span.Attr("source", "base");
    span.Attr("rows_read", static_cast<uint64_t>(result.rows_read));
    if (metrics != nullptr) {
      metrics->Add("answer.base_fallbacks");
      metrics->Add("answer.rows_read", result.rows_read);
    }
    return result;
  }
  result.source_view = best->name();
  result.rows_read = best->NumRows();
  span.Attr("source", result.source_view);
  span.Attr("rows_read", static_cast<uint64_t>(result.rows_read));
  if (metrics != nullptr) {
    metrics->Add("answer.view_hits");
    metrics->Add("answer.rows_read", result.rows_read);
  }
  rel::Table logical =
      core::LogicalRows(augmented, DeriveFromSegments(catalog, augmented,
                                                      best_recipe, *best));
  // Stamp the query's own name on the output.
  logical.SetName(query.name);
  result.rows = std::move(logical);
  return result;
}

}  // namespace sdelta::lattice
