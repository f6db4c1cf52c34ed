#include "lattice/plan.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_set>

#include "core/view_def.h"
#include "relational/group_key.h"
#include "relational/operators.h"

namespace sdelta::lattice {

std::string MaintenancePlan::ToString(const VLattice& lattice) const {
  std::string s;
  for (const PlanStep& step : steps) {
    s += lattice.views[step.view].name();
    if (step.edge.has_value()) {
      s += " <- sd_" + lattice.views[lattice.edges[*step.edge].parent].name();
      const auto& joins = lattice.edges[*step.edge].recipe.joins;
      if (!joins.empty()) {
        s += " [join:";
        for (const core::DimensionJoin& j : joins) s += " " + j.dim_table;
        s += "]";
      }
    } else {
      s += " <- base changes";
    }
    s += "\n";
  }
  return s;
}

namespace {

/// Whether group-by attribute `target` (provenance "table.attr") is
/// functionally determined by another group-by attribute, and therefore
/// contributes no additional groups (e.g. region alongside city).
bool DeterminedByOther(const rel::Catalog& catalog,
                       const std::vector<std::string>& provenances,
                       const std::string& target,
                       const std::string& fact_table) {
  const size_t dot = target.find('.');
  const std::string target_table = target.substr(0, dot);
  const std::string target_attr = target.substr(dot + 1);
  const std::string fact_prefix = fact_table + ".";

  for (const std::string& other : provenances) {
    if (other == target) continue;
    const size_t odot = other.find('.');
    const std::string other_table = other.substr(0, odot);
    const std::string other_attr = other.substr(odot + 1);
    if (other_table == target_table) {
      for (const std::string& dep :
           catalog.FdClosure(other_table, other_attr)) {
        if (dep == target_attr) return true;
      }
    }
    // A fact FK column determines every attribute of its dimension.
    if (other.rfind(fact_prefix, 0) == 0) {
      const rel::ForeignKey* fk =
          catalog.FindForeignKey(fact_table, other_attr);
      if (fk != nullptr && fk->dim_table == target_table) return true;
    }
  }
  return false;
}

}  // namespace

double EstimateGroupCount(const rel::Catalog& catalog,
                          const core::AugmentedView& view) {
  const core::ViewDef& def = view.physical;
  const rel::Schema joined = core::JoinedSchema(catalog, def);
  std::vector<std::string> provenances;
  for (const std::string& g : def.group_by) {
    provenances.push_back(joined.column(joined.Resolve(g)).name);
  }
  double product = 1.0;
  for (const std::string& qualified : provenances) {
    if (DeterminedByOther(catalog, provenances, qualified, def.fact_table)) {
      continue;
    }
    const size_t dot = qualified.find('.');
    const std::string table = qualified.substr(0, dot);
    const std::string column = qualified.substr(dot + 1);
    const rel::Table& t = catalog.GetTable(table);
    const size_t idx = t.schema().Resolve(column);
    std::unordered_set<rel::GroupKey, rel::GroupKeyHash> distinct;
    for (size_t r = 0; r < t.NumRows(); ++r) {
      distinct.insert(rel::GroupKey{t.ValueAt(r, idx)});
    }
    product *= static_cast<double>(std::max<size_t>(distinct.size(), 1));
  }
  return product;
}

MaintenancePlan ChoosePlan(const rel::Catalog& catalog,
                           const VLattice& lattice,
                           const PlanOptions& options) {
  MaintenancePlan plan;
  const size_t n = lattice.views.size();
  obs::TraceSpan span(options.tracer, "plan.choose");
  span.Attr("views", static_cast<uint64_t>(n));
  span.Attr("use_lattice", options.use_lattice);

  if (!options.use_lattice) {
    for (size_t i = 0; i < n; ++i) {
      const double est = EstimateGroupCount(catalog, lattice.views[i]);
      plan.steps.push_back(PlanStep{i, std::nullopt, est, est});
    }
    if (options.metrics != nullptr) {
      options.metrics->Add("plan.steps_from_base", n);
    }
    return plan;
  }

  // Rank views from finest (largest estimated group count) to coarsest;
  // ties broken by name for determinism. A view may only derive from a
  // strictly earlier-ranked view, which rules out cycles between
  // mutually derivable views.
  std::vector<double> estimate(n);
  for (size_t i = 0; i < n; ++i) {
    estimate[i] = EstimateGroupCount(catalog, lattice.views[i]);
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (estimate[a] != estimate[b]) return estimate[a] > estimate[b];
    return lattice.views[a].name() < lattice.views[b].name();
  });
  std::vector<size_t> rank(n);
  for (size_t r = 0; r < n; ++r) rank[order[r]] = r;

  for (size_t r = 0; r < n; ++r) {
    const size_t v = order[r];
    // Cheapest admissible parent. The edge cost is the parent's
    // estimated summary-delta cardinality scaled by the dimension joins
    // the edge performs ([AAD+96]-style, extended with the join
    // annotation as §5.5 prescribes).
    auto edge_cost = [&](const VLatticeEdge& edge) {
      return estimate[edge.parent] *
             static_cast<double>(1 + edge.recipe.joins.size());
    };
    std::optional<size_t> best_edge;
    for (size_t e = 0; e < lattice.edges.size(); ++e) {
      const VLatticeEdge& edge = lattice.edges[e];
      if (edge.child != v) continue;
      if (rank[edge.parent] >= r) continue;  // admissibility
      if (!best_edge.has_value() ||
          edge_cost(edge) < edge_cost(lattice.edges[*best_edge])) {
        best_edge = e;
      }
    }
    if (options.metrics != nullptr) {
      if (best_edge.has_value()) {
        options.metrics->Observe("plan.edge_cost",
                                 edge_cost(lattice.edges[*best_edge]));
      } else {
        options.metrics->Add("plan.steps_from_base");
      }
    }
    const double cost = best_edge.has_value()
                            ? edge_cost(lattice.edges[*best_edge])
                            : estimate[v];
    plan.steps.push_back(PlanStep{v, best_edge, estimate[v], cost});
  }
  return plan;
}

LatticePropagateResult PropagateAll(const rel::Catalog& catalog,
                                    const VLattice& lattice,
                                    const MaintenancePlan& plan,
                                    const core::ChangeSet& changes,
                                    const core::PropagateOptions& opts) {
  LatticePropagateResult result;
  result.deltas.resize(lattice.views.size());
  result.step_execs.resize(plan.steps.size());
  std::vector<bool> computed(lattice.views.size(), false);

  // Root span for the phase; plan-step spans that compute from base
  // changes attach here, while D-lattice-derived steps parent on their
  // *source view's* span so the trace tree mirrors the plan (one span
  // per PlanStep, named after the view it computes).
  obs::TraceSpan phase(opts.tracer, "propagate");
  std::vector<uint64_t> view_span(lattice.views.size(), 0);

  // A lattice edge is usable for this change set only if none of the
  // dimension tables the edge re-joins have changed: the parent's
  // summary-delta is computed against pre-change dimensions and would
  // miss the moved rows. (Dimensions changed but fully *represented* by
  // the parent — the parent view joins them — flow through correctly.)
  auto edge_usable = [&](const VLatticeEdge& edge) {
    for (const core::DimensionJoin& j : edge.recipe.joins) {
      auto it = changes.dimensions.find(j.dim_table);
      if (it != changes.dimensions.end() && !it->second.empty()) {
        return false;
      }
    }
    return true;
  };

  // Per-step edge gating, wave membership, and the topological check —
  // computed up front and identically on the serial and wave-scheduled
  // paths, so StepExecution records (and thus explain output) never
  // depend on the thread count.
  std::vector<size_t> wave_of(lattice.views.size(), 0);
  std::vector<std::vector<size_t>> waves;  // slot indexes per wave
  for (size_t slot = 0; slot < plan.steps.size(); ++slot) {
    const PlanStep& step = plan.steps[slot];
    StepExecution& ex = result.step_execs[slot];
    ex.view = step.view;
    ex.via_edge =
        step.edge.has_value() && edge_usable(lattice.edges[*step.edge]);
    ex.edge_disabled = step.edge.has_value() && !ex.via_edge;
    size_t w = 0;
    if (ex.via_edge) {
      const size_t parent = lattice.edges[*step.edge].parent;
      if (!computed[parent]) {
        throw std::logic_error("maintenance plan is not topologically "
                               "ordered: parent of " +
                               lattice.views[step.view].name() +
                               " not yet computed");
      }
      w = wave_of[parent] + 1;
    }
    wave_of[step.view] = w;
    ex.wave = w;
    computed[step.view] = true;
    if (w >= waves.size()) waves.resize(w + 1);
    waves[w].push_back(slot);
  }

  // Saturating double -> size_t for the §5.5 estimates feeding hash
  // pre-sizing (an estimate can be huge or non-finite; the hint is
  // additionally capped so a wild estimate cannot over-allocate).
  constexpr size_t kMaxSizeHint = size_t{1} << 22;
  auto size_hint_of = [&](double estimated_groups) -> size_t {
    if (!(estimated_groups > 0)) return 0;
    if (estimated_groups >= static_cast<double>(kMaxSizeHint)) {
      return kMaxSizeHint;
    }
    return static_cast<size_t>(estimated_groups);
  };

  // Runs one plan step (on whichever thread the wave scheduler picked)
  // and records its summary-delta, span id, and execution record into
  // per-step slots. The explicit parent span mirrors the D-lattice:
  // derived steps parent on their source view's span, base steps on the
  // phase.
  auto run_step = [&](size_t slot, core::PropagateStats* stats) {
    const PlanStep& step = plan.steps[slot];
    StepExecution& ex = result.step_execs[slot];
    const auto start = std::chrono::steady_clock::now();
    const uint64_t parent_span =
        ex.via_edge ? view_span[lattice.edges[*step.edge].parent] : phase.id();
    obs::TraceSpan span(opts.tracer, lattice.views[step.view].name(),
                        parent_span);
    if (ex.via_edge) {
      const VLatticeEdge& edge = lattice.edges[*step.edge];
      // The child can have at most as many delta groups as the parent
      // has delta rows, so take the tighter of that bound and the plan
      // estimate.
      const size_t parent_rows = result.deltas[edge.parent].NumRows();
      size_t hint = size_hint_of(step.estimated_groups);
      if (hint == 0 || hint > parent_rows) hint = parent_rows;
      result.deltas[step.view] =
          core::ApplyDerivation(catalog, edge.recipe,
                                result.deltas[edge.parent], opts.pool,
                                &stats->ops, hint);
      stats->prepared_tuples = parent_rows;
      stats->delta_groups = result.deltas[step.view].NumRows();
      if (opts.metrics != nullptr) stats->EmitTo(*opts.metrics);
      span.Attr("source", lattice.views[edge.parent].name());
    } else {
      core::PropagateOptions step_opts = opts;
      step_opts.delta_size_hint = size_hint_of(step.estimated_groups);
      result.deltas[step.view] = core::ComputeSummaryDelta(
          catalog, lattice.views[step.view], changes, step_opts, stats);
      span.Attr("source", "base");
    }
    span.Attr("delta_rows", static_cast<uint64_t>(stats->delta_groups));
    view_span[step.view] = span.id();
    ex.input_rows = stats->prepared_tuples;
    ex.delta_rows = stats->delta_groups;
    ex.ops = stats->ops;
    ex.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  };

  std::vector<core::PropagateStats> step_stats(plan.steps.size());
  if (opts.pool == nullptr) {
    // Serial path: run steps in plan order.
    for (size_t slot = 0; slot < plan.steps.size(); ++slot) {
      run_step(slot, &step_stats[slot]);
    }
  } else {
    // Wave schedule: wave 0 computes from base changes (or along an edge
    // disabled by dimension deltas), wave k+1 derives from a wave-k
    // parent. Steps within a wave are independent by construction, so
    // each wave is one fork/join over the pool; the wave barrier
    // guarantees every parent's summary-delta (and its span id) is in
    // place before any dependent dispatches.
    for (size_t w = 0; w < waves.size(); ++w) {
      exec::TaskGroup group(opts.pool);
      for (size_t slot : waves[w]) {
        group.Spawn([&, slot] { run_step(slot, &step_stats[slot]); });
      }
      group.Wait();
      if (opts.metrics != nullptr) {
        opts.metrics->Add("exec.waves");
        opts.metrics->Observe("exec.wave_width",
                              static_cast<double>(waves[w].size()));
      }
    }
  }
  // Fold stats deterministically, in plan order.
  for (const core::PropagateStats& st : step_stats) {
    result.totals.prepared_tuples += st.prepared_tuples;
    result.totals.delta_groups += st.delta_groups;
    result.totals.ops.MergeFrom(st.ops);
  }
  return result;
}

}  // namespace sdelta::lattice
