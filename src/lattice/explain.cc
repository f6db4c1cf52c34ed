#include "lattice/explain.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace sdelta::lattice {

namespace {

/// Shortest round-trip rendering (same policy as the JSON dumper), so
/// text and DOT output are byte-stable across runs and platforms.
std::string NumberTo(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, ptr);
}

std::string NumberTo(uint64_t v) { return std::to_string(v); }

/// DOT double-quoted string escaping.
std::string DotQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

void AppendOpLines(const ExplainStep& step, const std::string& indent,
                   const ExplainRenderOptions& options, std::string* out) {
  exec::ForEachOperator(step.ops, [&](const char* name,
                                      const exec::OperatorCounters& c) {
    if (c.calls == 0) return;
    *out += indent + "op " + name + " calls=" + NumberTo(c.calls) +
            " in=" + NumberTo(c.rows_in) + " out=" + NumberTo(c.rows_out) +
            " morsels=" + NumberTo(c.morsels) +
            " batches=" + NumberTo(c.batches);
    if (std::string_view(name) == "hash_join") {
      *out += " build=" + NumberTo(step.ops.join_build_rows) +
              " probe=" + NumberTo(step.ops.join_probe_rows);
    }
    if (options.include_timings) {
      *out += " seconds=" + NumberTo(c.wall_seconds);
    }
    *out += "\n";
  });
}

}  // namespace

ExplainStep* ExplainResult::FindStep(const std::string& view_name) {
  for (ExplainStep& step : steps) {
    if (step.view == view_name) return &step;
  }
  return nullptr;
}

std::string ExplainResult::ToText(const ExplainRenderOptions& options) const {
  std::string out = analyzed ? "EXPLAIN ANALYZE" : "EXPLAIN";
  out += " plan=" + plan_source + " steps=" + NumberTo(uint64_t(steps.size())) +
         "\n";

  // Children grouped under their D-lattice source, in plan order.
  std::vector<std::vector<size_t>> children(steps.size());
  std::vector<size_t> roots;
  std::vector<size_t> index_of_view(steps.size(), 0);
  auto find_source = [&](const ExplainStep& step) -> std::optional<size_t> {
    if (step.source == "base") return std::nullopt;
    for (size_t i = 0; i < steps.size(); ++i) {
      if (steps[i].view == step.source) return i;
    }
    return std::nullopt;
  };
  for (size_t i = 0; i < steps.size(); ++i) {
    if (auto src = find_source(steps[i]); src.has_value()) {
      children[*src].push_back(i);
    } else {
      roots.push_back(i);
    }
  }

  auto render = [&](auto&& self, size_t i, size_t depth) -> void {
    const ExplainStep& step = steps[i];
    const std::string indent(depth * 2, ' ');
    const std::string detail = indent + "  ";
    out += indent + step.view + " <- ";
    if (step.source == "base") {
      out += "base changes";
      if (step.edge_disabled) out += " (edge disabled by dimension delta)";
    } else {
      out += "sd_" + step.source;
      if (!step.joins.empty()) {
        out += " [join:";
        for (const std::string& j : step.joins) out += " " + j;
        out += "]";
      }
    }
    out += " wave=" + NumberTo(uint64_t(step.wave)) + "\n";
    out += detail + "est groups=" + NumberTo(step.estimated_groups) +
           " input=" + NumberTo(step.estimated_input_rows) +
           " delta=" + NumberTo(step.estimated_delta_rows) +
           " cost=" + NumberTo(step.estimated_cost) + "\n";
    if (step.has_actuals) {
      out += detail + "act input=" + NumberTo(uint64_t(step.actual_input_rows)) +
             " delta=" + NumberTo(uint64_t(step.actual_delta_rows));
      if (options.include_timings) {
        out += " seconds=" + NumberTo(step.seconds);
      }
      out += "\n";
      AppendOpLines(step, detail, options, &out);
    }
    if (step.has_refresh) {
      out += detail + "refresh insert=" + NumberTo(uint64_t(step.refresh.inserted)) +
             " update=" + NumberTo(uint64_t(step.refresh.updated)) +
             " delete=" + NumberTo(uint64_t(step.refresh.deleted)) +
             " recompute=" + NumberTo(uint64_t(step.refresh.recomputed_groups)) +
             " minmax=" + NumberTo(uint64_t(step.refresh.minmax_recomputes)) +
             "\n";
    }
    for (size_t child : children[i]) self(self, child, depth + 1);
  };
  for (size_t root : roots) render(render, root, 0);
  return out;
}

std::string ExplainResult::ToDot(const ExplainRenderOptions& options) const {
  std::string out = "digraph explain {\n";
  out += "  rankdir=BT;\n";
  out += "  node [shape=box];\n";
  out += "  base [label=\"base changes\"];\n";
  for (const ExplainStep& step : steps) {
    std::string label = step.view;
    label += "\\nest delta=" + NumberTo(step.estimated_delta_rows);
    if (step.has_actuals) {
      label += "\\nact delta=" + NumberTo(uint64_t(step.actual_delta_rows));
      if (options.include_timings) {
        label += "\\n" + NumberTo(step.seconds) + "s";
      }
    }
    if (step.has_refresh) {
      label += "\\nrefresh +" + NumberTo(uint64_t(step.refresh.inserted)) +
               " ~" + NumberTo(uint64_t(step.refresh.updated)) + " -" +
               NumberTo(uint64_t(step.refresh.deleted)) + " r" +
               NumberTo(uint64_t(step.refresh.recomputed_groups));
    }
    out += "  " + DotQuote(step.view) + " [label=\"" + label + "\"];\n";
  }
  for (const ExplainStep& step : steps) {
    if (step.source == "base") {
      out += "  base -> " + DotQuote(step.view);
      if (step.edge_disabled) {
        out += " [style=dashed, label=\"edge disabled\"]";
      }
      out += ";\n";
    } else {
      out += "  " + DotQuote(step.source) + " -> " + DotQuote(step.view);
      if (!step.joins.empty()) {
        std::string label = "join:";
        for (const std::string& j : step.joins) label += " " + j;
        out += " [label=\"" + label + "\"]";
      }
      out += ";\n";
    }
  }
  out += "}\n";
  return out;
}

obs::Json ExplainResult::ToJson(const ExplainRenderOptions& options) const {
  obs::Json doc = obs::Json::Object();
  doc.Set("schema", obs::Json::Str("sdelta.explain.v1"));
  doc.Set("analyzed", obs::Json::Bool(analyzed));
  doc.Set("plan", obs::Json::Str(plan_source));
  obs::Json step_array = obs::Json::Array();
  for (const ExplainStep& step : steps) {
    obs::Json s = obs::Json::Object();
    s.Set("view", obs::Json::Str(step.view));
    s.Set("source", obs::Json::Str(step.source));
    obs::Json joins = obs::Json::Array();
    for (const std::string& j : step.joins) joins.Append(obs::Json::Str(j));
    s.Set("joins", std::move(joins));
    s.Set("edge_disabled", obs::Json::Bool(step.edge_disabled));
    s.Set("wave", obs::Json::Int(int64_t(step.wave)));
    obs::Json est = obs::Json::Object();
    est.Set("groups", obs::Json::Double(step.estimated_groups));
    est.Set("input_rows", obs::Json::Double(step.estimated_input_rows));
    est.Set("delta_rows", obs::Json::Double(step.estimated_delta_rows));
    est.Set("cost", obs::Json::Double(step.estimated_cost));
    s.Set("estimated", std::move(est));
    if (step.has_actuals) {
      obs::Json act = obs::Json::Object();
      act.Set("input_rows", obs::Json::Int(int64_t(step.actual_input_rows)));
      act.Set("delta_rows", obs::Json::Int(int64_t(step.actual_delta_rows)));
      if (options.include_timings) {
        act.Set("seconds", obs::Json::Double(step.seconds));
      }
      obs::Json ops = obs::Json::Object();
      exec::ForEachOperator(
          step.ops, [&](const char* name, const exec::OperatorCounters& c) {
            if (c.calls == 0) return;
            obs::Json op = obs::Json::Object();
            op.Set("calls", obs::Json::Int(int64_t(c.calls)));
            op.Set("rows_in", obs::Json::Int(int64_t(c.rows_in)));
            op.Set("rows_out", obs::Json::Int(int64_t(c.rows_out)));
            op.Set("morsels", obs::Json::Int(int64_t(c.morsels)));
            op.Set("batches", obs::Json::Int(int64_t(c.batches)));
            if (options.include_timings) {
              op.Set("seconds", obs::Json::Double(c.wall_seconds));
            }
            ops.Set(name, std::move(op));
          });
      act.Set("operators", std::move(ops));
      if (step.ops.hash_join.calls > 0) {
        act.Set("join_build_rows",
                obs::Json::Int(int64_t(step.ops.join_build_rows)));
        act.Set("join_probe_rows",
                obs::Json::Int(int64_t(step.ops.join_probe_rows)));
      }
      s.Set("actual", std::move(act));
    }
    if (step.has_refresh) {
      obs::Json r = obs::Json::Object();
      r.Set("inserted", obs::Json::Int(int64_t(step.refresh.inserted)));
      r.Set("updated", obs::Json::Int(int64_t(step.refresh.updated)));
      r.Set("deleted", obs::Json::Int(int64_t(step.refresh.deleted)));
      r.Set("recomputed_groups",
            obs::Json::Int(int64_t(step.refresh.recomputed_groups)));
      r.Set("recompute_scan_rows",
            obs::Json::Int(int64_t(step.refresh.recompute_scan_rows)));
      r.Set("minmax_recomputes",
            obs::Json::Int(int64_t(step.refresh.minmax_recomputes)));
      s.Set("refresh", std::move(r));
    }
    step_array.Append(std::move(s));
  }
  doc.Set("steps", std::move(step_array));
  return doc;
}

ExplainResult BuildExplain(const rel::Catalog& catalog,
                           const VLattice& lattice,
                           const MaintenancePlan& plan,
                           const core::ChangeSet& changes) {
  ExplainResult result;
  bool any_edge = false;
  for (const PlanStep& step : plan.steps) {
    any_edge = any_edge || step.edge.has_value();
  }
  result.plan_source = any_edge ? "lattice" : "direct";

  // Same gating predicate as PropagateAll: an edge is unusable when a
  // dimension table it re-joins has a delta in this change set.
  auto edge_usable = [&](const VLatticeEdge& edge) {
    for (const core::DimensionJoin& j : edge.recipe.joins) {
      auto it = changes.dimensions.find(j.dim_table);
      if (it != changes.dimensions.end() && !it->second.empty()) return false;
    }
    return true;
  };

  // Estimated rows of the prepare-changes relation for a compute-from-
  // base step: the fact delta itself plus, per changed dimension the
  // view joins, the expected fan-in of dimension-delta rows through the
  // fact table (§4.1.4's signed join expansion).
  auto base_input_estimate = [&](const core::AugmentedView& view) {
    double est = static_cast<double>(changes.fact.size());
    const double fact_rows = static_cast<double>(
        catalog.GetTable(view.physical.fact_table).NumRows());
    for (const core::DimensionJoin& j : view.physical.joins) {
      auto it = changes.dimensions.find(j.dim_table);
      if (it == changes.dimensions.end() || it->second.empty()) continue;
      const double dim_rows = static_cast<double>(
          std::max<size_t>(catalog.GetTable(j.dim_table).NumRows(), 1));
      est += static_cast<double>(it->second.size()) * fact_rows / dim_rows;
    }
    return est;
  };

  // Per-view estimated delta cardinality, for edge steps' input sizes.
  std::vector<double> est_delta_of(lattice.views.size(), 0);
  std::vector<size_t> wave_of(lattice.views.size(), 0);

  for (const PlanStep& step : plan.steps) {
    ExplainStep ex;
    const core::AugmentedView& view = lattice.views[step.view];
    ex.view = view.name();
    const bool via_edge =
        step.edge.has_value() && edge_usable(lattice.edges[*step.edge]);
    ex.edge_disabled = step.edge.has_value() && !via_edge;
    if (via_edge) {
      const VLatticeEdge& edge = lattice.edges[*step.edge];
      ex.source = lattice.views[edge.parent].name();
      for (const core::DimensionJoin& j : edge.recipe.joins) {
        ex.joins.push_back(j.dim_table);
      }
      ex.wave = wave_of[edge.parent] + 1;
      ex.estimated_input_rows = est_delta_of[edge.parent];
    } else {
      ex.source = "base";
      ex.wave = 0;
      ex.estimated_input_rows = base_input_estimate(view);
    }
    ex.estimated_groups = step.estimated_groups;
    ex.estimated_delta_rows =
        std::min(step.estimated_groups, ex.estimated_input_rows);
    ex.estimated_cost = step.estimated_cost;
    est_delta_of[step.view] = ex.estimated_delta_rows;
    wave_of[step.view] = ex.wave;
    result.steps.push_back(std::move(ex));
  }
  return result;
}

void AttachActuals(const std::vector<StepExecution>& step_execs,
                   ExplainResult* explain) {
  const size_t n = std::min(step_execs.size(), explain->steps.size());
  for (size_t i = 0; i < n; ++i) {
    const StepExecution& ex = step_execs[i];
    ExplainStep& step = explain->steps[i];
    step.has_actuals = true;
    step.actual_input_rows = ex.input_rows;
    step.actual_delta_rows = ex.delta_rows;
    step.seconds = ex.seconds;
    step.ops = ex.ops;
  }
  explain->analyzed = true;
}

}  // namespace sdelta::lattice
