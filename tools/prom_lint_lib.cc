#include "prom_lint_lib.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>

namespace sdelta::tools {
namespace {

bool IsMetricNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}
bool IsMetricNameChar(char c) {
  return IsMetricNameStart(c) || std::isdigit(static_cast<unsigned char>(c));
}
bool IsLabelNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsLabelNameChar(char c) {
  return IsLabelNameStart(c) || std::isdigit(static_cast<unsigned char>(c));
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || !IsMetricNameStart(name[0])) return false;
  for (char c : name) {
    if (!IsMetricNameChar(c)) return false;
  }
  return true;
}

/// One parsed sample line.
struct Sample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;  // in order
  double value = 0;

  std::optional<std::string> Label(std::string_view key) const {
    for (const auto& [k, v] : labels) {
      if (k == key) return v;
    }
    return std::nullopt;
  }

  /// Canonical series identity: name + sorted label set.
  std::string SeriesKey() const {
    std::map<std::string, std::string> sorted(labels.begin(), labels.end());
    std::string key = name;
    for (const auto& [k, v] : sorted) {
      key += '\x1f';
      key += k;
      key += '=';
      key += v;
    }
    return key;
  }
};

/// Parses the exposition value grammar: a Go-style float, or the
/// specials +Inf / -Inf / NaN.
bool ParseValue(std::string_view text, double* out) {
  if (text == "+Inf" || text == "Inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (text == "-Inf") {
    *out = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (text == "NaN") {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

/// Parses one sample line; returns false with *error set on failure.
bool ParseSample(std::string_view line, Sample* out, std::string* error) {
  size_t i = 0;
  while (i < line.size() && IsMetricNameChar(line[i])) ++i;
  out->name = std::string(line.substr(0, i));
  if (!ValidMetricName(out->name)) {
    *error = "invalid metric name";
    return false;
  }
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (true) {
      if (i < line.size() && line[i] == '}') {
        ++i;
        break;
      }
      size_t name_start = i;
      while (i < line.size() && IsLabelNameChar(line[i])) ++i;
      std::string label(line.substr(name_start, i - name_start));
      if (label.empty() || !IsLabelNameStart(label[0])) {
        *error = "invalid label name";
        return false;
      }
      if (i >= line.size() || line[i] != '=') {
        *error = "expected '=' after label name";
        return false;
      }
      ++i;
      if (i >= line.size() || line[i] != '"') {
        *error = "label value must be quoted";
        return false;
      }
      ++i;
      std::string value;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') {
          ++i;
          if (i >= line.size() ||
              (line[i] != '\\' && line[i] != '"' && line[i] != 'n')) {
            *error = "bad escape in label value";
            return false;
          }
          value.push_back(line[i] == 'n' ? '\n' : line[i]);
        } else {
          value.push_back(line[i]);
        }
        ++i;
      }
      if (i >= line.size()) {
        *error = "unterminated label value";
        return false;
      }
      ++i;  // closing quote
      out->labels.emplace_back(std::move(label), std::move(value));
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < line.size() && line[i] == '}') {
        ++i;
        break;
      }
      *error = "expected ',' or '}' in label block";
      return false;
    }
  }
  if (i >= line.size() || line[i] != ' ') {
    *error = "expected space before value";
    return false;
  }
  ++i;
  // Value, optionally followed by a timestamp (which we never emit but
  // the format allows).
  size_t value_end = line.find(' ', i);
  std::string_view value_text = line.substr(
      i, value_end == std::string_view::npos ? std::string_view::npos
                                             : value_end - i);
  if (!ParseValue(value_text, &out->value)) {
    *error = "unparseable sample value '" + std::string(value_text) + "'";
    return false;
  }
  if (value_end != std::string_view::npos) {
    int64_t ts = 0;
    std::string_view ts_text = line.substr(value_end + 1);
    const auto [ptr, ec] =
        std::from_chars(ts_text.data(), ts_text.data() + ts_text.size(), ts);
    if (ec != std::errc() || ptr != ts_text.data() + ts_text.size()) {
      *error = "unparseable timestamp";
      return false;
    }
  }
  return true;
}

/// Per-family accumulated state, checked when the family ends.
struct FamilyState {
  std::string name;
  std::string type;
  int declared_line = 0;
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  std::optional<double> sum;
  std::optional<double> count;
  size_t samples = 0;
};

class Linter {
 public:
  std::vector<std::string> Run(std::string_view text) {
    int line_no = 0;
    size_t pos = 0;
    while (pos <= text.size()) {
      const size_t eol = text.find('\n', pos);
      std::string_view line = text.substr(
          pos, eol == std::string_view::npos ? std::string_view::npos
                                             : eol - pos);
      ++line_no;
      if (eol == std::string_view::npos) {
        if (!line.empty()) {
          Error(line_no, "final line is missing its trailing newline");
          LintLine(line, line_no);
        }
        break;
      }
      LintLine(line, line_no);
      pos = eol + 1;
    }
    FinishFamily(line_no);
    CrossFamilyChecks();
    return std::move(errors_);
  }

 private:
  void Error(int line_no, std::string message) {
    errors_.push_back("line " + std::to_string(line_no) + ": " +
                      std::move(message));
  }

  void LintLine(std::string_view line, int line_no) {
    if (line.empty()) return;
    if (line[0] == '#') {
      LintComment(line, line_no);
      return;
    }
    Sample sample;
    std::string error;
    if (!ParseSample(line, &sample, &error)) {
      Error(line_no, error);
      return;
    }
    if (!seen_series_.insert(sample.SeriesKey()).second) {
      Error(line_no, "duplicate series '" + sample.name + "'");
    }
    if (sample.labels.empty()) {
      scalar_values_[sample.name] = sample.value;
    }
    // The diagnostic-layer families are all counts: any negative sample
    // is an exporter bug regardless of the declared type.
    if ((sample.name.rfind("sdelta_events_", 0) == 0 ||
         sample.name.rfind("sdelta_anomaly_", 0) == 0) &&
        !(sample.value >= 0)) {
      Error(line_no, "'" + sample.name + "' must be non-negative");
    }
    LintSampleAgainstFamily(sample, line_no);
  }

  void LintComment(std::string_view line, int line_no) {
    // "# HELP name text" / "# TYPE name type"; any other comment is fine.
    if (line.rfind("# HELP ", 0) != 0 && line.rfind("# TYPE ", 0) != 0) {
      return;
    }
    const bool is_type = line.rfind("# TYPE ", 0) == 0;
    std::string_view rest = line.substr(7);
    const size_t space = rest.find(' ');
    std::string name(rest.substr(0, space));
    if (!ValidMetricName(name)) {
      Error(line_no, "invalid metric name in HELP/TYPE comment");
      return;
    }
    if (!is_type) {
      if (space == std::string_view::npos || space + 1 >= rest.size()) {
        Error(line_no, "HELP comment has no help text");
      }
      return;
    }
    std::string type(space == std::string_view::npos ? ""
                                                     : rest.substr(space + 1));
    if (type != "counter" && type != "gauge" && type != "histogram" &&
        type != "summary" && type != "untyped") {
      Error(line_no, "unknown metric type '" + type + "'");
      return;
    }
    FinishFamily(line_no);
    if (!declared_families_.insert(name).second) {
      Error(line_no, "family '" + name + "' declared twice");
    }
    family_ = FamilyState{};
    family_.name = std::move(name);
    family_.type = std::move(type);
    family_.declared_line = line_no;
  }

  void LintSampleAgainstFamily(const Sample& sample, int line_no) {
    if (family_.name.empty()) {
      Error(line_no,
            "sample '" + sample.name + "' precedes any TYPE declaration");
      return;
    }
    const std::string& fam = family_.name;
    if (family_.type == "counter") {
      if (sample.name != fam) {
        Error(line_no, "sample '" + sample.name +
                           "' does not belong to counter family '" + fam +
                           "'");
        return;
      }
      ++family_.samples;
      if (fam.size() < 6 || fam.compare(fam.size() - 6, 6, "_total") != 0) {
        Error(line_no, "counter '" + fam + "' lacks the _total suffix");
      }
      if (!(sample.value >= 0)) {
        Error(line_no, "counter '" + fam + "' has a negative value");
      }
      return;
    }
    if (family_.type == "gauge" || family_.type == "untyped") {
      if (sample.name != fam) {
        Error(line_no, "sample '" + sample.name +
                           "' does not belong to family '" + fam + "'");
      }
      ++family_.samples;
      return;
    }
    if (family_.type == "histogram" || family_.type == "summary") {
      ++family_.samples;
      if (sample.name == fam + "_bucket") {
        const std::optional<std::string> le = sample.Label("le");
        if (!le.has_value()) {
          Error(line_no, "histogram bucket without an le label");
          return;
        }
        double bound = 0;
        if (!ParseValue(*le, &bound)) {
          Error(line_no, "unparseable le value '" + *le + "'");
          return;
        }
        family_.buckets.emplace_back(bound, sample.value);
        return;
      }
      if (sample.name == fam + "_sum") {
        family_.sum = sample.value;
        return;
      }
      if (sample.name == fam + "_count") {
        family_.count = sample.value;
        return;
      }
      if (sample.name == fam) {
        if (family_.type == "summary") {
          // Summaries legitimately carry quantile-labelled samples of
          // the family name itself.
          if (!sample.Label("quantile").has_value()) {
            Error(line_no, "bare sample on summary family '" + fam +
                               "' without a quantile label");
          }
        } else {
          // A histogram family may only contain _bucket/_sum/_count
          // series; quantile samples belong in their own family
          // (export_prometheus emits <name>_quantiles).
          Error(line_no, "histogram family '" + fam +
                             "' may only contain _bucket/_sum/_count "
                             "series");
        }
        return;
      }
      Error(line_no, "sample '" + sample.name +
                         "' does not belong to histogram family '" + fam +
                         "'");
      return;
    }
  }

  /// End-of-family checks (called when the next TYPE line or EOF ends
  /// the current family).
  void FinishFamily(int line_no) {
    if (family_.name.empty()) return;
    const std::string& fam = family_.name;
    const int at = family_.declared_line;
    if (family_.samples == 0) {
      Error(line_no, "family '" + fam + "' (line " + std::to_string(at) +
                         ") has no samples");
    }
    if (family_.type == "histogram") {
      if (family_.buckets.empty()) {
        Error(line_no, "histogram '" + fam + "' has no buckets");
      } else {
        double prev_le = -std::numeric_limits<double>::infinity();
        double prev_count = 0;
        for (const auto& [le, count] : family_.buckets) {
          if (!(le > prev_le)) {
            Error(line_no,
                  "histogram '" + fam + "' le values are not ascending");
            break;
          }
          if (count + 1e-9 < prev_count) {
            Error(line_no, "histogram '" + fam +
                               "' bucket counts are not cumulative");
            break;
          }
          prev_le = le;
          prev_count = count;
        }
        if (!std::isinf(family_.buckets.back().first)) {
          Error(line_no,
                "histogram '" + fam + "' is missing the le=\"+Inf\" bucket");
        } else if (family_.count.has_value() &&
                   family_.buckets.back().second != *family_.count) {
          Error(line_no, "histogram '" + fam +
                             "' +Inf bucket does not equal _count");
        }
      }
      if (!family_.sum.has_value()) {
        Error(line_no, "histogram '" + fam + "' is missing _sum");
      }
      if (!family_.count.has_value()) {
        Error(line_no, "histogram '" + fam + "' is missing _count");
      }
    }
    family_ = FamilyState{};
  }

  /// Whole-document invariants between the diagnostic-layer families
  /// (events.* gauges, anomaly.* counters). Each check only fires when
  /// both series are present, so documents from services with those
  /// subsystems off still lint clean.
  void CrossFamilyChecks() {
    auto value = [&](const char* name) -> std::optional<double> {
      const auto it = scalar_values_.find(name);
      if (it == scalar_values_.end()) return std::nullopt;
      return it->second;
    };
    auto require_le = [&](const char* smaller, const char* larger) {
      const std::optional<double> a = value(smaller);
      const std::optional<double> b = value(larger);
      if (a.has_value() && b.has_value() && *a > *b) {
        errors_.push_back(std::string("document: '") + smaller + "' (" +
                          std::to_string(*a) + ") exceeds '" + larger +
                          "' (" + std::to_string(*b) + ")");
      }
    };
    require_le("sdelta_events_dropped", "sdelta_events_recorded");
    require_le("sdelta_events_occupancy", "sdelta_events_capacity");
    require_le("sdelta_anomaly_detections_total",
               "sdelta_anomaly_checks_total");
    require_le("sdelta_anomaly_bundles_pruned_total",
               "sdelta_anomaly_bundles_written_total");
    // Every bundle is triggered by at least one detection.
    require_le("sdelta_anomaly_bundles_written_total",
               "sdelta_anomaly_detections_total");
  }

  std::vector<std::string> errors_;
  std::map<std::string, double> scalar_values_;
  std::set<std::string> seen_series_;
  std::set<std::string> declared_families_;
  FamilyState family_;
};

}  // namespace

std::vector<std::string> LintPrometheusText(std::string_view text) {
  return Linter().Run(text);
}

}  // namespace sdelta::tools
