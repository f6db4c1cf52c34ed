#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace sdelta::perfbench {

std::vector<Span> SpanRecorder::Take() {
  std::vector<Span> out;
  {
    std::scoped_lock lock(mu_);
    out.swap(spans_);
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::vector<Span>& spans,
                                    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"trace\":%llu",
                 s.name, static_cast<unsigned long long>(s.trace),
                 s.start_s * 1e6, s.duration_s() * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace));
    for (const auto& [k, v] : s.attrs) {
      std::fprintf(f, ",\"%s\":%.17g", k, v);
    }
    std::fprintf(f, "}}%s\n", i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace sdelta::perfbench
