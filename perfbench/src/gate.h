#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <cstdint>
#include <string>

#include "relational/catalog.h"
#include "service/versioned.h"

namespace sdelta::perfbench {

/// The correctness gate: every view of `snapshot` must equal a fresh
/// core::SummaryTable(def, mirror).MaterializeFrom(mirror), compared by
/// ToCanonicalTable(). Returns "" when all views match, otherwise a
/// description of the first mismatch.
std::string CheckAgainstMirror(const service::ReadSnapshot& snapshot,
                               const rel::Catalog& mirror);

/// Proves the gate is not vacuous on a small warehouse: a service that
/// received two change sets must pass against a mirror holding both
/// and fail against a mirror missing the second. Returns "" on success,
/// otherwise what went wrong. `dir` is a fresh data directory.
std::string GateSelfTest(const std::string& dir, uint64_t seed);

}  // namespace sdelta::perfbench

#endif  // PERFBENCH_GATE_H_
