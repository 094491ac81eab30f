// Planted determinism-taint violation: a simulation-path function reaches
// std::rand() THROUGH a helper defined outside the simulation tree
// (src/util/jitter.hpp), so the per-file determinism rule sees nothing.
// herd_lint MUST flag the call site via the cross-TU call graph.
#pragma once

#include "util/jitter.hpp"

namespace fix {

inline int schedule_retry_tick(int base) {
  return base + fixutil::jitter_ms();  // expect: determinism-taint (transitive entropy)
}

}  // namespace fix
