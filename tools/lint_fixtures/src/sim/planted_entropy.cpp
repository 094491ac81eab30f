// Lint canary: every call below must be flagged by herd_lint's determinism
// rule. This file is never compiled — it exists so the lint's own test
// suite proves the rules fire (see herd_lint_canary in tools/CMakeLists).
#include <cstdlib>
#include <ctime>

namespace herd::sim {

unsigned long planted_entropy() {
  unsigned long x = static_cast<unsigned long>(rand());  // expect: determinism
  x ^= static_cast<unsigned long>(time(nullptr));        // expect: determinism
  struct timespec ts {};
  clock_gettime(0, &ts);  // expect: determinism
  return x ^ static_cast<unsigned long>(ts.tv_nsec);
}

}  // namespace herd::sim
