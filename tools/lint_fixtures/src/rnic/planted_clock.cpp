// Lint canary: std::random_device and host clocks in a simulation path.
#include <chrono>
#include <random>

namespace herd::rnic {

unsigned planted_clock() {
  std::random_device rd;  // expect: determinism (hardware entropy)
  auto now = std::chrono::steady_clock::now();  // expect: determinism (host clock)
  return rd() ^ static_cast<unsigned>(now.time_since_epoch().count());
}

}  // namespace herd::rnic
