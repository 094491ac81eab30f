// Planted metric-pairing violation: `ghost_reads` is linked into the
// registry but nothing anywhere increments it — the exported counter is
// forever zero. herd_lint MUST flag the link site.
#pragma once

#include <cstdint>

namespace fix {

struct Registry {
  template <typename T>
  void link(const char*, T*) {}
};

struct Stats {
  std::uint64_t ghost_reads = 0;
  std::uint64_t real_reads = 0;
};

inline void register_all(Registry& reg, Stats& s) {
  reg.link("fix.ghost_reads", &s.ghost_reads);  // expect: metric-pairing (never bumped)
  reg.link("fix.real_reads", &s.real_reads);
}

inline void on_read(Stats& s) { ++s.real_reads; }

}  // namespace fix
