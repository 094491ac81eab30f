// Allocation budget of the simulator's per-event path.
//
// Every modelled hop is one engine event, so a heap allocation on the hop
// path costs a malloc and a free per event. Payloads come from per-context
// slabs, queues are rings that stop growing at their working depth, and
// the verbs tables are dense vectors, so a steady-state HERD window should
// allocate almost nothing. This executable replaces the global operator
// new/delete with counting versions and pins the allocations per processed
// event on closed-loop windows shaped like the two perfbench workloads.
// The same windows pin events per completed op: bookkeeping with
// no modelled action (TX retirements, RX counts, superseded no-op timers)
// takes a reserved place in the event order instead of an event.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "herd/testbed.hpp"
#include "kv/partition.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t n) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_alloc_or_throw(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every replaceable non-aligned form, so no block is allocated by one
// allocator and freed by another.
void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace herd {
namespace {

// Heap allocations made while `fn` runs.
template <class Fn>
std::uint64_t allocations_in(Fn&& fn) {
  std::uint64_t before = g_allocations;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations - before;
}

TEST(AllocBudget, CounterSeesAllocations) {
  std::uint64_t n = allocations_in([] {
    auto p = std::make_unique<std::uint64_t>(7);
    EXPECT_EQ(*p, 7u);
  });
  EXPECT_EQ(n, 1u);
}

// The perfbench testbed: HERD on Apt, 6 server processes, 51 clients with
// 4 requests outstanding each, 2^16 keys, the fig09 MICA sizing, values
// verified on every GET.
core::TestbedConfigBuilder perfbench_config() {
  core::TestbedConfig base;
  base.cluster = cluster::ClusterConfig::apt();
  kv::MicaCache::Config machine;
  machine.bucket_count_log2 = 18;
  machine.log_bytes = 192u << 20;
  base.herd.mica = kv::PartitionPlan::split(machine, 6).partition(0);
  core::TestbedConfigBuilder b(base);
  b.server_procs(6)
      .clients(51)
      .window(4)
      .inline_threshold(144)
      .n_keys(1u << 16)
      .verify_values(true)
      .seed(3);
  return b;
}

struct WindowCost {
  double allocations_per_event = 0;
  double events_per_op = 0;
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
};

// Runs a 1 ms warm-up, which grows every slab, ring and table to its
// working size, then counts allocations and events over a 500 us window.
WindowCost measure_window(const core::TestbedConfig& cfg) {
  core::HerdTestbed bed(cfg);
  bed.run(0, sim::ms(1));

  sim::Engine& engine = bed.cluster().engine();
  const std::uint64_t events0 = engine.events_processed();
  core::HerdTestbed::RunResult r{};
  WindowCost c;
  c.allocations = allocations_in([&] { r = bed.run(0, sim::us(500)); });
  c.events = engine.events_processed() - events0;
  c.ops = r.ops;
  EXPECT_GT(r.ops, 5000u);
  EXPECT_EQ(r.value_mismatches, 0u);
  c.allocations_per_event =
      static_cast<double>(c.allocations) / static_cast<double>(c.events);
  c.events_per_op = static_cast<double>(c.events) / static_cast<double>(r.ops);
  return c;
}

// perfbench's herd_get_small: 95% GETs of 32-byte values over uniform keys.
TEST(AllocBudget, HerdGetSmallWindowStaysUnderBudget) {
  WindowCost c = measure_window(perfbench_config()
                                    .get_fraction(0.95)
                                    .value_len(32)
                                    .zipf(false)
                                    .build());
  EXPECT_LE(c.allocations_per_event, 0.05)
      << c.allocations << " allocations over " << c.events << " events ("
      << c.ops << " ops)";
  EXPECT_LE(c.events_per_op, 9.8) << c.events << " events over " << c.ops
                                  << " ops";
}

// perfbench's herd_put_large_zipf: 50% PUTs of 512-byte values, Zipf 0.99.
// The server holds each request in a pooled slot whose value buffer keeps
// its capacity, so a PUT allocates nothing: 44 allocations over 86607
// events. A server that allocated each PUT's value afresh made 4256 (0.049
// per event), about one per PUT.
TEST(AllocBudget, HerdPutLargeZipfWindowStaysUnderBudget) {
  WindowCost c = measure_window(perfbench_config()
                                    .get_fraction(0.50)
                                    .value_len(512)
                                    .zipf(true, 0.99)
                                    .build());
  EXPECT_LE(c.allocations_per_event, 0.005)
      << c.allocations << " allocations over " << c.events << " events ("
      << c.ops << " ops)";
  EXPECT_LE(c.events_per_op, 10.4) << c.events << " events over " << c.ops
                                   << " ops";
}

}  // namespace
}  // namespace herd
