// Ablation (§3.3, in-text experiment): many-to-one inbound WRITE scaling.
//
// "In a different experiment, we used 1600 client processes spread over 16
//  machines to issue WRITEs over UC to one server process. HERD uses this
//  many-to-one configuration to reduce the number of active connections at
//  the server. This configuration also achieves 30 Mops."
//
// Demonstrates why HERD's request side scales: responder-side UC state is
// tiny, so even 1600 connected QPs keep inbound WRITEs at line rate.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "microbench/throughput.hpp"

namespace {

using namespace herd;
using microbench::TputSpec;

void Ablation_ManyToOne(benchmark::State& state) {
  auto n_procs = static_cast<std::uint32_t>(state.range(0));
  TputSpec spec{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 4, 4};
  microbench::RunRecord r;
  for (auto _ : state) {
    r = microbench::many_to_one_tput(bench::apt(), spec, n_procs, 16,
                                     bench::measure_ticks());
  }
  state.counters["Mops"] = r.value;
  state.SetLabel(std::to_string(n_procs) + " client procs / 16 machines");
  bench::report().add_point("WRITE_UC", n_procs, {{"Mops", r.value}}, r.attr,
                            bench::publish(r));
}

}  // namespace

BENCHMARK(Ablation_ManyToOne)
    ->Arg(100)->Arg(400)->Arg(800)->Arg(1600)
    ->Iterations(1);

HERD_BENCH_MAIN("ablation_many_to_one", "Many-to-one inbound WRITE scaling",
                {"WRITE_UC"})
