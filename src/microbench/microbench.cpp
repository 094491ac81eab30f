#include "microbench/microbench.hpp"

namespace herd::microbench {

namespace {
bool g_trace_capture = false;  // NOLINT: --bench-trace knob
}  // namespace

void set_trace_capture(bool on) { g_trace_capture = on; }
bool trace_capture() { return g_trace_capture; }

RunRecord measure_rate(cluster::Cluster& cl, const char* source,
                       const std::function<std::uint64_t()>& count,
                       sim::Tick measure) {
  cl.record_flight(
      {.interval = obs::flight_interval_for(measure), .source = source});
  std::uint64_t before = 0;
  cl.measure(sim::ms(1), measure, [&] { before = count(); });
  RunRecord rec = cl.record();
  rec.value =
      static_cast<double>(count() - before) / sim::to_sec(measure) / 1e6;
  return rec;
}

}  // namespace herd::microbench
