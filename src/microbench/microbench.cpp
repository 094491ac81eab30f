#include "microbench/microbench.hpp"

#include "obs/bench_report.hpp"

namespace herd::microbench {

namespace {
bool g_trace_capture = false;  // NOLINT: --bench-trace knob
}  // namespace

void set_trace_capture(bool on) { g_trace_capture = on; }
bool trace_capture() { return g_trace_capture; }

RunRecord measure_rate(cluster::Cluster& cl, const char* source,
                       const std::function<std::uint64_t()>& count,
                       sim::Tick measure) {
  auto& eng = cl.engine();
  eng.run_until(eng.now() + sim::ms(1));  // warm-up
  std::uint64_t before = count();
  // Flight-record the measurement window: 16 fixed-width windows however
  // small `measure` is, so tiny CI runs still carry a usable timeline. The
  // recorder may end with this call: a driver's engine never runs again
  // after its one measured window.
  obs::FlightConfig fc;
  fc.interval = measure / 16 > 0 ? measure / 16 : 1;
  fc.source = source;
  obs::FlightRecorder flight(eng, cl.resources(), &cl.metrics(), fc);
  RunRecord rec;
  rec.attr = obs::measure_window(eng, cl.resources(), &flight, measure);
  rec.timeseries = flight.to_json();
  finish(cl, rec);
  rec.value =
      static_cast<double>(count() - before) / sim::to_sec(measure) / 1e6;
  return rec;
}

void finish(cluster::Cluster& cl, RunRecord& rec) {
  cluster::require_contract_clean(cl);
  rec.snapshot = cl.snapshot();
  rec.tail = obs::tail_json(cl.tail().quantile("ok", 0.99));
  // Only ops stamped under trace capture are recorded, so an untraced run
  // exports nothing.
  if (cl.tracer().size() > 0) rec.trace_json = cl.tracer().chrome_json();
}

}  // namespace herd::microbench
