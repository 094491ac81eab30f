// perfbench driver: runs one HERD workload once, in this process, and prints
// one JSON object that perfbench/run.py aggregates over repetitions.
//
//   perfbench_driver --workload herd_get_small --seed 7
//                    --warmup-ms 1 --measure-ms 8 [--traced]
//
// Two kinds of numbers come out. "sim" numbers are simulated time and
// simulated counts: deterministic for a fixed seed. "host" numbers are the
// simulator's own cost, taken with steady_clock and getrusage around the
// calls into the testbed, so they depend on the machine. The driver only
// calls the testbed's public API: it reads the registry snapshot, the
// resource registry, per-process MICA stats and the tail profiler, and it
// records every request's latency through the HistoryObserver hook.
//
// Exit status: 0 when the run completed (the JSON lists any correctness
// failures under "failures"), 2 on bad arguments or a rejected config.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "herd/observer.hpp"
#include "herd/testbed.hpp"
#include "kv/partition.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"

namespace {

using namespace herd;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double warmup_ms = 1.0;
  double measure_ms = 8.0;
  bool traced = false;
};

// The traced run samples one request in 64: about a thousand sampled
// requests per 4 ms window, enough for a p99 stage breakdown, while the
// span buffer stays under 1 GB.
constexpr std::uint64_t kTraceEvery = 64;

// The seven request stages the HERD client and service mark on a traced
// request (client issue to client retire). The p99 request's stages must
// all be present and sum to its end-to-end latency.
constexpr std::string_view kTailStages[] = {
    "client_post", "net_out", "net_in",  "drr_wait",
    "mica_op",     "chain_hold", "doorbell"};

// Host cost at one instant: wall clock, user+sys CPU, minor page faults and
// the peak resident set so far.
struct HostSample {
  double wall_s = 0;
  double cpu_s = 0;
  double minflt = 0;
  double maxrss_mb = 0;

  static HostSample now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    HostSample h;
    h.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count();
    h.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                  1e6;
    h.minflt = static_cast<double>(ru.ru_minflt);
    h.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
    return h;
  }
};

// Fixed reference work, timed in the same process right before set-up: how
// fast the machine currently zero-fills fresh memory (what set-up spends its
// time on) and runs an event-heap loop with random reads from a 64 MiB table
// (what a run spends its time on). On a shared machine both drift by tens of
// percent within minutes; run.py divides host times by them. This code is
// independent of the simulator, so a change to the simulator cannot move it.
struct Calibration {
  double fault_s = 0;  // wall time to zero-fill 64 MiB of fresh memory
  double heap_s = 0;   // CPU time of 400k heap pops and pushes
};

Calibration calibrate() {
  volatile std::uint64_t sink = 0;  // keeps the reference work observable
  Calibration c;
  {
    HostSample t0 = HostSample::now();
    std::vector<std::uint64_t> fresh(8u << 20);
    HostSample t1 = HostSample::now();
    c.fault_s = t1.wall_s - t0.wall_s;
    sink = sink + fresh[fresh.size() / 2];
  }
  struct Event {
    std::uint64_t t;
    std::uint64_t seq;
    std::function<void()> cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  std::vector<std::uint64_t> table(8u << 20);
  for (std::size_t i = 0; i < table.size(); i += 512) table[i] = i;
  std::priority_queue<Event, std::vector<Event>, Later> heap;
  std::mt19937_64 rng(7);
  std::uint64_t seq = 0;
  std::uint64_t acc = 0;
  auto callback = [&acc](std::uint64_t v) { return [&acc, v] { acc += v; }; };
  for (std::uint64_t i = 0; i < 2000; ++i) {
    heap.push(Event{rng() >> 40, seq++, callback(i)});
  }
  HostSample t0 = HostSample::now();
  for (std::uint64_t i = 0; i < 400000; ++i) {
    Event e = heap.top();
    heap.pop();
    e.cb();
    acc += table[(e.t * 0x9E3779B97F4A7C15ULL >> 20) % table.size()];
    heap.push(Event{e.t + (rng() >> 50), seq++, callback(i)});
  }
  HostSample t1 = HostSample::now();
  c.heap_s = t1.cpu_s - t0.cpu_s;
  sink = sink + acc;
  return c;
}

// Exact per-request latency, in simulated ticks, of every request that
// completes after open_window(t). The client's own histogram keeps only
// 1/32-octave bucket edges; these samples give the exact quantiles, and the
// histogram is used as a cross-check. It also fingerprints the stream of
// operations the clients issue, so a test can see that the seed reaches the
// workload generators.
class LatencyRecorder final : public core::HistoryObserver {
 public:
  explicit LatencyRecorder(std::size_t n_clients) : starts_(n_clients) {}

  void open_window(sim::Tick after) {
    after_ = after;
    samples_.clear();
  }
  const std::vector<sim::Tick>& samples() const { return samples_; }
  std::uint64_t op_stream() const { return op_stream_; }

  void on_invoke(std::uint32_t client, std::uint64_t seq,
                 const workload::Op& op, sim::Tick now) override {
    starts_.at(client)[seq] = now;
    op_stream_ = (op_stream_ ^ (op.key.hi + client)) * 0x100000001b3ULL;
    op_stream_ = (op_stream_ ^ static_cast<std::uint64_t>(op.type)) *
                 0x100000001b3ULL;
  }
  void on_response(std::uint32_t client, std::uint64_t seq,
                   core::RespStatus /*status*/,
                   std::span<const std::byte> /*value*/,
                   sim::Tick now) override {
    auto& open = starts_.at(client);
    auto it = open.find(seq);
    if (it == open.end()) return;
    if (now > after_) samples_.push_back(now - it->second);
    open.erase(it);
  }
  void on_deadline(std::uint32_t client, std::uint64_t seq,
                   sim::Tick /*now*/) override {
    starts_.at(client).erase(seq);
  }
  void on_apply(std::uint32_t, std::uint32_t, const kv::KeyHash&, bool, bool,
                sim::Tick) override {}

 private:
  std::vector<std::unordered_map<std::uint64_t, sim::Tick>> starts_;
  sim::Tick after_ = std::numeric_limits<sim::Tick>::max();
  std::vector<sim::Tick> samples_;
  std::uint64_t op_stream_ = 0xcbf29ce484222325ULL;
};

// Nearest-rank quantile of sorted ticks (the rank rule
// sim::LatencyHistogram::quantile_ns uses).
sim::Tick quantile(const std::vector<sim::Tick>& sorted, double q) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double to_us(sim::Tick t) { return static_cast<double>(t) / 1e6; }

struct MicaTotals {
  double gets = 0, get_hits = 0, get_stale = 0, index_evictions = 0,
         log_wraps = 0;
};

MicaTotals mica_totals(core::HerdTestbed& bed, std::uint32_t procs) {
  MicaTotals t;
  for (std::uint32_t s = 0; s < procs; ++s) {
    const kv::MicaCache::Stats& st = bed.service().proc_cache(s).stats();
    t.gets += static_cast<double>(st.gets);
    t.get_hits += static_cast<double>(st.get_hits);
    t.get_stale += static_cast<double>(st.get_stale);
    t.index_evictions += static_cast<double>(st.index_evictions);
    t.log_wraps += static_cast<double>(st.log_wraps);
  }
  return t;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

core::TestbedConfig make_config(const Options& o) {
  core::TestbedConfig base;
  base.cluster = cluster::ClusterConfig::apt();
  // One machine-wide MICA budget split into per-core EREW partitions, the
  // sizing the fig09 bench uses (2^15 buckets and a 32 MB log per process).
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
      .seed(o.seed);
  if (o.workload == "herd_get_small") {
    b.get_fraction(0.95).value_len(32).zipf(false);
  } else if (o.workload == "herd_put_large_zipf") {
    b.get_fraction(0.50).value_len(512).zipf(true, 0.99);
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  if (o.traced) {
    sim::Tick measure = sim::ms(o.measure_ms);
    b.request_tokens(true)
        .trace(true)
        .trace_sample_every(kTraceEvery)
        .flight_interval(std::max<sim::Tick>(measure / 16, 1));
  }
  return b.build();
}

// Utilization and p99 queueing delay of one registered resource over the
// measure window.
void resource_metrics(const obs::ResourceRegistry& reg, const std::string& name,
                      const std::string& key, bool with_queue,
                      obs::Json& layer, std::vector<std::string>& failures) {
  const sim::Resource* r = reg.find(name);
  if (r == nullptr) {
    failures.push_back("resource " + name + " is not registered");
    return;
  }
  layer[key + "_util"] = r->utilization();
  if (with_queue) {
    const sim::Resource::StageStats* st = r->stage_stats();
    layer[key + "_queue_p99_ns"] = st != nullptr ? st->queue.p99_ns() : 0.0;
  }
}

obs::Json run(const Options& o) {
  std::vector<std::string> failures;
  core::TestbedConfig cfg = make_config(o);
  const std::uint32_t procs = cfg.herd.n_server_procs;
  LatencyRecorder lat(cfg.herd.n_clients);
  cfg.observer = &lat;

  const Calibration cal = calibrate();

  // --- set-up ---------------------------------------------------------------
  HostSample h0 = HostSample::now();
  auto bed = std::make_unique<core::HerdTestbed>(cfg);
  HostSample h1 = HostSample::now();

  // --- warm-up, then the measure window -------------------------------------
  bed->run(0, sim::ms(o.warmup_ms));
  sim::Engine& engine = bed->cluster().engine();
  obs::Snapshot before = bed->snapshot();
  MicaTotals mica0 = mica_totals(*bed, procs);
  std::uint64_t events0 = engine.events_processed();
  lat.open_window(engine.now());

  HostSample h2 = HostSample::now();
  core::HerdTestbed::RunResult r = bed->run(0, sim::ms(o.measure_ms));
  HostSample h3 = HostSample::now();
  const double events =
      static_cast<double>(engine.events_processed() - events0);

  // --- end-of-run report (the part obs.report_s times) -----------------------
  HostSample h4 = HostSample::now();
  obs::Snapshot after = bed->snapshot();
  obs::Attribution attr = obs::attribute(bed->cluster().resources());
  std::string timeseries = bed->timeseries_json().dump();
  HostSample h5 = HostSample::now();

  // --- correctness gates -----------------------------------------------------
  try {
    cluster::require_contract_clean(bed->cluster());
  } catch (const std::logic_error& e) {
    std::string what = e.what();
    failures.push_back(what.substr(0, what.find('\n')));
  }
  if (r.value_mismatches != 0) {
    failures.push_back(std::to_string(r.value_mismatches) +
                       " GET values differ from what was written");
  }
  if (r.bad != 0) {
    failures.push_back(std::to_string(r.bad) + " bad requests/responses");
  }
  if (r.duplicate_mutations != 0) {
    failures.push_back(std::to_string(r.duplicate_mutations) +
                       " duplicate mutations applied");
  }
  if (!(r.mops > 0)) failures.push_back("no request completed");

  std::vector<sim::Tick> sorted = lat.samples();
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() != r.ops) {
    failures.push_back("observer saw " + std::to_string(sorted.size()) +
                       " completions, the clients counted " +
                       std::to_string(r.ops));
  }
  const double p50 = to_us(quantile(sorted, 0.50));
  const double p99 = to_us(quantile(sorted, 0.99));
  const sim::Tick p999_ticks = quantile(sorted, 0.999);
  // The exact quantile must fall inside the client histogram bucket whose
  // upper edge the histogram reports (buckets are at most 1/32 octave).
  auto hist = after.histograms().find("client.latency");
  if (hist == after.histograms().end()) {
    failures.push_back("client.latency histogram missing");
  } else {
    auto check = [&](const char* what, double exact_us, double edge_ns) {
      double edge_us = edge_ns / 1e3;
      if (exact_us > edge_us * (1 + 1e-9) ||
          exact_us < edge_us * (1 - 1.0 / 32) - 1e-9) {
        failures.push_back(std::string(what) + " exact " +
                           std::to_string(exact_us) +
                           " us outside the histogram bucket ending at " +
                           std::to_string(edge_us) + " us");
      }
    };
    check("p50", p50, hist->second.p50_ns);
    check("p99", p99, hist->second.p99_ns);
  }

  // --- per-layer numbers over the measure window -----------------------------
  const double ops = static_cast<double>(r.ops);
  auto delta = [&](const std::string& name) {
    return static_cast<double>(after.value(name)) -
           static_cast<double>(before.value(name));
  };
  const std::size_t hosts = bed->cluster().size();
  double client_doorbells = 0, retransmissions = 0;
  for (std::size_t i = 0; i < hosts; ++i) {
    std::string idx = std::to_string(i);
    if (i > 0) client_doorbells += delta("pcie.host" + idx + ".doorbells");
    retransmissions += delta("rnic.host" + idx + ".retransmissions");
  }

  obs::Json layer = obs::Json::object();
  layer["sim.events_per_op"] = ratio(events, ops);
  layer["sim.host_ns_per_event"] = ratio((h3.cpu_s - h2.cpu_s) * 1e9, events);
  layer["cluster.setup_minor_faults"] = h1.minflt - h0.minflt;
  layer["cluster.run_minor_faults"] = h3.minflt - h2.minflt;

  const obs::ResourceRegistry& res = bed->cluster().resources();
  resource_metrics(res, "pcie.host0.pio", "pcie.server.pio", false, layer,
                   failures);
  resource_metrics(res, "pcie.host0.dma_rd", "pcie.server.dma_rd", true,
                   layer, failures);
  resource_metrics(res, "pcie.host0.dma_wr", "pcie.server.dma_wr", false,
                   layer, failures);
  layer["pcie.server.doorbells_per_op"] =
      ratio(delta("pcie.host0.doorbells"), ops);
  layer["pcie.server.dma_read_bytes_per_op"] =
      ratio(delta("pcie.host0.dma_read_bytes"), ops);
  layer["pcie.clients.doorbells_per_op"] = ratio(client_doorbells, ops);

  resource_metrics(res, "rnic.host0.dispatch", "rnic.server.dispatch", true,
                   layer, failures);
  resource_metrics(res, "rnic.host0.rx", "rnic.server.rx", false, layer,
                   failures);
  resource_metrics(res, "rnic.host0.tx", "rnic.server.tx", false, layer,
                   failures);
  layer["rnic.server.wqe_fetches_per_op"] =
      ratio(delta("rnic.host0.wqe_fetches"), ops);
  const double qp_hits = delta("rnic.host0.qp_cache_hits");
  layer["rnic.server.qp_cache_hit_ratio"] =
      ratio(qp_hits, qp_hits + delta("rnic.host0.qp_cache_misses"));
  layer["rnic.retransmissions"] = retransmissions;

  resource_metrics(res, "fabric.host0.tx", "fabric.server.tx", false, layer,
                   failures);
  resource_metrics(res, "fabric.host0.rx", "fabric.server.rx", false, layer,
                   failures);
  // Wire bytes follow from link busy time: every transmit direction is busy
  // for wire_bytes / link rate, and link_gbps is in GB/s
  // (sim::bytes_at_gbps).
  double tx_busy_s = 0;
  for (const obs::ResourceRegistry::Entry& e : res.entries()) {
    if (e.name.starts_with("fabric.") && e.name.ends_with(".tx")) {
      tx_busy_s += e.resource->utilization() * o.measure_ms / 1e3;
    }
  }
  layer["fabric.bytes_per_op"] = ratio(
      tx_busy_s * bed->cluster().config().fabric.link_gbps * 1e9, ops);

  // verbs.host0.chain_len records chain lengths as ticks; HistogramStats
  // reports its mean in ns (ticks / 1000).
  auto chain_b = before.histograms().find("verbs.host0.chain_len");
  auto chain_a = after.histograms().find("verbs.host0.chain_len");
  if (chain_b != before.histograms().end() &&
      chain_a != after.histograms().end()) {
    const double n0 = static_cast<double>(chain_b->second.count);
    const double n1 = static_cast<double>(chain_a->second.count);
    layer["verbs.server.chain_len_mean"] =
        ratio((chain_a->second.mean_ns * n1 - chain_b->second.mean_ns * n0) *
                  1e3,
              n1 - n0);
  } else {
    failures.push_back("verbs.host0.chain_len histogram missing");
  }
  layer["verbs.contract_violations"] =
      static_cast<double>(bed->contract_violations());

  MicaTotals mica1 = mica_totals(*bed, procs);
  layer["kv.get_hit_ratio"] =
      ratio(mica1.get_hits - mica0.get_hits, mica1.gets - mica0.gets);
  layer["kv.get_stale"] = mica1.get_stale - mica0.get_stale;
  layer["kv.index_evictions"] = mica1.index_evictions - mica0.index_evictions;
  layer["kv.log_wraps"] = mica1.log_wraps - mica0.log_wraps;

  std::vector<double> per_proc = bed->per_proc_mops();
  double proc_sum = 0, proc_max = 0;
  for (double m : per_proc) {
    proc_sum += m;
    proc_max = std::max(proc_max, m);
  }
  layer["herd.proc_imbalance"] =
      ratio(proc_max, proc_sum / static_cast<double>(per_proc.size()));
  // service.* and client.* counters restart with every run() window.
  layer["herd.resp_chain_mean"] =
      ratio(static_cast<double>(after.value("service.resp_chained")),
            static_cast<double>(after.value("service.resp_chains")));
  layer["herd.client_retries"] = static_cast<double>(r.retries);
  layer["herd.bad"] = static_cast<double>(r.bad);
  layer["attr.bottleneck_util"] = attr.bottleneck_utilization;

  if (o.traced) {
    obs::TailProfiler::QuantileCut cut = bed->tail().quantile("ok", 0.99);
    if (!cut.valid) {
      failures.push_back("traced run recorded no sampled request");
    } else {
      for (std::string_view stage : kTailStages) {
        auto it = std::find_if(
            cut.stages_us.begin(), cut.stages_us.end(),
            [&](const auto& s) { return s.first == stage; });
        if (it == cut.stages_us.end()) {
          failures.push_back("tail stage " + std::string(stage) +
                             " missing from the p99 request");
        }
        layer["tail." + std::string(stage) + "_us"] =
            it == cut.stages_us.end() ? 0.0 : it->second;
      }
      if (std::abs(cut.stage_sum_us - cut.total_us) > 0.01 * cut.total_us) {
        failures.push_back("tail stages sum to " +
                           std::to_string(cut.stage_sum_us) + " us, p99 is " +
                           std::to_string(cut.total_us) + " us");
      }
      layer["tail.total_us"] = cut.total_us;
      layer["tail.sampled_ops"] =
          static_cast<double>(bed->tail().count("ok"));
    }
  }

  // --- teardown --------------------------------------------------------------
  const std::uint64_t issued = after.value("client.issued");
  const std::uint64_t failed =
      r.deadline_exceeded + r.bad + r.value_mismatches;
  const std::string bottleneck = attr.bottleneck;
  bed.reset();
  HostSample h6 = HostSample::now();

  const auto beyond_p999 = static_cast<std::uint64_t>(
      sorted.end() -
      std::upper_bound(sorted.begin(), sorted.end(), p999_ticks));

  obs::Json sim_j = obs::Json::object();
  sim_j["sim_mops"] = r.mops;
  sim_j["sim_p50_us"] = p50;
  sim_j["sim_p99_us"] = p99;
  sim_j["sim_p999_us"] = to_us(p999_ticks);
  sim_j["ops"] = r.ops;
  sim_j["beyond_p999"] = beyond_p999;
  sim_j["events"] = static_cast<std::uint64_t>(events);
  sim_j["op_stream"] = lat.op_stream();

  obs::Json host_j = obs::Json::object();
  host_j["setup_s"] = h1.wall_s - h0.wall_s;
  host_j["run_cpu_s"] = h3.cpu_s - h2.cpu_s;
  host_j["run_wall_s"] = h3.wall_s - h2.wall_s;
  host_j["report_s"] = h5.wall_s - h4.wall_s;
  host_j["wall_s"] = h6.wall_s - h0.wall_s;
  host_j["peak_rss_mb"] = h6.maxrss_mb;
  host_j["host_kops_per_cpu_s"] = ratio(ops / 1e3, h3.cpu_s - h2.cpu_s);
  host_j["cal_fault_s"] = cal.fault_s;
  host_j["cal_heap_s"] = cal.heap_s;

  obs::Json fail_j = obs::Json::array();
  for (const std::string& f : failures) fail_j.push_back(f);

  obs::Json out = obs::Json::object();
  out["workload"] = o.workload;
  out["seed"] = o.seed;
  out["traced"] = o.traced;
  out["attempted"] = issued;
  out["failed"] = failed;
  out["bottleneck"] = bottleneck;
  out["timeseries_bytes"] = static_cast<std::uint64_t>(timeseries.size());
  out["failures"] = std::move(fail_j);
  out["sim"] = std::move(sim_j);
  out["host"] = std::move(host_j);
  out["layer"] = std::move(layer);
  return out;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--traced") {
      o.traced = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return false;
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      continue;
    }
    if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (a == "--warmup-ms") {
      o.warmup_ms = std::strtod(v, &end);
    } else if (a == "--measure-ms") {
      o.measure_ms = std::strtod(v, &end);
    } else {
      return false;
    }
    if (end == v || *end != '\0') return false;
  }
  return !o.workload.empty() && o.warmup_ms > 0 && o.measure_ms > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: %s --workload herd_get_small|herd_put_large_zipf "
                 "--seed N [--warmup-ms MS] [--measure-ms MS] [--traced]\n",
                 argv[0]);
    return 2;
  }
  try {
    std::printf("%s\n", run(o).dump().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  return 0;
}
