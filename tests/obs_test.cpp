// herd::obs — registry, snapshot, tracer, and bench-report schema tests.
//
// Covers the observability contract the rest of the repo leans on:
//   - MetricRegistry registration is strict (duplicate / malformed names
//     throw) and snapshots are deterministic;
//   - two identically-seeded testbed runs produce identical snapshots and
//     byte-identical Chrome trace exports;
//   - a trace holds sampled requests only, and one request's spans appear
//     in simulated-time order (client post, PCIe, wire, RNIC RX, MICA op,
//     TX);
//   - the request probe closes the roots of requests still in flight at
//     export, marked incomplete, and leaves other open spans as "B";
//   - Snapshot round-trips through JSON;
//   - validate_bench_json accepts what BenchReport writes and rejects
//     documents that drift from the herd-bench/1 schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "herd/testbed.hpp"
#include "kv/partition.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"

namespace herd::obs {
namespace {

// ---------------------------------------------------------------- registry

TEST(MetricRegistry, LinksAndSnapshotsTypedHandles) {
  MetricRegistry reg;
  Counter c;
  Gauge g;
  reg.link("rnic.host0.rx_ops", &c);
  reg.link("herd.utilization", &g);
  c.inc(41);
  ++c;
  g.set(0.75);

  Snapshot s = reg.snapshot();
  EXPECT_EQ(s.value("rnic.host0.rx_ops"), 42u);
  EXPECT_DOUBLE_EQ(s.gauge("herd.utilization"), 0.75);
  EXPECT_TRUE(s.has("rnic.host0.rx_ops"));
  EXPECT_FALSE(s.has("rnic.host1.rx_ops"));
  EXPECT_EQ(s.value("rnic.host1.rx_ops"), 0u);  // absent reads as zero
}

TEST(MetricRegistry, DuplicateNameThrows) {
  MetricRegistry reg;
  Counter a, b;
  reg.link("fabric.loss", &a);
  EXPECT_THROW(reg.link("fabric.loss", &b), std::logic_error);
  // The kind does not matter: a gauge cannot squat on a counter name either.
  Gauge g;
  EXPECT_THROW(reg.link("fabric.loss", &g), std::logic_error);
}

TEST(MetricRegistry, MalformedNameThrows) {
  MetricRegistry reg;
  Counter c;
  EXPECT_THROW(reg.link("", &c), std::logic_error);
  EXPECT_THROW(reg.link("has space", &c), std::logic_error);
  EXPECT_THROW(reg.link("emoji.\xf0\x9f\x90\x9b", &c), std::logic_error);
}

TEST(MetricRegistry, CallbackMetricsEvaluateAtSnapshotTime) {
  MetricRegistry reg;
  std::uint64_t backing = 1;
  reg.counter_fn("derived.total", [&] { return backing; });
  backing = 7;  // mutated after registration, before snapshot
  EXPECT_EQ(reg.snapshot().value("derived.total"), 7u);
}

// ---------------------------------------------------------------- snapshot

TEST(Snapshot, JsonRoundTripPreservesEverything) {
  Snapshot s;
  s.set_counter("a.b", 3);
  s.set_counter("a.c", 0);
  s.set_gauge("g.x", 1.5);
  HistogramStats h;
  h.count = 10;
  h.min = 100;
  h.max = 9000;
  h.mean_ns = 4.5;
  h.p50_ns = 4.0;
  h.p95_ns = 8.0;
  h.p99_ns = 9.0;
  s.set_histogram("lat.e2e", h);

  Snapshot back = Snapshot::from_json(Json::parse(s.to_json().dump()));
  EXPECT_EQ(back, s);
}

TEST(Snapshot, SerializationIsSorted) {
  // Deterministic exports need a canonical key order regardless of
  // registration order.
  Snapshot s;
  s.set_counter("z.last", 1);
  s.set_counter("a.first", 2);
  std::string text = s.to_json().dump();
  EXPECT_LT(text.find("a.first"), text.find("z.last"));
}

// ------------------------------------------------------------------ tracer

TEST(Tracer, ChromeJsonIsValidAndDeterministic) {
  auto build = [] {
    Tracer t;
    t.span("client", "request", sim::us(1), sim::us(5));
    t.span("rnic", "rx", sim::us(2), sim::us(3), "bytes=64");
    t.instant("rnic", "qp_cache_miss", sim::us(2));
    return t;
  };
  std::string a = build().chrome_json();
  std::string b = build().chrome_json();
  EXPECT_EQ(a, b);

  Json doc = Json::parse(a);
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // 3 recorded events + thread_name metadata for the two tracks.
  EXPECT_GE(events->size(), 5u);
}

// --------------------------------------------- causal spans (herd-trace/2)

TEST(Tracer, SpanBeginEndExportsCompleteEventWithCausalArgs) {
  Tracer t;
  TraceCtx root_ctx{0x300000007ULL, 0};
  SpanId root = t.span_begin("client0", "request", sim::us(1), "seq=7",
                             root_ctx);
  ASSERT_NE(root, 0u);
  EXPECT_EQ(t.open_spans(), 1u);
  t.span("client0", "client_post", sim::us(1), sim::us(2), {},
         TraceCtx{0x300000007ULL, root});
  t.span_end(root, sim::us(9));
  EXPECT_EQ(t.open_spans(), 0u);

  Json doc = Json::parse(t.chrome_json());
  EXPECT_EQ(doc.find("schema")->as_string(), kTraceSchema);
  EXPECT_TRUE(validate_trace_json(doc).empty());
  // Both spans export as complete "X" events carrying the trace id; the
  // child's parent arg names the root span.
  int xs = 0;
  bool saw_child = false;
  for (const Json& e : doc.find("traceEvents")->elements()) {
    const Json* ph = e.find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    ++xs;
    const Json* args = e.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("trace")->as_string(), "0x300000007");
    if (e.find("name")->as_string() == "client_post") {
      saw_child = true;
      EXPECT_EQ(args->find("parent")->as_uint(), root);
    }
  }
  EXPECT_EQ(xs, 2);
  EXPECT_TRUE(saw_child);
}

TEST(Tracer, SpanEndOnUnknownIdIsIgnored) {
  Tracer t;
  SpanId id = t.span_begin("proc0", "drr_wait", sim::us(3));
  t.span_end(id + 7, sim::us(4));  // bogus id: no effect
  EXPECT_EQ(t.open_spans(), 1u);
  t.span_end(id, sim::us(4));
  t.span_end(id, sim::us(5));  // double close: no effect, no crash
  EXPECT_EQ(t.open_spans(), 0u);
}

TEST(Tracer, OpenSpanExportsBPhaseWhichValidatorRejects) {
  Tracer t;
  t.span_begin("proc0", "drr_wait", sim::us(3));
  EXPECT_EQ(t.open_spans(), 1u);
  Json doc = Json::parse(t.chrome_json());
  std::vector<std::string> problems = validate_trace_json(doc);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("unpaired begin-span"), std::string::npos);
}

// The "request" events of an export (pointers into `doc`).
std::vector<const Json*> request_events(const Json& doc) {
  std::vector<const Json*> out;
  for (const Json& e : doc.find("traceEvents")->elements()) {
    const Json* name = e.find("name");
    if (name != nullptr && name->as_string() == "request") out.push_back(&e);
  }
  return out;
}

bool marked_incomplete(const Json& e) {
  const Json* args = e.find("args");
  return args != nullptr && args->find("incomplete") != nullptr;
}

TEST(RequestProbe, ExportClosesOnlyInFlightRequestRoots) {
  RequestProbe probe;
  probe.enable(1);
  auto args = [] { return std::string("seq=1"); };
  TraceCtx ctx = probe.begin_request("client0", 7, sim::us(1), args);
  ASSERT_TRUE(ctx.sampled());
  EXPECT_EQ(probe.in_flight(), 1u);

  // Mid-flight export: the root exports closed at the export time and
  // marked incomplete; nothing in the tracer or profiler changes.
  Json doc = Json::parse(probe.chrome_json(sim::us(4)));
  EXPECT_TRUE(validate_trace_json(doc).empty());
  std::vector<const Json*> req = request_events(doc);
  ASSERT_EQ(req.size(), 1u);
  EXPECT_EQ(req[0]->find("ph")->as_string(), "X");
  EXPECT_EQ(req[0]->find("dur")->as_double(), 3.0);
  EXPECT_TRUE(marked_incomplete(*req[0]));
  EXPECT_EQ(req[0]->find("args")->find("detail")->as_string(), "seq=1");
  EXPECT_EQ(probe.tracer().open_spans(), 1u);
  EXPECT_EQ(probe.tail().finished(), 0u);
  EXPECT_EQ(probe.tail().in_flight(), 1u);

  // A span opened outside the probe is not the probe's to close.
  probe.tracer().span_begin("proc0", "drr_wait", sim::us(2));
  std::vector<std::string> problems =
      validate_trace_json(Json::parse(probe.chrome_json(sim::us(4))));
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unpaired begin-span \"drr_wait\""),
            std::string::npos);

  // The request ends later and closes its root as usual.
  probe.end_request(ctx, sim::us(6), "ok", "net_out");
  EXPECT_EQ(probe.in_flight(), 0u);
  EXPECT_EQ(probe.tail().finished(), 1u);
  probe.end_request(ctx, sim::us(9), "ok", "net_out");  // no effect
  doc = Json::parse(probe.chrome_json(sim::us(10)));
  req = request_events(doc);
  ASSERT_EQ(req.size(), 1u);
  EXPECT_EQ(req[0]->find("dur")->as_double(), 5.0);
  EXPECT_FALSE(marked_incomplete(*req[0]));
}

TEST(RequestProbe, SamplesEveryNthRequestAndRecordsOnlyItsMarks) {
  RequestProbe probe;
  EXPECT_FALSE(probe.begin_request("client0", 1, 0, NoArgs{}).sampled());
  probe.enable(3);
  std::vector<std::uint64_t> sampled;
  for (std::uint64_t id = 1; id <= 9; ++id) {
    sim::Tick at = id * sim::us(1);
    TraceCtx ctx = probe.begin_request("client0", id, at, NoArgs{});
    probe.mark(ctx, "proc0", {.trace = "serve_get", .tail = "mica_op"},
               at + 1);
    probe.mark(ctx, "proc0", {.trace = "mica_op"}, at, at + 2);
    if (ctx.sampled()) {
      sampled.push_back(ctx.trace_id);
      probe.end_request(ctx, at + 3, "ok", "net_out");
    }
  }
  EXPECT_EQ(sampled, (std::vector<std::uint64_t>{3, 6, 9}));
  // Three events per sampled request (root, serve_get, mica_op), none for
  // the six unsampled ones; the empty span is not recorded either.
  probe.mark(TraceCtx{3, 1}, "proc0", {.trace = "drr_wait"}, sim::us(5),
             sim::us(5));
  ASSERT_EQ(probe.tracer().size(), 9u);
  for (const Tracer::Event& e : probe.tracer().events()) {
    EXPECT_NE(std::find(sampled.begin(), sampled.end(), e.trace_id),
              sampled.end())
        << e.name;
  }
  EXPECT_EQ(probe.tail().finished(), 3u);
}

TEST(TraceValidator, RejectsSchemaDrift) {
  Tracer t;
  t.span("client", "request", sim::us(1), sim::us(5), {}, TraceCtx{7, 0});
  Json doc = Json::parse(t.chrome_json());
  ASSERT_TRUE(validate_trace_json(doc).empty());
  doc["schema"] = Json("herd-trace/1");
  EXPECT_FALSE(validate_trace_json(doc).empty());
}

TEST(TraceValidator, RejectsEventsWithoutASampledTraceId) {
  // A trace holds sampled requests only: an event with no trace id, or
  // with id 0, belongs to none of them.
  for (std::uint64_t id : {0, 7}) {
    Tracer t;
    t.span("rnic", "rx_WRITE", sim::us(1), sim::us(2), {}, TraceCtx{7, 0});
    t.instant("rnic", "qp_cache_miss", sim::us(1), {}, TraceCtx{id, 0});
    std::vector<std::string> problems =
        validate_trace_json(Json::parse(t.chrome_json()));
    if (id != 0) {
      EXPECT_TRUE(problems.empty());
      continue;
    }
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("\"qp_cache_miss\" carries no sampled trace"),
              std::string::npos)
        << problems[0];
  }
}

// ----------------------------------------------- per-request tail profiler

TEST(TailProfiler, StagesTelescopeExactlyToTotal) {
  TailProfiler tp;
  tp.begin(7, sim::us(10));
  tp.stage(7, "client_post", sim::us(11));
  tp.stage(7, "net_in", sim::us(14));
  tp.stage(7, "mica_op", sim::us(15));
  tp.finish(7, "ok", sim::us(20), "net_out");
  ASSERT_EQ(tp.finished(), 1u);
  const TailProfiler::Sample& s = tp.samples()[0];
  EXPECT_EQ(s.total, sim::us(10));
  sim::Tick sum = 0;
  for (const auto& [name, ticks] : s.stages) sum += ticks;
  EXPECT_EQ(sum, s.total);  // the telescoping invariant, exactly
}

TEST(TailProfiler, ChargeAmortizesWithoutBreakingTheTelescope) {
  // charge() bills a fixed share (the chain-amortization hook) and advances
  // the mark by the same amount, so the residual stage picks up the rest.
  TailProfiler tp;
  tp.begin(9, 0);
  tp.charge(9, "doorbell", sim::us(2));
  tp.finish(9, "ok", sim::us(10), "net_rtt");
  const TailProfiler::Sample& s = tp.samples()[0];
  ASSERT_EQ(s.stages.size(), 2u);
  EXPECT_EQ(s.stages[0].first, "doorbell");
  EXPECT_EQ(s.stages[0].second, sim::us(2));
  EXPECT_EQ(s.stages[1].first, "net_rtt");
  EXPECT_EQ(s.stages[1].second, sim::us(8));
  EXPECT_EQ(s.total, sim::us(10));
}

TEST(TailProfiler, QuantileCutMergesRepeatedStages) {
  TailProfiler tp;
  // One slow request with a stage name charged twice (retry loop shape).
  tp.begin(1, 0);
  tp.stage(1, "backoff_hold", sim::us(3));
  tp.stage(1, "net_out", sim::us(4));
  tp.stage(1, "backoff_hold", sim::us(9));
  tp.finish(1, "ok", sim::us(10), "net_out");
  tp.begin(2, 0);
  tp.finish(2, "ok", sim::us(1), "net_out");

  TailProfiler::QuantileCut cut = tp.quantile("ok", 0.99);
  ASSERT_TRUE(cut.valid);
  EXPECT_EQ(cut.trace_id, 1u);  // p99 of {1us, 10us} is the slow one
  EXPECT_DOUBLE_EQ(cut.total_us, 10.0);
  EXPECT_DOUBLE_EQ(cut.stage_sum_us, cut.total_us);
  double backoff = 0, net = 0;
  for (const auto& [name, us] : cut.stages_us) {
    if (name == "backoff_hold") backoff += us;
    if (name == "net_out") net += us;
  }
  EXPECT_DOUBLE_EQ(backoff, 8.0);  // 3 + 5, merged under one name
  EXPECT_DOUBLE_EQ(net, 2.0);
  EXPECT_FALSE(tp.quantile("deadline", 0.99).valid);
}

TEST(TailProfiler, TailJsonRoundTripsThroughBenchValidator) {
  TailProfiler tp;
  tp.begin(5, 0);
  tp.stage(5, "client_post", sim::us(1));
  tp.finish(5, "ok", sim::us(6), "net_out");
  Json tail = tail_json(tp.quantile("ok", 0.99));
  ASSERT_TRUE(tail.is_object());
  EXPECT_DOUBLE_EQ(tail.find("p99_total_us")->as_double(), 6.0);
  EXPECT_DOUBLE_EQ(tail.find("stage_sum_us")->as_double(), 6.0);

  BenchReport rep(BenchSpec{"fig99", "t", {"A"}});
  rep.add_point("A", 1, {{"Mops", 1.0}}, Attribution{}, tail);
  EXPECT_TRUE(validate_bench_json(rep.to_json()).empty());

  EXPECT_TRUE(tail_json(TailProfiler::QuantileCut{}).is_null());
}

TEST(BenchReport, ValidatorRejectsMalformedTail) {
  auto with_tail = [](Json tail) {
    BenchReport rep(BenchSpec{"fig99", "t", {"A"}});
    rep.add_point("A", 1, {{"Mops", 1.0}}, Attribution{}, tail);
    return validate_bench_json(rep.to_json());
  };
  Json missing_sum = Json::object();
  missing_sum["p99_total_us"] = Json(5.0);
  missing_sum["stages"] = Json::object();
  missing_sum["stages"]["net_out"] = Json(5.0);
  EXPECT_FALSE(with_tail(std::move(missing_sum)).empty());

  Json empty_stages = Json::object();
  empty_stages["p99_total_us"] = Json(5.0);
  empty_stages["stage_sum_us"] = Json(5.0);
  empty_stages["stages"] = Json::object();
  EXPECT_FALSE(with_tail(std::move(empty_stages)).empty());
}

// ------------------------------------------------- end-to-end determinism

core::TestbedConfig traced_config() {
  core::TestbedConfig cfg;
  cfg.herd.n_server_procs = 2;
  cfg.herd.n_clients = 4;
  cfg.herd.window = 4;
  cfg.herd.mica.bucket_count_log2 = 12;
  cfg.herd.mica.log_bytes = 4u << 20;
  cfg.workload.n_keys = 1000;
  cfg.workload.value_len = 32;
  cfg.seed = 42;
  cfg.trace_sample_every = 64;
  return cfg;
}

TEST(ObsDeterminism, IdenticalSeedsIdenticalSnapshotsAndTraces) {
  auto run = [] {
    core::HerdTestbed bed(traced_config());
    bed.run(sim::us(200), sim::us(800));
    return std::pair{bed.snapshot(), bed.trace_json()};
  };
  auto [snap1, trace1] = run();
  auto [snap2, trace2] = run();
  EXPECT_EQ(snap1, snap2);
  EXPECT_EQ(trace1, trace2);  // byte-identical Chrome export
  EXPECT_GT(snap1.counters().size(), 50u);
  EXPECT_GT(trace1.size(), 2u);
}

TEST(ObsDeterminism, TracedRequestSpansAppearInSimTimeOrder) {
  core::HerdTestbed bed(traced_config());
  bed.run(sim::us(200), sim::us(800));
  // Every event of a sampled request carries its trace id, and nothing
  // else is recorded, so one request's path reads straight off the
  // tracer: follow the first request that finished "ok".
  std::uint64_t id = 0;
  for (const TailProfiler::Sample& s : bed.tail().samples()) {
    if (s.outcome == "ok") {
      id = s.trace_id;
      break;
    }
  }
  ASSERT_NE(id, 0u);
  const Tracer::Event* root = nullptr;
  for (const Tracer::Event& e : bed.tracer().events()) {
    if (e.trace_id == id && e.name == "request") root = &e;
  }
  ASSERT_NE(root, nullptr);

  // Earliest start, at or after `t`, of this request's events named
  // `prefix`*.
  auto first = [&](const std::string& prefix, sim::Tick t) {
    sim::Tick best = 0;
    bool found = false;
    for (const Tracer::Event& e : bed.tracer().events()) {
      if (e.trace_id != id || e.start < t ||
          e.name.compare(0, prefix.size(), prefix) != 0) {
        continue;
      }
      if (!found || e.start < best) best = e.start;
      found = true;
    }
    EXPECT_TRUE(found) << prefix;
    return best;
  };

  // client post -> doorbell PIO -> wire -> RNIC RX -> DMA into the request
  // region -> MICA -> response TX, monotone in simulated time and inside
  // the request's root span.
  sim::Tick post = first("client_post", root->start);
  sim::Tick pio = first("pio_write", post);
  sim::Tick wire = first("wire_tx", pio);
  sim::Tick rx = first("rx_", wire);
  sim::Tick dma = first("dma_write", rx);
  sim::Tick serve = first("serve_", dma);
  sim::Tick tx = first("tx_", serve);
  EXPECT_LT(post, pio);
  EXPECT_LT(pio, wire);
  EXPECT_LT(wire, rx);
  EXPECT_LT(rx, dma);
  EXPECT_LT(dma, serve);
  EXPECT_LE(serve, tx);
  EXPECT_LT(tx, root->end);
}

// ------------------------------------- causal propagation across the wire

// Tokened requests, as the resilience and overload features run them.
core::TestbedConfig tokened_traced_config() {
  core::TestbedConfig cfg = traced_config();
  cfg.herd.request_tokens = true;
  return cfg;
}

TEST(TraceE2E, ExportValidatesAndKeepsOneTraceIdAcrossClientAndServer) {
  core::HerdTestbed bed(tokened_traced_config());
  bed.run(sim::us(200), sim::us(800));
  EXPECT_EQ(bed.tracer().open_spans(), 0u);  // every begin reached its end

  Json doc = Json::parse(bed.trace_json());
  EXPECT_TRUE(validate_trace_json(doc).empty());

  // Resolve tid -> track names, then group traced events by trace id. A
  // sampled request must keep ONE id across the client track and the
  // server-side stages (net_in/drr_wait/mica_op/... live on proc tracks).
  std::map<double, std::string> tracks;
  std::map<std::string, std::set<std::string>> tracks_of;  // trace -> tracks
  for (const Json& e : doc.find("traceEvents")->elements()) {
    const Json* ph = e.find("ph");
    if (ph == nullptr) continue;
    if (ph->as_string() == "M") {
      const Json* name = e.find("name");
      if (name != nullptr && name->as_string() == "thread_name") {
        tracks[e.find("tid")->as_double()] =
            e.find("args")->find("name")->as_string();
      }
      continue;
    }
    const Json* args = e.find("args");
    const Json* trace = args == nullptr ? nullptr : args->find("trace");
    if (trace == nullptr || trace->as_string() == "0x0") continue;
    tracks_of[trace->as_string()].insert(
        tracks[e.find("tid")->as_double()]);
  }
  ASSERT_FALSE(tracks_of.empty());
  // Tracks are "<fabric>/<host>/<unit>"; a sampled id must show up on both
  // a client unit and a server proc unit.
  bool crossed = false;
  for (const auto& [id, tr] : tracks_of) {
    bool client = false, server = false;
    for (const std::string& t : tr) {
      if (t.find("/client") != std::string::npos) client = true;
      if (t.find("/proc") != std::string::npos) server = true;
    }
    crossed = crossed || (client && server);
  }
  EXPECT_TRUE(crossed);
}

TEST(TraceE2E, ExportWithRequestsInFlightMarksThemIncomplete) {
  // Every client keeps a sampled request in flight, so the window ends
  // with open request roots.
  core::TestbedConfig cfg = tokened_traced_config();
  cfg.trace_sample_every = 1;
  core::HerdTestbed bed(cfg);
  bed.run(sim::us(50), sim::us(100));
  ASSERT_GT(bed.cluster().probe().in_flight(), 0u);
  std::size_t finished = bed.tail().finished();

  Json doc = Json::parse(bed.trace_json());
  EXPECT_TRUE(validate_trace_json(doc).empty());
  std::size_t incomplete = 0;
  double end_us = sim::to_us(bed.cluster().engine().now());
  for (const Json* e : request_events(doc)) {
    if (!marked_incomplete(*e)) continue;
    ++incomplete;
    EXPECT_EQ(e->find("ph")->as_string(), "X");
    EXPECT_NEAR(e->find("ts")->as_double() + e->find("dur")->as_double(),
                end_us, 1e-6);
  }
  EXPECT_EQ(incomplete, bed.cluster().probe().in_flight());
  EXPECT_EQ(bed.tail().finished(), finished);  // the export finished none

  // Drained, the same requests close for real: nothing is incomplete.
  for (std::size_t i = 0; i < bed.num_clients(); ++i) bed.client(i).stop();
  bed.cluster().engine().run();
  EXPECT_EQ(bed.cluster().probe().in_flight(), 0u);
  doc = Json::parse(bed.trace_json());
  EXPECT_TRUE(validate_trace_json(doc).empty());
  for (const Json* e : request_events(doc)) {
    EXPECT_FALSE(marked_incomplete(*e));
  }
}

TEST(TraceE2E, TailStagesSumExactlyToEndToEndLatency) {
  core::HerdTestbed bed(tokened_traced_config());
  bed.run(sim::us(200), sim::us(800));
  ASSERT_GT(bed.tail().count("ok"), 0u);
  EXPECT_EQ(bed.tail().in_flight(), 0u);
  // Telescoping is exact on ticks; the bench gate allows 1% only for the
  // tick->us rounding of the emitted JSON.
  for (const TailProfiler::Sample& s : bed.tail().samples()) {
    sim::Tick sum = 0;
    for (const auto& [name, ticks] : s.stages) sum += ticks;
    EXPECT_EQ(sum, s.total) << "sample 0x" << std::hex << s.trace_id;
  }
  TailProfiler::QuantileCut cut = bed.tail().quantile("ok", 0.99);
  ASSERT_TRUE(cut.valid);
  EXPECT_NEAR(cut.stage_sum_us, cut.total_us, 0.01 * cut.total_us);
  // Both sides of the wire contributed stages.
  bool server_side = false;
  for (const auto& [name, us] : cut.stages_us) {
    if (name == "mica_op" || name == "net_in") server_side = true;
  }
  EXPECT_TRUE(server_side);
}

// The fig09 point as bench::run_herd runs it (bench/bench_common.cpp) at 5%
// PUT under --bench-trace=64: six processes, 51 clients, no request tokens.
core::TestbedConfig bench_shaped_config(core::RequestMode mode) {
  core::TestbedConfig cfg;
  cfg.herd.n_server_procs = 6;
  cfg.herd.n_clients = 51;
  cfg.herd.window = 4;
  cfg.herd.mode = mode;
  kv::MicaCache::Config machine;
  machine.bucket_count_log2 = 18;
  machine.log_bytes = 192u << 20;
  cfg.herd.mica = kv::PartitionPlan::split(machine, 6).partition(0);
  cfg.workload.get_fraction = 0.95;
  cfg.workload.value_len = 32;
  cfg.workload.n_keys = 1u << 16;
  cfg.trace_sample_every = 64;
  return cfg;
}

// Every finished sampled request shows on a client track and a server proc
// track under its one trace id, and the p99 request's breakdown holds the
// server's stages: the trace context reached the server without any
// request bytes to carry it.
void expect_server_spans(core::RequestMode mode) {
  core::HerdTestbed bed(bench_shaped_config(mode));
  bed.run(sim::us(250), sim::us(250));
  std::map<std::uint64_t, std::pair<bool, bool>> ends;  // client, proc
  for (const Tracer::Event& e : bed.tracer().events()) {
    if (e.trace_id == 0) continue;
    // Tracks are "<fabric>/<host>/<unit>".
    if (e.track.find("/client") != std::string::npos) {
      ends[e.trace_id].first = true;
    }
    if (e.track.find("/proc") != std::string::npos) {
      ends[e.trace_id].second = true;
    }
  }
  ASSERT_GT(bed.tail().count("ok"), 0u);
  for (const TailProfiler::Sample& s : bed.tail().samples()) {
    EXPECT_TRUE(ends[s.trace_id].first) << "0x" << std::hex << s.trace_id;
    EXPECT_TRUE(ends[s.trace_id].second) << "0x" << std::hex << s.trace_id;
  }
  TailProfiler::QuantileCut cut = bed.tail().quantile("ok", 0.99);
  ASSERT_TRUE(cut.valid);
  for (std::string_view stage : {"net_in", "mica_op", "chain_hold"}) {
    EXPECT_TRUE(std::any_of(cut.stages_us.begin(), cut.stages_us.end(),
                            [&](const auto& st) { return st.first == stage; }))
        << stage;
  }
}

TEST(TraceE2E, OnlySampledRequestsAreRecorded) {
  // fig09's shape, sampling every 64th request: every event the tracer
  // holds belongs to a request the probe sampled (its root "request" span
  // names it), the PCIe and wire hops of its WRs included.
  core::HerdTestbed bed(bench_shaped_config(core::RequestMode::kWriteUc));
  bed.run(sim::us(250), sim::us(250));
  std::set<std::uint64_t> sampled;
  for (const Tracer::Event& e : bed.tracer().events()) {
    if (e.name == "request") sampled.insert(e.trace_id);
  }
  ASSERT_FALSE(sampled.empty());
  EXPECT_EQ(sampled.count(0), 0u);
  std::size_t stray = 0;
  std::set<std::string> names;
  for (const Tracer::Event& e : bed.tracer().events()) {
    if (sampled.count(e.trace_id) == 0) ++stray;
    names.insert(e.name);
  }
  EXPECT_EQ(stray, 0u) << "of " << bed.tracer().size() << " events";
  for (const char* hop : {"pio_write", "dma_write", "wire_tx", "wire_rx"}) {
    EXPECT_EQ(names.count(hop), 1u) << hop;
  }
  EXPECT_TRUE(validate_trace_json(Json::parse(bed.trace_json())).empty());
}

TEST(TraceE2E, UntracedRunRecordsNothing) {
  core::TestbedConfig cfg = bench_shaped_config(core::RequestMode::kWriteUc);
  cfg.trace_sample_every = 0;
  core::HerdTestbed bed(cfg);
  bed.run(sim::us(100), sim::us(100));
  EXPECT_EQ(bed.tracer().size(), 0u);
  EXPECT_EQ(bed.tail().finished(), 0u);
}

TEST(TraceE2E, BenchShapedRequestsCarryServerSpans) {
  expect_server_spans(core::RequestMode::kWriteUc);
}

TEST(TraceE2E, BenchShapedSendRequestsCarryServerSpans) {
  expect_server_spans(core::RequestMode::kSendUd);
}

TEST(TraceE2E, TracedRunSimulatesTheUntracedRun) {
  // The trace context is simulator metadata: sampling every 16th request
  // must not move a single simulated event, with every optional request
  // header on.
  auto run = [](std::uint64_t sample_every) {
    core::TestbedConfig cfg = tokened_traced_config();
    cfg.herd.replicate = true;
    cfg.herd.overload.enable = true;
    cfg.trace_sample_every = sample_every;
    core::HerdTestbed bed(cfg);
    core::HerdTestbed::RunResult r = bed.run(sim::us(200), sim::us(800));
    return std::tuple{r, bed.cluster().engine().events_processed(),
                      bed.tail().finished()};
  };
  auto [untraced, untraced_events, untraced_samples] = run(0);
  auto [traced, traced_events, traced_samples] = run(16);
  EXPECT_EQ(untraced_samples, 0u);
  EXPECT_GT(traced_samples, 0u);
  EXPECT_GT(untraced.ops, 0u);
  EXPECT_TRUE(untraced == traced);
  EXPECT_EQ(untraced_events, traced_events);
}

// ------------------------------------------------------------ bench schema

BenchReport sample_report() {
  BenchReport rep(BenchSpec{"fig99", "Test figure", {"WRITE_UC", "READ_RC"}});
  rep.set_config("payload", Json{std::uint64_t{32}});
  rep.add_point("WRITE_UC", 32, {{"Mops", 34.9}});
  rep.add_point("READ_RC", 32, {{"Mops", 26.0}, {"avg_us", 5.0}});
  Snapshot s;
  s.set_counter("rnic.rx_ops", 123);
  rep.set_snapshot(s);
  rep.set_git_rev("deadbeef");
  return rep;
}

TEST(BenchReport, UndeclaredSeriesThrows) {
  BenchReport rep(BenchSpec{"fig99", "t", {"A"}});
  EXPECT_THROW(rep.add_point("B", 1, {{"Mops", 1.0}}), std::logic_error);
}

TEST(BenchReport, ValidatorAcceptsWhatReportWrites) {
  Json doc = Json::parse(sample_report().to_json().dump());
  EXPECT_TRUE(validate_bench_json(doc).empty());
}

TEST(BenchReport, ValidatorRejectsSchemaDrift) {
  auto mutate = [](auto fn) {
    Json doc = sample_report().to_json();
    fn(doc);
    return validate_bench_json(doc);
  };
  EXPECT_FALSE(mutate([](Json& d) { d["schema"] = "herd-bench/0"; }).empty());
  EXPECT_FALSE(mutate([](Json& d) { d["figure"] = Json(); }).empty());
  EXPECT_FALSE(mutate([](Json& d) { d["series"] = Json(); }).empty());
  EXPECT_FALSE(mutate([](Json& d) {
                 Json bad = Json::object();
                 bad["name"] = "X";  // no "points"
                 d["series"].push_back(std::move(bad));
               }).empty());
  EXPECT_FALSE(validate_bench_json(Json::parse("{}")).empty());
  EXPECT_FALSE(validate_bench_json(Json::parse("[1,2]")).empty());
}

}  // namespace
}  // namespace herd::obs
