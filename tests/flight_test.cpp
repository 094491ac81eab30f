// Tests for the herd::obs flight recorder, resource registry, and
// bottleneck attribution (src/obs/flight.*).
//
// The paper-facing claims pinned here: attribution names pcie.pio on a
// PIO-bound outbound config and pcie.dma_wr on a DMA-starved inbound
// config (the Fig. 4 / Fig. 3 knees), and the exported herd-timeseries/1
// document is byte-identical across same-seed runs — the property chaos
// replay and the CI artifact diffing both lean on.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "herd/testbed.hpp"
#include "microbench/microbench.hpp"
#include "microbench/throughput.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace {

using namespace herd;
using sim::ns;
using sim::us;

// Const-side member access: Json::operator[] is mutating (object builder),
// so reads on const values go through find().
const obs::Json& get(const obs::Json& j, std::string_view key) {
  const obs::Json* p = j.find(key);
  if (p == nullptr) {
    ADD_FAILURE() << "missing key: " << key;
    static const obs::Json null;
    return null;
  }
  return *p;
}

std::uint64_t u64(const obs::Json& j, std::string_view key) {
  return get(j, key).as_uint();
}

TEST(ResourceRegistry, EntriesSortedAndFindable) {
  sim::Engine eng;
  sim::Resource a(eng, "b.res");
  sim::Resource b(eng, "a.res");
  obs::ResourceRegistry reg;
  reg.add("b.res", a);
  reg.add("a.res", b);
  ASSERT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.entries()[0].name, "a.res");
  EXPECT_EQ(reg.entries()[1].name, "b.res");
  EXPECT_TRUE(reg.has("a.res"));
  EXPECT_FALSE(reg.has("c.res"));
  EXPECT_EQ(reg.find("b.res"), &a);
}

TEST(ResourceRegistry, DuplicateNameThrows) {
  sim::Engine eng;
  sim::Resource a(eng, "x");
  sim::Resource b(eng, "x");
  obs::ResourceRegistry reg;
  reg.add("x", a);
  EXPECT_THROW(reg.add("x", b), std::logic_error);
}

TEST(ResourceRegistry, AddEnablesStageStatsAndBeginWindowResets) {
  sim::Engine eng;
  sim::Resource r(eng, "x");
  obs::ResourceRegistry reg;
  reg.add("x", r);
  ASSERT_NE(r.stage_stats(), nullptr);  // registration turned them on
  r.acquire(ns(10));
  eng.run_until(ns(10));
  reg.begin_window();
  EXPECT_EQ(r.ops(), 0u);
  eng.run_until(ns(20));
  EXPECT_EQ(r.utilization(), 0.0);  // busy time before the window is gone
}

TEST(ResourceClass, StripsHostComponents) {
  EXPECT_EQ(obs::resource_class("pcie.host0.pio"), "pcie.pio");
  EXPECT_EQ(obs::resource_class("rnic.host12.dispatch"), "rnic.dispatch");
  EXPECT_EQ(obs::resource_class("fabric.host3.tx"), "fabric.tx");
  EXPECT_EQ(obs::resource_class("pcie.pio"), "pcie.pio");  // already a class
  EXPECT_EQ(obs::resource_class("hostname.thing"), "hostname.thing");
}

TEST(Attribute, NamesMaxUtilizationClassAndSkipsIdle) {
  sim::Engine eng;
  sim::Resource busy0(eng, "pcie.host0.pio");
  sim::Resource busy1(eng, "pcie.host1.pio");
  sim::Resource mild(eng, "rnic.host0.tx");
  sim::Resource idle(eng, "rnic.host0.rx");
  obs::ResourceRegistry reg;
  reg.add("pcie.host0.pio", busy0);
  reg.add("pcie.host1.pio", busy1);
  reg.add("rnic.host0.tx", mild);
  reg.add("rnic.host0.rx", idle);

  busy0.acquire(ns(50));
  busy1.acquire(ns(90));
  mild.acquire(ns(20));
  eng.run_until(ns(100));

  obs::Attribution attr = obs::attribute(reg);
  ASSERT_FALSE(attr.empty());
  EXPECT_EQ(attr.bottleneck, "pcie.pio");
  EXPECT_EQ(attr.bottleneck_resource, "pcie.host1.pio");  // the max instance
  EXPECT_NEAR(attr.bottleneck_utilization, 0.9, 1e-9);
  // Idle rnic.rx did no work: only two classes appear, util-descending.
  ASSERT_EQ(attr.stages.size(), 2u);
  EXPECT_EQ(attr.stages[0].stage, "pcie.pio");
  EXPECT_EQ(attr.stages[0].ops, 2u);  // summed across instances
  EXPECT_EQ(attr.stages[1].stage, "rnic.tx");
}

TEST(Attribute, EmptyWhenNoWork) {
  sim::Engine eng;
  sim::Resource r(eng, "pcie.host0.pio");
  obs::ResourceRegistry reg;
  reg.add("pcie.host0.pio", r);
  eng.run_until(ns(100));
  EXPECT_TRUE(obs::attribute(reg).empty());
  EXPECT_TRUE(obs::attribute(reg).to_json().is_null());
}

TEST(FlightRecorder, RejectsNonsenseConfig) {
  sim::Engine eng;
  obs::ResourceRegistry reg;
  obs::FlightConfig bad;
  bad.interval = 0;
  EXPECT_THROW(obs::FlightRecorder(eng, reg, nullptr, bad),
               std::invalid_argument);
  bad.interval = 1;
  bad.ring = 0;
  EXPECT_THROW(obs::FlightRecorder(eng, reg, nullptr, bad),
               std::invalid_argument);
}

TEST(FlightRecorder, SamplesFixedWindowsWithDeltas) {
  sim::Engine eng;
  sim::Resource r(eng, "pcie.host0.pio");
  obs::ResourceRegistry reg;
  reg.add("pcie.host0.pio", r);

  obs::FlightConfig fc;
  fc.interval = ns(100);
  fc.source = "test";
  obs::FlightRecorder fl(eng, reg, nullptr, fc);
  fl.start();
  // Busy exactly in the first window, idle in the second.
  r.acquire(ns(60));
  eng.run_until(ns(200));
  fl.stop();

  ASSERT_EQ(fl.windows(), 2u);
  obs::Json doc = fl.to_json();
  EXPECT_EQ(doc["schema"].as_string(), "herd-timeseries/1");
  EXPECT_EQ(doc["source"].as_string(), "test");
  EXPECT_EQ(doc["interval_ns"].as_uint(), ns(100));
  const obs::Json& w0 = doc["windows"].elements()[0];
  const obs::Json& w1 = doc["windows"].elements()[1];
  EXPECT_EQ(get(w0, "busy_ns").elements()[0].as_uint(), ns(60));
  EXPECT_EQ(get(w0, "ops").elements()[0].as_uint(), 1u);
  EXPECT_NEAR(get(w0, "util").elements()[0].as_double(), 0.6, 1e-9);
  EXPECT_EQ(get(w1, "busy_ns").elements()[0].as_uint(), 0u);
  EXPECT_EQ(get(w1, "ops").elements()[0].as_uint(), 0u);
  EXPECT_TRUE(obs::validate_timeseries_json(doc).empty());
}

TEST(FlightRecorder, StopClosesPartialWindowAndDrainTerminates) {
  sim::Engine eng;
  sim::Resource r(eng, "x");
  obs::ResourceRegistry reg;
  reg.add("x", r);
  obs::FlightConfig fc;
  fc.interval = ns(100);
  obs::FlightRecorder fl(eng, reg, nullptr, fc);
  fl.start();
  r.acquire(ns(30));
  eng.run_until(ns(150));  // one full window + half of the next
  fl.stop();
  EXPECT_FALSE(fl.running());
  ASSERT_EQ(fl.windows(), 2u);  // [0,100) + partial [100,150)
  obs::Json doc = fl.to_json();
  EXPECT_EQ(u64(doc["windows"].elements()[1], "t_end_ns"), ns(150));
  // The self-rescheduling tick must not keep the engine alive forever.
  eng.run();
  SUCCEED();
}

TEST(FlightRecorder, RingEvictsOldestAndCountsDropped) {
  sim::Engine eng;
  sim::Resource r(eng, "x");
  obs::ResourceRegistry reg;
  reg.add("x", r);
  obs::FlightConfig fc;
  fc.interval = ns(10);
  fc.ring = 3;
  obs::FlightRecorder fl(eng, reg, nullptr, fc);
  fl.start();
  eng.run_until(ns(100));  // 10 full windows
  fl.stop();
  EXPECT_EQ(fl.windows(), 3u);
  EXPECT_EQ(fl.dropped_windows(), 7u);
  obs::Json doc = fl.to_json();
  EXPECT_EQ(doc["dropped_windows"].as_uint(), 7u);
  // Retained windows are the newest three, with original indices.
  EXPECT_EQ(u64(doc["windows"].elements()[0], "index"), 7u);
  // last_n narrows further and accounts the rest as dropped.
  obs::Json tail = fl.to_json(1);
  EXPECT_EQ(tail["windows"].size(), 1u);
  EXPECT_EQ(u64(tail["windows"].elements()[0], "index"), 9u);
  EXPECT_EQ(tail["dropped_windows"].as_uint(), 9u);
}

TEST(FlightRecorder, CounterDeltasPerWindow) {
  sim::Engine eng;
  obs::ResourceRegistry reg;
  obs::MetricRegistry metrics;
  obs::Counter c;
  metrics.link("rnic.tx_ops", &c);
  obs::FlightConfig fc;
  fc.interval = ns(100);
  obs::FlightRecorder fl(eng, reg, &metrics, fc);
  c.inc(5);  // pre-start activity must not leak into the first window
  fl.start();
  eng.schedule_at(ns(50), [&] { c.inc(3); });
  eng.schedule_at(ns(150), [&] { c.inc(4); });
  eng.run_until(ns(200));
  fl.stop();
  obs::Json doc = fl.to_json();
  const auto& wins = doc["windows"].elements();
  ASSERT_EQ(wins.size(), 2u);
  EXPECT_EQ(u64(get(wins[0], "counters"), "rnic.tx_ops"), 3u);
  EXPECT_EQ(u64(get(wins[1], "counters"), "rnic.tx_ops"), 4u);
}

TEST(FlightRecorder, RestartDiscardsStaleTicksAndOldWindows) {
  sim::Engine eng;
  sim::Resource r(eng, "x");
  obs::ResourceRegistry reg;
  reg.add("x", r);
  obs::FlightConfig fc;
  fc.interval = ns(50);
  obs::FlightRecorder fl(eng, reg, nullptr, fc);
  fl.start();
  eng.run_until(ns(100));
  fl.stop();
  EXPECT_EQ(fl.windows(), 2u);
  fl.start();  // restart: ring clears, stale scheduled ticks are inert
  eng.run_until(ns(200));
  fl.stop();
  EXPECT_EQ(fl.windows(), 2u);  // only the second epoch's windows
  obs::Json doc = fl.to_json();
  EXPECT_EQ(u64(doc["windows"].elements()[0], "t_begin_ns"), ns(100));
}

TEST(TimeseriesSchema, CatchesShapeDrift) {
  sim::Engine eng;
  sim::Resource r(eng, "x");
  obs::ResourceRegistry reg;
  reg.add("x", r);
  obs::FlightConfig fc;
  fc.interval = ns(100);
  obs::FlightRecorder fl(eng, reg, nullptr, fc);
  fl.start();
  eng.run_until(ns(100));
  fl.stop();
  obs::Json doc = fl.to_json();
  ASSERT_TRUE(obs::validate_timeseries_json(doc).empty());

  obs::Json bad = doc;
  bad["schema"] = obs::Json("herd-timeseries/2");
  EXPECT_FALSE(obs::validate_timeseries_json(bad).empty());

  // Window arrays are parallel to "resources": growing the name list
  // desynchronizes them and must be caught.
  bad = doc;
  bad["resources"].push_back(obs::Json("phantom"));
  EXPECT_FALSE(obs::validate_timeseries_json(bad).empty());

  bad = doc;
  bad["interval_ns"] = obs::Json(0.0);
  EXPECT_FALSE(obs::validate_timeseries_json(bad).empty());

  EXPECT_FALSE(obs::validate_timeseries_json(obs::Json()).empty());
}

// --- end-to-end attribution through the microbench drivers ----------------

microbench::TputSpec outbound_inline_spec(std::uint32_t payload) {
  microbench::TputSpec spec;
  spec.opcode = verbs::Opcode::kWrite;
  spec.transport = verbs::Transport::kUc;
  spec.inlined = true;
  spec.payload = payload;
  spec.window = 8;
  spec.signal_every = 4;
  return spec;
}

// Fig. 4's right side: a 192 B inline WRITE carries a 4-cacheline WQE. Before
// doorbell batching the PIO path saturated first; with WR chains only the
// head of each chain crosses PIO and the rest of the WQEs are fetched by DMA,
// so the bottleneck moves out to the wire. (The per-WR doorbell canary,
// --bench-canary=per-wr-doorbell, restores per-WR doorbells and with them
// the pcie.pio ceiling.)
TEST(AttributionE2E, OutboundLargeInlineWriteNoLongerPioBound) {
  const microbench::RunRecord r = microbench::outbound_tput(
      cluster::ClusterConfig::apt(), outbound_inline_spec(192), 16, us(250));
  ASSERT_FALSE(r.attr.empty());
  EXPECT_NE(r.attr.bottleneck, "pcie.pio");
  EXPECT_EQ(r.attr.bottleneck, "fabric.tx");
}

// Fig. 4's left side: a 4 B inline WRITE is one cacheline; the RNIC tx
// pipeline, not PIO, limits throughput.
TEST(AttributionE2E, OutboundSmallInlineWriteIsRnicBound) {
  const microbench::RunRecord r = microbench::outbound_tput(
      cluster::ClusterConfig::apt(), outbound_inline_spec(4), 16, us(250));
  ASSERT_FALSE(r.attr.empty());
  EXPECT_EQ(r.attr.bottleneck, "rnic.tx");
}

// Inbound WRITEs land via DMA; starving the DMA-write path makes it the
// named bottleneck. A single client keeps the fabric rx port below
// saturation (many clients fan 16x line rate into one port, which
// saturates fabric.rx first and would mask the DMA stage).
TEST(AttributionE2E, InboundWriteWithStarvedDmaIsDmaBound) {
  cluster::ClusterConfig cc = cluster::ClusterConfig::apt();
  cc.pcie.dma_write_gbps = 1.0;
  microbench::TputSpec spec;
  spec.opcode = verbs::Opcode::kWrite;
  spec.transport = verbs::Transport::kUc;
  spec.inlined = false;
  spec.payload = 256;
  spec.window = 8;
  const microbench::RunRecord r =
      microbench::inbound_tput(cc, spec, 1, us(250));
  ASSERT_FALSE(r.attr.empty());
  EXPECT_EQ(r.attr.bottleneck, "pcie.dma_wr");
}

// Same seed, same config => byte-identical flight recorder export. Chaos
// replay and CI artifact diffing both assume this.
TEST(AttributionE2E, TimeseriesByteIdenticalAcrossRuns) {
  const microbench::RunRecord a = microbench::outbound_tput(
      cluster::ClusterConfig::apt(), outbound_inline_spec(64), 8, us(250));
  ASSERT_FALSE(a.timeseries.is_null());
  const microbench::RunRecord b = microbench::outbound_tput(
      cluster::ClusterConfig::apt(), outbound_inline_spec(64), 8, us(250));
  EXPECT_EQ(a.timeseries.dump(2), b.timeseries.dump(2));
  EXPECT_TRUE(obs::validate_timeseries_json(b.timeseries).empty());
}

// perfbench's pattern: a warm-up run() and then a measured run() on one
// testbed. The second window's attribution and flight recording must cover
// only that window; the first window's recorder ticks are still queued on
// the engine when it opens (they no-op by epoch, and ASan would flag a
// recorder that did not outlive them).
TEST(AttributionE2E, SecondRunCoversOnlyItsOwnWindow) {
  core::TestbedConfig cfg = core::TestbedConfigBuilder()
                                .server_procs(2)
                                .clients(6)
                                .window(2)
                                .n_keys(1024)
                                .mica_buckets_log2(12)
                                .mica_log_bytes(1u << 20)
                                .flight_interval(us(25))
                                .build();
  core::HerdTestbed bed(cfg);
  bed.run(0, us(300));
  const sim::Tick second_start = bed.cluster().engine().now();
  const auto r = bed.run(0, us(200));
  ASSERT_GT(r.ops, 0u);

  obs::Json ts = bed.timeseries_json();
  ASSERT_TRUE(obs::validate_timeseries_json(ts).empty());
  EXPECT_EQ(u64(ts, "start_ns"), static_cast<std::uint64_t>(second_start));
  const std::vector<obs::Json>& windows = ts["windows"].elements();
  ASSERT_EQ(windows.size(), 8u);
  EXPECT_EQ(u64(windows.front(), "t_begin_ns"),
            static_cast<std::uint64_t>(second_start));
  EXPECT_EQ(u64(windows.back(), "t_end_ns"),
            static_cast<std::uint64_t>(second_start + us(200)));

  // Per resource class, the attributed ops are exactly the ops the second
  // window's flight recording saw.
  const obs::Attribution& attr = bed.attribution();
  ASSERT_FALSE(attr.empty());
  const std::vector<obs::Json>& names = ts["resources"].elements();
  std::map<std::string, std::uint64_t> recorded;
  for (const obs::Json& w : windows) {
    const std::vector<obs::Json>& ops = w.find("ops")->elements();
    for (std::size_t k = 0; k < names.size(); ++k) {
      recorded[obs::resource_class(names[k].as_string())] +=
          ops[k].as_uint();
    }
  }
  std::uint64_t attributed = 0;
  for (const obs::StageBreakdown& st : attr.stages) {
    EXPECT_EQ(st.ops, recorded[st.stage]) << st.stage;
    attributed += st.ops;
  }
  EXPECT_GT(attributed, 0u);
}

}  // namespace
