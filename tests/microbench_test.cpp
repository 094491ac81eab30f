// Tests of the microbenchmark drivers against the paper's §3 observations —
// these double as regression tests for the calibrated substrate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "microbench/echo.hpp"
#include "microbench/throughput.hpp"
#include "microbench/verb_latency.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"

namespace herd::microbench {
namespace {

const cluster::ClusterConfig kApt = cluster::ClusterConfig::apt();

TEST(VerbLatency, ReadAndWriteTrackEachOther) {
  // "The latencies for READ and WRITE are similar because the length of the
  //  network/PCIe path travelled is identical" (§3.2.1).
  auto r = verb_latency(kApt, 32, 300);
  EXPECT_NEAR(r.write_us, r.read_us, r.read_us * 0.15);
}

TEST(VerbLatency, InliningCutsLatencySignificantly) {
  auto r = verb_latency(kApt, 32, 300);
  EXPECT_LT(r.write_inline_us, r.write_us - 0.25);
}

TEST(VerbLatency, UnsignaledWriteIsHalfAnEcho) {
  // "the one-way WRITE latency is about half of the READ latency" — the
  // ECHO is two unsignaled WRITEs, and tracks READ for small payloads.
  auto r = verb_latency(kApt, 32, 300);
  EXPECT_NEAR(r.echo_us, r.read_us, r.read_us * 0.25);
  EXPECT_NEAR(r.echo_us / 2.0, 1.0, 0.4);  // ~1 us half-RTT (§2.2.1)
}

TEST(VerbLatency, TracesItsSampledPingsOnlyUnderCapture) {
  // Under capture each tail-sampled ping carries a trace id, so the record
  // (the ECHO cluster's) holds a trace of both its halves; tracing moves no
  // simulated number.
  const LatencyResult untraced = verb_latency(kApt, 32, 64);
  set_trace_capture(true);
  const LatencyResult traced = verb_latency(kApt, 32, 64);
  set_trace_capture(false);
  EXPECT_TRUE(untraced.record.trace_json.empty());
  ASSERT_FALSE(traced.record.trace_json.empty());
  const obs::Json doc = obs::Json::parse(traced.record.trace_json);
  EXPECT_TRUE(obs::validate_trace_json(doc).empty());
  // 64 pings, every 16th sampled; each is a client WRITE and the server's
  // echo WRITE.
  std::size_t tx_writes = 0;
  for (const obs::Json& e : doc.find("traceEvents")->elements()) {
    const obs::Json* name = e.find("name");
    if (name != nullptr && name->as_string() == "tx_WRITE") ++tx_writes;
  }
  EXPECT_EQ(tx_writes, 2u * (64 / 16));
  EXPECT_EQ(traced.read_us, untraced.read_us);
  EXPECT_EQ(traced.write_us, untraced.write_us);
  EXPECT_EQ(traced.write_inline_us, untraced.write_inline_us);
  EXPECT_EQ(traced.echo_us, untraced.echo_us);
  EXPECT_EQ(traced.record.tail.dump(), untraced.record.tail.dump());
  EXPECT_TRUE(traced.record.snapshot.format() ==
              untraced.record.snapshot.format());
}

TEST(VerbLatency, GrowsWithPayload) {
  auto small = verb_latency(kApt, 16, 300);
  auto large = verb_latency(kApt, 1024, 300);
  EXPECT_GT(large.read_us, small.read_us);
  EXPECT_GT(large.write_us, small.write_us);
}

// The stage names of a record's p99 tail, in emission order.
std::vector<std::string> tail_stages(const RunRecord& r) {
  std::vector<std::string> out;
  if (const obs::Json* stages = r.tail.find("stages")) {
    for (const auto& [name, us] : stages->items()) out.push_back(name);
  }
  return out;
}

TEST(VerbLatency, RecordCarriesLastClusterTail) {
  // A payload that fits inline ends on the ECHO cluster, a larger one on
  // the signaled-WRITE cluster; one op is in flight at a time, so the p99
  // sits at the mean.
  auto inl = verb_latency(kApt, 32, 300);
  ASSERT_FALSE(inl.record.tail.is_null());
  EXPECT_EQ(tail_stages(inl.record), std::vector<std::string>{"echo_rtt"});
  EXPECT_NEAR(inl.record.tail.find("p99_total_us")->as_double(), inl.echo_us,
              inl.echo_us * 0.1);

  auto big = verb_latency(kApt, 1024, 300);
  ASSERT_FALSE(big.record.tail.is_null());
  EXPECT_EQ(tail_stages(big.record), std::vector<std::string>{"net_rtt"});
  EXPECT_NEAR(big.record.tail.find("p99_total_us")->as_double(),
              big.write_us, big.write_us * 0.1);
}

TEST(RunRecord, BackToBackRunsShareNoEvidence) {
  // Each record comes from its own run's cluster: a run that follows
  // another carries exactly what it would carry alone. Trace ids are
  // salted with per-run pump ordinals, so a counter leaking between runs
  // would show in the trace.
  set_trace_capture(true);
  TputSpec wr{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 8, 4};
  EchoOpts eo;
  const LatencyResult lat_alone = verb_latency(kApt, 32, 64);
  const RunRecord alone = inbound_tput(kApt, wr, 2, sim::us(250));
  const RunRecord echo =
      echo_tput(kApt, EchoKind::kWriteSend, eo, sim::us(250));
  const RunRecord after = inbound_tput(kApt, wr, 2, sim::us(250));
  const LatencyResult lat = verb_latency(kApt, 32, 64);
  set_trace_capture(false);

  ASSERT_FALSE(echo.tail.is_null());
  ASSERT_FALSE(echo.trace_json.empty());
  EXPECT_EQ(tail_stages(echo),
            (std::vector<std::string>{"client_post", "echo_rtt"}));
  EXPECT_EQ(tail_stages(after),
            (std::vector<std::string>{"post_cpu", "net_rtt"}));
  // EXPECT_TRUE, not EXPECT_EQ: gtest's line diff of two multi-megabyte
  // traces would take quadratic memory.
  EXPECT_EQ(after.tail.dump(), alone.tail.dump());
  EXPECT_TRUE(after.trace_json == alone.trace_json);
  EXPECT_TRUE(after.timeseries.dump() == alone.timeseries.dump());
  EXPECT_TRUE(after.snapshot.format() == alone.snapshot.format());

  // A driver that measures no rate window carries no window or
  // attribution from the run before it, and traces only its own sampled
  // pings: the trace it writes after three other runs is the one it
  // writes alone.
  EXPECT_TRUE(lat.record.timeseries.is_null());
  EXPECT_TRUE(lat.record.attr.empty());
  ASSERT_FALSE(lat.record.trace_json.empty());
  EXPECT_TRUE(lat.record.trace_json == lat_alone.record.trace_json);
  EXPECT_TRUE(
      obs::validate_trace_json(obs::Json::parse(lat.record.trace_json))
          .empty());
  EXPECT_EQ(tail_stages(lat.record), std::vector<std::string>{"echo_rtt"});
}

TEST(OutboundTput, TracesOnlyUnderCapture) {
  // Cluster::record() exports whatever the cluster's tracer recorded.
  // Untraced, the
  // driver stamps no trace ids, so nothing is recorded; under capture the
  // tail-sampled verbs' hops are, each under its own trace id.
  TputSpec wr{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 8, 4};
  const RunRecord untraced = outbound_tput(kApt, wr, 4, sim::us(50));
  EXPECT_TRUE(untraced.trace_json.empty());
  EXPECT_FALSE(untraced.tail.is_null());

  set_trace_capture(true);
  const RunRecord traced = outbound_tput(kApt, wr, 4, sim::us(50));
  set_trace_capture(false);
  ASSERT_FALSE(traced.trace_json.empty());
  EXPECT_TRUE(
      obs::validate_trace_json(obs::Json::parse(traced.trace_json)).empty());
  EXPECT_EQ(traced.tail.dump(), untraced.tail.dump());
  EXPECT_TRUE(traced.snapshot.format() == untraced.snapshot.format());
}

TEST(OutboundTput, TailSamplesFollowLittlesLaw) {
  // The run's 16 pumps share the cluster's tail profiler, and each pump
  // numbers its verbs from 1. Keyed by that bare sequence, all 16 would
  // restart sample 64, 128, ... and the first completion to arrive would
  // close it, so the p99 would read a fraction of a round trip. Keyed
  // apart, a sampled verb waits behind the whole window: Little's law puts
  // the latency at 16 procs x window 8 / Mops.
  TputSpec wr{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 8, 4};
  const RunRecord r = outbound_tput(kApt, wr, 16);
  ASSERT_FALSE(r.tail.is_null());
  const double little_us = 16.0 * 8 / r.value;
  EXPECT_GE(r.tail.find("p99_total_us")->as_double(), 0.5 * little_us);
}

TEST(InboundTput, WritesBeatReadsByAboutATHird) {
  // "WRITEs achieve 35 Mops, which is about 34% higher than the maximum
  //  READ throughput (26 Mops)" (§3.2.2).
  TputSpec wr{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 32, 4};
  TputSpec rd{verbs::Opcode::kRead, verbs::Transport::kRc, false, 32, 16, 1};
  double w = inbound_tput(kApt, wr).value;
  double r = inbound_tput(kApt, rd).value;
  EXPECT_NEAR(w, 35.0, 1.5);
  EXPECT_NEAR(r, 26.0, 1.5);
  EXPECT_GT(w / r, 1.25);
}

TEST(InboundTput, UcAndRcWritesNearlyIdentical) {
  TputSpec uc{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 32, 4};
  TputSpec rc{verbs::Opcode::kWrite, verbs::Transport::kRc, true, 32, 32, 4};
  double u = inbound_tput(kApt, uc).value;
  double r = inbound_tput(kApt, rc).value;
  EXPECT_NEAR(u, r, u * 0.1);
}

TEST(OutboundTput, ReadsHoldTwentyTwoMops) {
  TputSpec rd{verbs::Opcode::kRead, verbs::Transport::kRc, false, 32, 16, 1};
  EXPECT_NEAR(outbound_tput(kApt, rd).value, 22.0, 1.5);
}

TEST(OutboundTput, DoorbellBatchingFlattensInlineWriteKnee) {
  // One write-combining cacheline holds a 36 B WQE + 28 B payload; per-WR
  // posting halves PIO throughput beyond that (§3.2.2's 64-byte staircase).
  // With doorbell batching only the chain head crosses PIO, so the knee
  // disappears and both payloads run at the (higher) wire-limited rate.
  // The per-WR doorbell canary restores the staircase (next test).
  TputSpec below{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 28, 8, 4};
  TputSpec above{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 40, 8, 4};
  double b = outbound_tput(kApt, below).value;
  double a = outbound_tput(kApt, above).value;
  EXPECT_NEAR(b, a, b * 0.1);  // knee gone: no staircase between 28 and 40 B
  EXPECT_GT(b, 28.0);          // and both clear the old PIO-capped plateau
}

TEST(OutboundTput, PerWrDoorbellCanaryRestoresTheKnee) {
  // RnicCalibration::per_wr_doorbell (--bench-canary=per-wr-doorbell) rings
  // a doorbell per WR, the pre-batching cost model: past the 28 B knee a
  // WQE spans two write-combining cachelines and PIO throughput drops, and
  // the 192 B point is PIO-bound again. The fig04 gate must catch this.
  cluster::ClusterConfig canary = kApt;
  canary.rnic.per_wr_doorbell = true;
  auto inline_write = [](std::uint32_t payload) {
    return TputSpec{verbs::Opcode::kWrite, verbs::Transport::kUc, true,
                    payload, 8, 4};
  };
  const sim::Tick w = sim::us(250);
  double below = outbound_tput(canary, inline_write(28), 16, w).value;
  double above = outbound_tput(canary, inline_write(40), 16, w).value;
  EXPECT_LT(above, below * 0.9);
  const RunRecord big = outbound_tput(canary, inline_write(192), 16, w);
  EXPECT_EQ(big.attr.bottleneck, "pcie.pio");
}

TEST(OutboundTput, DoorbellBatchingClosesUdSendGap) {
  // Per-WR posting: "due to the larger datagram header, the throughput for
  //  SEND-UD drops for smaller payload sizes than for WRITEs." Chained WQEs
  // are DMA-fetched, so the 65 B UD WQE no longer pays the PIO staircase and
  // SEND-UD pulls even with WRITE at the same payload.
  TputSpec wr{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 24, 8, 4};
  TputSpec ud{verbs::Opcode::kSend, verbs::Transport::kUd, true, 24, 8, 4};
  double w = outbound_tput(kApt, wr).value;
  double u = outbound_tput(kApt, ud).value;
  EXPECT_NEAR(w, u, w * 0.1);
}

TEST(Echo, OptimizationLadderIsMonotonic) {
  for (auto kind :
       {EchoKind::kSendSend, EchoKind::kWriteWrite, EchoKind::kWriteSend}) {
    double prev = 0;
    for (int lvl = 0; lvl <= 3; ++lvl) {
      EchoOpts o;
      o.opt_level = lvl;
      double m = echo_tput(kApt, kind, o).value;
      EXPECT_GE(m, prev * 0.98) << echo_kind_name(kind) << " lvl " << lvl;
      prev = m;
    }
  }
}

TEST(Echo, FullyOptimizedMatchesPaperAnchors) {
  EchoOpts o;  // fully optimized by default
  double ss = echo_tput(kApt, EchoKind::kSendSend, o).value;
  double ww = echo_tput(kApt, EchoKind::kWriteWrite, o).value;
  double ws = echo_tput(kApt, EchoKind::kWriteSend, o).value;
  EXPECT_NEAR(ss, 21.0, 1.5);  // "21 Mops" (§3.2.2)
  EXPECT_NEAR(ww, 26.0, 1.5);  // "maximum throughput (26 Mops)"
  EXPECT_NEAR(ws, 26.0, 1.5);  // "this hybrid also achieves 26 Mops"
}

TEST(Echo, SendSendBeatsThreeQuartersOfReadRate) {
  // The paper's refutation: optimized SEND/RECV echoes beat 3/4 of the
  // 26 Mops READ rate, so one echo beats 2.6 READs.
  EchoOpts o;
  EXPECT_GT(echo_tput(kApt, EchoKind::kSendSend, o).value, 26.0 * 0.75);
}

constexpr bool kAllToAll = true;

TEST(AllToAll, InboundScalesOutboundCollapses) {
  TputSpec wr{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 32, 4};
  const sim::Tick ms2 = sim::ms(2);
  double in16 = inbound_tput(kApt, wr, 16, ms2, 0, kAllToAll).value;
  double out16 = outbound_tput(kApt, wr, 16, ms2, kAllToAll).value;
  double out4 = outbound_tput(kApt, wr, 4, ms2, kAllToAll).value;
  EXPECT_NEAR(in16, 35.0, 2.0);        // inbound flat at 256 QPs
  EXPECT_LT(out16, out4 * 0.45);       // outbound collapses
  EXPECT_NEAR(out16 / 35.0, 0.21, 0.08);  // "degrades to 21% of the maximum"
}

TEST(AllToAll, UdOutboundScales) {
  TputSpec ud{verbs::Opcode::kSend, verbs::Transport::kUd, true, 32, 32, 4};
  double out4 = outbound_tput(kApt, ud, 4, sim::ms(2), kAllToAll).value;
  double out16 = outbound_tput(kApt, ud, 16, sim::ms(2), kAllToAll).value;
  // §3.3 promises only a slight sag. Doorbell batching lifts the 4-proc
  // number above the old PIO cap, while at 16 procs the chained WQE fetches
  // of all procs contend on the DMA-read path, so the relative sag widens a
  // little — but aggregate throughput must not collapse.
  EXPECT_GT(out16, out4 * 0.75);
  EXPECT_GT(out16, 22.0);
}

TEST(ManyToOne, SixteenHundredClientsSustainLineRate) {
  // §3.3: 1600 processes over 16 machines, WRITEs over UC -> ~30 Mops.
  TputSpec wr{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 4, 4};
  EXPECT_GT(inbound_tput(kApt, wr, 1600, sim::ms(2), /*n_machines=*/16).value,
            28.0);
}

TEST(Prefetch, FiveCoresReachPeakWithPrefetching) {
  EchoOpts o;
  o.mem_accesses = 8;
  o.n_server_procs = 5;
  o.prefetch = true;
  double with = echo_tput(kApt, EchoKind::kWriteSend, o).value;
  o.prefetch = false;
  double without = echo_tput(kApt, EchoKind::kWriteSend, o).value;
  EXPECT_GT(with, 18.0);        // "5 cores can deliver the peak... N = 8"
  EXPECT_GT(with, without * 2); // prefetching pays
}

}  // namespace
}  // namespace herd::microbench
