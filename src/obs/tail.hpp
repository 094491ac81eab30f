// Per-request tail-latency attribution: decomposes each sampled request's
// end-to-end latency into named, telescoping stages.
//
// The window-level attributor (obs/flight.hpp) answers "which resource was
// the bottleneck this window"; TailProfiler answers the per-request
// question the tail needs: "where did THIS request's microseconds go".
// Each sampled request (keyed by its 64-bit trace id) carries a moving
// mark; stage(name, now) charges [mark, now) to `name` and advances the
// mark, so the recorded stages always sum exactly to end-to-end latency —
// the property bench_compare's 1% consistency gate checks on every figure.
//
// Producers on both sides of the wire (client issue/retire, service
// admission/DRR/MICA/replication/chain flush) mark the same sample through
// obs::RequestProbe (obs/probe.hpp), which begins a profile for exactly the
// requests its sampler picks; sim time is global, so cross-host
// telescoping is exact. The chain-flush amortizer uses charge() to bill
// each coalesced response its share of the doorbell post cost without
// breaking the telescope. The microbenchmarks profile their own verb round
// trips here directly, each sampled verb under its pump's salted id
// ((pump ordinal << 32) | verb sequence, the same id its trace carries): the
// run's pumps share one profiler, and begin() on a live id restarts it, so
// a bare per-pump sequence would let one pump's completion close another
// pump's sample.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace herd::obs {

class TailProfiler {
 public:
  /// One finished request: outcome ("ok", "shed_retry", ...), total
  /// end-to-end ticks, and the stage decomposition in emission order.
  struct Sample {
    std::uint64_t trace_id = 0;
    std::string outcome;
    sim::Tick total = 0;
    std::vector<std::pair<std::string, sim::Tick>> stages;
  };

  /// Aggregate view used by bench points: the stage breakdown of the
  /// request sitting at a given quantile of an outcome's totals.
  struct QuantileCut {
    bool valid = false;
    std::uint64_t trace_id = 0;
    double total_us = 0;
    double stage_sum_us = 0;
    std::vector<std::pair<std::string, double>> stages_us;
  };

  /// Starts tracking a sampled request. Re-beginning an id restarts it.
  void begin(std::uint64_t trace_id, sim::Tick now);

  /// Charges [mark, now) to `stage` and advances the mark. Unknown ids are
  /// ignored (the producer side does not know which requests are sampled).
  void stage(std::uint64_t trace_id, std::string_view stage, sim::Tick now);

  /// Charges `amount` ticks to `stage` and advances the mark by the same
  /// amount — the amortization hook: a chain flush bills each member
  /// post_cost/chain_len without claiming the member waited for the whole
  /// doorbell.
  void charge(std::uint64_t trace_id, std::string_view stage,
              sim::Tick amount);

  /// Retires the request: any residue since the last mark is charged to
  /// `residual_stage`, the total is now - begin, and the sample moves to
  /// the finished set under `outcome`.
  void finish(std::uint64_t trace_id, std::string_view outcome,
              sim::Tick now, std::string_view residual_stage = "net_out");

  std::size_t finished() const { return done_.size(); }
  std::size_t in_flight() const { return live_.size(); }
  const std::vector<Sample>& samples() const { return done_; }

  /// The request at quantile q (0..1, nearest-rank on total latency) of
  /// `outcome`'s finished samples, with stages merged by name. Invalid cut
  /// if no sample finished with that outcome.
  QuantileCut quantile(std::string_view outcome, double q) const;

  std::size_t count(std::string_view outcome) const;

 private:
  struct Live {
    std::uint64_t trace_id = 0;
    sim::Tick begin = 0;
    sim::Tick mark = 0;
    std::vector<std::pair<std::string, sim::Tick>> stages;
  };

  Live* find(std::uint64_t trace_id);
  /// Appends `dur` to `stage`, merging into the last stage of that name.
  static void add(Live& l, std::string_view stage, sim::Tick dur);

  std::vector<Live> live_;
  std::vector<Sample> done_;
};

}  // namespace herd::obs
