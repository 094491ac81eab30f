// RNIC device model: the contended hardware units one NIC provides.
//
// Verb execution flows live in the verbs layer (`verbs::Qp`); this class
// owns the resources those flows contend on — TX/RX pipelines, the shared
// dispatch stage, the QP-context cache — plus device counters.
//
// TX retirements and RX completions are pure bookkeeping (a counter, the
// unsignaled-WQE count of §3.3, the send queue's in-flight count), so they
// are not engine events: each takes a reserved place in the event order
// and waits in a FIFO, and every reader applies the entries the engine has
// reached first (settle()). The TX and RX units serve in FIFO order, so
// both FIFOs are sorted by construction.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "rnic/calibration.hpp"
#include "rnic/qp_cache.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/ring_deque.hpp"

namespace herd::rnic {

/// Which side of a verb is touching its QP context.
enum class Role : std::uint8_t { kRequester, kResponder };

struct RnicCounters {
  obs::Counter tx_ops;
  obs::Counter rx_ops;
  obs::Counter wqe_fetches;      // linked WQEs pulled over PCIe (chained posts)
  obs::Counter retransmissions;  // RC hardware retransmits (wire loss)
  obs::Counter retry_exhausted;  // RC gave up after retry_cnt attempts
  obs::Counter rnr_drops;        // SEND arrived with empty receive queue
  obs::Counter access_errors;    // rkey/bounds failures
  obs::Counter dropped_packets;  // UC/UD losses (errors without NAK)
};

/// Told when a retired send WQE leaves its QP's send queue (the verbs
/// context forwards this to its contract checker).
class WqeRetireSink {
 public:
  virtual void wqe_retired(std::uint32_t qpn) = 0;

 protected:
  ~WqeRetireSink() = default;
};

class Rnic {
 public:
  Rnic(sim::Engine& engine, const RnicCalibration& cal, std::string name,
       std::uint64_t seed)
      : engine_(&engine),
        cal_(cal),
        tx_(engine, name + "/tx"),
        rx_(engine, name + "/rx"),
        dispatch_(engine, name + "/dispatch"),
        cache_(engine,
               QpContextCache::Config{cal.qp_cache_units, cal.cache_residency,
                                      cal.cache_idle_expiry},
               seed) {}

  Rnic(const Rnic&) = delete;
  Rnic& operator=(const Rnic&) = delete;

  const RnicCalibration& cal() const { return cal_; }
  sim::Resource& tx() { return tx_; }
  sim::Resource& rx() { return rx_; }
  sim::Resource& dispatch() { return dispatch_; }
  /// Device counters, with every retirement reached so far applied.
  RnicCounters& counters() {
    settle();
    return counters_;
  }

  void set_retire_sink(WqeRetireSink* sink) { sink_ = sink; }

  /// The TX unit finishes a send WQE at `t`: at this place in the event
  /// order, count it in tx_ops, release its unsignaled slot, and, for a
  /// nonzero `qpn`, report that it left the QP's send queue.
  void retire_tx_at(sim::Tick t, std::uint32_t qpn, bool signaled) {
    if (!tx_due_.empty() && t < tx_due_.back().t) {
      throw std::logic_error("Rnic::retire_tx_at: TX retirements out of order");
    }
    tx_due_.push_back(TxRetirement{t, engine_->reserve_seq(), qpn, signaled});
  }

  /// The RX unit finishes an inbound message at `t`: at this place in the
  /// event order, count it in rx_ops.
  void count_rx_at(sim::Tick t) {
    if (!rx_due_.empty() && t < rx_due_.back().t) {
      throw std::logic_error("Rnic::count_rx_at: RX completions out of order");
    }
    rx_due_.push_back(RxCompletion{t, engine_->reserve_seq()});
  }

  /// Applies every TX retirement and RX completion the engine has reached.
  void settle() {
    while (!tx_due_.empty() &&
           engine_->reached(tx_due_.front().t, tx_due_.front().seq)) {
      const TxRetirement r = tx_due_.front();
      tx_due_.pop_front();
      ++counters_.tx_ops;
      if (!r.signaled && outstanding_unsignaled_ > 0) {
        --outstanding_unsignaled_;
      }
      if (r.qpn != 0 && sink_ != nullptr) sink_->wqe_retired(r.qpn);
    }
    while (!rx_due_.empty() &&
           engine_->reached(rx_due_.front().t, rx_due_.front().seq)) {
      rx_due_.pop_front();
      ++counters_.rx_ops;
    }
  }

  /// Touches the context cache for (`qp_key`, role); returns the extra
  /// pipeline occupancy this access costs (0 on hit).
  sim::Tick context_penalty(std::uint64_t qp_key, Role role, double weight) {
    std::uint64_t key = (qp_key << 1) | (role == Role::kResponder ? 1u : 0u);
    if (cache_.touch(key, weight)) return 0;
    return role == Role::kRequester ? cal_.miss_requester
                                    : cal_.miss_responder;
  }

  /// Touches per-destination address/route state for a UD SEND. `dest_key`
  /// identifies the remote (port, QPN).
  sim::Tick destination_penalty(std::uint64_t dest_key) {
    std::uint64_t key = QpContextCache::kDestination | dest_key;
    if (cache_.touch(key, cal_.weight_ud_dest)) return 0;
    return cal_.miss_requester;
  }

  QpContextCache& cache() { return cache_; }

  /// Links device counters, QP-cache stats, and pipeline utilizations under
  /// `prefix` (e.g. "rnic.host0").
  void register_metrics(obs::MetricRegistry& reg, const std::string& prefix) {
    reg.counter_fn(prefix + ".tx_ops",
                   [this] { return counters().tx_ops.value(); });
    reg.counter_fn(prefix + ".rx_ops",
                   [this] { return counters().rx_ops.value(); });
    reg.link(prefix + ".wqe_fetches", &counters_.wqe_fetches);
    reg.link(prefix + ".retransmissions", &counters_.retransmissions);
    reg.link(prefix + ".retry_exhausted", &counters_.retry_exhausted);
    reg.link(prefix + ".rnr_drops", &counters_.rnr_drops);
    reg.link(prefix + ".access_errors", &counters_.access_errors);
    reg.link(prefix + ".dropped_packets", &counters_.dropped_packets);
    reg.counter_fn(prefix + ".qp_cache_hits", [this] { return cache_.hits(); });
    reg.counter_fn(prefix + ".qp_cache_misses",
                   [this] { return cache_.misses(); });
    reg.gauge_fn(prefix + ".qp_cache_working_set",
                 [this] { return cache_.working_set(); });
    reg.gauge_fn(prefix + ".tx_utilization",
                 [this] { return tx_.utilization(); });
    reg.gauge_fn(prefix + ".rx_utilization",
                 [this] { return rx_.utilization(); });
    reg.gauge_fn(prefix + ".dispatch_utilization",
                 [this] { return dispatch_.utilization(); });
  }

  /// Registers the pipeline stages with the flight recorder's resource
  /// registry under `prefix` (e.g. "rnic.host0").
  void register_resources(obs::ResourceRegistry& reg,
                          const std::string& prefix) {
    reg.add(prefix + ".tx", tx_);
    reg.add(prefix + ".rx", rx_);
    reg.add(prefix + ".dispatch", dispatch_);
  }

  /// Outstanding-unsignaled-WQE pressure (§3.3). Returns the extra TX
  /// occupancy while the device is over its comfortable limit. An
  /// unsignaled WQE counts from its post until its TX retirement.
  void unsignaled_inc() { ++outstanding_unsignaled_; }
  sim::Tick unsignaled_pressure() {
    settle();
    return outstanding_unsignaled_ > cal_.unsignaled_threshold
               ? cal_.unsignaled_penalty
               : 0;
  }

 private:
  struct TxRetirement {
    sim::Tick t;
    std::uint64_t seq;
    std::uint32_t qpn;  // 0: the WQE stays queued (a READ awaits its response)
    bool signaled;
  };
  struct RxCompletion {
    sim::Tick t;
    std::uint64_t seq;
  };

  sim::Engine* engine_;
  RnicCalibration cal_;
  sim::Resource tx_;
  sim::Resource rx_;
  sim::Resource dispatch_;
  QpContextCache cache_;
  RnicCounters counters_;
  std::uint32_t outstanding_unsignaled_ = 0;
  sim::RingDeque<TxRetirement> tx_due_;
  sim::RingDeque<RxCompletion> rx_due_;
  WqeRetireSink* sink_ = nullptr;
};

}  // namespace herd::rnic
