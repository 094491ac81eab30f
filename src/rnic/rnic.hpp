// RNIC device model: the contended hardware units one NIC provides.
//
// Verb execution flows live in the verbs layer (`verbs::Qp`); this class
// owns the resources those flows contend on — TX/RX pipelines, the shared
// dispatch stage, the QP-context cache — plus device counters.
#pragma once

#include <cstdint>
#include <string>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "rnic/calibration.hpp"
#include "rnic/qp_cache.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

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
  RnicCounters& counters() { return counters_; }
  const RnicCounters& counters() const { return counters_; }

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
    reg.link(prefix + ".tx_ops", &counters_.tx_ops);
    reg.link(prefix + ".rx_ops", &counters_.rx_ops);
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
  /// occupancy while the device is over its comfortable limit.
  void unsignaled_inc() { ++outstanding_unsignaled_; }
  void unsignaled_dec() {
    if (outstanding_unsignaled_ > 0) --outstanding_unsignaled_;
  }
  sim::Tick unsignaled_pressure() const {
    return outstanding_unsignaled_ > cal_.unsignaled_threshold
               ? cal_.unsignaled_penalty
               : 0;
  }

 private:
  sim::Engine* engine_;
  RnicCalibration cal_;
  sim::Resource tx_;
  sim::Resource rx_;
  sim::Resource dispatch_;
  QpContextCache cache_;
  RnicCounters counters_;
  std::uint32_t outstanding_unsignaled_ = 0;
};

}  // namespace herd::rnic
