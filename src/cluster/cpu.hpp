// CPU cost model for application actors.
//
// Verbs themselves model the hardware path; the *software* costs around them
// — driver WQE preparation, poll loops, DRAM lookups — are charged by the
// application actors using these constants (paper §4.1.1: "Each random
// memory access takes 60-120 ns and the post_send() function takes about
// 150 ns").
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace herd::cluster {

struct CpuModel {
  /// One random DRAM access (index bucket, log entry...).
  sim::Tick dram_access = sim::ns(90);
  /// Cost of a DRAM access whose cache line was prefetched early enough —
  /// the payoff of HERD's request pipeline (§4.1.1).
  sim::Tick dram_access_prefetched = sim::ns(4);
  /// Issuing a prefetch instruction.
  sim::Tick prefetch_issue = sim::ns(5);
  /// post_send(): WQE preparation + doorbell in the userland driver.
  sim::Tick post_send = sim::ns(150);
  /// Appending one more WQE to a chained post_send: the WQE preparation
  /// share of `post_send` without the doorbell ring — what makes a chain of
  /// N responses cheaper than N posts on the CPU side as well as on PCIe.
  sim::Tick post_send_chain_wqe = sim::ns(60);
  /// post_recv(): cheaper than a send, but far from free — this is why
  /// RECV-posting servers (Pilaf PUTs) need more cores (Fig. 13).
  sim::Tick post_recv = sim::ns(100);
  /// One iteration of a memory poll loop over a request slot.
  sim::Tick poll_iteration = sim::ns(8);
  /// Checking a completion queue once.
  sim::Tick cq_poll = sim::ns(30);
  /// Bookkeeping to advance one stage of an application-level pipeline.
  sim::Tick pipeline_step = sim::ns(5);

  /// CPU cost of a chained post of `n` WQEs: one full post_send (WQE prep +
  /// doorbell) plus the cheaper per-WQE append for the rest.
  sim::Tick chained_post_cost(std::size_t n) const {
    if (n == 0) return 0;
    return post_send +
           static_cast<sim::Tick>(n - 1) * post_send_chain_wqe;
  }
};

}  // namespace herd::cluster
