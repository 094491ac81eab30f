// RNIC model calibration.
//
// Every constant is pinned by a specific observation in the paper (§3's
// microbenchmarks on the Apt cluster's ConnectX-3, Figs. 2-6) — see
// DESIGN.md §4 for the anchor math. The model decomposes the RNIC into
// three pipelined units:
//   * TX unit   — requester-side verb processing (outbound message rates)
//   * RX unit   — responder-side processing (inbound message rates)
//   * dispatch  — a shared bidirectional scheduling stage, which is what
//                 caps combined inbound+outbound echo service (~60 Mops
//                 total per §3.2.2's discussion)
// plus a QP-context SRAM cache whose misses cost a PCIe fetch (§3.3: "RNICs
// have very little on-chip memory to cache ... queue pair contexts. A miss
// in this cache requires a PCIe transaction").
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace herd::rnic {

struct RnicCalibration {
  // --- Pipeline occupancies (service time per verb) -----------------------
  // Anchors: inbound WRITE 35 Mops (Fig. 3b), inbound READ 26 Mops,
  // outbound READ 22 Mops (Fig. 4b), outbound WRITE/SEND 35 Mops at tiny
  // payloads before the PIO bound takes over.
  sim::Tick tx_write = sim::per_op_at_mops(35);   // 28.6 ns
  sim::Tick tx_send = sim::per_op_at_mops(35);
  sim::Tick tx_read = sim::per_op_at_mops(22);    // 45.5 ns: non-posted state
  sim::Tick tx_read_resp = sim::ns(18);           // responder sends data back
  sim::Tick tx_ack = sim::ns(4);

  sim::Tick rx_write = sim::per_op_at_mops(35);
  sim::Tick rx_read = sim::per_op_at_mops(26);    // 38.5 ns: DMA-read + resp
  // SEND at the responder consumes a pre-posted RECV and raises a completion:
  // the extra work is why pure SEND/SEND echo tops out ~21 Mops (Fig. 5).
  sim::Tick rx_send = sim::ns(45);
  sim::Tick rx_read_resp = sim::ns(28);
  sim::Tick rx_ack = sim::ns(4);

  // Shared bidirectional stage: 16 ns/message => ~31 M echoes/s when both
  // directions are active ("at least 60 total Mops", §3.2.2).
  sim::Tick dispatch = sim::ns(16);

  // The optimization ladder of Fig. 5: a non-inlined WRITE/SEND stalls the
  // TX unit on the payload DMA fetch, and a signaled verb adds CQE work
  // ("Using completion events adds extra overhead to the RNIC's PCIe bus",
  // §2.2.2). Removing these — +inlined, +unsignaled — is most of the gap
  // between "basic" and fully-optimized echoes.
  sim::Tick tx_noninline_extra = sim::ns(30);
  sim::Tick tx_signaled_extra = sim::ns(15);

  // Fixed pipeline traversal latencies (do not consume throughput).
  sim::Tick tx_latency = sim::ns(100);
  sim::Tick rx_latency = sim::ns(100);

  // --- WQE geometry --------------------------------------------------------
  // A WRITE WQE header is 36 B, so payloads <= 28 B fit in one
  // write-combining cacheline — the paper's ">28 bytes => PIO-bound" knee.
  // UD SEND WQEs carry the address handle, so the knee comes earlier
  // ("due to the larger datagram header, the throughput for SEND-UD drops
  // for smaller payload sizes", §3.2.2). 65 B pins HERD's Fig. 10 knee:
  // a GET response (3 B header + value) stays within two write-combining
  // cachelines — and thus at peak PIO rate — up to exactly 60 B values.
  std::uint32_t wqe_base_write = 36;
  std::uint32_t wqe_base_send = 36;
  std::uint32_t wqe_base_send_ud = 65;
  std::uint32_t wqe_base_read = 36;
  std::uint32_t sge_bytes = 16;     // non-inline WQEs carry an SGE instead
  std::uint32_t max_inline = 256;   // "maximum PIO size (256 in our setup)"
  std::uint32_t cqe_bytes = 32;

  // "each queue pair can only service a few outstanding READ requests
  //  (16 in our RNICs)" (§3.2.2)
  std::uint32_t max_outstanding_reads = 16;

  // RC recovers wire losses with "hardware-based retransmission of lost
  // packets" (§2.2.1); the retransmission timer stalls the affected message
  // by this much. UC/UD have no such machinery — losses surface to the
  // application (§2.2.3's tradeoff).
  sim::Tick retransmit_delay = sim::us(50);
  // How many retransmissions the RC transport attempts before giving up
  // (ibv_qp_attr.retry_cnt; 7 is the common maximum). Exhaustion completes
  // the WR with kRetryExceeded and moves the QP to the error state — the
  // paper's "extremely rare" hardware-failure case made observable.
  std::uint32_t retry_cnt = 7;

  // --- QP context cache (§3.3) ---------------------------------------------
  // Weighted entries, calibrated to reconcile every scaling observation in
  // the paper simultaneously (capacity ~330 units ~ 90 KB of SRAM at ~280 B
  // per connected-QP context):
  //  * requester-side connected state (send-queue tracking) is heavy —
  //    3 units — so 256 all-to-all outbound QPs collapse to ~20% (Fig. 6);
  //  * responder-side UC state is nearly free — 0.1 units — because §3.3's
  //    many-to-one experiment sustains 30 Mops of inbound WRITEs across
  //    1600 UC QPs ("very little state is maintained at the responding
  //    RNIC"); RC responders track PSN/ACK state (1 unit);
  //  * each *destination* of a UD SEND costs a sliver of address/route
  //    state (an address vector is ~50 B vs ~280 B for a full QP context).
  //    HERD's responses fan out to NS*NC distinct client UD QPs, so with
  //    6 server processes the working set crosses capacity at
  //    6 * NC * 0.18 (+ ~50 units of QP state) = 330 => NC ~ 260 — which
  //    is what bends HERD's curve
  //    past ~260 connected clients in Fig. 12. Request bursts amortize the
  //    misses — exactly the WS=4 vs WS=16 effect.
  double qp_cache_units = 330;
  double weight_requester = 3;
  double weight_responder_rc = 1;
  double weight_responder_uc = 0.1;
  double weight_ud = 4;
  double weight_ud_dest = 0.18;
  sim::Tick miss_requester = sim::ns(180);  // partially overlapped fetch
  sim::Tick miss_responder = sim::ns(450);  // blocking PCIe context fetch
  sim::Tick cache_residency = sim::ns(500);
  sim::Tick cache_idle_expiry = sim::us(100);

  // Too many outstanding unsignaled verbs also thrash RNIC state (§3.3:
  // "the SENDs are unsignaled... server processes overwhelming RNICs with
  // too many outstanding operations, causing cache misses inside the RNIC"
  // — the slight SEND-UD sag beyond 10 clients in Fig. 6).
  std::uint32_t unsignaled_threshold = 192;
  sim::Tick unsignaled_penalty = sim::ns(8);

  // --- Planted-bug canary --------------------------------------------------
  // Rings one doorbell per WR instead of one per chain: the pre-batching PIO
  // cost model, which the fig04 bench_compare gate MUST catch
  // (--bench-canary=per-wr-doorbell). Never publish a run with it set.
  bool per_wr_doorbell = false;

  /// ConnectX-3 MX354A as in both clusters (Table 2). The clusters differ in
  /// the PCIe attach and fabric, configured separately.
  static RnicCalibration connectx3() { return RnicCalibration{}; }
};

}  // namespace herd::rnic
