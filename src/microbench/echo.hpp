// ECHO experiments (Figs. 5 and 7).
//
// An ECHO is an application-level request-reply pair: it upper-bounds the
// throughput of any single-round-trip key-value cache (§3.2.2) and is what
// HERD's WRITE-request / SEND-response architecture is benchmarked against.
//
// Fig. 5 sweeps the request/response verb combination and the cumulative
// optimization ladder {basic, +unreliable, +unsignaled, +inlined}.
// Fig. 7 adds N random DRAM accesses to each request at the server and
// sweeps CPU cores, with and without the prefetch pipeline (§4.1.1).
#pragma once

#include <cstdint>

#include "cluster/cluster.hpp"
#include "microbench/microbench.hpp"

namespace herd::microbench {

enum class EchoKind : std::uint8_t {
  kSendSend,   // SEND request / SEND response
  kWriteWrite, // WRITE request / WRITE response
  kWriteSend,  // WRITE request / SEND-over-UD response (HERD's choice)
};

const char* echo_kind_name(EchoKind k);

/// Cumulative optimizations (each level includes the previous ones):
///   0 = basic (reliable, signaled, non-inlined)
///   1 = +unreliable (UC; UD for the WR/SEND response)
///   2 = +unsignaled
///   3 = +inlined
struct EchoOpts {
  int opt_level = 3;
  std::uint32_t payload = 32;
  std::uint32_t n_server_procs = 6;
  std::uint32_t n_clients = 24;
  std::uint32_t window = 8;
  /// Fig. 7: random memory accesses the server performs per request.
  std::uint32_t mem_accesses = 0;
  bool prefetch = true;
};

/// The record's value is echo throughput in millions of echoes per second.
RunRecord echo_tput(const cluster::ClusterConfig& cfg, EchoKind kind,
                    const EchoOpts& opts, sim::Tick measure = sim::ms(2));

}  // namespace herd::microbench
