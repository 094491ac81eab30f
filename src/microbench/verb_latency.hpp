// Verb latency experiments (Fig. 2).
//
// One client process issues operations to one server process (Fig. 2a).
// Signaled READ / WRITE / WRITE-inline latency is measured from post_send to
// polling the completion; unsignaled-WRITE latency is measured indirectly
// through ECHOs, exactly as in §3.2.1 ("If the ECHO is realized by using
// unsignaled WRITEs, the latency of an unsignaled WRITE is at most one half
// of the ECHO's latency").
#pragma once

#include <cstdint>

#include "cluster/cluster.hpp"
#include "microbench/microbench.hpp"

namespace herd::microbench {

struct LatencyResult {
  double read_us = 0;
  double write_us = 0;         // signaled, non-inlined
  double write_inline_us = 0;  // signaled, inlined (payload <= 256)
  double echo_us = 0;          // unsignaled inlined WRITE echo (<= 256)
  /// The last cluster's evidence: the ECHO cluster when the payload fits
  /// inline, the signaled-WRITE cluster otherwise.
  RunRecord record;
};

/// Measures mean latency for `payload` bytes over `iters` operations.
LatencyResult verb_latency(const cluster::ClusterConfig& cfg,
                           std::uint32_t payload, std::uint32_t iters = 2000);

}  // namespace herd::microbench
