// Verb throughput experiments (Figs. 3, 4, 6; §3.3's many-to-one test).
//
// Inbound (Fig. 3a): client machines C1..CN each run one process issuing
// verbs to MS; throughput is the server RNIC's inbound verb rate.
// Outbound (Fig. 4a): N processes on MS each talk to one client machine.
// All-to-all (Fig. 6): N processes on each side; each verb picks a random
// peer, exercising N*N connected QPs at the server.
#pragma once

#include <cstdint>

#include "cluster/cluster.hpp"
#include "microbench/microbench.hpp"
#include "verbs/types.hpp"

namespace herd::microbench {

struct TputSpec {
  verbs::Opcode opcode = verbs::Opcode::kWrite;
  verbs::Transport transport = verbs::Transport::kUc;
  bool inlined = true;
  std::uint32_t payload = 32;
  /// Outstanding verbs per process ("we manually tune the window size for
  /// maximum aggregate throughput", §3.1).
  std::uint32_t window = 32;
  std::uint32_t signal_every = 4;  // selective signaling cadence
};

/// Fig. 3: N remote processes issue verbs to one server. The record's value
/// is the Mops observed at the server RNIC.
RunRecord inbound_tput(const cluster::ClusterConfig& cfg, const TputSpec& spec,
                    std::uint32_t n_clients = 16,
                    sim::Tick measure = sim::ms(2));

/// Fig. 4: N server processes issue verbs, process i to client machine i.
RunRecord outbound_tput(const cluster::ClusterConfig& cfg, const TputSpec& spec,
                        std::uint32_t n_procs = 16,
                        sim::Tick measure = sim::ms(2));

/// Fig. 6: all-to-all. N client procs -> N server procs over N*N QPs,
/// random targets. The record's value is the inbound Mops at the server.
RunRecord all_to_all_inbound(const cluster::ClusterConfig& cfg,
                             const TputSpec& spec, std::uint32_t n,
                             sim::Tick measure = sim::ms(2));

/// Fig. 6: N server procs -> N clients; connected transports use N*N QPs,
/// UD uses one QP per server process ("a single UD queue can be used to
/// issue operations to multiple remote UD queues").
RunRecord all_to_all_outbound(const cluster::ClusterConfig& cfg,
                              const TputSpec& spec, std::uint32_t n,
                              sim::Tick measure = sim::ms(2));

/// §3.3: "we used 1600 client processes spread over 16 machines to issue
/// WRITEs over UC to one server process... also achieves 30 Mops."
RunRecord many_to_one_tput(const cluster::ClusterConfig& cfg,
                           const TputSpec& spec, std::uint32_t n_processes,
                           std::uint32_t n_machines,
                           sim::Tick measure = sim::ms(2));

}  // namespace herd::microbench
