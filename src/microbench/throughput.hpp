// Verb throughput experiments (Figs. 3, 4, 6; §3.3's many-to-one test).
//
// The study varies one thing: which side issues the verbs. Inbound
// (Fig. 3a): client machines C1..CN each run one process issuing verbs to
// MS; throughput is the server RNIC's inbound verb rate. Outbound (Fig. 4a):
// N processes on MS each talk to one client machine. Fig. 6 and §3.3 only
// change who talks to whom: all-to-all runs N processes on each side and
// each verb picks a random peer (N*N connected QPs at the server), and the
// many-to-one test packs many requesters onto few machines.
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

/// Figs. 3 and 6 inbound, and §3.3's many-to-one test ("1600 client
/// processes spread over 16 machines ... also achieves 30 Mops"): `n_procs`
/// requesters issue verbs to one server. Requester i runs on client machine
/// 1 + i % n_machines (0 = one machine per requester) and holds one
/// connected QP to the server; with `all_to_all` it holds `n_procs` of them,
/// one per server process (n_procs² QPs at the server), and picks one at
/// random per verb. The record's value is the Mops observed at the server
/// RNIC.
RunRecord inbound_tput(const cluster::ClusterConfig& cfg, const TputSpec& spec,
                       std::uint32_t n_procs = 16,
                       sim::Tick measure = sim::ms(2),
                       std::uint32_t n_machines = 0, bool all_to_all = false);

/// Figs. 4 and 6 outbound: `n_procs` server processes issue verbs, process
/// s to client machine s; with `all_to_all` each verb goes to a random
/// client instead. Connected transports then use n_procs² QPs at the
/// server, UD one QP per server process ("a single UD queue can be used to
/// issue operations to multiple remote UD queues"). The record's value is
/// the Mops leaving the server RNIC.
RunRecord outbound_tput(const cluster::ClusterConfig& cfg, const TputSpec& spec,
                        std::uint32_t n_procs = 16,
                        sim::Tick measure = sim::ms(2),
                        bool all_to_all = false);

}  // namespace herd::microbench
