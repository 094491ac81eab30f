// Emulated READ-based key-value stores: Pilaf-em-OPT and FaRM-em(-VAR).
//
// Mirrors the paper's comparison methodology (§5.1): "we compare our (full)
// HERD implementation against simplified implementations of Pilaf and
// FaRM-KV. These simplified implementations use the same communication
// methods as the originals, but omit the actual key-value storage, instead
// returning a result instantly."
//
// GET paths (clients; the server CPU is bypassed entirely):
//  * Pilaf-em-OPT: on average 1.6 sequential 32-byte bucket READs (3-1
//    cuckoo; the second cuckoo READ is issued only if needed, §5.1.1),
//    then one SV-byte READ of the extent.
//  * FaRM-em: a single 6*(SK+SV)-byte READ of the hopscotch neighborhood
//    (values inlined).
//  * FaRM-em-VAR: a 6*(SK+SP)-byte neighborhood READ, then an SV-byte READ.
//
// PUT paths (server CPU involved):
//  * Pilaf-em-OPT: SEND/RECV request+reply with all our optimizations
//    (UC transport, inlining, selective signaling).
//  * FaRM-em(-VAR): WRITE the request into a per-client circular buffer at
//    the server (over UC, unlike the original's RC — Fig. 5 shows UC is
//    faster); the server polls and WRITEs a completion back.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/core.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "verbs/verbs.hpp"

namespace herd::baselines {

enum class System : std::uint8_t { kPilafEmOpt, kFarmEm, kFarmEmVar };

const char* system_name(System s);

struct EmulatedConfig {
  System system = System::kFarmEm;
  cluster::ClusterConfig cluster = cluster::ClusterConfig::apt();
  std::uint32_t n_server_procs = 6;  // CPU cores provisioned for PUTs
  std::uint32_t n_clients = 51;
  std::uint32_t window = 4;          // outstanding ops per client
  double get_fraction = 0.95;
  std::uint32_t value_size = 32;     // SV
};

class EmulatedKvTestbed {
 public:
  explicit EmulatedKvTestbed(const EmulatedConfig& cfg);
  EmulatedKvTestbed(const EmulatedKvTestbed&) = delete;
  EmulatedKvTestbed& operator=(const EmulatedKvTestbed&) = delete;

  struct RunResult {
    double mops = 0;
    double avg_latency_us = 0;
    double p5_latency_us = 0;
    double p95_latency_us = 0;
    std::uint64_t ops = 0;
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
  };

  RunResult run(sim::Tick warmup, sim::Tick measure);

  cluster::Cluster& cluster() { return *cluster_; }
  const EmulatedConfig& config() const { return cfg_; }

 private:
  struct Client;

  // Server-side PUT handling.
  void pilaf_server_on_recv(std::uint32_t s);
  void farm_server_on_write(std::uint32_t s, std::uint64_t addr);

  // Client-side op state machine.
  void client_pump(Client& c);
  void client_issue(Client& c);
  void client_get_step(Client& c, std::uint64_t op_id);
  void client_finish(Client& c, std::uint64_t op_id);
  void client_on_cq(Client& c);

  EmulatedConfig cfg_;
  cluster::CpuModel cpu_;
  std::unique_ptr<cluster::Cluster> cluster_;

  // --- server state ---
  struct ServerProc {
    std::unique_ptr<cluster::SequentialCore> core;
    std::unique_ptr<verbs::Cq> send_cq;
    std::unique_ptr<verbs::Cq> recv_cq;
    std::uint32_t resp_slot = 0;
  };
  std::vector<ServerProc> procs_;
  verbs::Mr table_mr_{};    // READ target area (hash table + extents)
  verbs::Mr server_scratch_mr_{};
  std::uint64_t server_scratch_base_ = 0;
  std::vector<std::unique_ptr<verbs::Qp>> server_qps_;       // UC, per client
  std::vector<std::unique_ptr<verbs::Qp>> server_read_qps_;  // RC, per client

  // --- client state ---
  struct OpState {
    bool is_put = false;
    std::uint8_t stage = 0;
    sim::Tick start = 0;
    std::uint32_t slot = 0;  // window slot
  };
  struct Client {
    std::uint32_t id = 0;
    cluster::Host* host = nullptr;
    std::uint32_t proc = 0;  // server process this client is wired to
    std::unique_ptr<cluster::SequentialCore> core;
    std::unique_ptr<verbs::Cq> send_cq;
    std::unique_ptr<verbs::Cq> recv_cq;
    std::unique_ptr<verbs::Qp> qp;  // UC (PUT channel) or RC (READs) — both
    std::unique_ptr<verbs::Qp> read_qp;  // RC for READs
    verbs::Mr arena_mr{};
    std::uint64_t arena = 0;
    sim::Pcg32 rng{1, 2};
    std::unordered_map<std::uint64_t, OpState> ops;
    std::deque<std::uint64_t> put_fifo;  // outstanding PUTs (reply order)
    std::uint64_t next_op = 1;
    std::uint32_t outstanding = 0;
    std::uint64_t put_seq = 0;
    bool running = false;
    std::uint64_t completed = 0, gets = 0, puts = 0;
    sim::LatencyHistogram latency;
  };
  std::vector<std::unique_ptr<Client>> clients_;

  std::uint32_t farm_read_bytes() const;
  std::uint64_t random_table_offset(Client& c, std::uint32_t len);
};

}  // namespace herd::baselines
