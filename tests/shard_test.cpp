// Shard map, epoch-header wire protocol, and config coupling rules
// (herd/shard.hpp, herd/protocol.hpp, core::validate).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "herd/config.hpp"
#include "herd/protocol.hpp"
#include "herd/shard.hpp"
#include "herd/testbed.hpp"
#include "kv/keyhash.hpp"

namespace herd {
namespace {

using core::HerdConfig;
using core::ClientResilience;
using core::kNoBackup;
using core::ShardMap;

TEST(ShardMap, InitialLayoutReplicated) {
  ShardMap m(4, /*replicated=*/true);
  ASSERT_EQ(m.n_shards(), 4u);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(m.at(s).primary, s);
    EXPECT_EQ(m.at(s).backup, (s + 1) % 4);
    EXPECT_EQ(m.at(s).epoch, 0u);
  }
}

TEST(ShardMap, UnreplicatedHasNoBackups) {
  ShardMap m(3, /*replicated=*/false);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(m.at(s).primary, s);
    EXPECT_EQ(m.at(s).backup, kNoBackup);
  }
}

TEST(ShardMap, ShardOfMatchesPartitionOf) {
  // Client-side routing and the legacy EREW partitioning must agree, or
  // replication on/off would move keys between processes.
  ShardMap m(6, true);
  for (std::uint64_t rank = 0; rank < 4096; ++rank) {
    kv::KeyHash k = kv::hash_of_rank(rank);
    EXPECT_EQ(m.shard_of(k), kv::partition_of(k, 6));
  }
}

TEST(ShardMap, PromoteMovesPrimaryAndBumpsEpoch) {
  ShardMap m(2, true);
  m.promote(0);
  EXPECT_EQ(m.at(0).primary, 1u);
  EXPECT_EQ(m.at(0).backup, kNoBackup);
  EXPECT_EQ(m.at(0).epoch, 1u);
  // The sibling shard is untouched.
  EXPECT_EQ(m.at(1).primary, 1u);
  EXPECT_EQ(m.at(1).epoch, 0u);
  // No backup left: promoting again is a logic error, not silent data loss.
  EXPECT_THROW(m.promote(0), std::logic_error);
}

TEST(ShardMap, SetBackupDoesNotBumpEpoch) {
  // Backup changes (crash takes one away, rejoin brings one back) don't
  // invalidate client routing — only primary changes do.
  ShardMap m(2, true);
  m.set_backup(0, kNoBackup);
  EXPECT_EQ(m.at(0).epoch, 0u);
  m.set_backup(0, 1);
  EXPECT_EQ(m.at(0).epoch, 0u);
  EXPECT_EQ(m.at(0).backup, 1u);
}

TEST(ShardMap, MigrateHandsOffToDestKeepsOldPrimaryAsBackup) {
  ShardMap m(3, true);
  m.migrate(0, 2);
  EXPECT_EQ(m.at(0).primary, 2u);
  EXPECT_EQ(m.at(0).backup, 0u);  // old primary's replica is complete
  EXPECT_EQ(m.at(0).epoch, 1u);
}

TEST(ShardMap, RefreshAdvancesOnlyOnNewerEpoch) {
  ShardMap m(2, true);
  // Stale or equal epochs are ignored (a delayed redirect must not rewind).
  EXPECT_FALSE(m.refresh(0, 1, 0));
  EXPECT_TRUE(m.refresh(0, 1, 3));
  EXPECT_EQ(m.at(0).primary, 1u);
  EXPECT_EQ(m.at(0).epoch, 3u);
  EXPECT_FALSE(m.refresh(0, 0, 2));
  EXPECT_EQ(m.at(0).primary, 1u);
}

TEST(Protocol, EpochHeaderRoundTrips) {
  std::byte slot[core::kSlotBytes] = {};
  std::byte payload[64];
  for (int i = 0; i < 64; ++i) payload[i] = static_cast<std::byte>(i);
  core::Request req;
  req.key = kv::hash_of_rank(7);
  req.is_put = true;
  req.token = 0xDEADBEEFu;
  req.epoch = 41;
  req.value = payload;
  constexpr core::WireFormat kReplicated{.token = true, .epoch = true};
  core::encode_request(slot, req, kReplicated);
  auto got = core::decode_request(slot, kReplicated);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->key, req.key);
  EXPECT_TRUE(got->is_put);
  EXPECT_EQ(got->token, req.token);
  EXPECT_EQ(got->epoch, 41u);
  ASSERT_EQ(got->value.size(), 64u);
  EXPECT_TRUE(std::equal(got->value.begin(), got->value.end(), payload));
}

TEST(Protocol, MaxReplicatedValueStillFitsTheSlot) {
  constexpr core::WireFormat kReplicated{.token = true, .epoch = true};
  EXPECT_EQ(kReplicated.max_value(),
            core::kSlotBytes - core::kReqTrailer - core::kTokenBytes -
                core::kEpochBytes);
  EXPECT_EQ(kReplicated.request_bytes(kReplicated.max_value()),
            core::kSlotBytes);
  // The unreplicated maximum would overflow a slot once the epoch header
  // is on the wire — the validation rule max_value() exists for.
  EXPECT_GT(kReplicated.request_bytes(core::kMaxValue), core::kSlotBytes);
}

TEST(Protocol, RedirectRoundTrips) {
  std::byte buf[core::kRedirectBytes];
  core::encode_redirect(buf, 3, 0x1'0000'0007ull);  // epoch truncates to u32
  auto rd = core::decode_redirect(buf);
  ASSERT_TRUE(rd.has_value());
  EXPECT_EQ(rd->primary, 3u);
  EXPECT_EQ(rd->epoch, 7u);
  EXPECT_FALSE(core::decode_redirect(std::span<const std::byte>(buf, 4)));
}

// A default testbed carrying `h` and `r`: build() throws exactly when
// core::validate(h, r) (or a testbed-level rule) reports a problem.
core::TestbedConfig build(const HerdConfig& h, const ClientResilience& r) {
  core::TestbedConfig cfg;
  cfg.herd = h;
  cfg.resilience = r;
  return core::TestbedConfigBuilder(cfg).build();
}

TEST(ConfigBuilder, ValidSetupBuilds) {
  HerdConfig h;
  h.n_server_procs = 2;
  h.request_tokens = true;
  h.replicate = true;
  ClientResilience r;
  r.retry_timeout = sim::us(30);
  r.deadline = sim::ms(1);
  r.failover_threshold = 3;
  EXPECT_TRUE(core::validate(h, r).empty());
  auto built = build(h, r);
  EXPECT_TRUE(built.herd.replicate);
  EXPECT_EQ(built.resilience.failover_threshold, 3u);
}

TEST(ConfigBuilder, DeadlinesAndFailoverRequireTokens) {
  HerdConfig h;
  h.n_server_procs = 2;
  ClientResilience r;
  r.deadline = sim::ms(1);
  EXPECT_FALSE(core::validate(h, r).empty());
  EXPECT_THROW(build(h, r), std::invalid_argument);
}

TEST(ConfigBuilder, FailoverNeedsASecondServerProcess) {
  HerdConfig h;
  h.n_server_procs = 1;
  h.request_tokens = true;
  ClientResilience r;
  r.failover_threshold = 3;
  auto problems = core::validate(h, r);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("second server process"), std::string::npos);
  EXPECT_THROW(build(h, r), std::invalid_argument);
}

TEST(ConfigBuilder, ReplicationNeedsTokensAndTwoProcs) {
  HerdConfig h;
  h.n_server_procs = 2;
  h.replicate = true;
  EXPECT_THROW(build(h, {}), std::invalid_argument);
  h.n_server_procs = 1;
  h.request_tokens = true;
  EXPECT_THROW(build(h, {}), std::invalid_argument);
  h.n_server_procs = 2;
  EXPECT_NO_THROW(build(h, {}));
}

TEST(ConfigBuilder, DedupRetentionMustOutliveRetryHorizon) {
  HerdConfig h;
  h.n_server_procs = 2;
  h.request_tokens = true;
  h.dedup_retention = sim::ms(1);  // < deadline + backoff_max
  ClientResilience r;
  r.retry_timeout = sim::us(30);
  r.deadline = sim::ms(10);
  EXPECT_FALSE(core::validate(h, r).empty());
  EXPECT_THROW(build(h, r), std::invalid_argument);
}

TEST(ConfigBuilder, AllProblemsReportedAtOnce) {
  // One build error lists every violated rule, not just the first.
  HerdConfig h;
  h.n_server_procs = 1;
  h.replicate = true;
  ClientResilience r;
  r.failover_threshold = 2;
  try {
    build(h, r);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("failover"), std::string::npos);
    EXPECT_NE(msg.find("replicate"), std::string::npos);
    EXPECT_GT(std::count(msg.begin(), msg.end(), '\n'), 2);
  }
}

}  // namespace
}  // namespace herd
