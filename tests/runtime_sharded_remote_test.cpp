// ShardedVoterServer over the deterministic simulation: the real shard
// state machines (accept hand-off, migration, cross-shard forwarding,
// fan-out verbs) run on N SimReactors pumped by one thread, so every
// scenario here replays bit-identically from its seed.

#include "runtime/sharded_remote.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "runtime/sim_net.h"
#include "util/strings.h"

namespace avoc::runtime {
namespace {

constexpr uint16_t kPort = 7;

std::unique_ptr<Transport> MustConnect(SimWorld& world, uint16_t port) {
  auto transport = world.Connect(port);
  EXPECT_TRUE(transport.ok()) << transport.status().ToString();
  return std::move(*transport);
}

/// Sends one request line and returns the reply line.
std::string Exchange(Transport& connection, const std::string& line) {
  EXPECT_TRUE(connection.SendLine(line).ok());
  auto reply = connection.ReceiveLine();
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  return reply.ok() ? *reply : "<" + reply.status().ToString() + ">";
}

std::vector<BatchReading> MakeReadings(size_t n, uint64_t round = 0) {
  std::vector<BatchReading> readings;
  for (uint64_t m = 0; m < n; ++m) readings.push_back({m, round, 20.0 + m});
  return readings;
}

class ShardedSimTest : public ::testing::Test {
 protected:
  /// Builds an n-shard server over the simulation with the given groups
  /// registered and serving.
  void StartSharded(uint64_t seed, size_t shards,
                    const std::vector<std::string>& groups,
                    SimWorld::Options world_options = {},
                    ShardedServerOptions server_options = {},
                    std::map<std::string, size_t> modules_for = {}) {
    world_ = std::make_unique<SimWorld>(seed, world_options);
    auto listener = world_->Listen(kPort);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    std::vector<std::shared_ptr<Reactor>> reactors;
    reactors.push_back(world_->reactor());
    for (size_t s = 1; s < shards; ++s) reactors.push_back(world_->NewReactor());
    server_options.shards = shards;
    auto server = ShardedVoterServer::StartOnReactors(
        server_options, std::move(*listener), std::move(reactors),
        /*spawn_loop_threads=*/false, /*store=*/nullptr, &registry_);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
    for (const std::string& g : groups) {
      const auto it = modules_for.find(g);
      const size_t modules = it == modules_for.end() ? 3 : it->second;
      ASSERT_TRUE(server_
                      ->AddGroup(g, *core::MakeEngine(core::AlgorithmId::kAvoc,
                                                      modules))
                      .ok())
          << g;
    }
    ASSERT_TRUE(server_->Serve().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  RemoteVoterClient MustClient() {
    auto client =
        RemoteVoterClient::FromTransport(MustConnect(*world_, kPort));
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  /// Some group owned by `shard` (ASSERT-fails when none exists).
  std::string GroupOwnedBy(size_t shard,
                           const std::vector<std::string>& groups) {
    for (const std::string& g : groups) {
      if (server_->shard_of(g) == shard) return g;
    }
    ADD_FAILURE() << "no group owned by shard " << shard;
    return groups.front();
  }

  obs::Registry registry_;
  std::unique_ptr<SimWorld> world_;
  std::unique_ptr<ShardedVoterServer> server_;
};

// Enough names that every shard of a 3-shard server owns at least one
// (assignments are pinned by the GroupRouter golden test).
const std::vector<std::string> kGroups = {"group-0", "group-1", "group-2",
                                          "group-3", "group-7", "sensor",
                                          "humidity", "co2"};

TEST_F(ShardedSimTest, GroupPlacementMatchesRouter) {
  StartSharded(21, 3, kGroups);
  ASSERT_EQ(server_->shard_count(), 3u);
  size_t total = 0;
  for (size_t shard = 0; shard < 3; ++shard) {
    const auto names = server_->manager(shard).GroupNames();
    total += names.size();
    for (const std::string& name : names) {
      EXPECT_EQ(server_->shard_of(name), shard) << name;
    }
  }
  EXPECT_EQ(total, kGroups.size());  // disjoint and exhaustive
  // Every shard owns at least one group from this set.
  for (size_t shard = 0; shard < 3; ++shard) {
    EXPECT_FALSE(server_->manager(shard).GroupNames().empty()) << shard;
  }
}

TEST_F(ShardedSimTest, FirstGroupRequestMigratesToOwningShard) {
  StartSharded(22, 3, kGroups);
  // The first accepted connection lands on shard 0 (round-robin start);
  // submitting to a group owned elsewhere must migrate it.
  const std::string group = GroupOwnedBy(2, kGroups);
  RemoteVoterClient client = MustClient();
  auto accepted = client.SubmitBatch(group, MakeReadings(3));
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(*accepted, 3u);
  EXPECT_GE(server_->migrations(), 1u);

  // The round reached the owning shard's sink, not any other's.
  auto sink = server_->sink(group);
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ((*sink)->output_count(), 1u);
  ASSERT_TRUE(server_->manager(2).sink(group).ok());
  EXPECT_FALSE(server_->manager(0).sink(group).ok());

  // Follow-up requests are shard-local now: no forwarding needed.
  const size_t forwarded_before = server_->forwarded_requests();
  auto value = client.Query(group);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(server_->forwarded_requests(), forwarded_before);
}

TEST_F(ShardedSimTest, ForeignGroupRequestsForwardWithRepliesInOrder) {
  // `home` fuses 2 modules, `away` 3: full-round accepted counts then
  // discriminate local (2) from forwarded (3) replies, so any reply
  // reordering under pipelining is visible to the client.
  StartSharded(23, 3, kGroups, {}, {}, {{"group-1", 2}});
  RemoteVoterClient client = MustClient();
  const std::string home = "group-1";  // shard 1 (pinned by golden test)
  const std::string away = GroupOwnedBy(2, kGroups);
  ASSERT_EQ(server_->shard_of(home), 1u);

  // Pin (and migrate) to `home`'s shard first.
  ASSERT_TRUE(client.SubmitBatch(home, MakeReadings(2)).ok());

  // Pipeline local and foreign full rounds interleaved.
  ASSERT_TRUE(client.PipelineSubmitBatch(home, MakeReadings(2, 1)).ok());
  ASSERT_TRUE(client.PipelineSubmitBatch(away, MakeReadings(3, 1)).ok());
  ASSERT_TRUE(client.PipelineSubmitBatch(home, MakeReadings(2, 2)).ok());
  ASSERT_TRUE(client.PipelineSubmitBatch(away, MakeReadings(3, 2)).ok());
  for (uint64_t expect : {2u, 3u, 2u, 3u}) {
    auto accepted = client.AwaitSubmitBatch();
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    EXPECT_EQ(*accepted, expect);
  }
  EXPECT_GE(server_->forwarded_requests(), 2u);

  // Both groups saw their rounds, each on its own shard.
  auto home_sink = server_->sink(home);
  auto away_sink = server_->sink(away);
  ASSERT_TRUE(home_sink.ok());
  ASSERT_TRUE(away_sink.ok());
  EXPECT_EQ((*home_sink)->output_count(), 3u);
  EXPECT_EQ((*away_sink)->output_count(), 2u);

  // Cross-shard QUERY forwards too.
  auto value = client.Query(away);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
}

TEST_F(ShardedSimTest, MixedProtocolsOnDifferentShardsConcurrently) {
  StartSharded(24, 3, kGroups);
  const std::string binary_group = GroupOwnedBy(1, kGroups);
  const std::string legacy_group = GroupOwnedBy(2, kGroups);

  RemoteVoterClient binary = MustClient();
  std::unique_ptr<Transport> line = MustConnect(*world_, kPort);

  // Interleave requests so both connections are live at once, each
  // migrated to (and served by) a different shard in its own protocol.
  ASSERT_TRUE(binary.SubmitBatch(binary_group, MakeReadings(3)).ok());
  for (int m = 0; m < 3; ++m) {
    ASSERT_EQ(Exchange(*line, StrFormat("SUBMIT %s %d 0 %d",
                                        legacy_group.c_str(), m, 30 + m)),
              "OK");
  }
  ASSERT_TRUE(binary.SubmitBatch(binary_group, MakeReadings(3, 1)).ok());
  ASSERT_EQ(Exchange(*line, "CLOSE " + legacy_group + " 0"), "OK");

  auto binary_value = binary.Query(binary_group);
  ASSERT_TRUE(binary_value.ok()) << binary_value.status().ToString();
  const std::string legacy_value = Exchange(*line, "QUERY " + legacy_group);
  const auto fused = (*server_->sink(legacy_group))->last_value();
  ASSERT_TRUE(fused.has_value());
  EXPECT_EQ(legacy_value, StrFormat("VALUE %.17g", *fused));
  EXPECT_NEAR(*fused, 31.0, 1.5);
  EXPECT_GE(server_->migrations(), 2u);

  // Cross-protocol isolation: each group fused on its own shard only.
  EXPECT_EQ((*server_->sink(binary_group))->output_count(), 2u);
  EXPECT_EQ((*server_->sink(legacy_group))->output_count(), 1u);
}

TEST_F(ShardedSimTest, DedupReplayWorksAfterMigration) {
  StartSharded(25, 3, kGroups);
  const std::string group = GroupOwnedBy(2, kGroups);
  RemoteVoterClient client = MustClient();

  auto first = client.SubmitBatchSeq("edge-7", 1, group, MakeReadings(3));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, 3u);

  // The retry lands on the same owning shard (stable routing), so the
  // dedup window sees it even though the connection migrated.
  auto replay = client.SubmitBatchSeq("edge-7", 1, group, MakeReadings(3));
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(*replay, 3u);
  EXPECT_EQ((*server_->sink(group))->output_count(), 1u);  // once, not twice
  EXPECT_EQ(server_->dedup_replays(), 1u);
}

TEST_F(ShardedSimTest, FanOutVerbsSeeEveryShard) {
  StartSharded(26, 3, kGroups);
  RemoteVoterClient client = MustClient();
  // Pin the connection to a non-zero shard so the fan-out answers below
  // provably cross shards.
  ASSERT_TRUE(client.SubmitBatch(GroupOwnedBy(1, kGroups), MakeReadings(3))
                  .ok());

  // GROUPS: the frozen global list, from any shard.
  auto groups = client.Groups();
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  std::vector<std::string> sorted = kGroups;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(*groups, sorted);

  // HEALTH: one line per group, scatter-gathered across shards.
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->size(), kGroups.size());
  for (const std::string& g : kGroups) {
    const bool present =
        std::any_of(health->begin(), health->end(), [&](const std::string& l) {
          return l.find(g) != std::string::npos;
        });
    EXPECT_TRUE(present) << g;
  }

  // METRICS: the shared registry, with per-shard scoped families.
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("shard=\"s0\""), std::string::npos);
  EXPECT_NE(metrics->find("shard=\"s1\""), std::string::npos);
  EXPECT_NE(metrics->find("avoc_shard_groups"), std::string::npos);
}

// A connection's first group-addressed frame migrates it to the owning
// shard — but not while a reply is still pending where it is (here a
// pipelined HEALTH fan-out, whose parts assemble on the accepting shard):
// that frame forwards instead, so the pending reply is not stranded.
TEST_F(ShardedSimTest, PendingFanOutKeepsConnectionOnItsShard) {
  StartSharded(31, 2, kGroups);
  const std::string away = GroupOwnedBy(1, kGroups);
  std::unique_ptr<Transport> raw = MustConnect(*world_, kPort);  // on s0
  std::string bytes(reinterpret_cast<const char*>(kBinaryMagic), 2);
  bytes += EncodeFrame(FrameType::kHealth);
  bytes += EncodeFrame(FrameType::kSubmitBatch,
                       EncodeSubmitBatch(away, MakeReadings(3)));
  ASSERT_TRUE(raw->SendAll(bytes).ok());
  FrameDecoder decoder;
  std::vector<Frame> replies;
  char chunk[4096];
  while (replies.size() < 2) {
    auto frame = decoder.Next();
    if (frame.ok()) {
      replies.push_back(std::move(*frame));
      continue;
    }
    auto n = raw->ReceiveSome(chunk, sizeof(chunk));
    ASSERT_TRUE(n.ok()) << "reply lost: " << n.status().ToString();
    decoder.Feed(std::string_view(chunk, *n));
  }
  EXPECT_EQ(replies[0].type, FrameType::kText);
  ASSERT_EQ(replies[1].type, FrameType::kOk);
  uint64_t accepted = 0;
  ASSERT_TRUE(DecodeOk(replies[1].payload, &accepted).ok());
  EXPECT_EQ(accepted, 3u);
  EXPECT_EQ(server_->migrations(), 0u);
  EXPECT_EQ(server_->forwarded_requests(), 1u);
}

TEST_F(ShardedSimTest, ShardScopedMetricsCountMigrationsAndForwards) {
  StartSharded(27, 3, kGroups);
  RemoteVoterClient client = MustClient();
  ASSERT_TRUE(client.SubmitBatch(GroupOwnedBy(1, kGroups), MakeReadings(3))
                  .ok());
  ASSERT_TRUE(client.SubmitBatch(GroupOwnedBy(2, kGroups), MakeReadings(3))
                  .ok());

  // Shard 0 migrated the connection out; shard 1 adopted it and then
  // forwarded the foreign submit to shard 2.
  EXPECT_EQ(registry_
                .GetCounter(obs::LabeledName("avoc_shard_migrations_total",
                                             {{"shard", "s0"}}))
                .Value(),
            1u);
  EXPECT_GE(registry_
                .GetCounter(obs::LabeledName("avoc_shard_adopted_total",
                                             {{"shard", "s1"}}))
                .Value(),
            1u);
  EXPECT_EQ(registry_
                .GetCounter(obs::LabeledName("avoc_shard_forwarded_total",
                                             {{"shard", "s1"}}))
                .Value(),
            1u);
  // Ownership gauges cover the whole group set.
  size_t owned = 0;
  for (size_t s = 0; s < 3; ++s) {
    owned += static_cast<size_t>(
        registry_
            .GetGauge(obs::LabeledName("avoc_shard_groups",
                                        {{"shard", "s" + std::to_string(s)}}))
            .Value());
  }
  EXPECT_EQ(owned, kGroups.size());
}

TEST_F(ShardedSimTest, RoundRobinHandoffSpreadsFreshConnections) {
  StartSharded(28, 2, kGroups);
  // Two ping-only clients: neither ever pins, so they stay where the
  // acceptor handed them — one on each shard.
  RemoteVoterClient a = MustClient();
  RemoteVoterClient b = MustClient();
  ASSERT_TRUE(a.Ping().ok());
  ASSERT_TRUE(b.Ping().ok());
  EXPECT_EQ(server_->migrations(), 0u);
  EXPECT_EQ(server_->requests_served(), 2u);
  EXPECT_EQ(registry_
                .GetCounter(obs::LabeledName("avoc_shard_adopted_total",
                                             {{"shard", "s1"}}))
                .Value(),
            1u);
}

TEST_F(ShardedSimTest, SingleShardDegradesToPlainServer) {
  StartSharded(29, 1, {"lights"});
  RemoteVoterClient client = MustClient();
  auto accepted = client.SubmitBatch("lights", MakeReadings(3));
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(*accepted, 3u);
  EXPECT_EQ(server_->migrations(), 0u);
  EXPECT_EQ(server_->forwarded_requests(), 0u);
  auto groups = client.Groups();
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->size(), 1u);
}

TEST_F(ShardedSimTest, GroupRegistrationFrozenAfterServe) {
  StartSharded(30, 2, kGroups);
  auto status =
      server_->AddGroup("late", *core::MakeEngine(core::AlgorithmId::kAvoc, 3));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
}

// Same seed, same scripted run => bit-identical world traces even with
// three reactors exchanging cross-shard mailbox posts.
TEST_F(ShardedSimTest, MultiShardRunsReplayDeterministically) {
  auto run = [](uint64_t seed) {
    SimWorld::Options options;
    options.fault_plan = FaultPlan::Gentle(seed);
    SimWorld world(seed, options);
    auto listener = world.Listen(kPort);
    EXPECT_TRUE(listener.ok());
    std::vector<std::shared_ptr<Reactor>> reactors = {world.reactor(),
                                                      world.NewReactor(),
                                                      world.NewReactor()};
    ShardedServerOptions server_options;
    server_options.shards = 3;
    obs::Registry registry;
    auto server = ShardedVoterServer::StartOnReactors(
        server_options, std::move(*listener), std::move(reactors), false,
        nullptr, &registry);
    EXPECT_TRUE(server.ok());
    for (const std::string& g : kGroups) {
      EXPECT_TRUE(
          (*server)
              ->AddGroup(g, *core::MakeEngine(core::AlgorithmId::kAvoc, 3))
              .ok());
    }
    EXPECT_TRUE((*server)->Serve().ok());
    {
      auto transport = world.Connect(kPort);
      EXPECT_TRUE(transport.ok());
      auto client = RemoteVoterClient::FromTransport(std::move(*transport));
      EXPECT_TRUE(client.ok());
      for (const std::string& g : kGroups) {
        (void)client->SubmitBatch(g, MakeReadings(3));
      }
      (void)client->Health();
    }
    world.RunFor(500);
    (*server)->Stop();
    return world.TraceText();
  };
  const std::string first = run(404);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run(404));
}

// The real thing, briefly: TCP listener, one EventLoop thread per shard.
TEST(ShardedTcpSmoke, ServesOverRealSockets) {
  ShardedServerOptions options;
  options.shards = 2;
  obs::Registry registry;
  auto server = ShardedVoterServer::Start(options, nullptr, &registry);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const std::vector<std::string> names = {"alpha", "beta", "gamma", "delta"};
  for (const std::string& g : names) {
    ASSERT_TRUE(
        (*server)
            ->AddGroup(g, *core::MakeEngine(core::AlgorithmId::kAvoc, 3))
            .ok());
  }
  ASSERT_TRUE((*server)->Serve().ok());

  auto client = RemoteVoterClient::ConnectBinary("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (const std::string& g : names) {
    auto accepted = client->SubmitBatch(g, MakeReadings(3));
    ASSERT_TRUE(accepted.ok()) << g << ": " << accepted.status().ToString();
    EXPECT_EQ(*accepted, 3u);
    EXPECT_EQ((*(*server)->sink(g))->output_count(), 1u);
  }
  auto groups = client->Groups();
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->size(), 4u);
  auto health = client->Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->size(), 4u);
  (*server)->Stop();
}

}  // namespace
}  // namespace avoc::runtime
