// Request accounting across every path a request can take through
// RemoteVoterServer's one dispatch path, over the deterministic
// simulation: a 2-shard server (local, forwarded, migrated-connection,
// HEALTH fan-out, busy-rejected, malformed line, unknown verb, poisoned
// frame) and a 2-node cluster with hot standbys (standby-held, dedup
// replay, MOVED, parked then resolved, MIGRATE_GROUP).
//
// Once the replies drained, every metrics scope must read
// frames_in_total == frames_out_total, the scopes together must have
// counted exactly the replies the clients received (as must
// requests_served()), and avoc_remote_request_latency_ns{verb=...} must
// have timed exactly the verb executions — wherever they ran.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "runtime/cluster.h"
#include "runtime/migration.h"
#include "runtime/remote.h"
#include "runtime/sharded_remote.h"
#include "runtime/sim_net.h"

namespace avoc::runtime {
namespace {

constexpr uint16_t kPort = 7;

std::vector<BatchReading> Round(uint64_t round) {
  return {{0, round, 20.0}, {1, round, 20.5}, {2, round, 21.0}};
}

std::string Preamble() {
  return std::string(reinterpret_cast<const char*>(kBinaryMagic), 2);
}

/// Reads up to `want` reply frames off a raw binary connection (fewer
/// when it hangs up first).
std::vector<Frame> ReadFrames(Transport& connection, size_t want) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  char chunk[4096];
  while (frames.size() < want) {
    auto frame = decoder.Next();
    if (frame.ok()) {
      frames.push_back(std::move(*frame));
      continue;
    }
    if (frame.status().code() != ErrorCode::kNotFound) break;
    auto n = connection.ReceiveSome(chunk, sizeof(chunk));
    if (!n.ok()) break;
    decoder.Feed(std::string_view(chunk, *n));
  }
  return frames;
}

/// Sends one request line and returns the reply line.
std::string Exchange(Transport& connection, const std::string& line) {
  EXPECT_TRUE(connection.SendLine(line).ok());
  auto reply = connection.ReceiveLine();
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  return reply.ok() ? *reply : "<" + reply.status().ToString() + ">";
}

/// QUERY answers VALUE or NONE (NotFound at the client): both are replies.
bool Answered(const Result<double>& value) {
  return value.ok() || value.status().code() == ErrorCode::kNotFound;
}

/// Checks frames_in == frames_out in every scope and returns the scopes'
/// frames_in sum.
uint64_t BalancedFramesIn(obs::Registry& registry,
                          const std::vector<obs::Label>& scopes) {
  uint64_t total = 0;
  for (const obs::Label& scope : scopes) {
    const uint64_t in =
        registry.GetCounter(obs::LabeledName("avoc_remote_frames_in_total",
                                             {scope}))
            .Value();
    const uint64_t out =
        registry.GetCounter(obs::LabeledName("avoc_remote_frames_out_total",
                                             {scope}))
            .Value();
    EXPECT_EQ(in, out) << scope.first << "=" << scope.second;
    total += in;
  }
  return total;
}

uint64_t VerbExecutions(obs::Registry& registry) {
  return registry.MergeHistograms("avoc_remote_request_latency_ns").count;
}

TEST(DispatchAccountingTest, ShardScopesCountEveryReplyAndTimeEveryVerb) {
  SimWorld world(7101);
  obs::Registry registry;
  auto listener = world.Listen(kPort);
  ASSERT_TRUE(listener.ok());
  ShardedServerOptions options;
  options.shards = 2;
  options.base.write_high_water_bytes = 4096;
  auto server = ShardedVoterServer::StartOnReactors(
      options, std::move(*listener), {world.reactor(), world.NewReactor()},
      /*spawn_loop_threads=*/false, /*store=*/nullptr, &registry);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  std::string home;  // owned by shard 0
  std::string away;  // owned by shard 1
  for (const std::string g : {"group-0", "group-1", "group-2", "group-3"}) {
    ASSERT_TRUE((*server)
                    ->AddGroup(g, *core::MakeEngine(core::AlgorithmId::kAvoc,
                                                    3))
                    .ok());
    ((*server)->shard_of(g) == 0 ? home : away) = g;
  }
  ASSERT_FALSE(home.empty());
  ASSERT_FALSE(away.empty());
  ASSERT_TRUE((*server)->Serve().ok());
  const auto client = [&] {
    auto transport = world.Connect(kPort);
    EXPECT_TRUE(transport.ok());
    auto connected = RemoteVoterClient::FromTransport(std::move(*transport));
    EXPECT_TRUE(connected.ok());
    return std::move(*connected);
  };
  size_t replies = 0;
  size_t executions = 0;

  // Accepted connections alternate s0, s1, s0, ...  The first one is
  // pinned to s0 by its SUBMIT_BATCH, so its QUERYs for `away` forward.
  RemoteVoterClient local = client();
  ASSERT_TRUE(local.Ping().ok());
  ASSERT_TRUE(local.Health().ok());  // fans out to both shards
  ASSERT_TRUE(local.SubmitBatch(home, Round(0)).ok());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(Answered(local.Query(away)));
  ASSERT_TRUE(local.Metrics().ok());
  replies += 14;
  executions += 14;

  // Lands on s1; its first frame migrates the connection to s0.
  RemoteVoterClient migrated = client();
  ASSERT_TRUE(migrated.SubmitBatch(home, Round(1)).ok());
  EXPECT_TRUE(Answered(migrated.Query(home)));
  replies += 2;
  executions += 2;
  EXPECT_EQ((*server)->migrations(), 1u);

  // Line connection on s0: a malformed line is answered, not executed.
  auto line = world.Connect(kPort);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(Exchange(**line, "BOGUS 1 2").rfind("ERR ", 0), 0u);
  EXPECT_EQ(Exchange(**line, "PING"), "PONG");
  replies += 2;
  executions += 1;

  // A byte that names no verb: answered, not executed.
  auto unknown = world.Connect(kPort);
  ASSERT_TRUE(unknown.ok());
  ASSERT_TRUE(
      (*unknown)
          ->SendAll(Preamble() + EncodeFrame(static_cast<FrameType>(0x7F)))
          .ok());
  const std::vector<Frame> unknown_reply = ReadFrames(**unknown, 1);
  ASSERT_EQ(unknown_reply.size(), 1u);
  EXPECT_EQ(unknown_reply[0].type, FrameType::kError);
  replies += 1;

  // A pipelined METRICS burst: the first reply alone passes the high-water
  // mark, so the rest are answered busy without executing.
  auto burst = world.Connect(kPort);
  ASSERT_TRUE(burst.ok());
  constexpr size_t kBurst = 16;
  std::string bytes = Preamble();
  for (size_t i = 0; i < kBurst; ++i) bytes += EncodeFrame(FrameType::kMetrics);
  ASSERT_TRUE((*burst)->SendAll(bytes).ok());
  const std::vector<Frame> burst_replies = ReadFrames(**burst, kBurst);
  ASSERT_EQ(burst_replies.size(), kBurst);
  size_t busy = 0;
  for (const Frame& frame : burst_replies) {
    if (frame.type == FrameType::kError) ++busy;
  }
  EXPECT_GT(busy, 0u);
  EXPECT_LT(busy, kBurst);
  replies += kBurst;
  executions += kBurst - busy;

  // A zero-length frame poisons the stream: one ERR, then the hang-up.
  auto poisoned = world.Connect(kPort);
  ASSERT_TRUE(poisoned.ok());
  ASSERT_TRUE((*poisoned)->SendAll(Preamble() + std::string(1, '\0')).ok());
  const std::vector<Frame> poison_reply = ReadFrames(**poisoned, 2);
  ASSERT_EQ(poison_reply.size(), 1u);
  EXPECT_EQ(poison_reply[0].type, FrameType::kError);
  replies += 1;

  world.Pump();
  EXPECT_EQ(BalancedFramesIn(registry, {{"shard", "s0"}, {"shard", "s1"}}),
            replies);
  EXPECT_EQ((*server)->requests_served(), replies);
  EXPECT_EQ(VerbExecutions(registry), executions);
  // Forwarded frames are timed on the shard that executed them.
  EXPECT_EQ(registry
                .GetHistogram(obs::LabeledName(
                    "avoc_remote_request_latency_ns",
                    {{"shard", "s1"}, {"verb", "QUERY"}}))
                .count(),
            10u);
  (*server)->Stop();
}

TEST(DispatchAccountingTest, ClusterScopesCountEveryReplyAndTimeEveryVerb) {
  SimWorld world(7102);
  obs::Registry registry;
  VoterCluster::Options options;
  options.nodes = 2;
  options.hot_standbys = true;
  auto cluster = VoterCluster::StartOnWorld(&world, options, &registry);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_TRUE((*cluster)
                  ->AddGroup("lights",
                             [] {
                               return core::MakeEngine(
                                   core::AlgorithmId::kAvoc, 3);
                             })
                  .ok());
  const size_t owner = (*cluster)->OwnerOf("lights");
  const size_t other = 1 - owner;
  const auto client = [&](size_t node) {
    auto transport = (*cluster)->DialNode(node);
    EXPECT_TRUE(transport.ok());
    auto connected = RemoteVoterClient::FromTransport(std::move(*transport));
    EXPECT_TRUE(connected.ok());
    return std::move(*connected);
  };
  size_t replies = 0;
  size_t executions = 0;

  // Standby-held mutating frames execute on the primary, then again on
  // its standby (the replay is answered from both dedup caches).
  RemoteVoterClient primary = client(owner);
  ASSERT_TRUE(primary.SubmitBatch("lights", Round(0)).ok());
  ASSERT_TRUE(primary.SubmitBatchSeq("edge", 1, "lights", Round(1)).ok());
  ASSERT_TRUE(primary.SubmitBatchSeq("edge", 1, "lights", Round(1)).ok());
  EXPECT_TRUE(Answered(primary.Query("lights")));
  replies += 4;
  executions += 3 * 2 + 1;
  EXPECT_EQ((*cluster)->ActiveServer(owner)->dedup_replays(), 1u);

  auto line = (*cluster)->DialNode(owner);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(Exchange(**line, "BOGUS").rfind("ERR ", 0), 0u);
  EXPECT_EQ(Exchange(**line, "SUBMIT lights 0 2 20.5"), "OK");
  replies += 2;
  executions += 2;

  // The non-owner redirects without executing.
  RemoteVoterClient stray = client(other);
  uint64_t moved_to = 99;
  auto redirected = stray.SubmitBatch("lights", Round(2));
  EXPECT_TRUE(TryParseMoved(redirected.status(), &moved_to));
  EXPECT_EQ(moved_to, owner);
  replies += 1;

  // The operator migration quiesces the group before the next frame
  // arrives; the frame parks and resolves to MOVED once the handoff
  // commits.
  bool migrated = false;
  (*cluster)->Migrate("lights", other, [&](Status status) {
    EXPECT_TRUE(status.ok()) << status.ToString();
    migrated = true;
  });
  auto parked = primary.SubmitBatch("lights", Round(3));
  EXPECT_TRUE(TryParseMoved(parked.status(), &moved_to))
      << parked.status().ToString();
  EXPECT_EQ(moved_to, other);
  EXPECT_TRUE(migrated);
  replies += 1;

  // MIGRATE_GROUP on the wire: the new owner hands the group back.
  RemoteVoterClient operator_client = client(other);
  ASSERT_TRUE(operator_client.MigrateGroup("lights", owner).ok());
  EXPECT_EQ((*cluster)->OwnerOf("lights"), owner);
  replies += 1;
  executions += 1;

  world.Pump();
  EXPECT_EQ(BalancedFramesIn(registry, {{"node", "n0"},
                                        {"node", "n1"},
                                        {"node", "n0s"},
                                        {"node", "n1s"}}),
            replies);
  size_t served = 0;
  for (size_t node = 0; node < options.nodes; ++node) {
    served += (*cluster)->ActiveServer(node)->requests_served() +
              (*cluster)->StandbyServer(node)->requests_served();
  }
  EXPECT_EQ(served, replies);
  EXPECT_EQ(VerbExecutions(registry), executions);
  (*cluster)->Stop();
}

}  // namespace
}  // namespace avoc::runtime
