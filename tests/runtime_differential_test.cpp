// Differential test: five ingest paths, one truth.
//
// The same seeded workload is pushed through (a) the in-process
// VoterGroupManager batch API, (b) the binary frame protocol over a
// chaotic-but-healing simulated network with the resilient client, (c)
// raw line-protocol SUBMIT lines over a gentle simulated network
// (delays and fragmentation only — the line protocol has no retry
// identity), (d) the 3-shard ShardedVoterServer under the same chaos,
// where the target group lives on whatever shard the router says and
// the connection must migrate to reach it, and (e) a 2-node VoterCluster
// under the same chaos with the group MIGRATED between nodes twice
// mid-workload, the client chasing MOVED redirects.  All five must
// produce bit-identical sink traces: same rounds, same fused values,
// no duplicates, no holes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "runtime/cluster.h"
#include "runtime/group_manager.h"
#include "runtime/remote.h"
#include "runtime/resilient.h"
#include "runtime/sharded_remote.h"
#include "runtime/sim_net.h"
#include "util/rng.h"
#include "util/strings.h"
#include "sink_rows.h"

namespace avoc::runtime {
namespace {

constexpr uint16_t kPort = 7;
constexpr size_t kModules = 3;
constexpr size_t kRounds = 6;

std::vector<std::vector<BatchReading>> WorkloadFor(uint64_t seed) {
  Rng values(seed ^ 0xD1FFull);
  std::vector<std::vector<BatchReading>> rounds;
  for (size_t r = 0; r < kRounds; ++r) {
    std::vector<BatchReading> batch;
    for (uint64_t m = 0; m < kModules; ++m) {
      batch.push_back(BatchReading{m, r, 20.0 + values.Gaussian(0.0, 2.0)});
    }
    rounds.push_back(std::move(batch));
  }
  return rounds;
}

std::string SinkTrace(const VoterGroupManager& manager) {
  auto sink = manager.sink("lights");
  if (!sink.ok()) return "<no sink>";
  std::string trace;
  for (const SinkRow& out : SinkRows(**sink)) {
    trace += StrFormat("%zu %d %a\n", out.round,
                       static_cast<int>(out.result.outcome),
                       out.result.value.value_or(-0.0));
  }
  return trace;
}

std::unique_ptr<VoterGroupManager> MakeManager(obs::Registry* registry) {
  auto manager = std::make_unique<VoterGroupManager>(nullptr, registry);
  EXPECT_TRUE(
      manager
          ->AddGroup("lights", *core::MakeEngine(core::AlgorithmId::kAvoc,
                                                 kModules))
          .ok());
  return manager;
}

std::string InProcessTrace(uint64_t seed) {
  obs::Registry registry;
  auto manager = MakeManager(&registry);
  for (const std::vector<BatchReading>& batch : WorkloadFor(seed)) {
    std::vector<ReadingMessage> readings;
    for (const BatchReading& r : batch) {
      readings.push_back(ReadingMessage{static_cast<size_t>(r.module),
                                        static_cast<size_t>(r.round),
                                        r.value});
    }
    auto stats = manager->SubmitBatch("lights", readings);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  }
  return SinkTrace(*manager);
}

std::string BinaryChaosTrace(uint64_t seed) {
  SimWorld::Options options;
  options.fault_plan = FaultPlan::Chaos(seed, 3000);
  SimWorld world(seed, options);
  obs::Registry registry;
  auto manager = MakeManager(&registry);
  auto listener = world.Listen(kPort);
  EXPECT_TRUE(listener.ok());
  auto server = RemoteVoterServer::StartOnReactor(
      manager.get(), RemoteServerOptions{}, std::move(*listener),
      world.reactor(), /*spawn_loop_thread=*/false);
  EXPECT_TRUE(server.ok()) << server.status().ToString();

  RetryPolicy policy;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 200;
  policy.request_timeout_ms = 150;
  policy.deadline_ms = 60 * 1000;
  ResilientVoterClient client([&world] { return world.Connect(kPort); },
                              &world, "diff-client", policy, seed, &registry);
  for (const std::vector<BatchReading>& batch : WorkloadFor(seed)) {
    auto accepted = client.SubmitBatch("lights", batch);
    EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
  }
  const std::string trace = SinkTrace(*manager);
  (*server)->Stop();
  return trace;
}

std::string LegacyGentleTrace(uint64_t seed) {
  SimWorld::Options options;
  options.fault_plan = FaultPlan::Gentle(seed);
  SimWorld world(seed, options);
  obs::Registry registry;
  auto manager = MakeManager(&registry);
  auto listener = world.Listen(kPort);
  EXPECT_TRUE(listener.ok());
  auto server = RemoteVoterServer::StartOnReactor(
      manager.get(), RemoteServerOptions{}, std::move(*listener),
      world.reactor(), /*spawn_loop_thread=*/false);
  EXPECT_TRUE(server.ok()) << server.status().ToString();

  auto transport = world.Connect(kPort);
  EXPECT_TRUE(transport.ok());
  for (const std::vector<BatchReading>& batch : WorkloadFor(seed)) {
    for (const BatchReading& r : batch) {
      // %.17g round-trips every double, so the line carries the exact
      // reading the frame paths carry.
      EXPECT_TRUE((*transport)
                      ->SendLine(StrFormat(
                          "SUBMIT lights %llu %llu %.17g",
                          static_cast<unsigned long long>(r.module),
                          static_cast<unsigned long long>(r.round), r.value))
                      .ok());
      auto reply = (*transport)->ReceiveLine();
      EXPECT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_EQ(reply.ok() ? *reply : std::string(), "OK");
    }
  }
  const std::string trace = SinkTrace(*manager);
  (*server)->Stop();
  return trace;
}

std::string ShardedChaosTrace(uint64_t seed) {
  SimWorld::Options options;
  options.fault_plan = FaultPlan::Chaos(seed, 3000);
  SimWorld world(seed, options);
  obs::Registry registry;
  auto listener = world.Listen(kPort);
  EXPECT_TRUE(listener.ok());
  std::vector<std::shared_ptr<Reactor>> reactors = {
      world.reactor(), world.NewReactor(), world.NewReactor()};
  ShardedServerOptions server_options;
  server_options.shards = 3;
  auto server = ShardedVoterServer::StartOnReactors(
      server_options, std::move(*listener), std::move(reactors),
      /*spawn_loop_threads=*/false, /*store=*/nullptr, &registry);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  // A decoy on every other shard so the server is genuinely multi-shard
  // even though the workload only feeds "lights".
  for (const char* group : {"lights", "group-0", "group-1", "group-2"}) {
    EXPECT_TRUE((*server)
                    ->AddGroup(group, *core::MakeEngine(
                                          core::AlgorithmId::kAvoc, kModules))
                    .ok());
  }
  EXPECT_TRUE((*server)->Serve().ok());

  RetryPolicy policy;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 200;
  policy.request_timeout_ms = 150;
  policy.deadline_ms = 60 * 1000;
  ResilientVoterClient client([&world] { return world.Connect(kPort); },
                              &world, "diff-client", policy, seed, &registry);
  for (const std::vector<BatchReading>& batch : WorkloadFor(seed)) {
    auto accepted = client.SubmitBatch("lights", batch);
    EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
  }
  auto sink = (*server)->sink("lights");
  std::string trace = "<no sink>";
  if (sink.ok()) {
    trace.clear();
    for (const SinkRow& out : SinkRows(**sink)) {
      trace += StrFormat("%zu %d %a\n", out.round,
                         static_cast<int>(out.result.outcome),
                         out.result.value.value_or(-0.0));
    }
  }
  (*server)->Stop();
  return trace;
}

std::string ClusterMigrationTrace(uint64_t seed) {
  SimWorld::Options options;
  options.fault_plan = FaultPlan::Chaos(seed, 3000);
  SimWorld world(seed, options);
  obs::Registry registry;
  VoterCluster::Options cluster_options;
  cluster_options.nodes = 2;
  auto cluster = VoterCluster::StartOnWorld(&world, cluster_options,
                                            &registry);
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
  EXPECT_TRUE(
      (*cluster)
          ->AddGroup("lights",
                     [] {
                       return core::MakeEngine(core::AlgorithmId::kAvoc,
                                               kModules);
                     })
          .ok());

  RetryPolicy policy;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 200;
  policy.request_timeout_ms = 150;
  policy.deadline_ms = 60 * 1000;
  ResilientVoterClient client(
      []() -> Result<std::unique_ptr<Transport>> {
        return IoError("node directory only");
      },
      &world, "diff-client", policy, seed, &registry);
  client.UseNodeDirectory(
      [&cluster](size_t node) { return (*cluster)->DialNode(node); },
      /*node_count=*/2);
  const auto workload = WorkloadFor(seed);
  for (size_t r = 0; r < workload.size(); ++r) {
    auto accepted = client.SubmitBatch("lights", workload[r]);
    EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
    if (r == 1 || r == 3) {
      // Bounce the group to the other node mid-workload; the handoff
      // commits while the next rounds are already being submitted.
      const size_t owner = (*cluster)->OwnerOf("lights");
      (*cluster)->Migrate("lights", 1 - owner, [](Status status) {
        EXPECT_TRUE(status.ok()) << status.ToString();
      });
      world.Pump();
    }
  }
  world.Pump();
  auto sink = (*cluster)->sink("lights");
  std::string trace = "<no sink>";
  if (sink.ok()) {
    trace.clear();
    for (const SinkRow& out : SinkRows(**sink)) {
      trace += StrFormat("%zu %d %a\n", out.round,
                         static_cast<int>(out.result.outcome),
                         out.result.value.value_or(-0.0));
    }
  }
  EXPECT_GE(client.redirects_followed(), 1u);
  (*cluster)->Stop();
  return trace;
}

TEST(DifferentialTest, AllIngestPathsProduceIdenticalSinkTraces) {
  for (uint64_t seed = 500; seed < 516; ++seed) {
    SCOPED_TRACE(StrFormat("seed=%llu",
                           static_cast<unsigned long long>(seed)));
    const std::string in_process = InProcessTrace(seed);
    ASSERT_NE(in_process, "<no sink>");
    ASSERT_FALSE(in_process.empty());
    EXPECT_EQ(BinaryChaosTrace(seed), in_process);
    EXPECT_EQ(LegacyGentleTrace(seed), in_process);
    EXPECT_EQ(ShardedChaosTrace(seed), in_process);
    EXPECT_EQ(ClusterMigrationTrace(seed), in_process);
  }
}

}  // namespace
}  // namespace avoc::runtime
