// Seed-sweep chaos suite for the SHARDED remote runtime.
//
// Same contract as runtime_chaos_test.cpp, but the server under fault is
// a 3-shard ShardedVoterServer on three SimReactors: the workload spans
// three groups owned by three different shards, so every recovery path
// crosses the accept hand-off, migration, and cross-shard forwarding
// machinery.  Assertions:
//
//   1. Convergence: once the network heals, every group's sink trace is
//      BIT-IDENTICAL to the fault-free run of the same workload on a
//      SINGLE-shard server — sharding plus chaos changes nothing about
//      what gets fused.
//   2. Determinism: re-running a seed reproduces the identical simulated
//      event trace, byte for byte, even with three reactors exchanging
//      cross-shard mailbox posts.
//
// Reproduce one seed with AVOC_CHAOS_SEED=<n> (all bands collapse to it).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
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
constexpr uint64_t kHorizonMs = 4000;

// Owned by shards 2, 1, 0 of a 3-shard server (pinned by the GroupRouter
// golden test) — one group per shard, so the single resilient connection
// must migrate once and forward the other two groups every round.
const char* kGroupNames[] = {"group-0", "group-1", "group-2"};

/// Per-group reading batches for one seed — a function of the seed only,
/// so faulty/sharded and fault-free/single-shard runs submit identically.
std::vector<std::vector<BatchReading>> WorkloadFor(uint64_t seed,
                                                   size_t group_index) {
  Rng values(seed ^ 0xDA7A5EEDull ^ (group_index * 0x9E3779B97F4A7C15ull));
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

/// Bit-exact rendering of every group's fused outputs, in group order.
std::string SinkTraces(const ShardedVoterServer& server) {
  std::string trace;
  for (const char* group : kGroupNames) {
    auto sink = server.sink(group);
    if (!sink.ok()) return "<no sink>";
    trace += group;
    trace += ":\n";
    for (const SinkRow& out : SinkRows(**sink)) {
      trace += StrFormat("%zu %d %a\n", out.round,
                         static_cast<int>(out.result.outcome),
                         out.result.value.value_or(-0.0));
    }
  }
  return trace;
}

struct ChaosRun {
  std::string sink_trace;
  std::string world_trace;
  bool workload_ok = false;
  size_t reconnects = 0;
  size_t migrations = 0;
  size_t forwarded = 0;
};

ChaosRun RunWorkload(uint64_t seed, bool with_faults, size_t shards) {
  SimWorld::Options options;
  if (with_faults) options.fault_plan = FaultPlan::Chaos(seed, kHorizonMs);
  SimWorld world(seed, options);
  obs::Registry registry;
  auto listener = world.Listen(kPort);
  if (!listener.ok()) return {};
  std::vector<std::shared_ptr<Reactor>> reactors;
  reactors.push_back(world.reactor());
  for (size_t s = 1; s < shards; ++s) reactors.push_back(world.NewReactor());
  ShardedServerOptions server_options;
  server_options.shards = shards;
  auto server = ShardedVoterServer::StartOnReactors(
      server_options, std::move(*listener), std::move(reactors),
      /*spawn_loop_threads=*/false, /*store=*/nullptr, &registry);
  if (!server.ok()) return {};
  for (const char* group : kGroupNames) {
    if (!(*server)
             ->AddGroup(group,
                        *core::MakeEngine(core::AlgorithmId::kAvoc, kModules))
             .ok()) {
      return {};
    }
  }
  if (!(*server)->Serve().ok()) return {};

  RetryPolicy policy;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 200;
  policy.request_timeout_ms = 150;
  policy.deadline_ms = 10 * kHorizonMs;  // faults always heal well before
  ResilientVoterClient client([&world] { return world.Connect(kPort); },
                              &world, "sharded-chaos-client", policy,
                              seed ^ 0xBACC0FFull, &registry);

  ChaosRun run;
  run.workload_ok = true;
  // Round-major across groups: every round touches all three shards
  // through the one connection.
  std::vector<std::vector<std::vector<BatchReading>>> workloads;
  for (size_t g = 0; g < std::size(kGroupNames); ++g) {
    workloads.push_back(WorkloadFor(seed, g));
  }
  for (size_t r = 0; r < kRounds && run.workload_ok; ++r) {
    for (size_t g = 0; g < std::size(kGroupNames); ++g) {
      auto accepted = client.SubmitBatch(kGroupNames[g], workloads[g][r]);
      if (!accepted.ok() || *accepted != workloads[g][r].size()) {
        run.workload_ok = false;
        break;
      }
    }
  }
  run.sink_trace = SinkTraces(**server);
  run.world_trace = world.TraceText();
  run.reconnects = client.reconnects();
  run.migrations = (*server)->migrations();
  run.forwarded = (*server)->forwarded_requests();
  (*server)->Stop();
  return run;
}

/// Seed band for one gtest shard, honoring the AVOC_CHAOS_SEED override.
std::vector<uint64_t> SeedBand(uint64_t base, size_t count) {
  if (const char* forced = std::getenv("AVOC_CHAOS_SEED")) {
    return {static_cast<uint64_t>(std::strtoull(forced, nullptr, 10))};
  }
  std::vector<uint64_t> seeds;
  for (size_t i = 0; i < count; ++i) seeds.push_back(base + i);
  return seeds;
}

class ShardedChaosShard : public ::testing::TestWithParam<uint64_t> {};

// 4 bands x 60 seeds = 240 distinct fault schedules.
constexpr size_t kSeedsPerShard = 60;

TEST_P(ShardedChaosShard, HealedShardedRunsMatchFaultFreeSingleShard) {
  const uint64_t base = GetParam();
  for (uint64_t seed : SeedBand(base, kSeedsPerShard)) {
    SCOPED_TRACE(StrFormat("seed=%llu (AVOC_CHAOS_SEED=%llu to reproduce)",
                           static_cast<unsigned long long>(seed),
                           static_cast<unsigned long long>(seed)));
    const ChaosRun faulty = RunWorkload(seed, /*with_faults=*/true,
                                        /*shards=*/3);
    ASSERT_TRUE(faulty.workload_ok);
    // The fault-free single-shard reference for the same workload.
    const ChaosRun clean = RunWorkload(seed, /*with_faults=*/false,
                                       /*shards=*/1);
    ASSERT_TRUE(clean.workload_ok);
    ASSERT_NE(clean.sink_trace, "<no sink>");
    EXPECT_EQ(faulty.sink_trace, clean.sink_trace);
    EXPECT_FALSE(clean.sink_trace.empty());
    // The sharded run really exercised the cross-shard machinery.
    EXPECT_GE(faulty.migrations, 1u);
    EXPECT_GE(faulty.forwarded, 1u);
  }
}

TEST_P(ShardedChaosShard, SameSeedReplaysIdenticalEventTrace) {
  const uint64_t base = GetParam();
  // Every 5th seed: run the faulty multi-shard world twice, diff traces.
  for (uint64_t seed : SeedBand(base, kSeedsPerShard)) {
    if (std::getenv("AVOC_CHAOS_SEED") == nullptr && seed % 5 != 0) continue;
    SCOPED_TRACE(StrFormat("seed=%llu", static_cast<unsigned long long>(seed)));
    const ChaosRun first = RunWorkload(seed, /*with_faults=*/true, 3);
    const ChaosRun second = RunWorkload(seed, /*with_faults=*/true, 3);
    ASSERT_TRUE(first.workload_ok);
    EXPECT_EQ(first.world_trace, second.world_trace);
    EXPECT_EQ(first.sink_trace, second.sink_trace);
    EXPECT_EQ(first.reconnects, second.reconnects);
    EXPECT_EQ(first.migrations, second.migrations);
    EXPECT_EQ(first.forwarded, second.forwarded);
    EXPECT_FALSE(first.world_trace.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Bands, ShardedChaosShard,
                         ::testing::Values(uint64_t{1000}, uint64_t{2000},
                                           uint64_t{3000}, uint64_t{4000}));

// Across one band the fault machinery must actually bite the sharded
// paths: reconnects happen, and re-pinned connections migrate again.
TEST(ShardedChaosSweep, FaultsExerciseReMigrationAfterReconnect) {
  if (std::getenv("AVOC_CHAOS_SEED") != nullptr) GTEST_SKIP();
  size_t runs_with_reconnects = 0;
  size_t runs_with_remigration = 0;
  for (uint64_t seed = 1000; seed < 1000 + kSeedsPerShard; ++seed) {
    const ChaosRun run = RunWorkload(seed, /*with_faults=*/true, 3);
    if (run.reconnects > 0) ++runs_with_reconnects;
    if (run.reconnects > 0 && run.migrations >= 2) ++runs_with_remigration;
  }
  EXPECT_GT(runs_with_reconnects, 0u);
  EXPECT_GT(runs_with_remigration, 0u);
}

}  // namespace
}  // namespace avoc::runtime
