// Seed-sweep chaos suite over the deterministic simulation harness.
//
// Every test case sweeps a band of seeds.  Each seed derives a
// heal-eventually fault schedule (FaultPlan::Chaos): connection resets,
// partitions, half-open links, latency, fragmentation — all strictly
// inside the horizon.  The *real* RemoteVoterServer runs single-threaded
// on the simulated reactor; a ResilientVoterClient submits a fixed
// workload through the faults.  Assertions:
//
//   1. Convergence: once the network heals, the sink trace is
//      BIT-IDENTICAL to the fault-free run of the same workload —
//      exactly-once ingestion, no dropped or duplicated rounds.
//   2. Determinism: re-running a seed reproduces the identical simulated
//      event trace, byte for byte.
//
// Reproducing a failure: every assertion carries its seed.  Set
// AVOC_CHAOS_SEED=<n> to run exactly that seed (all shards collapse to
// it), e.g.  AVOC_CHAOS_SEED=1042 ./runtime_chaos_test.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "runtime/remote.h"
#include "runtime/resilient.h"
#include "runtime/sim_net.h"
#include "util/strings.h"
#include "sink_rows.h"

namespace avoc::runtime {
namespace {

constexpr uint16_t kPort = 7;
constexpr size_t kModules = 3;
constexpr size_t kRounds = 8;
constexpr uint64_t kHorizonMs = 4000;

/// The workload's reading values for one seed — a function of the seed
/// only, never of the fault schedule, so faulty and fault-free runs
/// submit identical data.
std::vector<std::vector<BatchReading>> WorkloadFor(uint64_t seed) {
  Rng values(seed ^ 0xDA7A5EEDull);
  std::vector<std::vector<BatchReading>> rounds;
  for (size_t r = 0; r < kRounds; ++r) {
    std::vector<BatchReading> batch;
    for (uint64_t m = 0; m < kModules; ++m) {
      batch.push_back(BatchReading{
          m, r, 20.0 + values.Gaussian(0.0, 2.0)});
    }
    rounds.push_back(std::move(batch));
  }
  return rounds;
}

/// Bit-exact rendering of the sink's fused outputs (hex floats).
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

struct ChaosRun {
  std::string sink_trace;
  std::string world_trace;
  bool workload_ok = false;
  size_t reconnects = 0;
  size_t dedup_replays = 0;
};

ChaosRun RunWorkload(uint64_t seed, bool with_faults) {
  SimWorld::Options options;
  if (with_faults) options.fault_plan = FaultPlan::Chaos(seed, kHorizonMs);
  SimWorld world(seed, options);
  obs::Registry registry;
  VoterGroupManager manager(nullptr, &registry);
  if (!manager
           .AddGroup("lights", *core::MakeEngine(core::AlgorithmId::kAvoc,
                                                 kModules))
           .ok()) {
    return {};
  }
  auto listener = world.Listen(kPort);
  if (!listener.ok()) return {};
  auto server = RemoteVoterServer::StartOnReactor(
      &manager, RemoteServerOptions{}, std::move(*listener), world.reactor(),
      /*spawn_loop_thread=*/false);
  if (!server.ok()) return {};

  RetryPolicy policy;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 200;
  policy.request_timeout_ms = 150;
  policy.deadline_ms = 10 * kHorizonMs;  // faults always heal well before
  ResilientVoterClient client([&world] { return world.Connect(kPort); },
                              &world, "chaos-client", policy,
                              seed ^ 0xBACC0FFull, &registry);

  ChaosRun run;
  run.workload_ok = true;
  for (const std::vector<BatchReading>& batch : WorkloadFor(seed)) {
    auto accepted = client.SubmitBatch("lights", batch);
    if (!accepted.ok() || *accepted != batch.size()) {
      run.workload_ok = false;
      break;
    }
  }
  run.sink_trace = SinkTrace(manager);
  run.world_trace = world.TraceText();
  run.reconnects = client.reconnects();
  run.dedup_replays = (*server)->dedup_replays();
  (*server)->Stop();
  return run;
}

/// Seed band for one shard, honoring the AVOC_CHAOS_SEED override.
std::vector<uint64_t> SeedBand(uint64_t base, size_t count) {
  if (const char* forced = std::getenv("AVOC_CHAOS_SEED")) {
    return {static_cast<uint64_t>(std::strtoull(forced, nullptr, 10))};
  }
  std::vector<uint64_t> seeds;
  for (size_t i = 0; i < count; ++i) seeds.push_back(base + i);
  return seeds;
}

class ChaosShard : public ::testing::TestWithParam<uint64_t> {};

// 4 shards x 60 seeds = 240 distinct fault schedules.
constexpr size_t kSeedsPerShard = 60;

TEST_P(ChaosShard, HealedRunsConvergeToFaultFreeSinkTrace) {
  const uint64_t base = GetParam();
  std::optional<std::string> baseline_cache;
  uint64_t baseline_seed = 0;
  for (uint64_t seed : SeedBand(base, kSeedsPerShard)) {
    SCOPED_TRACE(StrFormat("seed=%llu (AVOC_CHAOS_SEED=%llu to reproduce)",
                           static_cast<unsigned long long>(seed),
                           static_cast<unsigned long long>(seed)));
    const ChaosRun faulty = RunWorkload(seed, /*with_faults=*/true);
    ASSERT_TRUE(faulty.workload_ok);
    // The fault-free reference for the same workload.
    const ChaosRun clean = RunWorkload(seed, /*with_faults=*/false);
    ASSERT_TRUE(clean.workload_ok);
    EXPECT_EQ(faulty.sink_trace, clean.sink_trace);
    EXPECT_FALSE(clean.sink_trace.empty());
    ASSERT_NE(clean.sink_trace, "<no sink>");
    // Workload values differ per seed, so traces must too (sanity check
    // that the comparison is not trivially true).
    if (baseline_cache.has_value() && seed != baseline_seed) {
      EXPECT_NE(clean.sink_trace, *baseline_cache)
          << "seeds " << baseline_seed << " and " << seed
          << " produced identical workloads";
    } else {
      baseline_cache = clean.sink_trace;
      baseline_seed = seed;
    }
  }
}

TEST_P(ChaosShard, SameSeedReplaysIdenticalEventTrace) {
  const uint64_t base = GetParam();
  // Every 5th seed: run the faulty world twice, diff the event traces.
  for (uint64_t seed : SeedBand(base, kSeedsPerShard)) {
    if (std::getenv("AVOC_CHAOS_SEED") == nullptr && seed % 5 != 0) continue;
    SCOPED_TRACE(StrFormat("seed=%llu", static_cast<unsigned long long>(seed)));
    const ChaosRun first = RunWorkload(seed, /*with_faults=*/true);
    const ChaosRun second = RunWorkload(seed, /*with_faults=*/true);
    ASSERT_TRUE(first.workload_ok);
    EXPECT_EQ(first.world_trace, second.world_trace);
    EXPECT_EQ(first.sink_trace, second.sink_trace);
    EXPECT_EQ(first.reconnects, second.reconnects);
    EXPECT_EQ(first.dedup_replays, second.dedup_replays);
    EXPECT_FALSE(first.world_trace.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Bands, ChaosShard,
                         ::testing::Values(uint64_t{1000}, uint64_t{2000},
                                           uint64_t{3000}, uint64_t{4000}));

// Across the sweep, the fault machinery must actually bite: some seeds
// reconnect, some replay from the dedup cache.  Guards against the plan
// generator silently degenerating into a no-op.
TEST(ChaosSweep, FaultScheduleActuallyExercisesRecoveryPaths) {
  if (std::getenv("AVOC_CHAOS_SEED") != nullptr) GTEST_SKIP();
  size_t runs_with_reconnects = 0;
  size_t runs_with_replays = 0;
  for (uint64_t seed = 1000; seed < 1000 + kSeedsPerShard; ++seed) {
    const ChaosRun run = RunWorkload(seed, /*with_faults=*/true);
    if (run.reconnects > 0) ++runs_with_reconnects;
    if (run.dedup_replays > 0) ++runs_with_replays;
  }
  EXPECT_GT(runs_with_reconnects, 0u);
  EXPECT_GT(runs_with_replays, 0u);
}

}  // namespace
}  // namespace avoc::runtime
