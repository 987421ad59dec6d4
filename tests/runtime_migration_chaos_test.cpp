// Seed-sweep chaos suite for voter-group MIGRATION across cluster nodes.
//
// Every seed drives a 3-node VoterCluster (each node with a hot standby)
// on the deterministic simulation under FaultPlan::Chaos, while a seeded
// disruption schedule fires between ingest rounds:
//
//   * plain migrations launched WITHOUT draining the world, so the
//     handoff quiesce overlaps in-flight SUBMIT_BATCH_SEQ frames
//     (mid-batch migration: requests park, then chase the MOVED);
//   * destination crashes landing between the export and the import
//     (the transfer fails typed and the source keeps serving);
//   * SOURCE crashes landing mid-handoff, followed by hot-standby
//     failover — the replica serves on with dedup-backed exactly-once;
//   * plain crash + failover with no migration in flight.
//
// Assertions per seed:
//   1. Convergence: every group's sink trace is BIT-IDENTICAL (hex-float
//      rendering) to the fault-free single-node run of the same
//      workload — migration, partitions, crashes, and failover change
//      nothing about what gets fused, and no round is lost or doubled.
//   2. Determinism: re-running a seed reproduces the identical simulated
//      event trace, byte for byte (every 5th seed).
//
// Reproduce one seed with AVOC_CHAOS_SEED=<n> (all bands collapse to it).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "runtime/cluster.h"
#include "runtime/resilient.h"
#include "runtime/sim_net.h"
#include "util/rng.h"
#include "util/strings.h"
#include "sink_rows.h"

namespace avoc::runtime {
namespace {

constexpr size_t kNodes = 3;
constexpr size_t kModules = 3;
constexpr size_t kRounds = 8;
constexpr uint64_t kHorizonMs = 4000;

const char* kGroupNames[] = {"group-0", "group-1", "group-2"};

VoterCluster::EngineMaker AvocMaker() {
  return [] { return core::MakeEngine(core::AlgorithmId::kAvoc, kModules); };
}

/// Per-group reading batches for one seed — a function of the seed only,
/// so faulty/clustered and fault-free/single-node runs submit identically.
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

/// Bit-exact rendering of every group's fused outputs, in group order,
/// read from whichever node currently owns each group.
std::string SinkTraces(const VoterCluster& cluster) {
  std::string trace;
  for (const char* group : kGroupNames) {
    auto sink = cluster.sink(group);
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
  size_t redirects = 0;
  size_t migrations_started = 0;
  size_t migrations_committed = 0;
  size_t migrations_failed_typed = 0;
  size_t failovers = 0;
  size_t source_crashes_mid_migration = 0;
};

ChaosRun RunWorkload(uint64_t seed, bool with_faults, size_t nodes) {
  SimWorld::Options options;
  if (with_faults) options.fault_plan = FaultPlan::Chaos(seed, kHorizonMs);
  SimWorld world(seed, options);
  obs::Registry registry;
  VoterCluster::Options cluster_options;
  cluster_options.nodes = nodes;
  cluster_options.hot_standbys = nodes > 1;
  auto cluster =
      VoterCluster::StartOnWorld(&world, cluster_options, &registry);
  if (!cluster.ok()) return {};
  for (const char* group : kGroupNames) {
    if (!(*cluster)->AddGroup(group, AvocMaker()).ok()) return {};
  }

  RetryPolicy policy;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 200;
  policy.request_timeout_ms = 150;
  policy.deadline_ms = 10 * kHorizonMs;  // faults always heal well before
  ResilientVoterClient client(
      []() -> Result<std::unique_ptr<Transport>> {
        return IoError("node directory only");
      },
      &world, "migration-chaos-client", policy, seed ^ 0xBACC0FFull,
      &registry);
  client.UseNodeDirectory(
      [&cluster](size_t node) { return (*cluster)->DialNode(node); }, nodes);

  ChaosRun run;
  run.workload_ok = true;
  Rng plan(seed ^ 0x5C7ED01Eull);
  std::vector<bool> crashed_once(nodes, false);

  const auto migrate = [&](const std::string& group, size_t dest) {
    ++run.migrations_started;
    (*cluster)->Migrate(group, dest, [&run](Status status) {
      if (status.ok()) {
        ++run.migrations_committed;
      } else {
        ++run.migrations_failed_typed;
      }
    });
  };
  const auto pick_move = [&](std::string* group, size_t* owner,
                             size_t* dest) {
    *group = kGroupNames[plan.UniformInt(std::size(kGroupNames))];
    *owner = (*cluster)->OwnerOf(*group);
    *dest = (*owner + 1 + plan.UniformInt(nodes - 1)) % nodes;
  };

  std::vector<std::vector<std::vector<BatchReading>>> workloads;
  for (size_t g = 0; g < std::size(kGroupNames); ++g) {
    workloads.push_back(WorkloadFor(seed, g));
  }
  for (size_t r = 0; r < kRounds && run.workload_ok; ++r) {
    // Round-major across groups: every round crosses node boundaries
    // through the one redirect-following connection.
    for (size_t g = 0; g < std::size(kGroupNames); ++g) {
      auto accepted = client.SubmitBatch(kGroupNames[g], workloads[g][r]);
      if (!accepted.ok() || *accepted != workloads[g][r].size()) {
        run.workload_ok = false;
        break;
      }
    }
    if (!run.workload_ok || nodes < 2 || r + 1 >= kRounds) continue;

    // Seeded disruption between rounds.  Consumes the same plan draws on
    // every run of this seed, so replays are byte-identical.
    std::string group;
    size_t owner = 0;
    size_t dest = 0;
    switch (plan.UniformInt(10)) {
      case 0:
      case 1:
      case 2:
        // Plain migration, deliberately NOT pumped to completion: the
        // quiesce overlaps the next round's in-flight submits, which
        // park in the deferred queue and resolve to MOVED on commit.
        pick_move(&group, &owner, &dest);
        migrate(group, dest);
        break;
      case 3: {
        // Destination crashes between the export and the import.
        pick_move(&group, &owner, &dest);
        if (crashed_once[dest]) {
          migrate(group, dest);
          break;
        }
        migrate(group, dest);
        VoterCluster* raw = cluster->get();
        (*cluster)->NodeReactor(dest)->Post(
            [raw, dest] { raw->CrashNode(dest); });
        world.Pump();
        if (!(*cluster)->Failover(dest).ok()) {
          run.workload_ok = false;
          break;
        }
        crashed_once[dest] = true;
        ++run.failovers;
        break;
      }
      case 4: {
        // SOURCE crashes mid-handoff, then its hot standby takes over.
        pick_move(&group, &owner, &dest);
        if (crashed_once[owner]) {
          migrate(group, dest);
          break;
        }
        migrate(group, dest);
        VoterCluster* raw = cluster->get();
        (*cluster)->NodeReactor(owner)->Post(
            [raw, owner] { raw->CrashNode(owner); });
        world.Pump();
        if (!(*cluster)->Failover(owner).ok()) {
          run.workload_ok = false;
          break;
        }
        crashed_once[owner] = true;
        ++run.failovers;
        ++run.source_crashes_mid_migration;
        break;
      }
      case 5: {
        // Crash + failover with no migration in flight.
        const size_t victim = plan.UniformInt(nodes);
        if (crashed_once[victim]) break;
        (*cluster)->CrashNode(victim);
        if (!(*cluster)->Failover(victim).ok()) {
          run.workload_ok = false;
          break;
        }
        crashed_once[victim] = true;
        ++run.failovers;
        break;
      }
      default:
        break;  // quiet gap
    }
  }
  world.Pump();  // drain any migration still in flight
  run.sink_trace = SinkTraces(**cluster);
  run.world_trace = world.TraceText();
  run.reconnects = client.reconnects();
  run.redirects = client.redirects_followed();
  (*cluster)->Stop();
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

class MigrationChaosShard : public ::testing::TestWithParam<uint64_t> {};

// 4 bands x 60 seeds = 240 distinct disruption schedules.
constexpr size_t kSeedsPerShard = 60;

TEST_P(MigrationChaosShard, MigratingClusterMatchesFaultFreeSingleNode) {
  const uint64_t base = GetParam();
  for (uint64_t seed : SeedBand(base, kSeedsPerShard)) {
    SCOPED_TRACE(StrFormat("seed=%llu (AVOC_CHAOS_SEED=%llu to reproduce)",
                           static_cast<unsigned long long>(seed),
                           static_cast<unsigned long long>(seed)));
    const ChaosRun faulty = RunWorkload(seed, /*with_faults=*/true, kNodes);
    ASSERT_TRUE(faulty.workload_ok);
    const ChaosRun clean = RunWorkload(seed, /*with_faults=*/false,
                                       /*nodes=*/1);
    ASSERT_TRUE(clean.workload_ok);
    ASSERT_NE(clean.sink_trace, "<no sink>");
    EXPECT_FALSE(clean.sink_trace.empty());
    // Rounds lost: 0.  Rounds doubled: 0.  Values drifted: none — the
    // hex-float rendering makes any ULP of drift a test failure.
    EXPECT_EQ(faulty.sink_trace, clean.sink_trace);
  }
}

TEST_P(MigrationChaosShard, SameSeedReplaysIdenticalEventTrace) {
  const uint64_t base = GetParam();
  for (uint64_t seed : SeedBand(base, kSeedsPerShard)) {
    if (std::getenv("AVOC_CHAOS_SEED") == nullptr && seed % 5 != 0) continue;
    SCOPED_TRACE(StrFormat("seed=%llu", static_cast<unsigned long long>(seed)));
    const ChaosRun first = RunWorkload(seed, /*with_faults=*/true, kNodes);
    const ChaosRun second = RunWorkload(seed, /*with_faults=*/true, kNodes);
    ASSERT_TRUE(first.workload_ok);
    EXPECT_EQ(first.world_trace, second.world_trace);
    EXPECT_EQ(first.sink_trace, second.sink_trace);
    EXPECT_EQ(first.reconnects, second.reconnects);
    EXPECT_EQ(first.redirects, second.redirects);
    EXPECT_EQ(first.migrations_committed, second.migrations_committed);
    EXPECT_EQ(first.failovers, second.failovers);
    EXPECT_FALSE(first.world_trace.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Bands, MigrationChaosShard,
                         ::testing::Values(uint64_t{1000}, uint64_t{2000},
                                           uint64_t{3000}, uint64_t{4000}));

// Across one band the disruption machinery must actually bite: handoffs
// commit, clients chase MOVED, standbys get promoted, and at least one
// schedule kills the SOURCE mid-handoff and survives on the replica.
TEST(MigrationChaosSweep, DisruptionsExerciseEveryRecoveryPath) {
  if (std::getenv("AVOC_CHAOS_SEED") != nullptr) GTEST_SKIP();
  size_t committed = 0;
  size_t typed_failures = 0;
  size_t redirect_runs = 0;
  size_t failover_runs = 0;
  size_t source_crash_runs = 0;
  for (uint64_t seed = 1000; seed < 1000 + kSeedsPerShard; ++seed) {
    const ChaosRun run = RunWorkload(seed, /*with_faults=*/true, kNodes);
    committed += run.migrations_committed;
    typed_failures += run.migrations_failed_typed;
    if (run.redirects > 0) ++redirect_runs;
    if (run.failovers > 0) ++failover_runs;
    if (run.source_crashes_mid_migration > 0 && run.workload_ok) {
      ++source_crash_runs;
    }
  }
  EXPECT_GT(committed, 0u);
  EXPECT_GT(typed_failures, 0u);  // crashed handoffs fail typed, not silent
  EXPECT_GT(redirect_runs, 0u);
  EXPECT_GT(failover_runs, 0u);
  EXPECT_GT(source_crash_runs, 0u);
}

}  // namespace
}  // namespace avoc::runtime
