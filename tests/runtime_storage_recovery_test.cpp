// DST crash-recovery sweep for the storage engine behind a live server.
//
// Every seed derives one schedule: a StorageEngine (seeded fsync policy
// and chunk size) backs a real RemoteVoterServer on the deterministic
// simulation; a client submits rounds; at a seeded point the process
// "loses power" (StorageEngine::SimulateCrash closes every descriptor
// unsynced), the seed decides how much of the unsynced WAL tail and of
// the unsynced chunks-file tail (chunk seals do not fsync) reached the
// platter (truncation anywhere in [synced, written], sometimes a bit
// flip in the unsynced region); the directory is reopened and a fresh
// server resumes on a re-bound port.
//
// The contract proven seed by seed:
//
//   1. Recovery never loses a synced write: the recovered trace is a
//      bit-identical prefix of the pre-crash trace, at least as long as
//      the last commit barrier (with sync-every-commit, exactly equal).
//   2. The restarted server restores the recovered history and keeps
//      serving; a final graceful reopen sees phase-1-prefix + phase-2
//      appends with nothing torn.
//   3. Determinism: the same seed replays the identical schedule byte
//      for byte (world event traces, recovered state, final state).
//
// Reproduce one seed with AVOC_CHAOS_SEED=<n>.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "data/round_table.h"
#include "obs/metrics.h"
#include "runtime/group_runner.h"
#include "runtime/remote.h"
#include "runtime/sim_net.h"
#include "storage/engine.h"
#include "util/rng.h"
#include "util/strings.h"

namespace avoc::runtime {
namespace {

constexpr uint16_t kPort = 7;
constexpr size_t kModules = 3;

std::string RecoveryDir(uint64_t seed) {
  return (std::filesystem::temp_directory_path() /
          StrFormat("avoc_recovery_%d_%llu", ::getpid(),
                    static_cast<unsigned long long>(seed)))
      .string();
}

/// Hex-float rendering of a trace — the byte-identity currency.
std::string TraceText(std::span<const storage::TracePoint> points) {
  std::string text;
  for (const storage::TracePoint& point : points) {
    text += StrFormat("%llu %d %a\n",
                      static_cast<unsigned long long>(point.round),
                      point.engaged ? 1 : 0, point.value);
  }
  return text;
}

struct RecoveryRun {
  bool ok = false;             ///< schedule executed end to end
  std::string failure;         ///< first violated invariant, if any
  std::string phase1_world;    ///< sim event trace before the crash
  std::string phase2_world;    ///< sim event trace after the restart
  std::string reference;       ///< full pre-crash trace (hex floats)
  std::string recovered;       ///< trace visible after crash recovery
  std::string final_state;     ///< trace after phase 2 + graceful reopen
  size_t synced_floor = 0;     ///< points guaranteed by the last barrier
  size_t recovered_points = 0;
  bool truncated_tail = false;
  uint64_t unsynced_chunk_bytes = 0;  ///< the chunks file's crash window
};

/// The seeded crash window of one append-only file: keeps anywhere in
/// [synced, written] and, one time in three, flips one bit in the
/// surviving unsynced region (a torn sector).  CRC framing must stop
/// recovery there, never crash it.
void TearUnsyncedTail(Rng& rng, const std::string& path, uint64_t synced,
                      uint64_t written) {
  const uint64_t torn_span = written - synced;
  const uint64_t keep =
      synced + (torn_span == 0 ? 0 : rng.UniformInt(torn_span + 1));
  std::filesystem::resize_file(path, keep);
  if (keep > synced && rng.UniformInt(3) == 0) {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    const uint64_t at = synced + rng.UniformInt(keep - synced);
    file.seekg(static_cast<std::streamoff>(at));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ (1u << rng.UniformInt(8)));
    file.seekp(static_cast<std::streamoff>(at));
    file.write(&byte, 1);
  }
}

#define RECOVERY_CHECK(cond, what)                  \
  do {                                              \
    if (!(cond)) {                                  \
      run.failure = (what);                         \
      return run;                                   \
    }                                               \
  } while (0)

RecoveryRun RunSchedule(uint64_t seed) {
  RecoveryRun run;
  Rng rng(seed ^ 0x57A6E5EEDull);
  const std::string dir = RecoveryDir(seed);
  std::filesystem::remove_all(dir);

  storage::StorageEngineOptions store_options;
  store_options.dir = dir;
  // Seeded durability band: strictest (fsync every commit) through
  // batched policies where a crash can tear a real tail.
  const size_t sync_choices[] = {0, 0, 256, 4096};
  store_options.wal_sync_every_bytes = sync_choices[rng.UniformInt(4)];
  store_options.chunk_max_points = rng.UniformInt(2) == 0 ? 4 : 512;
  const bool sync_every_commit = store_options.wal_sync_every_bytes == 0;
  // Half the schedules compact every few hundred WAL bytes, so crashes
  // also land after compactions, which retire the WAL behind the sealed
  // chunks.  Drawn from its own stream: the draws below keep their
  // values.
  Rng compaction(seed ^ 0xC0A1E5CEull);
  if (compaction.UniformInt(2) == 0) store_options.compact_wal_bytes = 512;

  const size_t crash_round = 3 + rng.UniformInt(10);
  const size_t barrier_round = rng.UniformInt(crash_round);
  const size_t phase2_rounds = 2 + rng.UniformInt(6);

  std::vector<storage::TracePoint> reference;
  storage::StorageEngine::CrashState crash;
  std::string ledger_at_crash;

  // --- phase 1: serve until the crash ---------------------------------------
  {
    auto engine = storage::StorageEngine::Open(store_options);
    if (!engine.ok()) {
      run.failure = "phase1 open: " + engine.status().ToString();
      return run;
    }
    storage::StorageEngine& store = **engine;
    SimWorld world(seed);
    obs::Registry registry;
    VoterGroupManager manager(&store, &registry, &store);
    RECOVERY_CHECK(
        manager
            .AddGroup("lights",
                      *core::MakeEngine(core::AlgorithmId::kAvoc, kModules))
            .ok(),
        "phase1 add group");
    auto listener = world.Listen(kPort);
    RECOVERY_CHECK(listener.ok(), "phase1 listen");
    auto server = RemoteVoterServer::StartOnReactor(
        &manager, RemoteServerOptions{}, std::move(*listener), world.reactor(),
        /*spawn_loop_thread=*/false);
    RECOVERY_CHECK(server.ok(), "phase1 start");
    auto transport = world.Connect(kPort);
    RECOVERY_CHECK(transport.ok(), "phase1 connect");
    auto client = RemoteVoterClient::FromTransport(std::move(*transport));
    RECOVERY_CHECK(client.ok(), "phase1 client");

    Rng values(seed ^ 0xDA7A5EEDull);
    for (size_t r = 0; r < crash_round; ++r) {
      std::vector<BatchReading> batch;
      for (uint64_t m = 0; m < kModules; ++m) {
        batch.push_back(BatchReading{m, r, 20.0 + values.Gaussian(0.0, 2.0)});
      }
      auto accepted = client->SubmitBatch("lights", batch);
      RECOVERY_CHECK(accepted.ok() && *accepted == batch.size(),
                     "phase1 submit");
      if (r == barrier_round) {
        // Commit barrier mid-schedule: everything up to here must
        // survive any crash, whatever the fsync policy.
        RECOVERY_CHECK(store.Sync().ok(), "phase1 barrier");
        auto synced = store.QueryTraceRange("lights", 0, ~uint64_t{0});
        RECOVERY_CHECK(synced.ok(), "phase1 barrier query");
        run.synced_floor = synced->size();
      }
    }
    auto full = store.QueryTraceRange("lights", 0, ~uint64_t{0});
    RECOVERY_CHECK(full.ok(), "phase1 reference query");
    reference = *std::move(full);
    run.reference = TraceText(reference);
    auto voter = manager.voter("lights");
    RECOVERY_CHECK(voter.ok(), "phase1 voter");
    for (const double record : (*voter)->engine().history().records()) {
      ledger_at_crash += StrFormat("%a\n", record);
    }
    (*server)->Stop();
    run.phase1_world = world.TraceText();
    crash = store.SimulateCrash();
  }

  // --- the crash window: seeded torn tail -----------------------------------
  if (sync_every_commit && crash.wal_synced_bytes != crash.wal_bytes) {
    run.failure = "sync-every-commit left an unsynced tail";
    return run;
  }
  TearUnsyncedTail(rng, crash.wal_path, crash.wal_synced_bytes,
                   crash.wal_bytes);
  run.unsynced_chunk_bytes = crash.chunks_bytes - crash.chunks_synced_bytes;
  // Sealed chunk entries since the last sync: the WAL still holds their
  // points, so losing or corrupting them must lose nothing more.
  TearUnsyncedTail(rng, crash.chunks_path, crash.chunks_synced_bytes,
                   crash.chunks_bytes);

  // --- recovery + phase 2: restart the server on the recovered store --------
  {
    auto engine = storage::StorageEngine::Open(store_options);
    if (!engine.ok()) {
      run.failure = "recovery open: " + engine.status().ToString();
      return run;
    }
    storage::StorageEngine& store = **engine;
    run.truncated_tail = store.stats().recovered_truncated_tail;
    auto recovered = store.QueryTraceRange("lights", 0, ~uint64_t{0});
    RECOVERY_CHECK(recovered.ok(), "recovered query");
    run.recovered_points = recovered->size();
    run.recovered = TraceText(*recovered);

    // Invariant 1: bit-identical prefix, at least to the barrier.
    RECOVERY_CHECK(recovered->size() <= reference.size(),
                   "recovered more points than were ever written");
    RECOVERY_CHECK(recovered->size() >= run.synced_floor,
                   "lost a synced write");
    RECOVERY_CHECK(
        run.reference.compare(0, run.recovered.size(), run.recovered) == 0,
        "recovered trace is not a prefix of the reference");
    if (sync_every_commit) {
      RECOVERY_CHECK(run.recovered == run.reference,
                     "sync-every-commit lost an acknowledged write");
      auto history = store.Get("lights");
      RECOVERY_CHECK(history.ok(), "sync-every-commit lost the history");
      std::string ledger;
      for (const double record : history->records) {
        ledger += StrFormat("%a\n", record);
      }
      RECOVERY_CHECK(ledger == ledger_at_crash,
                     "recovered history differs from the live ledger");
    }

    // Phase 2: a fresh server on the same (re-bound) port resumes — the
    // voter restores the recovered history on construction.
    SimWorld world(seed ^ 0xF00DULL);
    obs::Registry registry;
    VoterGroupManager manager(&store, &registry, &store);
    RECOVERY_CHECK(
        manager
            .AddGroup("lights",
                      *core::MakeEngine(core::AlgorithmId::kAvoc, kModules))
            .ok(),
        "phase2 add group");
    if (store.Get("lights").ok()) {
      auto voter = manager.voter("lights");
      RECOVERY_CHECK(voter.ok(), "phase2 voter");
      RECOVERY_CHECK(
          (*voter)->engine().history().round_count() ==
              store.Get("lights")->rounds,
          "restarted voter did not restore the recovered history");
    }
    auto listener = world.Listen(kPort);
    RECOVERY_CHECK(listener.ok(), "phase2 listen (port re-bind)");
    auto server = RemoteVoterServer::StartOnReactor(
        &manager, RemoteServerOptions{}, std::move(*listener), world.reactor(),
        /*spawn_loop_thread=*/false);
    RECOVERY_CHECK(server.ok(), "phase2 start");
    auto transport = world.Connect(kPort);
    RECOVERY_CHECK(transport.ok(), "phase2 connect");
    auto client = RemoteVoterClient::FromTransport(std::move(*transport));
    RECOVERY_CHECK(client.ok(), "phase2 client");
    Rng values(seed ^ 0xF2E5E5ull);
    for (size_t r = 0; r < phase2_rounds; ++r) {
      std::vector<BatchReading> batch;
      for (uint64_t m = 0; m < kModules; ++m) {
        batch.push_back(BatchReading{m, crash_round + r,
                                     25.0 + values.Gaussian(0.0, 2.0)});
      }
      auto accepted = client->SubmitBatch("lights", batch);
      RECOVERY_CHECK(accepted.ok() && *accepted == batch.size(),
                     "phase2 submit");
    }
    auto combined = client->QueryRange("lights", 0, ~uint64_t{0} >> 1);
    RECOVERY_CHECK(combined.ok(), "phase2 range query");
    RECOVERY_CHECK(combined->size() == run.recovered_points + phase2_rounds,
                   "phase2 appends did not land after the recovered prefix");
    (*server)->Stop();
    run.phase2_world = world.TraceText();
  }

  // --- final clean reopen ----------------------------------------------------
  {
    auto engine = storage::StorageEngine::Open(store_options);
    if (!engine.ok()) {
      run.failure = "final open: " + engine.status().ToString();
      return run;
    }
    auto final_trace = (*engine)->QueryTraceRange("lights", 0, ~uint64_t{0});
    RECOVERY_CHECK(final_trace.ok(), "final query");
    run.final_state = TraceText(*final_trace);
    RECOVERY_CHECK(
        final_trace->size() == run.recovered_points + phase2_rounds,
        "graceful shutdown lost phase2 writes");
    RECOVERY_CHECK(
        run.final_state.compare(0, run.recovered.size(), run.recovered) == 0,
        "final state does not extend the recovered prefix");
  }

  std::filesystem::remove_all(dir);
  run.ok = true;
  return run;
}

#undef RECOVERY_CHECK

/// Seed band for one shard, honoring the AVOC_CHAOS_SEED override.
std::vector<uint64_t> SeedBand(uint64_t base, size_t count) {
  if (const char* forced = std::getenv("AVOC_CHAOS_SEED")) {
    return {static_cast<uint64_t>(std::strtoull(forced, nullptr, 10))};
  }
  std::vector<uint64_t> seeds;
  for (size_t i = 0; i < count; ++i) seeds.push_back(base + i);
  return seeds;
}

class CrashRecoveryShard : public ::testing::TestWithParam<uint64_t> {};

// 4 shards x 30 seeds = 120 distinct crash schedules (>= 100 per the
// acceptance bar).
constexpr size_t kSeedsPerShard = 30;

TEST_P(CrashRecoveryShard, RecoveryLosesNothingBeyondLastSyncedEntry) {
  for (uint64_t seed : SeedBand(GetParam(), kSeedsPerShard)) {
    SCOPED_TRACE(StrFormat("seed=%llu (AVOC_CHAOS_SEED=%llu to reproduce)",
                           static_cast<unsigned long long>(seed),
                           static_cast<unsigned long long>(seed)));
    const RecoveryRun run = RunSchedule(seed);
    EXPECT_TRUE(run.ok) << run.failure;
  }
}

TEST_P(CrashRecoveryShard, SameSeedReplaysByteIdentically) {
  for (uint64_t seed : SeedBand(GetParam(), kSeedsPerShard)) {
    if (std::getenv("AVOC_CHAOS_SEED") == nullptr && seed % 5 != 0) continue;
    SCOPED_TRACE(StrFormat("seed=%llu", static_cast<unsigned long long>(seed)));
    const RecoveryRun first = RunSchedule(seed);
    const RecoveryRun second = RunSchedule(seed);
    ASSERT_TRUE(first.ok) << first.failure;
    ASSERT_TRUE(second.ok) << second.failure;
    EXPECT_EQ(first.phase1_world, second.phase1_world);
    EXPECT_EQ(first.phase2_world, second.phase2_world);
    EXPECT_EQ(first.reference, second.reference);
    EXPECT_EQ(first.recovered, second.recovered);
    EXPECT_EQ(first.final_state, second.final_state);
    EXPECT_EQ(first.recovered_points, second.recovered_points);
    EXPECT_FALSE(first.reference.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Bands, CrashRecoveryShard,
                         ::testing::Values(uint64_t{5000}, uint64_t{6000},
                                           uint64_t{7000}, uint64_t{8000}));

// The sweep must actually exercise torn tails — if every seed syncs
// everything, the recovery path is untested.
TEST(CrashRecoverySweep, ScheduleMixCoversTornAndCleanTails) {
  if (std::getenv("AVOC_CHAOS_SEED") != nullptr) GTEST_SKIP();
  size_t torn = 0;
  size_t clean = 0;
  size_t partial_loss = 0;
  size_t unsynced_chunks = 0;
  for (uint64_t seed = 5000; seed < 5000 + kSeedsPerShard; ++seed) {
    const RecoveryRun run = RunSchedule(seed);
    ASSERT_TRUE(run.ok) << "seed " << seed << ": " << run.failure;
    if (run.truncated_tail) ++torn;
    if (run.recovered == run.reference) ++clean;
    if (run.recovered != run.reference) ++partial_loss;
    if (run.unsynced_chunk_bytes != 0) ++unsynced_chunks;
  }
  EXPECT_GT(clean, 0u);
  EXPECT_GT(partial_loss, 0u);  // batched-fsync seeds really lose a tail
  EXPECT_GT(unsynced_chunks, 0u);  // seals left a chunks window to tear
  (void)torn;
}

// --- restart exactness --------------------------------------------------------
//
// A restart restores a group's engine through the same RestoreState a
// migration uses, so a group that restarts between passes must vote
// exactly as one that never stopped.  The group is built to expose every
// approximation a records-only restore makes: a cumulative-ratio preset
// (per-module observation counts), a missing-value penalty (records that
// move without an observation), missing readings, and a quorum failure
// that reverts to the last output on the first round after the restart.

constexpr size_t kExactModules = 5;
constexpr size_t kPassesBefore = 40;
constexpr size_t kPassesAfter = 30;

core::VotingEngine ExactnessEngine() {
  core::EngineConfig config = core::MakeConfig(core::AlgorithmId::kStandard);
  config.history.missing_penalty = 0.05;
  config.quorum.fraction = 0.5;
  config.on_no_quorum = core::NoQuorumPolicy::kRevertLast;
  return *core::VotingEngine::Create(kExactModules, config);
}

/// Readings with a drifting module 4, random gaps, and rounds (every
/// seventh, and the first after the restart) that miss the quorum.
data::RoundTable ExactnessTable() {
  data::RoundTable table = data::RoundTable::WithModuleCount(kExactModules);
  Rng rng(0xE4AC7ull);
  for (size_t r = 0; r < kPassesBefore + kPassesAfter; ++r) {
    const bool no_quorum = r % 7 == 3 || r == kPassesBefore;
    std::vector<core::Reading> row;
    for (size_t m = 0; m < kExactModules; ++m) {
      const bool missing = no_quorum ? m >= 2 : rng.Bernoulli(0.2);
      const double drift = m == 4 ? 0.3 * static_cast<double>(r) : 0.0;
      if (missing) {
        row.emplace_back(std::nullopt);
      } else {
        row.emplace_back(20.0 + drift + rng.Gaussian(0.0, 0.5));
      }
    }
    EXPECT_TRUE(table.AppendRound(std::move(row)).ok());
  }
  return table;
}

/// Every column of every sink row, doubles as hex floats.
std::string SinkText(const SinkNode& sink) {
  std::string text;
  sink.WithTrace([&text](const core::BatchTrace& trace,
                         const std::vector<size_t>& rounds) {
    for (size_t i = 0; i < rounds.size(); ++i) {
      text += StrFormat("%zu %d %d %a %zu %d %d", rounds[i],
                        static_cast<int>(trace.outcome(i)),
                        trace.output(i).has_value() ? 1 : 0,
                        trace.output(i).value_or(0.0), trace.present_count(i),
                        trace.used_clustering(i) ? 1 : 0,
                        trace.had_majority(i) ? 1 : 0);
      for (size_t m = 0; m < trace.module_count(); ++m) {
        text += StrFormat(" %a/%a/%a/%u/%u", trace.weights(i)[m],
                          trace.agreement(i)[m], trace.history(i)[m],
                          unsigned{trace.excluded(i)[m]},
                          unsigned{trace.eliminated(i)[m]});
      }
      text += "\n";
    }
  });
  return text;
}

/// Every field of an exported engine state, doubles as hex floats.
std::string StateText(const core::VotingEngine::State& state) {
  std::string text = StrFormat(
      "rounds %llu index %llu last %s\n",
      static_cast<unsigned long long>(state.rounds),
      static_cast<unsigned long long>(state.round_index),
      state.last_output ? StrFormat("%a", *state.last_output).c_str() : "-");
  for (size_t m = 0; m < state.records.size(); ++m) {
    text += StrFormat("%a %a %llu\n", state.records[m],
                      state.agreement_sums[m],
                      static_cast<unsigned long long>(state.observations[m]));
  }
  return text;
}

struct ExactnessRun {
  std::string sink;   ///< sink rows of every pass, in order
  std::string state;  ///< exported engine state after the last pass
  std::string store;  ///< the store's whole trace
};

enum class Restart { kNone, kGraceful, kCrash };

ExactnessRun RunWithRestart(Restart restart, const std::string& dir) {
  std::filesystem::remove_all(dir);
  storage::StorageEngineOptions options;
  options.dir = dir;
  options.chunk_max_points = 16;
  options.compact_wal_bytes = 4096;
  const data::RoundTable table = ExactnessTable();
  ExactnessRun run;
  auto store = storage::StorageEngine::Open(options);
  EXPECT_TRUE(store.ok());
  auto runner = [&]() {
    GroupRunnerOptions group;
    group.group = "lights";
    group.store = store->get();
    group.trace_store = store->get();
    auto created = GroupRunner::FromTable(table, ExactnessEngine(), group);
    EXPECT_TRUE(created.ok());
    return std::move(*created);
  };
  auto live = runner();
  for (size_t r = 0; r < kPassesBefore + kPassesAfter; ++r) {
    if (r == kPassesBefore && restart != Restart::kNone) {
      run.sink += SinkText(live->sink());
      live.reset();
      if (restart == Restart::kCrash) {
        EXPECT_TRUE((*store)->Sync().ok());
        const auto crash = (*store)->SimulateCrash();
        EXPECT_EQ(crash.wal_synced_bytes, crash.wal_bytes);
      }
      store->reset();
      store = storage::StorageEngine::Open(options);
      EXPECT_TRUE(store.ok());
      live = runner();
    }
    live->RunRound(r);
    EXPECT_TRUE(live->voter().last_status().ok());
  }
  run.sink += SinkText(live->sink());
  run.state = StateText(live->voter().ExportEngineState());
  auto trace = (*store)->QueryTraceRange("lights", 0, ~uint64_t{0});
  EXPECT_TRUE(trace.ok());
  run.store = TraceText(*trace);
  live.reset();
  store->reset();
  std::filesystem::remove_all(dir);
  return run;
}

TEST(RestartExactnessTest, RestartedGroupVotesAsIfItNeverStopped) {
  const std::string dir = RecoveryDir(0xE4AC7);
  const ExactnessRun reference = RunWithRestart(Restart::kNone, dir);
  // The schedule really exercises the reverted round after the restart.
  EXPECT_NE(reference.sink.find(StrFormat("\n%zu 1 1 ", kPassesBefore)),
            std::string::npos);
  for (const Restart restart : {Restart::kGraceful, Restart::kCrash}) {
    SCOPED_TRACE(restart == Restart::kCrash ? "crash" : "graceful");
    const ExactnessRun restarted = RunWithRestart(restart, dir);
    EXPECT_EQ(restarted.sink, reference.sink);
    EXPECT_EQ(restarted.state, reference.state);
    EXPECT_EQ(restarted.store, reference.store);
  }
}

TEST(RestartExactnessTest, SinkLagGaugeCountsFromTheRestart) {
  // A restarted group's sink starts empty: its earlier rows live in the
  // store only, so they must not read as rounds lost upstream.
  constexpr size_t kBefore = 40;
  const std::string dir = RecoveryDir(0x1A6);
  std::filesystem::remove_all(dir);
  storage::StorageEngineOptions options;
  options.dir = dir;
  obs::Registry registry;
  const obs::Gauge& lag = registry.GetGauge(
      obs::LabeledName("avoc_sink_lag_rounds", {{"group", "lights"}}));
  const data::RoundTable table = ExactnessTable();
  auto run = [&](size_t first, size_t end) {
    auto store = storage::StorageEngine::Open(options);
    ASSERT_TRUE(store.ok());
    GroupRunnerOptions group;
    group.group = "lights";
    group.store = store->get();
    group.trace_store = store->get();
    group.registry = &registry;
    auto runner = GroupRunner::FromTable(table, ExactnessEngine(), group);
    ASSERT_TRUE(runner.ok());
    for (size_t r = first; r < end; ++r) (*runner)->RunRound(r);
    EXPECT_EQ((*runner)->sink().output_count(), end - first);
  };
  run(0, kBefore);
  EXPECT_EQ(lag.Value(), 0.0);
  run(kBefore, kBefore + 1);
  EXPECT_EQ(lag.Value(), 0.0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace avoc::runtime
