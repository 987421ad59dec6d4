#include "obs/stage_metrics.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "core/algorithms.h"
#include "core/batch.h"
#include "core/engine.h"
#include "core/vote_sink.h"
#include "obs/metrics.h"
#include "sim/ble.h"
#include "sim/light.h"

namespace avoc::obs {
namespace {

constexpr size_t kModules = 3;

/// Minimal columnar receiver: hands out real columns, keeps nothing.
class DiscardSink final : public core::VoteSink {
 public:
  core::RoundColumns BeginRound(size_t module_count) override {
    weights_.resize(module_count);
    agreement_.resize(module_count);
    history_.resize(module_count);
    excluded_.resize(module_count);
    eliminated_.resize(module_count);
    return {weights_, agreement_, history_, excluded_, eliminated_};
  }
  void EndRound(const core::RoundScalars& /*scalars*/) override {}

 private:
  std::vector<double> weights_;
  std::vector<double> agreement_;
  std::vector<double> history_;
  std::vector<uint8_t> excluded_;
  std::vector<uint8_t> eliminated_;
};

/// One round through the block entry point, as a one-round block.
Status CastRound(core::VotingEngine& engine, const core::Round& round,
                 core::VoteSink& sink) {
  std::vector<double> values(round.size(), 0.0);
  std::vector<uint8_t> present(round.size(), 0);
  for (size_t m = 0; m < round.size(); ++m) {
    if (round[m].has_value()) {
      values[m] = *round[m];
      present[m] = 1;
    }
  }
  return engine.CastVoteBlock(core::RoundBlock{values, present, round.size()},
                              sink);
}

const core::Round kSteadyRound = {20.0, 20.1, 19.9};

MetricsObserverOptions EveryRound(const char* scope) {
  MetricsObserverOptions options;
  options.scope = scope;
  options.sample_every = 1;
  options.flush_every = 1;
  options.log_events = false;
  return options;
}

core::VotingEngine MustMakeEngine() {
  auto engine = core::MakeEngine(core::AlgorithmId::kAvoc, kModules);
  EXPECT_TRUE(engine.ok());
  return std::move(*engine);
}

TEST(ObsObserverTest, CountsVotedRoundsAndSamplesLatency) {
  Registry registry;
  MetricsObserver observer(registry, EveryRound("g"));
  core::VotingEngine engine = MustMakeEngine();
  engine.set_observer(&observer);
  DiscardSink sink;
  for (int r = 0; r < 10; ++r) {
    ASSERT_TRUE(CastRound(engine, kSteadyRound, sink).ok());
  }
  observer.Flush();
  EXPECT_EQ(observer.rounds_total().Value(), 10u);
  EXPECT_EQ(observer.voted_total().Value(), 10u);
  EXPECT_EQ(observer.error_total().Value(), 0u);
  EXPECT_EQ(observer.quorum_failures_total().Value(), 0u);
  EXPECT_EQ(observer.round_latency().count(), 10u);
  // Every stage histogram saw every sampled round.
  for (size_t s = 0; s < core::kStageNames.size(); ++s) {
    EXPECT_EQ(observer.stage_latency(s).count(), 10u)
        << core::kStageNames[s];
  }
  // The registry sees the same counts through the scrape path.
  EXPECT_EQ(registry.SumCounters("avoc_rounds_total"), 10u);
}

TEST(ObsObserverTest, LegacyAndColumnarPathsUpdateMetricsIdentically) {
  // The observer hooks fire identically whether rounds go through the
  // single-round VoteResult convenience or the columnar block path.
  Registry legacy_registry;
  Registry columnar_registry;
  MetricsObserver legacy_observer(legacy_registry, EveryRound("g"));
  MetricsObserver columnar_observer(columnar_registry, EveryRound("g"));
  core::VotingEngine legacy_engine = MustMakeEngine();
  core::VotingEngine columnar_engine = MustMakeEngine();
  legacy_engine.set_observer(&legacy_observer);
  columnar_engine.set_observer(&columnar_observer);

  DiscardSink sink;
  for (int r = 0; r < 20; ++r) {
    core::Round round(kModules);
    for (size_t m = 0; m < kModules; ++m) {
      // A drifting module 0 exercises exclusion/elimination; round 13
      // drops below quorum to exercise the fault counters on both paths.
      round[m] = (r == 13 && m > 0)
                     ? core::Reading{}
                     : core::Reading{20.0 + (m == 0 ? 3.0 : 0.1 * r)};
    }
    if (r == 13) round[0] = core::Reading{};
    ASSERT_TRUE(legacy_engine.CastVote(round).ok());             // convenience
    ASSERT_TRUE(CastRound(columnar_engine, round, sink).ok());  // block
  }
  legacy_observer.Flush();
  columnar_observer.Flush();

  EXPECT_EQ(legacy_observer.rounds_total().Value(),
            columnar_observer.rounds_total().Value());
  EXPECT_EQ(legacy_observer.voted_total().Value(),
            columnar_observer.voted_total().Value());
  EXPECT_EQ(legacy_observer.reverted_total().Value(),
            columnar_observer.reverted_total().Value());
  EXPECT_EQ(legacy_observer.no_output_total().Value(),
            columnar_observer.no_output_total().Value());
  EXPECT_EQ(legacy_observer.excluded_modules_total().Value(),
            columnar_observer.excluded_modules_total().Value());
  EXPECT_EQ(legacy_observer.eliminated_modules_total().Value(),
            columnar_observer.eliminated_modules_total().Value());
  EXPECT_EQ(legacy_observer.clustered_rounds_total().Value(),
            columnar_observer.clustered_rounds_total().Value());
  EXPECT_EQ(legacy_observer.quorum_failures_total().Value(),
            columnar_observer.quorum_failures_total().Value());
  EXPECT_EQ(legacy_observer.majority_failures_total().Value(),
            columnar_observer.majority_failures_total().Value());
  EXPECT_EQ(legacy_observer.round_latency().count(),
            columnar_observer.round_latency().count());
  // The fault round was counted, and as a quorum failure.
  EXPECT_EQ(legacy_observer.rounds_total().Value(), 20u);
  EXPECT_EQ(legacy_observer.quorum_failures_total().Value(), 1u);
}

TEST(ObsObserverTest, QuorumShortRoundAttributedToQuorumStage) {
  Registry registry;
  MetricsObserver observer(registry, EveryRound("g"));
  core::VotingEngine engine = MustMakeEngine();
  engine.set_observer(&observer);
  DiscardSink sink;
  // 1 of 3 present is below ceil(0.5 * 3) = 2: the quorum policy fires
  // (revert-last with no prior output degrades to no-output).
  const core::Round round = {core::Reading{20.0}, core::Reading{},
                             core::Reading{}};
  ASSERT_TRUE(CastRound(engine, round, sink).ok());
  observer.Flush();
  EXPECT_EQ(observer.voted_total().Value(), 0u);
  EXPECT_EQ(observer.no_output_total().Value(), 1u);
  EXPECT_EQ(observer.quorum_failures_total().Value(), 1u);
  EXPECT_EQ(observer.majority_failures_total().Value(), 0u);
}

TEST(ObsObserverTest, SamplingPeriodLimitsLatencyRecords) {
  Registry registry;
  MetricsObserverOptions options = EveryRound("g");
  options.sample_every = 4;
  MetricsObserver observer(registry, options);
  core::VotingEngine engine = MustMakeEngine();
  engine.set_observer(&observer);
  DiscardSink sink;
  for (int r = 0; r < 16; ++r) {
    ASSERT_TRUE(CastRound(engine, kSteadyRound, sink).ok());
  }
  observer.Flush();
  // Counters are exact on every round; the clock is only sampled on the
  // first round plus every fourth after it.
  EXPECT_EQ(observer.rounds_total().Value(), 16u);
  EXPECT_LE(observer.round_latency().count(), 5u);
  EXPECT_GE(observer.round_latency().count(), 4u);
}

TEST(ObsObserverTest, HistoryCollapseDetectedFromCommittedColumns) {
  Registry registry;
  MetricsObserver observer(registry, EveryRound("g"));
  // Drive the hook directly with synthetic columns: an all-zero history
  // column is the §5 collapse state that forces a bootstrap re-cluster.
  std::array<double, kModules> weights{};
  std::array<double, kModules> agreement{};
  std::array<double, kModules> history{};
  std::array<uint8_t, kModules> excluded{};
  std::array<uint8_t, kModules> eliminated{};
  core::RoundColumns columns;
  columns.weights = weights;
  columns.agreement = agreement;
  columns.history = history;
  columns.excluded = excluded;
  columns.eliminated = eliminated;
  core::RoundScalars scalars;
  scalars.outcome = core::RoundOutcome::kVoted;
  scalars.has_value = true;
  scalars.value = 20.0;
  scalars.present_count = kModules;

  observer.OnRoundCommitted(0, columns, scalars);
  history[0] = 0.7;  // healthy history: no collapse
  observer.OnRoundCommitted(1, columns, scalars);
  observer.Flush();
  EXPECT_EQ(observer.history_collapse_total().Value(), 1u);
  EXPECT_EQ(observer.rounds_total().Value(), 2u);
}

TEST(ObsObserverTest, StageHooksGateFollowsSamplingSchedule) {
  Registry registry;
  MetricsObserverOptions options = EveryRound("g");
  options.sample_every = 8;
  MetricsObserver observer(registry, options);
  // The constructor leaves the gate up so the first round is timed (and
  // the plan's quorum threshold is read); OnRoundCommitted lowers it until
  // the next scheduled sample.
  EXPECT_TRUE(observer.stage_hooks_enabled());

  core::VotingEngine engine = MustMakeEngine();
  engine.set_observer(&observer);
  DiscardSink sink;
  ASSERT_TRUE(CastRound(engine, kSteadyRound, sink).ok());
  EXPECT_FALSE(observer.stage_hooks_enabled());
  for (int r = 0; r < 7; ++r) {
    ASSERT_TRUE(CastRound(engine, kSteadyRound, sink).ok());
  }
  // Eight unsampled rounds have passed: the gate is up for the ninth.
  EXPECT_TRUE(observer.stage_hooks_enabled());
}

template <typename T>
void ExpectSameBytes(std::span<const T> observed, std::span<const T> bare,
                     const char* column) {
  ASSERT_EQ(observed.size(), bare.size()) << column;
  if (observed.empty()) return;
  EXPECT_EQ(std::memcmp(observed.data(), bare.data(), observed.size_bytes()),
            0)
      << column;
}

/// Runs `table` as one block through an engine with a MetricsObserver
/// sampling every third round and through a bare engine, then checks the
/// two traces byte for byte and the observer's hook and fault counts.
/// Reports the number of faulted rounds through `fault_count`.
void ExpectObservedBlockMatchesBare(const data::RoundTable& table,
                                    const core::PresetParams& params,
                                    uint64_t* fault_count) {
  const size_t modules = table.module_count();
  auto observed = core::MakeEngine(core::AlgorithmId::kAvoc, modules, params);
  auto bare = core::MakeEngine(core::AlgorithmId::kAvoc, modules, params);
  ASSERT_TRUE(observed.ok());
  ASSERT_TRUE(bare.ok());
  Registry registry;
  MetricsObserverOptions options = EveryRound("g");
  options.sample_every = 3;
  MetricsObserver observer(registry, options);
  observed->set_observer(&observer);

  auto observed_trace = core::RunOverTable(*observed, table);
  auto bare_trace = core::RunOverTable(*bare, table);
  ASSERT_TRUE(observed_trace.ok());
  ASSERT_TRUE(bare_trace.ok());
  const core::TraceColumns a = observed_trace->view().columns();
  const core::TraceColumns b = bare_trace->view().columns();
  ASSERT_EQ(a.rounds, table.round_count());
  ASSERT_EQ(a.rounds, b.rounds);
  ASSERT_EQ(a.modules, b.modules);
  ExpectSameBytes(a.values, b.values, "values");
  ExpectSameBytes(a.engaged, b.engaged, "engaged");
  ExpectSameBytes(a.outcomes, b.outcomes, "outcomes");
  ExpectSameBytes(a.used_clustering, b.used_clustering, "used_clustering");
  ExpectSameBytes(a.had_majority, b.had_majority, "had_majority");
  ExpectSameBytes(a.present_counts, b.present_counts, "present_counts");
  ExpectSameBytes(a.weights, b.weights, "weights");
  ExpectSameBytes(a.agreement, b.agreement, "agreement");
  ExpectSameBytes(a.history, b.history, "history");
  ExpectSameBytes(a.excluded, b.excluded, "excluded");
  ExpectSameBytes(a.eliminated, b.eliminated, "eliminated");
  EXPECT_EQ(a.errors.size(), b.errors.size());

  // The gate is up for the first round and every third after it.  A
  // sampled round reports all nine stages unless its quorum stage faults
  // (the only fault policy these presets can fire), which stops it after
  // one.
  uint64_t faults = 0;
  uint64_t sampled = 0;
  uint64_t sampled_clean = 0;
  for (size_t r = 0; r < a.rounds; ++r) {
    const bool faulted = a.outcomes[r] != core::RoundOutcome::kVoted;
    faults += faulted ? 1 : 0;
    if (r % 3 == 0) {
      ++sampled;
      sampled_clean += faulted ? 0 : 1;
    }
  }
  observer.Flush();
  EXPECT_EQ(observer.rounds_total().Value(), a.rounds);
  EXPECT_EQ(observer.round_latency().count(), sampled);
  EXPECT_EQ(observer.stage_latency(0).count(), sampled);
  for (size_t s = 1; s < core::kStageNames.size(); ++s) {
    EXPECT_EQ(observer.stage_latency(s).count(), sampled_clean)
        << core::kStageNames[s];
  }
  EXPECT_EQ(observer.quorum_failures_total().Value(), faults);
  EXPECT_EQ(observer.majority_failures_total().Value(), 0u);
  *fault_count = faults;
}

TEST(ObsObserverTest, ObservedBlockMatchesBareBlockOnUseCaseFixtures) {
  sim::LightScenarioParams light;
  light.rounds = 300;
  uint64_t faults = 0;
  ExpectObservedBlockMatchesBare(sim::LightScenario(light).MakeFaultyTable(),
                                 {}, &faults);

  // UC-2: BLE stacks with missing readings, so some rounds miss quorum.
  const auto ble = sim::BleScenario().Generate();
  core::PresetParams absolute;
  absolute.scale = core::ThresholdScale::kAbsolute;
  absolute.error = 6.0;
  for (const data::RoundTable* stack : {&ble.stack_a, &ble.stack_b}) {
    uint64_t stack_faults = 0;
    ExpectObservedBlockMatchesBare(*stack, absolute, &stack_faults);
    EXPECT_GT(stack_faults, 0u) << "the fixture must exercise the fault path";
  }
}

}  // namespace
}  // namespace avoc::obs
