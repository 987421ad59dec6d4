// Golden parity: the whole-table batch path (RunOverTable → CastVoteBlock
// → BatchTrace) must reproduce the per-round path (one CastVote(Round)
// call per table round, each materialized as a VoteResult) bit for bit —
// every scalar, every per-module column, on the paper's UC-1 and UC-2
// fixtures and on degenerate all-suppressed batches.
#include <gtest/gtest.h>

#include <vector>

#include "core/algorithms.h"
#include "core/batch.h"
#include "sim/ble.h"
#include "sim/light.h"
#include "util/rng.h"

namespace avoc {
namespace {

using core::AlgorithmId;
using core::VoteResult;

void ExpectBitIdentical(const VoteResult& legacy, const VoteResult& trace,
                        size_t round) {
  ASSERT_EQ(legacy.value.has_value(), trace.value.has_value())
      << "round " << round;
  if (legacy.value.has_value()) {
    // Bit-for-bit, not within-epsilon.
    EXPECT_EQ(*legacy.value, *trace.value) << "round " << round;
  }
  EXPECT_EQ(legacy.outcome, trace.outcome) << "round " << round;
  EXPECT_EQ(legacy.status.code(), trace.status.code()) << "round " << round;
  EXPECT_EQ(legacy.used_clustering, trace.used_clustering)
      << "round " << round;
  EXPECT_EQ(legacy.had_majority, trace.had_majority) << "round " << round;
  EXPECT_EQ(legacy.present_count, trace.present_count) << "round " << round;
  EXPECT_EQ(legacy.weights, trace.weights) << "round " << round;
  EXPECT_EQ(legacy.agreement, trace.agreement) << "round " << round;
  EXPECT_EQ(legacy.history, trace.history) << "round " << round;
  EXPECT_EQ(legacy.excluded, trace.excluded) << "round " << round;
  EXPECT_EQ(legacy.eliminated, trace.eliminated) << "round " << round;
}

/// The per-round reference: one single-round CastVote per table round.
std::vector<VoteResult> RunPerRound(core::VotingEngine& engine,
                                    const data::RoundTable& table) {
  std::vector<VoteResult> rounds;
  rounds.reserve(table.round_count());
  for (size_t r = 0; r < table.round_count(); ++r) {
    auto result = engine.CastVote(table.MaterializeRound(r));
    EXPECT_TRUE(result.ok()) << "round " << r;
    if (!result.ok()) break;
    rounds.push_back(std::move(*result));
  }
  return rounds;
}

void ExpectParity(AlgorithmId id, const data::RoundTable& table,
                  const core::PresetParams& params = {}) {
  auto legacy_engine = core::MakeEngine(id, table.module_count(), params);
  auto trace_engine = core::MakeEngine(id, table.module_count(), params);
  ASSERT_TRUE(legacy_engine.ok());
  ASSERT_TRUE(trace_engine.ok());
  const auto legacy = RunPerRound(*legacy_engine, table);
  auto trace = core::RunOverTable(*trace_engine, table);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(legacy.size(), trace->round_count());
  for (size_t r = 0; r < trace->round_count(); ++r) {
    ExpectBitIdentical(legacy[r], trace->MaterializeRound(r), r);
    // The outputs column agrees with the materialized value too.
    EXPECT_EQ(legacy[r].value, trace->output(r)) << "round " << r;
  }
}

TEST(TraceParityTest, Uc1LightScenarioAllAlgorithms) {
  sim::LightScenarioParams params;
  params.rounds = 300;
  const auto clean = sim::LightScenario(params).MakeReferenceTable();
  const auto faulty = sim::LightScenario(params).MakeFaultyTable();
  for (const AlgorithmId id : core::AllAlgorithms()) {
    SCOPED_TRACE(core::AlgorithmName(id));
    ExpectParity(id, clean);
    ExpectParity(id, faulty);
  }
}

TEST(TraceParityTest, Uc2BleScenarioWithMissingValues) {
  const auto dataset = sim::BleScenario().Generate();
  core::PresetParams preset;
  preset.scale = core::ThresholdScale::kAbsolute;
  preset.error = 6.0;
  preset.quorum_fraction = 0.2;
  for (const AlgorithmId id :
       {AlgorithmId::kAverage, AlgorithmId::kModuleElimination,
        AlgorithmId::kAvoc, AlgorithmId::kHybrid}) {
    SCOPED_TRACE(core::AlgorithmName(id));
    ExpectParity(id, dataset.stack_a, preset);
    ExpectParity(id, dataset.stack_b, preset);
  }
}

TEST(TraceParityTest, FortyEightModuleTableAllAlgorithms) {
  // Dozens-of-sensors regime (§1): 48 modules puts every preset well past
  // the sorted-agreement cutover and drives the batched block entry with
  // wide rounds.  Missing readings and duplicated values exercise the
  // presence gather and the sort's tie handling; the per-round path must
  // stay bit-identical through all of it.
  constexpr size_t kModules = 48;
  Rng rng(11);
  data::RoundTable table = data::RoundTable::WithModuleCount(kModules);
  for (size_t r = 0; r < 120; ++r) {
    std::vector<std::optional<double>> row(kModules);
    for (size_t m = 0; m < kModules; ++m) {
      if (rng.NextDouble() < 0.05) continue;  // missing
      double value = 100.0 + rng.Gaussian(0.0, 2.0);
      if (m >= kModules - 9) value += 30.0;     // faulty camp
      if (rng.NextDouble() < 0.2 && m > 0) {    // exact duplicates
        value = 100.0 + static_cast<double>(m % 7);
      }
      row[m] = value;
    }
    ASSERT_TRUE(table.AppendRound(row).ok());
  }
  for (const AlgorithmId id : core::AllAlgorithms()) {
    SCOPED_TRACE(core::AlgorithmName(id));
    ExpectParity(id, table);
  }
  // Binary agreement over an absolute margin: the configuration the
  // O(N log N) sorted-window kernel serves at this module count.
  core::PresetParams absolute;
  absolute.scale = core::ThresholdScale::kAbsolute;
  absolute.error = 5.0;
  for (const AlgorithmId id :
       {AlgorithmId::kStandard, AlgorithmId::kModuleElimination}) {
    SCOPED_TRACE(std::string(core::AlgorithmName(id)) + "-abs");
    ExpectParity(id, table, absolute);
  }
}

TEST(TraceParityTest, AllSuppressedBatch) {
  // Quorum of 3 with one present module suppresses every round; the fault
  // path must stay bit-identical too (including the legacy defaults for
  // used_clustering / had_majority on fault rounds).
  data::RoundTable table({"a", "b", "c"});
  ASSERT_TRUE(table.AppendRound({{10.0}, std::nullopt, std::nullopt}).ok());
  ASSERT_TRUE(table.AppendRound({{10.1}, std::nullopt, std::nullopt}).ok());
  ASSERT_TRUE(table.AppendRound({{10.2}, std::nullopt, std::nullopt}).ok());
  core::EngineConfig config;
  config.quorum.min_count = 3;
  for (const auto policy :
       {core::NoQuorumPolicy::kEmitNothing, core::NoQuorumPolicy::kRevertLast,
        core::NoQuorumPolicy::kRaise}) {
    config.on_no_quorum = policy;
    auto legacy_engine = core::VotingEngine::Create(3, config);
    auto trace_engine = core::VotingEngine::Create(3, config);
    ASSERT_TRUE(legacy_engine.ok());
    ASSERT_TRUE(trace_engine.ok());
    const auto legacy = RunPerRound(*legacy_engine, table);
    auto trace = core::RunOverTable(*trace_engine, table);
    ASSERT_TRUE(trace.ok());
    ASSERT_EQ(legacy.size(), trace->round_count());
    EXPECT_EQ(trace->voted_rounds(), 0u);
    for (size_t r = 0; r < trace->round_count(); ++r) {
      ExpectBitIdentical(legacy[r], trace->MaterializeRound(r), r);
    }
  }
}

TEST(TraceParityTest, RevertPolicyWithHistoryThenStarvation) {
  // Healthy rounds first so kRevertedLast has a last output to revert to,
  // then total starvation: exercises both fault branches of the emitter.
  data::RoundTable table = data::RoundTable::WithModuleCount(3);
  ASSERT_TRUE(table.AppendRound(std::vector<double>{5.0, 5.1, 4.9}).ok());
  ASSERT_TRUE(table.AppendRound(std::vector<double>{5.2, 5.0, 5.1}).ok());
  ASSERT_TRUE(
      table.AppendRound({std::nullopt, std::nullopt, std::nullopt}).ok());
  ASSERT_TRUE(
      table.AppendRound({std::nullopt, std::nullopt, std::nullopt}).ok());
  core::EngineConfig config;
  config.quorum.min_count = 2;
  config.on_no_quorum = core::NoQuorumPolicy::kRevertLast;
  auto legacy_engine = core::VotingEngine::Create(3, config);
  auto trace_engine = core::VotingEngine::Create(3, config);
  ASSERT_TRUE(legacy_engine.ok());
  ASSERT_TRUE(trace_engine.ok());
  const auto legacy = RunPerRound(*legacy_engine, table);
  auto trace = core::RunOverTable(*trace_engine, table);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(legacy.size(), trace->round_count());
  for (size_t r = 0; r < trace->round_count(); ++r) {
    ExpectBitIdentical(legacy[r], trace->MaterializeRound(r), r);
  }
  EXPECT_EQ(trace->outcome(2), core::RoundOutcome::kRevertedLast);
}

}  // namespace
}  // namespace avoc
