// Engine edge cases: feature interactions the per-feature suites do not
// cover (exclusion x clustering, weighting x missing values, the
// weighted-median preset path, stuck-at faults, degenerate rounds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/algorithms.h"
#include "core/batch.h"
#include "sim/fault.h"
#include "sim/light.h"

namespace avoc::core {
namespace {

VotingEngine MustCreate(size_t modules, const EngineConfig& config) {
  auto engine = VotingEngine::Create(modules, config);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

TEST(EngineEdgeTest, ExclusionRunsBeforeClustering) {
  // A gross outlier is removed by stddev exclusion; the remaining values
  // form one cluster, so the bootstrap clustering has nothing to cut.
  EngineConfig config = MakeConfig(AlgorithmId::kAvoc);
  config.exclusion.mode = ExclusionMode::kStdDev;
  config.exclusion.threshold = 1.5;
  VotingEngine engine = MustCreate(5, config);
  auto result =
      engine.CastVote(Round{10.0, 10.1, 9.9, 10.05, 500.0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->excluded[4]);
  EXPECT_TRUE(result->used_clustering);  // bootstrap still gates round 1
  EXPECT_NEAR(*result->value, 10.0, 0.2);
  // The excluded module's history still took the hit.
  EXPECT_LT(result->history[4], 1.0);
}

TEST(EngineEdgeTest, AgreementWeightingIgnoresHistory) {
  EngineConfig config = MakeConfig(AlgorithmId::kHybrid);
  config.weighting = RoundWeighting::kAgreement;
  config.module_elimination = false;
  VotingEngine engine = MustCreate(3, config);
  // The outlier's agreement score is 0 -> zero weight on round ONE, even
  // though its record is still 1.
  auto result = engine.CastVote(Round{10.0, 10.1, 50.0});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->weights[2], 0.0);
  EXPECT_NEAR(*result->value, 10.05, 0.1);
}

TEST(EngineEdgeTest, CombinedWeightingMultipliesHistoryAndAgreement) {
  EngineConfig config = MakeConfig(AlgorithmId::kHybrid);
  config.weighting = RoundWeighting::kCombined;
  config.module_elimination = false;
  config.collation = Collation::kWeightedAverage;
  VotingEngine engine = MustCreate(2, config);
  // With two modules, each agrees fully with the other or not at all.
  auto result = engine.CastVote(Round{10.0, 10.1});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->weights[0], 1.0);  // h=1 * s=1
}

TEST(EngineEdgeTest, WeightedMedianPreset) {
  PresetParams params;
  params.collation = Collation::kWeightedMedian;
  auto engine = MakeEngine(AlgorithmId::kStandard, 5, params);
  ASSERT_TRUE(engine.ok());
  // Median is robust to one wild value even without history.
  auto result =
      engine->CastVote(Round{10.0, 10.1, 9.9, 10.05, 500.0});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(*result->value, 10.05, 0.2);
}

TEST(EngineEdgeTest, AllButOneMissingStillVotesUnderLooseQuorum) {
  EngineConfig config = MakeConfig(AlgorithmId::kAvoc);
  config.quorum.fraction = 0.1;
  VotingEngine engine = MustCreate(5, config);
  Round round(5);
  round[2] = 42.0;
  auto result = engine.CastVote(round);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, RoundOutcome::kVoted);
  EXPECT_DOUBLE_EQ(*result->value, 42.0);
  EXPECT_EQ(result->present_count, 1u);
  EXPECT_TRUE(result->had_majority);  // 1 of 1 is a majority
}

TEST(EngineEdgeTest, IdenticalValuesEverywhere) {
  for (const AlgorithmId id : AllAlgorithms()) {
    auto engine = MakeEngine(id, 4);
    ASSERT_TRUE(engine.ok());
    for (int r = 0; r < 3; ++r) {
      auto result = engine->CastVote(Round(4, 7.25));
      ASSERT_TRUE(result.ok()) << AlgorithmName(id);
      EXPECT_DOUBLE_EQ(*result->value, 7.25) << AlgorithmName(id);
    }
  }
}

TEST(EngineEdgeTest, NegativeValuesEverywhere) {
  // RSSI-style all-negative rounds through every preset.
  for (const AlgorithmId id : AllAlgorithms()) {
    PresetParams params;
    params.scale = ThresholdScale::kAbsolute;
    params.error = 5.0;
    auto engine = MakeEngine(id, 3, params);
    ASSERT_TRUE(engine.ok());
    auto result = engine->CastVote(Round{-70.0, -72.0, -71.0});
    ASSERT_TRUE(result.ok()) << AlgorithmName(id);
    EXPECT_GE(*result->value, -72.0) << AlgorithmName(id);
    EXPECT_LE(*result->value, -70.0) << AlgorithmName(id);
  }
}

TEST(EngineEdgeTest, ZeroCrossingValuesWithRelativeThreshold) {
  // Values straddling zero: the relative floor keeps margins sane.
  auto engine = MakeEngine(AlgorithmId::kAvoc, 3);
  ASSERT_TRUE(engine.ok());
  auto result = engine->CastVote(Round{-0.01, 0.0, 0.02});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, RoundOutcome::kVoted);
}

TEST(EngineEdgeTest, StuckAtSensorGetsEliminated) {
  // A sensor frozen at a once-valid value becomes an outlier once the
  // signal swings beyond the agreement margin; history-aware voting weeds
  // it out for those stretches.  (With the default gentle daylight cycle
  // a frozen sensor stays *plausible* — physically correct — so the test
  // amplifies the swing well past the relative margin.)
  sim::LightScenarioParams params;
  params.rounds = 2000;
  params.daylight_amplitude = 2500.0;
  auto table = sim::LightScenario(params).MakeReferenceTable();
  ASSERT_TRUE(sim::InjectStuckAt(table, 1, 0).ok());  // E2 frozen at round 0

  auto batch = RunAlgorithm(AlgorithmId::kAvoc, table);
  ASSERT_TRUE(batch.ok());
  size_t eliminated_rounds = 0;
  for (size_t r = 0; r < batch->round_count(); ++r) {
    if (batch->weights(r)[1] == 0.0) ++eliminated_rounds;
  }
  // The frozen sensor loses its vote for a substantial part of the
  // capture (the daylight peaks), and the fused output keeps tracking the
  // live sensors: its span covers most of the amplified swing.
  EXPECT_GT(eliminated_rounds, batch->round_count() / 4);
  const auto outputs = batch->ContinuousOutputs();
  const auto [lo, hi] = std::minmax_element(outputs.begin(), outputs.end());
  EXPECT_GT(*hi - *lo, 4000.0);
}

TEST(EngineEdgeTest, IntermittentOutageAndRecovery) {
  // A sensor goes dark for a stretch; on return it re-joins seamlessly
  // (missing rounds leave its record untouched by default).
  auto engine = MakeEngine(AlgorithmId::kAvoc, 3);
  ASSERT_TRUE(engine.ok());
  for (int r = 0; r < 5; ++r) {
    ASSERT_TRUE(
        engine->CastVote(Round{10.0, 10.1, 10.05}).ok());
  }
  for (int r = 0; r < 5; ++r) {
    Round round = {10.0, 10.1, std::nullopt};
    auto result = engine->CastVote(round);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->outcome, RoundOutcome::kVoted);
  }
  EXPECT_DOUBLE_EQ(engine->history().record(2), 1.0);  // untouched
  auto back = engine->CastVote(Round{10.0, 10.1, 10.05});
  ASSERT_TRUE(back.ok());
  EXPECT_GT(back->weights[2], 0.0);
}

TEST(EngineEdgeTest, MissingPenaltyErodesAbsenteeRecords) {
  EngineConfig config = MakeConfig(AlgorithmId::kAvoc);
  config.history.missing_penalty = 0.2;
  VotingEngine engine = MustCreate(3, config);
  for (int r = 0; r < 5; ++r) {
    Round round = {10.0, 10.1, std::nullopt};
    ASSERT_TRUE(engine.CastVote(round).ok());
  }
  EXPECT_NEAR(engine.history().record(2), 0.0, 1e-12);
}

TEST(EngineEdgeTest, RoundIndexCountsFaultedRounds) {
  EngineConfig config = MakeConfig(AlgorithmId::kAverage);
  config.quorum.fraction = 1.0;
  VotingEngine engine = MustCreate(2, config);
  Round starved = {1.0, std::nullopt};
  ASSERT_TRUE(engine.CastVote(starved).ok());
  ASSERT_TRUE(engine.CastVote(Round{1.0, 1.0}).ok());
  EXPECT_EQ(engine.round_index(), 2u);
}

}  // namespace
}  // namespace avoc::core
