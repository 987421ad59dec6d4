#include "core/algorithms.h"

#include <gtest/gtest.h>

namespace avoc::core {
namespace {

TEST(AlgorithmsTest, AllAlgorithmsListsSevenInPaperOrder) {
  const auto all = AllAlgorithms();
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(all.front(), AlgorithmId::kAverage);
  EXPECT_EQ(all.back(), AlgorithmId::kAvoc);
}

TEST(AlgorithmsTest, NamesRoundTripThroughParser) {
  for (const AlgorithmId id : AllAlgorithms()) {
    auto parsed = ParseAlgorithmName(AlgorithmName(id));
    ASSERT_TRUE(parsed.ok()) << AlgorithmName(id);
    EXPECT_EQ(*parsed, id);
  }
}

TEST(AlgorithmsTest, ParserAcceptsPaperSpellings) {
  EXPECT_EQ(*ParseAlgorithmName("avg."), AlgorithmId::kAverage);
  EXPECT_EQ(*ParseAlgorithmName("strd."), AlgorithmId::kStandard);
  EXPECT_EQ(*ParseAlgorithmName("ME"), AlgorithmId::kModuleElimination);
  EXPECT_EQ(*ParseAlgorithmName("Hybrid"), AlgorithmId::kHybrid);
  EXPECT_EQ(*ParseAlgorithmName("Clustering"), AlgorithmId::kClusteringOnly);
  EXPECT_EQ(*ParseAlgorithmName("AVOC"), AlgorithmId::kAvoc);
  EXPECT_EQ(*ParseAlgorithmName(" sdt "), AlgorithmId::kSoftDynamicThreshold);
}

TEST(AlgorithmsTest, ParserRejectsUnknown) {
  EXPECT_FALSE(ParseAlgorithmName("quantum").ok());
  EXPECT_FALSE(ParseAlgorithmName("").ok());
}

TEST(AlgorithmsTest, PresetStructure) {
  const EngineConfig avg = MakeConfig(AlgorithmId::kAverage);
  EXPECT_EQ(avg.history.rule, HistoryRule::kNone);
  EXPECT_EQ(avg.weighting, RoundWeighting::kUniform);
  EXPECT_FALSE(avg.module_elimination);
  EXPECT_EQ(avg.clustering, ClusteringMode::kOff);

  const EngineConfig standard = MakeConfig(AlgorithmId::kStandard);
  EXPECT_EQ(standard.history.rule, HistoryRule::kCumulativeRatio);
  EXPECT_EQ(standard.agreement.mode, AgreementMode::kBinary);
  EXPECT_FALSE(standard.module_elimination);

  const EngineConfig me = MakeConfig(AlgorithmId::kModuleElimination);
  EXPECT_TRUE(me.module_elimination);
  EXPECT_EQ(me.collation, Collation::kWeightedAverage);

  const EngineConfig sdt = MakeConfig(AlgorithmId::kSoftDynamicThreshold);
  EXPECT_EQ(sdt.agreement.mode, AgreementMode::kSoftDynamic);
  EXPECT_FALSE(sdt.module_elimination);

  const EngineConfig hybrid = MakeConfig(AlgorithmId::kHybrid);
  EXPECT_EQ(hybrid.history.rule, HistoryRule::kRewardPenalty);
  EXPECT_TRUE(hybrid.module_elimination);
  EXPECT_EQ(hybrid.collation, Collation::kMeanNearestNeighbor);
  EXPECT_EQ(hybrid.clustering, ClusteringMode::kOff);

  const EngineConfig cov = MakeConfig(AlgorithmId::kClusteringOnly);
  EXPECT_EQ(cov.clustering, ClusteringMode::kAlways);
  EXPECT_EQ(cov.history.rule, HistoryRule::kNone);

  const EngineConfig avoc = MakeConfig(AlgorithmId::kAvoc);
  EXPECT_EQ(avoc.clustering, ClusteringMode::kBootstrap);
  EXPECT_EQ(avoc.history.rule, HistoryRule::kRewardPenalty);
  EXPECT_TRUE(avoc.module_elimination);
  EXPECT_EQ(avoc.collation, Collation::kMeanNearestNeighbor);
}

TEST(AlgorithmsTest, PresetParamsPropagate) {
  PresetParams params;
  params.error = 0.1;
  params.soft_multiple = 3.0;
  params.reward = 0.2;
  params.penalty = 0.4;
  params.quorum_fraction = 0.8;
  params.scale = ThresholdScale::kAbsolute;
  const EngineConfig config = MakeConfig(AlgorithmId::kAvoc, params);
  EXPECT_DOUBLE_EQ(config.agreement.error, 0.1);
  EXPECT_DOUBLE_EQ(config.agreement.soft_multiple, 3.0);
  EXPECT_DOUBLE_EQ(config.history.reward, 0.2);
  EXPECT_DOUBLE_EQ(config.history.penalty, 0.4);
  EXPECT_DOUBLE_EQ(config.quorum.fraction, 0.8);
  EXPECT_EQ(config.agreement.scale, ThresholdScale::kAbsolute);
}

TEST(AlgorithmsTest, CollationOverride) {
  PresetParams params;
  params.collation = Collation::kWeightedAverage;
  const EngineConfig config = MakeConfig(AlgorithmId::kAvoc, params);
  EXPECT_EQ(config.collation, Collation::kWeightedAverage);
}

TEST(AlgorithmsTest, EveryPresetValidates) {
  for (const AlgorithmId id : AllAlgorithms()) {
    const EngineConfig config = MakeConfig(id);
    EXPECT_TRUE(config.Validate().ok())
        << AlgorithmName(id) << ": " << config.Validate().ToString();
  }
}

TEST(AlgorithmsTest, MakeEngineBuildsWorkingVoter) {
  for (const AlgorithmId id : AllAlgorithms()) {
    auto engine = MakeEngine(id, 5);
    ASSERT_TRUE(engine.ok()) << AlgorithmName(id);
    auto result =
        engine->CastVote(Round{10.0, 10.1, 9.9, 10.05, 10.2});
    ASSERT_TRUE(result.ok()) << AlgorithmName(id);
    EXPECT_EQ(result->outcome, RoundOutcome::kVoted);
    EXPECT_NEAR(*result->value, 10.05, 0.2) << AlgorithmName(id);
  }
}

}  // namespace
}  // namespace avoc::core
