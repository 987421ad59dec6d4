#include "core/engine.h"

#include <gtest/gtest.h>

#include "core/algorithms.h"

namespace avoc::core {
namespace {

EngineConfig AverageConfig() {
  return MakeConfig(AlgorithmId::kAverage);
}

EngineConfig AvocConfig() { return MakeConfig(AlgorithmId::kAvoc); }

VotingEngine MustCreate(size_t modules, const EngineConfig& config) {
  auto engine = VotingEngine::Create(modules, config);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

TEST(EngineConfigTest, ValidateCatchesBadParameters) {
  EngineConfig config = AverageConfig();
  config.agreement.error = 0.0;
  EXPECT_FALSE(config.Validate().ok());

  config = AverageConfig();
  config.quorum.fraction = 1.5;
  EXPECT_FALSE(config.Validate().ok());

  config = AverageConfig();
  config.quorum.min_count = 0;
  EXPECT_FALSE(config.Validate().ok());

  config = MakeConfig(AlgorithmId::kHybrid);
  config.history.penalty = 2.0;
  EXPECT_FALSE(config.Validate().ok());

  config = MakeConfig(AlgorithmId::kSoftDynamicThreshold);
  config.agreement.soft_multiple = 0.5;
  EXPECT_FALSE(config.Validate().ok());

  config = AverageConfig();
  config.exclusion.mode = ExclusionMode::kStdDev;
  config.exclusion.threshold = 0.0;
  EXPECT_FALSE(config.Validate().ok());

  // History-based weighting without a history rule is contradictory.
  config = AverageConfig();
  config.weighting = RoundWeighting::kHistory;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(EngineTest, CreateRejectsZeroModules) {
  EXPECT_FALSE(VotingEngine::Create(0, AverageConfig()).ok());
}

TEST(EngineTest, CastVoteRejectsArityMismatch) {
  VotingEngine engine = MustCreate(3, AverageConfig());
  const Round two = {1.0, 2.0};
  EXPECT_FALSE(engine.CastVote(two).ok());
}

TEST(EngineTest, PlainAverageOfCleanRound) {
  VotingEngine engine = MustCreate(3, AverageConfig());
  const Round values = {10.0, 20.0, 30.0};
  auto result = engine.CastVote(values);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, RoundOutcome::kVoted);
  ASSERT_TRUE(result->value.has_value());
  EXPECT_DOUBLE_EQ(*result->value, 20.0);
  EXPECT_EQ(result->present_count, 3u);
  EXPECT_FALSE(result->used_clustering);
}

TEST(EngineTest, MissingValuesReduceCandidates) {
  VotingEngine engine = MustCreate(4, AverageConfig());
  Round round = {10.0, std::nullopt, 30.0, std::nullopt};
  auto result = engine.CastVote(round);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->present_count, 2u);
  EXPECT_DOUBLE_EQ(*result->value, 20.0);
  EXPECT_DOUBLE_EQ(result->weights[1], 0.0);
  EXPECT_DOUBLE_EQ(result->weights[3], 0.0);
}

TEST(EngineTest, QuorumFailureRevertsToLastOutput) {
  EngineConfig config = AverageConfig();
  config.quorum.fraction = 0.75;  // 3 of 4 required
  config.on_no_quorum = NoQuorumPolicy::kRevertLast;
  VotingEngine engine = MustCreate(4, config);

  const Round good = {1.0, 1.0, 1.0, 1.0};
  ASSERT_TRUE(engine.CastVote(good).ok());

  Round starved = {5.0, std::nullopt, std::nullopt, std::nullopt};
  auto result = engine.CastVote(starved);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, RoundOutcome::kRevertedLast);
  EXPECT_DOUBLE_EQ(*result->value, 1.0);
}

TEST(EngineTest, QuorumFailureWithoutHistoryEmitsNothing) {
  EngineConfig config = AverageConfig();
  config.quorum.fraction = 1.0;
  config.on_no_quorum = NoQuorumPolicy::kRevertLast;
  VotingEngine engine = MustCreate(2, config);
  Round starved = {5.0, std::nullopt};
  auto result = engine.CastVote(starved);
  ASSERT_TRUE(result.ok());
  // Nothing to revert to yet: degrade to no-output.
  EXPECT_EQ(result->outcome, RoundOutcome::kNoOutput);
  EXPECT_FALSE(result->value.has_value());
}

TEST(EngineTest, QuorumRaisePolicySurfacesError) {
  EngineConfig config = AverageConfig();
  config.quorum.fraction = 1.0;
  config.on_no_quorum = NoQuorumPolicy::kRaise;
  VotingEngine engine = MustCreate(2, config);
  Round starved = {5.0, std::nullopt};
  auto result = engine.CastVote(starved);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, RoundOutcome::kError);
  EXPECT_EQ(result->status.code(), ErrorCode::kNoQuorum);
}

TEST(EngineTest, QuorumEmitNothingPolicy) {
  EngineConfig config = AverageConfig();
  config.quorum.fraction = 1.0;
  config.on_no_quorum = NoQuorumPolicy::kEmitNothing;
  VotingEngine engine = MustCreate(2, config);
  ASSERT_TRUE(engine.CastVote(Round{1.0, 1.0}).ok());
  Round starved = {5.0, std::nullopt};
  auto result = engine.CastVote(starved);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, RoundOutcome::kNoOutput);
  EXPECT_FALSE(result->value.has_value());
}

TEST(EngineTest, ValueExclusionPrunesBeforeVoting) {
  EngineConfig config = AverageConfig();
  config.exclusion.mode = ExclusionMode::kStdDev;
  config.exclusion.threshold = 1.5;
  VotingEngine engine = MustCreate(5, config);
  const Round values = {10.0, 10.2, 9.8, 10.1, 100.0};
  auto result = engine.CastVote(values);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->excluded[4]);
  EXPECT_DOUBLE_EQ(result->weights[4], 0.0);
  EXPECT_NEAR(*result->value, 10.025, 1e-9);
}

PresetParams AbsoluteHalf() {
  // Absolute agreement margin of 0.5: keeps the skewed round-one mean
  // within reach of the healthy modules so only the outlier is penalised.
  PresetParams params;
  params.error = 0.5;
  params.scale = ThresholdScale::kAbsolute;
  return params;
}

TEST(EngineTest, ModuleEliminationZeroWeightsBadHistory) {
  EngineConfig config =
      MakeConfig(AlgorithmId::kModuleElimination, AbsoluteHalf());
  VotingEngine engine = MustCreate(3, config);
  // Round 1: mean 10.4; module 2 (11.0) is 0.6 away -> record drops.
  ASSERT_TRUE(engine.CastVote(Round{10.0, 10.2, 11.0}).ok());
  // Round 2: module 2 must be eliminated (record below mean).
  auto result = engine.CastVote(Round{10.0, 10.2, 11.0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->eliminated[2]);
  EXPECT_DOUBLE_EQ(result->weights[2], 0.0);
  EXPECT_NEAR(*result->value, 10.1, 1e-9);
}

TEST(EngineTest, EliminatedModuleHistoryStillUpdates) {
  EngineConfig config =
      MakeConfig(AlgorithmId::kModuleElimination, AbsoluteHalf());
  VotingEngine engine = MustCreate(3, config);
  ASSERT_TRUE(engine.CastVote(Round{10.0, 10.2, 11.0}).ok());
  const double damaged = engine.history().record(2);
  // The faulty module recovers by submitting good values, even while
  // eliminated ("even if discarded in the voting itself").
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(engine.CastVote(Round{10.0, 10.1, 10.05}).ok());
  }
  EXPECT_GT(engine.history().record(2), damaged);
  auto result = engine.CastVote(Round{10.0, 10.1, 10.05});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->weights[2], 0.0);  // re-admitted
}

TEST(EngineTest, AvocBootstrapClustersFirstRound) {
  VotingEngine engine = MustCreate(5, AvocConfig());
  const Round values = {100.0, 101.0, 99.0, 100.5, 500.0};
  auto result = engine.CastVote(values);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_clustering);
  // The outlier is excluded from the winning cluster -> zero weight.
  EXPECT_DOUBLE_EQ(result->weights[4], 0.0);
  EXPECT_GE(*result->value, 99.0);
  EXPECT_LE(*result->value, 101.0);
}

TEST(EngineTest, AvocBootstrapStopsOnceHistoryDiverges) {
  VotingEngine engine = MustCreate(5, AvocConfig());
  const Round values = {100.0, 101.0, 99.0, 100.5, 500.0};
  ASSERT_TRUE(engine.CastVote(values).ok());
  // After round 1 the outlier's record < 1 -> records are no longer all
  // equal -> no more clustering ("the clustering is only used once").
  auto result = engine.CastVote(values);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->used_clustering);
  // Elimination takes over from history.
  EXPECT_TRUE(result->eliminated[4]);
}

TEST(EngineTest, AvocFallbackWhenAllRecordsCollapse) {
  EngineConfig config = AvocConfig();
  config.history.penalty = 1.0;  // one bad round zeroes a record
  // Averaging collation: the output need not coincide with any candidate,
  // so mutually disagreeing rounds can zero *every* record.
  config.collation = Collation::kWeightedAverage;
  VotingEngine engine = MustCreate(3, config);
  // Round 1 clusters (all-1 records); the outlier's record drops to 0.
  ASSERT_TRUE(engine.CastVote(Round{10.0, 10.1, 50.0}).ok());
  // A three-way split: the average agrees with nobody, all records hit 0.
  ASSERT_TRUE(engine.CastVote(Round{1.0, 40.0, 90.0}).ok());
  ASSERT_TRUE(engine.history().AllRecordsAre(0.0));
  // All-0 records trigger the clustering fallback ("indicating a failure
  // of the system or an extreme data spike").
  auto result = engine.CastVote(Round{20.0, 20.1, 90.0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_clustering);
  ASSERT_TRUE(result->value.has_value());
  EXPECT_NEAR(*result->value, 20.05, 0.1);
}

TEST(EngineTest, ClusteringAlwaysModeClustersEveryRound) {
  EngineConfig config = MakeConfig(AlgorithmId::kClusteringOnly);
  VotingEngine engine = MustCreate(3, config);
  for (int i = 0; i < 5; ++i) {
    auto result = engine.CastVote(Round{10.0, 10.2, 80.0});
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->used_clustering);
    EXPECT_NEAR(*result->value, 10.1, 1e-9);
  }
}

TEST(EngineTest, NoMajorityDetectedOnSplitVote) {
  EngineConfig config = AverageConfig();
  config.on_no_majority = NoMajorityPolicy::kAccept;
  VotingEngine engine = MustCreate(4, config);
  // Two camps of two: largest agreement group is not a strict majority.
  auto result = engine.CastVote(Round{10.0, 10.1, 90.0, 90.1});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->had_majority);
  EXPECT_EQ(result->outcome, RoundOutcome::kVoted);  // accepted anyway
}

TEST(EngineTest, NoMajorityRevertPolicy) {
  EngineConfig config = AverageConfig();
  config.on_no_majority = NoMajorityPolicy::kRevertLast;
  VotingEngine engine = MustCreate(4, config);
  ASSERT_TRUE(
      engine.CastVote(Round{10.0, 10.0, 10.0, 10.0}).ok());
  auto result = engine.CastVote(Round{10.0, 10.1, 90.0, 90.1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, RoundOutcome::kRevertedLast);
  EXPECT_DOUBLE_EQ(*result->value, 10.0);
}

TEST(EngineTest, NoMajorityRaisePolicy) {
  EngineConfig config = AverageConfig();
  config.on_no_majority = NoMajorityPolicy::kRaise;
  VotingEngine engine = MustCreate(4, config);
  auto result = engine.CastVote(Round{10.0, 10.1, 90.0, 90.1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, RoundOutcome::kError);
  EXPECT_EQ(result->status.code(), ErrorCode::kNoMajority);
}

TEST(EngineTest, MajorityPresentWithClearConsensus) {
  VotingEngine engine = MustCreate(3, AverageConfig());
  auto result = engine.CastVote(Round{10.0, 10.1, 90.0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->had_majority);
}

TEST(EngineTest, LastOutputTracksVotedRounds) {
  VotingEngine engine = MustCreate(2, AverageConfig());
  EXPECT_FALSE(engine.last_output().has_value());
  ASSERT_TRUE(engine.CastVote(Round{4.0, 6.0}).ok());
  ASSERT_TRUE(engine.last_output().has_value());
  EXPECT_DOUBLE_EQ(*engine.last_output(), 5.0);
  EXPECT_EQ(engine.round_index(), 1u);
}

TEST(EngineTest, ResetForgetsEverything) {
  VotingEngine engine = MustCreate(2, MakeConfig(AlgorithmId::kHybrid));
  ASSERT_TRUE(engine.CastVote(Round{1.0, 500.0}).ok());
  EXPECT_FALSE(engine.history().AllRecordsAre(1.0));
  engine.Reset();
  EXPECT_TRUE(engine.history().AllRecordsAre(1.0));
  EXPECT_FALSE(engine.last_output().has_value());
  EXPECT_EQ(engine.round_index(), 0u);
}

TEST(EngineTest, RestoreHistorySeedsRecords) {
  VotingEngine engine = MustCreate(3, MakeConfig(AlgorithmId::kHybrid));
  const std::vector<double> records = {1.0, 1.0, 0.0};
  ASSERT_TRUE(engine.RestoreState(UpgradeRecordsOnly(records, 100)).ok());
  // The zero-record module is eliminated immediately.
  auto result = engine.CastVote(Round{10.0, 10.1, 10.05});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->eliminated[2]);
}

TEST(EngineTest, HistoryVectorInResultMatchesLedger) {
  VotingEngine engine = MustCreate(2, MakeConfig(AlgorithmId::kStandard));
  auto result = engine.CastVote(Round{5.0, 500.0});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->history.size(), 2u);
  EXPECT_DOUBLE_EQ(result->history[0], engine.history().record(0));
  EXPECT_DOUBLE_EQ(result->history[1], engine.history().record(1));
}

TEST(StatelessVoteTest, MeanAndSelection) {
  const std::vector<double> values = {1.0, 2.0, 3.0};
  auto mean = StatelessVote(values);
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ(*mean, 2.0);
  auto mnn = StatelessVote(values, Collation::kMeanNearestNeighbor);
  ASSERT_TRUE(mnn.ok());
  EXPECT_DOUBLE_EQ(*mnn, 2.0);
}

TEST(StatelessVoteTest, WithExclusion) {
  ExclusionParams exclusion;
  exclusion.mode = ExclusionMode::kStdDev;
  exclusion.threshold = 1.5;
  const std::vector<double> values = {10.0, 10.1, 9.9, 10.0, 200.0};
  auto result = StatelessVote(values, Collation::kWeightedAverage, exclusion);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(*result, 10.0, 0.1);
}

TEST(StatelessVoteTest, ErrorsOnEmpty) {
  const std::vector<double> none;
  EXPECT_FALSE(StatelessVote(none).ok());
}

}  // namespace
}  // namespace avoc::core
