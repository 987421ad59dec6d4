#include "core/explain.h"

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/engine.h"

namespace avoc::core {
namespace {

VoteResult FaultyRound(VotingEngine& engine, Round& round) {
  round = {18400.0, 18520.0, 18470.0, std::nullopt, 24800.0};
  auto result = engine.CastVote(round);
  EXPECT_TRUE(result.ok());
  return std::move(*result);
}

TEST(ExplainTest, SummaryNamesOutcomeValueAndWeights) {
  auto engine = MakeEngine(AlgorithmId::kAvoc, 5);
  ASSERT_TRUE(engine.ok());
  Round round;
  const VoteResult result = FaultyRound(*engine, round);
  const std::string summary = SummarizeResult(result);
  EXPECT_NE(summary.find("voted"), std::string::npos);
  EXPECT_NE(summary.find("(clustered)"), std::string::npos);
  EXPECT_NE(summary.find("w=["), std::string::npos);
  EXPECT_NE(summary.find("0.00"), std::string::npos);  // outlier weight
}

TEST(ExplainTest, TableListsEveryModuleWithFlags) {
  auto engine = MakeEngine(AlgorithmId::kAvoc, 5);
  ASSERT_TRUE(engine.ok());
  Round round;
  const VoteResult result = FaultyRound(*engine, round);
  const std::string table = ExplainResult(
      result, round, {"E1", "E2", "E3", "E4", "E5"});
  EXPECT_NE(table.find("E1"), std::string::npos);
  EXPECT_NE(table.find("E5"), std::string::npos);
  EXPECT_NE(table.find("missing"), std::string::npos);         // E4
  EXPECT_NE(table.find("out-of-cluster"), std::string::npos);  // E5 outlier
  EXPECT_NE(table.find("->"), std::string::npos);
}

TEST(ExplainTest, TableFallsBackToIndexNames) {
  auto engine = MakeEngine(AlgorithmId::kAverage, 2);
  ASSERT_TRUE(engine.ok());
  auto result = engine->CastVote(Round{1.0, 2.0});
  ASSERT_TRUE(result.ok());
  Round round = {1.0, 2.0};
  const std::string table = ExplainResult(*result, round);
  EXPECT_NE(table.find("m0"), std::string::npos);
  EXPECT_NE(table.find("m1"), std::string::npos);
}

TEST(ExplainTest, FaultOutcomesRendered) {
  EngineConfig config = MakeConfig(AlgorithmId::kAverage);
  config.quorum.fraction = 1.0;
  config.on_no_quorum = NoQuorumPolicy::kRaise;
  auto engine = VotingEngine::Create(2, config);
  ASSERT_TRUE(engine.ok());
  Round starved = {1.0, std::nullopt};
  auto result = engine->CastVote(starved);
  ASSERT_TRUE(result.ok());
  const std::string summary = SummarizeResult(*result);
  EXPECT_NE(summary.find("error"), std::string::npos);
  EXPECT_NE(summary.find("no_quorum"), std::string::npos);
}

TEST(ExplainTest, EliminationFlagged) {
  auto engine = MakeEngine(AlgorithmId::kHybrid, 3);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->CastVote(Round{10.0, 10.1, 90.0}).ok());
  Round round = {10.0, 10.1, 90.0};
  auto result = engine->CastVote(round);
  ASSERT_TRUE(result.ok());
  const std::string table = ExplainResult(*result, round);
  EXPECT_NE(table.find("eliminated"), std::string::npos);
}

}  // namespace
}  // namespace avoc::core
