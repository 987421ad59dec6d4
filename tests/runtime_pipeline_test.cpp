// The Fig. 1 chain (hub -> voter -> sink) driven synchronously from a
// recorded table or from generators, one RunRound per round, as a
// deterministic replay would drive it.
#include "runtime/group_runner.h"

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/batch.h"
#include "sim/light.h"
#include "sink_rows.h"

namespace avoc::runtime {
namespace {

core::VotingEngine MakeEngineOrDie(core::AlgorithmId id, size_t modules) {
  auto engine = core::MakeEngine(id, modules);
  EXPECT_TRUE(engine.ok());
  return std::move(*engine);
}

data::RoundTable SmallTable() {
  data::RoundTable table = data::RoundTable::WithModuleCount(3);
  EXPECT_TRUE(table.AppendRound(std::vector<double>{1.0, 2.0, 3.0}).ok());
  EXPECT_TRUE(table.AppendRound(std::vector<double>{4.0, 5.0, 6.0}).ok());
  return table;
}

void RunRounds(GroupRunner& runner, size_t rounds) {
  for (size_t r = 0; r < rounds; ++r) runner.RunRound(r);
}

TEST(PipelineTest, CreateValidatesArity) {
  std::vector<Generator> two(2, [](size_t) {
    return std::optional<double>(1.0);
  });
  EXPECT_FALSE(GroupRunner::WithGenerators(
                   std::move(two),
                   MakeEngineOrDie(core::AlgorithmId::kAverage, 3))
                   .ok());
  std::vector<Generator> none;
  EXPECT_FALSE(GroupRunner::WithGenerators(
                   std::move(none),
                   MakeEngineOrDie(core::AlgorithmId::kAverage, 3))
                   .ok());
}

TEST(PipelineTest, ReplaysTableThroughVoter) {
  auto runner = GroupRunner::FromTable(
      SmallTable(), MakeEngineOrDie(core::AlgorithmId::kAverage, 3));
  ASSERT_TRUE(runner.ok());
  RunRounds(**runner, 2);
  const auto outputs = SinkRows((*runner)->sink());
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[1].round, 1u);
  EXPECT_DOUBLE_EQ(*outputs[0].result.value, 2.0);
  EXPECT_DOUBLE_EQ(*outputs[1].result.value, 5.0);
}

TEST(PipelineTest, GeneratorsDriveRounds) {
  std::vector<Generator> generators;
  for (int m = 0; m < 3; ++m) {
    generators.push_back([m](size_t round) {
      return std::optional<double>(static_cast<double>(round * 10 + m));
    });
  }
  auto runner = GroupRunner::WithGenerators(
      std::move(generators), MakeEngineOrDie(core::AlgorithmId::kAverage, 3));
  ASSERT_TRUE(runner.ok());
  RunRounds(**runner, 2);
  const auto outputs = SinkRows((*runner)->sink());
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_DOUBLE_EQ(*outputs[0].result.value, 1.0);   // (0+1+2)/3
  EXPECT_DOUBLE_EQ(*outputs[1].result.value, 11.0);  // (10+11+12)/3
}

TEST(PipelineTest, MatchesBatchRunnerExactly) {
  // The middleware path must fuse identically to the direct batch path.
  avoc::sim::LightScenarioParams params;
  params.rounds = 300;
  const auto table = avoc::sim::LightScenario(params).MakeFaultyTable();

  auto batch = core::RunAlgorithm(core::AlgorithmId::kAvoc, table);
  ASSERT_TRUE(batch.ok());

  auto runner = GroupRunner::FromTable(
      table, MakeEngineOrDie(core::AlgorithmId::kAvoc, 5));
  ASSERT_TRUE(runner.ok());
  RunRounds(**runner, table.round_count());
  const auto outputs = SinkRows((*runner)->sink());
  ASSERT_EQ(outputs.size(), table.round_count());
  for (size_t r = 0; r < table.round_count(); ++r) {
    const auto batch_output = batch->output(r);
    ASSERT_EQ(outputs[r].result.value.has_value(), batch_output.has_value());
    if (batch_output.has_value()) {
      EXPECT_DOUBLE_EQ(*outputs[r].result.value, *batch_output)
          << "round " << r;
    }
  }
}

}  // namespace
}  // namespace avoc::runtime
