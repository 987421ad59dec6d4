#include "runtime/pipeline.h"

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

TEST(PipelineTest, CreateValidatesArity) {
  std::vector<Generator> two(2, [](size_t) {
    return std::optional<double>(1.0);
  });
  EXPECT_FALSE(Pipeline::FromGenerators(
                   std::move(two),
                   MakeEngineOrDie(core::AlgorithmId::kAverage, 3))
                   .ok());
  std::vector<Generator> none;
  EXPECT_FALSE(Pipeline::FromGenerators(
                   std::move(none),
                   MakeEngineOrDie(core::AlgorithmId::kAverage, 3))
                   .ok());
}

TEST(PipelineTest, ReplaysTableThroughVoter) {
  auto pipeline = Pipeline::FromTable(
      SmallTable(), MakeEngineOrDie(core::AlgorithmId::kAverage, 3));
  ASSERT_TRUE(pipeline.ok());
  pipeline->Run(2);
  EXPECT_EQ(pipeline->rounds_run(), 2u);
  const auto outputs = SinkRows(pipeline->sink());
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_DOUBLE_EQ(*outputs[0].result.value, 2.0);
  EXPECT_DOUBLE_EQ(*outputs[1].result.value, 5.0);
}

TEST(PipelineTest, StepsBeyondTableProduceEmptyRounds) {
  auto config = core::MakeConfig(core::AlgorithmId::kAverage);
  config.on_no_quorum = core::NoQuorumPolicy::kRevertLast;
  auto engine = core::VotingEngine::Create(3, config);
  ASSERT_TRUE(engine.ok());
  auto pipeline = Pipeline::FromTable(SmallTable(), std::move(*engine));
  ASSERT_TRUE(pipeline.ok());
  pipeline->Run(3);  // one step past the table
  const auto outputs = SinkRows(pipeline->sink());
  ASSERT_EQ(outputs.size(), 3u);
  // The starved round reverts to the last fused value.
  EXPECT_EQ(outputs[2].result.outcome, core::RoundOutcome::kRevertedLast);
  EXPECT_DOUBLE_EQ(*outputs[2].result.value, 5.0);
}

TEST(PipelineTest, GeneratorsDriveRounds) {
  std::vector<Generator> generators;
  for (int m = 0; m < 3; ++m) {
    generators.push_back([m](size_t round) {
      return std::optional<double>(static_cast<double>(round * 10 + m));
    });
  }
  auto pipeline = Pipeline::FromGenerators(
      std::move(generators), MakeEngineOrDie(core::AlgorithmId::kAverage, 3));
  ASSERT_TRUE(pipeline.ok());
  pipeline->Run(2);
  const auto outputs = SinkRows(pipeline->sink());
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_DOUBLE_EQ(*outputs[0].result.value, 1.0);   // (0+1+2)/3
  EXPECT_DOUBLE_EQ(*outputs[1].result.value, 11.0);  // (10+11+12)/3
}

TEST(PipelineTest, MissingGeneratorsBecomeMissingValues) {
  std::vector<Generator> generators;
  generators.push_back([](size_t) { return std::optional<double>(10.0); });
  generators.push_back([](size_t round) {
    return round % 2 == 0 ? std::optional<double>(20.0) : std::nullopt;
  });
  auto pipeline = Pipeline::FromGenerators(
      std::move(generators), MakeEngineOrDie(core::AlgorithmId::kAverage, 2));
  ASSERT_TRUE(pipeline.ok());
  pipeline->Run(2);
  const auto outputs = SinkRows(pipeline->sink());
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_DOUBLE_EQ(*outputs[0].result.value, 15.0);
  EXPECT_EQ(outputs[1].result.present_count, 1u);
}

TEST(PipelineTest, MatchesBatchRunnerExactly) {
  // The middleware path must fuse identically to the direct batch path.
  avoc::sim::LightScenarioParams params;
  params.rounds = 300;
  const auto table = avoc::sim::LightScenario(params).MakeFaultyTable();

  auto batch = core::RunAlgorithm(core::AlgorithmId::kAvoc, table);
  ASSERT_TRUE(batch.ok());

  auto pipeline = Pipeline::FromTable(
      table, MakeEngineOrDie(core::AlgorithmId::kAvoc, 5));
  ASSERT_TRUE(pipeline.ok());
  pipeline->Run(table.round_count());
  const auto outputs = SinkRows(pipeline->sink());
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

TEST(PipelineTest, HistoryPersistsThroughStoreAcrossPipelines) {
  HistoryStore store;
  PipelineOptions options;
  options.store = &store;
  options.group = "uc1";

  data::RoundTable table = data::RoundTable::WithModuleCount(3);
  for (int r = 0; r < 10; ++r) {
    ASSERT_TRUE(table.AppendRound(std::vector<double>{10.0, 10.1, 60.0}).ok());
  }
  {
    auto pipeline = Pipeline::FromTable(
        table, MakeEngineOrDie(core::AlgorithmId::kHybrid, 3), options);
    ASSERT_TRUE(pipeline.ok());
    pipeline->Run(10);
  }
  // A fresh pipeline restores the learned distrust of module 2.
  auto pipeline = Pipeline::FromTable(
      table, MakeEngineOrDie(core::AlgorithmId::kHybrid, 3), options);
  ASSERT_TRUE(pipeline.ok());
  pipeline->Step();
  const auto outputs = SinkRows(pipeline->sink());
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_TRUE(outputs[0].result.eliminated[2]);
}

}  // namespace
}  // namespace avoc::runtime
