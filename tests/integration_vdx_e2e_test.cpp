// End-to-end VDX flow: definition file on disk -> registry -> voter ->
// middleware group chain (hub -> voter -> sink) -> fused outputs, i.e. the
// full §6 "voter service" integration surface.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/batch.h"
#include "runtime/group_runner.h"
#include "sim/light.h"
#include "vdx/factory.h"
#include "vdx/registry.h"
#include "test_temp_dir.h"
#include "sink_rows.h"

namespace avoc {
namespace {

class VdxE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestTempPath("vdx_e2e");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(VdxE2eTest, FileToVoterToPipeline) {
  // 1. An application ships a VDX definition file.
  {
    std::ofstream out(Path("app.json"));
    out << R"({
      "algorithm_name": "app-fusion",
      "quorum": "PERCENT",
      "quorum_percentage": 60,
      "exclusion": "STDDEV",
      "exclusion_threshold": 2.5,
      "history": "HYBRID",
      "params": {"error": 0.05, "soft_threshold": 2, "penalty": 0.3},
      "collation": "MEAN_NEAREST_NEIGHBOR",
      "bootstrapping": true
    })";
  }
  // 2. The voter service loads its spec directory.
  vdx::SpecRegistry registry;
  auto loaded = registry.LoadDirectory(dir_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 1u);
  auto spec = registry.Get("app");
  ASSERT_TRUE(spec.ok());

  // 3. A voter is instantiated and wired into a group's hub -> voter ->
  // sink chain, which replays the recorded rounds.
  auto voter = vdx::MakeVoter(*spec, 5);
  ASSERT_TRUE(voter.ok()) << voter.status().ToString();

  sim::LightScenarioParams params;
  params.rounds = 500;
  const auto table = sim::LightScenario(params).MakeFaultyTable();
  auto runner = runtime::GroupRunner::FromTable(table, std::move(*voter));
  ASSERT_TRUE(runner.ok());
  for (size_t r = 0; r < table.round_count(); ++r) (*runner)->RunRound(r);

  // 4. The sink sees one fused output per round; the faulty E4 never
  // drags the output out of the healthy band.
  const auto outputs = SinkRows((*runner)->sink());
  ASSERT_EQ(outputs.size(), 500u);
  for (const auto& output : outputs) {
    ASSERT_TRUE(output.result.value.has_value());
    EXPECT_GT(*output.result.value, 17000.0);
    EXPECT_LT(*output.result.value, 20000.0);
  }
  EXPECT_TRUE(outputs[0].result.used_clustering);
}

TEST_F(VdxE2eTest, BuiltinRegistryDrivesComparison) {
  // The Fig. 5 comparison app flow: run every registered builtin on the
  // same dataset through the VDX factory.
  sim::LightScenarioParams params;
  params.rounds = 200;
  const auto table = sim::LightScenario(params).MakeReferenceTable();
  const vdx::SpecRegistry registry = vdx::SpecRegistry::WithBuiltins();
  for (const std::string& name : registry.Names()) {
    auto spec = registry.Get(name);
    ASSERT_TRUE(spec.ok());
    auto voter = vdx::MakeVoter(*spec, table.module_count());
    ASSERT_TRUE(voter.ok()) << name;
    auto batch = core::RunOverTable(*voter, table);
    ASSERT_TRUE(batch.ok()) << name;
    EXPECT_EQ(batch->voted_rounds(), 200u) << name;
  }
}

TEST_F(VdxE2eTest, SpecRoundTripsThroughDiskUnchanged) {
  const vdx::Spec original = vdx::ExportSpec(core::AlgorithmId::kAvoc);
  ASSERT_TRUE(vdx::WriteSpecFile(Path("avoc.json"), original).ok());
  auto loaded = vdx::ReadSpecFile(Path("avoc.json"));
  ASSERT_TRUE(loaded.ok());
  // Lowered configs must be equivalent (behavioural round-trip).
  auto config_a = vdx::ToEngineConfig(original);
  auto config_b = vdx::ToEngineConfig(*loaded);
  ASSERT_TRUE(config_a.ok());
  ASSERT_TRUE(config_b.ok());
  EXPECT_EQ(config_a->history.rule, config_b->history.rule);
  EXPECT_DOUBLE_EQ(config_a->agreement.error, config_b->agreement.error);
  EXPECT_EQ(config_a->collation, config_b->collation);
  EXPECT_EQ(config_a->clustering, config_b->clustering);
}

TEST_F(VdxE2eTest, FaultPolicyFromSpecControlsPipeline) {
  {
    std::ofstream out(Path("strict.json"));
    out << R"({
      "algorithm_name": "strict",
      "quorum": "PERCENT",
      "quorum_percentage": 100,
      "history": "STANDARD",
      "params": {"error": 0.05},
      "collation": "WEIGHTED_AVERAGE",
      "fault_policy": {"on_no_quorum": "EMIT_NOTHING"}
    })";
  }
  auto spec = vdx::ReadSpecFile(Path("strict.json"));
  ASSERT_TRUE(spec.ok());
  auto voter = vdx::MakeVoter(*spec, 3);
  ASSERT_TRUE(voter.ok());

  data::RoundTable table = data::RoundTable::WithModuleCount(3);
  ASSERT_TRUE(table.AppendRound(std::vector<double>{1.0, 1.0, 1.0}).ok());
  ASSERT_TRUE(table.AppendRound({{1.0}, std::nullopt, {1.0}}).ok());
  auto runner = runtime::GroupRunner::FromTable(table, std::move(*voter));
  ASSERT_TRUE(runner.ok());
  (*runner)->RunRound(0);
  (*runner)->RunRound(1);
  // The spec's EMIT_NOTHING policy reaches the sink: the round missing a
  // module is recorded without a value, and the last value stays.
  const auto outputs = SinkRows((*runner)->sink());
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[0].result.outcome, core::RoundOutcome::kVoted);
  EXPECT_EQ(outputs[1].result.outcome, core::RoundOutcome::kNoOutput);
  EXPECT_FALSE(outputs[1].result.value.has_value());
  EXPECT_DOUBLE_EQ(*(*runner)->sink().last_value(), 1.0);
}

}  // namespace
}  // namespace avoc
