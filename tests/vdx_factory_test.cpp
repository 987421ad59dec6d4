#include "vdx/factory.h"

#include <gtest/gtest.h>

#include "core/batch.h"

namespace avoc::vdx {
namespace {

Spec Listing1() {
  auto spec = Spec::Parse(R"({
    "algorithm_name": "AVOC",
    "quorum": "UNTIL",
    "quorum_percentage": 100,
    "exclusion": "NONE",
    "exclusion_threshold": 0,
    "history": "HYBRID",
    "params": {"error": 0.05, "soft_threshold": 2},
    "collation": "MEAN_NEAREST_NEIGHBOR",
    "bootstrapping": true
  })");
  EXPECT_TRUE(spec.ok());
  return *spec;
}

TEST(VdxFactoryTest, Listing1LowersToAvocConfig) {
  auto config = ToEngineConfig(Listing1());
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->history.rule, core::HistoryRule::kRewardPenalty);
  EXPECT_TRUE(config->module_elimination);
  EXPECT_EQ(config->agreement.mode, core::AgreementMode::kSoftDynamic);
  EXPECT_DOUBLE_EQ(config->agreement.error, 0.05);
  EXPECT_DOUBLE_EQ(config->agreement.soft_multiple, 2.0);
  EXPECT_EQ(config->collation, core::Collation::kMeanNearestNeighbor);
  EXPECT_EQ(config->clustering, core::ClusteringMode::kBootstrap);
  EXPECT_DOUBLE_EQ(config->quorum.fraction, 1.0);
}

TEST(VdxFactoryTest, HistoryKindsMapToRules) {
  Spec spec = Listing1();
  spec.bootstrapping = false;

  spec.history = HistoryKind::kNone;
  spec.collation = CollationKind::kWeightedAverage;
  auto config = ToEngineConfig(spec);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->history.rule, core::HistoryRule::kNone);
  EXPECT_EQ(config->weighting, core::RoundWeighting::kUniform);

  spec.history = HistoryKind::kStandard;
  config = ToEngineConfig(spec);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->history.rule, core::HistoryRule::kCumulativeRatio);
  EXPECT_EQ(config->agreement.mode, core::AgreementMode::kBinary);
  EXPECT_FALSE(config->module_elimination);

  spec.history = HistoryKind::kModuleElimination;
  config = ToEngineConfig(spec);
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->module_elimination);

  spec.history = HistoryKind::kSoftDynamicThreshold;
  config = ToEngineConfig(spec);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->agreement.mode, core::AgreementMode::kSoftDynamic);
  EXPECT_FALSE(config->module_elimination);
}

TEST(VdxFactoryTest, QuorumModesLower) {
  Spec spec = Listing1();
  spec.quorum = QuorumMode::kAny;
  auto config = ToEngineConfig(spec);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->quorum.min_count, 1u);
  EXPECT_LT(config->quorum.fraction, 0.01);

  spec.quorum = QuorumMode::kCount;
  spec.quorum_amount = 3;
  config = ToEngineConfig(spec);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->quorum.min_count, 3u);

  spec.quorum = QuorumMode::kPercent;
  spec.quorum_amount = 60;
  config = ToEngineConfig(spec);
  ASSERT_TRUE(config.ok());
  EXPECT_DOUBLE_EQ(config->quorum.fraction, 0.6);
}

TEST(VdxFactoryTest, StringParamsControlScaleAndWeighting) {
  Spec spec = Listing1();
  spec.string_params["threshold_scale"] = "ABSOLUTE";
  spec.string_params["weighting"] = "AGREEMENT";
  auto config = ToEngineConfig(spec);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->agreement.scale, core::ThresholdScale::kAbsolute);
  EXPECT_EQ(config->weighting, core::RoundWeighting::kAgreement);

  spec.string_params["threshold_scale"] = "SIDEWAYS";
  EXPECT_FALSE(ToEngineConfig(spec).ok());
}

TEST(VdxFactoryTest, FaultPolicyLowers) {
  Spec spec = Listing1();
  spec.fault_policy.on_no_quorum = FaultAction::kRaise;
  spec.fault_policy.on_no_majority = FaultAction::kEmitNothing;
  auto config = ToEngineConfig(spec);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->on_no_quorum, core::NoQuorumPolicy::kRaise);
  EXPECT_EQ(config->on_no_majority, core::NoMajorityPolicy::kEmitNothing);
}

TEST(VdxFactoryTest, CategoricalSpecRejectedByNumericFactory) {
  Spec spec;
  spec.algorithm_name = "labels";
  spec.value_type = ValueKind::kCategorical;
  spec.collation = CollationKind::kMajority;
  EXPECT_FALSE(ToEngineConfig(spec).ok());
}

TEST(VdxFactoryTest, NumericSpecRejectedByCategoricalFactory) {
  EXPECT_FALSE(ToCategoricalConfig(Listing1()).ok());
}

TEST(VdxFactoryTest, MakeVoterVotes) {
  auto voter = MakeVoter(Listing1(), 5);
  ASSERT_TRUE(voter.ok());
  auto result =
      voter->CastVote(core::Round{10.0, 10.1, 9.9, 10.05, 60.0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_clustering);
  EXPECT_NEAR(*result->value, 10.0, 0.2);
}

TEST(VdxFactoryTest, CategoricalVoterFromSpec) {
  Spec spec;
  spec.algorithm_name = "door-state";
  spec.value_type = ValueKind::kCategorical;
  spec.history = HistoryKind::kStandard;
  spec.collation = CollationKind::kMajority;
  spec.quorum = QuorumMode::kPercent;
  spec.quorum_amount = 50;
  auto voter = MakeCategoricalVoter(spec, 3);
  ASSERT_TRUE(voter.ok()) << voter.status().ToString();
  std::vector<core::CategoricalEngine::Label> round = {
      std::string("open"), std::string("open"), std::string("closed")};
  auto result = voter->CastVote(round);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->value, "open");
}

TEST(VdxFactoryTest, CategoricalHybridNeedsDistance) {
  Spec spec;
  spec.algorithm_name = "fuzzy";
  spec.value_type = ValueKind::kCategorical;
  spec.history = HistoryKind::kHybrid;
  spec.collation = CollationKind::kMajority;
  spec.params["error"] = 0.25;
  EXPECT_FALSE(MakeCategoricalVoter(spec, 3).ok());
  auto voter = MakeCategoricalVoter(spec, 3, core::LevenshteinDistance);
  EXPECT_TRUE(voter.ok()) << voter.status().ToString();
}

TEST(VdxExportTest, PresetsExportValidSpecs) {
  for (const core::AlgorithmId id : core::AllAlgorithms()) {
    const Spec spec = ExportSpec(id);
    EXPECT_TRUE(spec.Validate().ok()) << core::AlgorithmName(id);
    auto config = ToEngineConfig(spec);
    ASSERT_TRUE(config.ok()) << core::AlgorithmName(id);
  }
}

TEST(VdxExportTest, ExportedSpecMatchesPresetBehaviour) {
  // Round-trip: preset -> VDX -> engine must behave identically to the
  // preset engine on the same data.
  data::RoundTable table = data::RoundTable::WithModuleCount(5);
  for (int r = 0; r < 50; ++r) {
    ASSERT_TRUE(table
                    .AppendRound(std::vector<double>{
                        100.0, 101.0, 99.0, 100.5 + r * 0.01, 140.0})
                    .ok());
  }
  for (const core::AlgorithmId id : core::AllAlgorithms()) {
    auto direct = core::RunAlgorithm(id, table);
    ASSERT_TRUE(direct.ok());
    auto voter = MakeVoter(ExportSpec(id), 5);
    ASSERT_TRUE(voter.ok()) << core::AlgorithmName(id);
    auto via_vdx = core::RunOverTable(*voter, table);
    ASSERT_TRUE(via_vdx.ok());
    for (size_t r = 0; r < table.round_count(); ++r) {
      const auto direct_output = direct->output(r);
      const auto vdx_output = via_vdx->output(r);
      ASSERT_EQ(direct_output.has_value(), vdx_output.has_value());
      if (direct_output.has_value()) {
        EXPECT_DOUBLE_EQ(*direct_output, *vdx_output)
            << core::AlgorithmName(id) << " round " << r;
      }
    }
  }
}

TEST(VdxExportTest, AvocExportMatchesListing1Semantics) {
  const Spec spec = ExportSpec(core::AlgorithmId::kAvoc);
  EXPECT_EQ(spec.algorithm_name, "AVOC");
  EXPECT_EQ(spec.history, HistoryKind::kHybrid);
  EXPECT_EQ(spec.collation, CollationKind::kMeanNearestNeighbor);
  EXPECT_TRUE(spec.bootstrapping);
}

}  // namespace
}  // namespace avoc::vdx
