#include "vdx/factory.h"

#include "util/strings.h"

namespace avoc::vdx {
namespace {

Result<core::ThresholdScale> ScaleFromSpec(const Spec& spec) {
  const std::string token =
      AsciiToUpper(spec.StringParamOr("threshold_scale", "RELATIVE"));
  if (token == "RELATIVE") return core::ThresholdScale::kRelative;
  if (token == "ABSOLUTE") return core::ThresholdScale::kAbsolute;
  return ParseError("unknown threshold_scale '" + token + "'");
}

Result<core::RoundWeighting> WeightingFromSpec(const Spec& spec,
                                               core::RoundWeighting fallback) {
  const std::string token = AsciiToUpper(spec.StringParamOr("weighting", ""));
  if (token.empty()) return fallback;
  if (token == "UNIFORM") return core::RoundWeighting::kUniform;
  if (token == "HISTORY") return core::RoundWeighting::kHistory;
  if (token == "AGREEMENT") return core::RoundWeighting::kAgreement;
  if (token == "COMBINED") return core::RoundWeighting::kCombined;
  return ParseError("unknown weighting '" + token + "'");
}

core::NoQuorumPolicy LowerNoQuorum(FaultAction action) {
  switch (action) {
    case FaultAction::kAccept:
    case FaultAction::kRevertLast:
      return core::NoQuorumPolicy::kRevertLast;
    case FaultAction::kEmitNothing:
      return core::NoQuorumPolicy::kEmitNothing;
    case FaultAction::kRaise:
      return core::NoQuorumPolicy::kRaise;
  }
  return core::NoQuorumPolicy::kRevertLast;
}

core::NoMajorityPolicy LowerNoMajority(FaultAction action) {
  switch (action) {
    case FaultAction::kAccept:
      return core::NoMajorityPolicy::kAccept;
    case FaultAction::kEmitNothing:
      return core::NoMajorityPolicy::kEmitNothing;
    case FaultAction::kRevertLast:
      return core::NoMajorityPolicy::kRevertLast;
    case FaultAction::kRaise:
      return core::NoMajorityPolicy::kRaise;
  }
  return core::NoMajorityPolicy::kAccept;
}

core::QuorumParams LowerQuorum(const Spec& spec) {
  core::QuorumParams quorum;
  switch (spec.quorum) {
    case QuorumMode::kAny:
      quorum.fraction = 1e-9;  // any single candidate triggers a vote
      quorum.min_count = 1;
      break;
    case QuorumMode::kCount:
      quorum.fraction = 1e-9;
      quorum.min_count = static_cast<size_t>(spec.quorum_amount);
      break;
    case QuorumMode::kPercent:
    case QuorumMode::kUntil:
      quorum.fraction = spec.quorum_amount / 100.0;
      quorum.min_count = 1;
      break;
  }
  return quorum;
}

}  // namespace

Result<core::EngineConfig> ToEngineConfig(const Spec& spec) {
  AVOC_RETURN_IF_ERROR(spec.Validate());
  if (spec.value_type != ValueKind::kNumeric) {
    return UnsupportedError(
        "categorical specs lower through ToCategoricalConfig");
  }

  core::EngineConfig config;
  config.agreement.error = spec.ParamOr("error", 0.05);
  config.agreement.soft_multiple = spec.ParamOr("soft_threshold", 2.0);
  AVOC_ASSIGN_OR_RETURN(config.agreement.scale, ScaleFromSpec(spec));

  core::RoundWeighting default_weighting = core::RoundWeighting::kHistory;
  switch (spec.history) {
    case HistoryKind::kNone:
      config.agreement.mode = core::AgreementMode::kBinary;
      config.history.rule = core::HistoryRule::kNone;
      default_weighting = core::RoundWeighting::kUniform;
      break;
    case HistoryKind::kStandard:
      config.agreement.mode = core::AgreementMode::kBinary;
      config.history.rule = core::HistoryRule::kCumulativeRatio;
      break;
    case HistoryKind::kModuleElimination:
      config.agreement.mode = core::AgreementMode::kBinary;
      config.history.rule = core::HistoryRule::kCumulativeRatio;
      config.module_elimination = true;
      break;
    case HistoryKind::kSoftDynamicThreshold:
      config.agreement.mode = core::AgreementMode::kSoftDynamic;
      config.history.rule = core::HistoryRule::kCumulativeRatio;
      break;
    case HistoryKind::kHybrid:
      config.agreement.mode = core::AgreementMode::kSoftDynamic;
      config.history.rule = core::HistoryRule::kRewardPenalty;
      config.module_elimination = true;
      break;
  }
  AVOC_ASSIGN_OR_RETURN(config.weighting,
                        WeightingFromSpec(spec, default_weighting));

  config.history.reward = spec.ParamOr("reward", 0.05);
  config.history.penalty = spec.ParamOr("penalty", 0.3);
  config.history.missing_penalty = spec.ParamOr("missing_penalty", 0.0);
  config.elimination_margin = spec.ParamOr("elimination_margin", 0.05);

  switch (spec.exclusion) {
    case ExclusionKind::kNone:
      config.exclusion.mode = core::ExclusionMode::kNone;
      break;
    case ExclusionKind::kStdDev:
      config.exclusion.mode = core::ExclusionMode::kStdDev;
      break;
    case ExclusionKind::kMad:
      config.exclusion.mode = core::ExclusionMode::kMad;
      break;
  }
  config.exclusion.threshold = spec.exclusion_threshold;

  config.quorum = LowerQuorum(spec);

  switch (spec.collation) {
    case CollationKind::kWeightedAverage:
      config.collation = core::Collation::kWeightedAverage;
      break;
    case CollationKind::kMeanNearestNeighbor:
      config.collation = core::Collation::kMeanNearestNeighbor;
      break;
    case CollationKind::kWeightedMedian:
      config.collation = core::Collation::kWeightedMedian;
      break;
    case CollationKind::kMajority:
      return UnsupportedError("majority collation is categorical-only");
  }

  if (spec.clustering_always) {
    config.clustering = core::ClusteringMode::kAlways;
  } else if (spec.bootstrapping) {
    config.clustering = core::ClusteringMode::kBootstrap;
  } else {
    config.clustering = core::ClusteringMode::kOff;
  }

  config.on_no_quorum = LowerNoQuorum(spec.fault_policy.on_no_quorum);
  config.on_no_majority = LowerNoMajority(spec.fault_policy.on_no_majority);

  AVOC_RETURN_IF_ERROR(config.Validate());
  return config;
}

Result<core::VotingEngine> MakeVoter(const Spec& spec, size_t modules) {
  AVOC_ASSIGN_OR_RETURN(const core::EngineConfig config, ToEngineConfig(spec));
  return core::VotingEngine::Create(modules, config);
}

Result<core::CategoricalConfig> ToCategoricalConfig(
    const Spec& spec, core::CategoricalDistance distance) {
  AVOC_RETURN_IF_ERROR(spec.Validate(distance != nullptr));
  if (spec.value_type != ValueKind::kCategorical) {
    return UnsupportedError("numeric specs lower through ToEngineConfig");
  }
  core::CategoricalConfig config;
  switch (spec.history) {
    case HistoryKind::kNone:
      config.history.rule = core::HistoryRule::kNone;
      break;
    case HistoryKind::kStandard:
      config.history.rule = core::HistoryRule::kCumulativeRatio;
      break;
    case HistoryKind::kModuleElimination:
      config.history.rule = core::HistoryRule::kCumulativeRatio;
      config.module_elimination = true;
      break;
    case HistoryKind::kSoftDynamicThreshold:
    case HistoryKind::kHybrid:
      // Validate() already required a custom distance for these.
      config.history.rule = core::HistoryRule::kRewardPenalty;
      config.module_elimination = spec.history == HistoryKind::kHybrid;
      break;
  }
  config.history.reward = spec.ParamOr("reward", 0.05);
  config.history.penalty = spec.ParamOr("penalty", 0.3);
  config.history.missing_penalty = spec.ParamOr("missing_penalty", 0.0);
  config.elimination_margin = spec.ParamOr("elimination_margin", 0.05);

  const core::QuorumParams quorum = LowerQuorum(spec);
  config.quorum_fraction = quorum.fraction;
  config.quorum_min_count = quorum.min_count;

  config.distance = std::move(distance);
  config.error = spec.ParamOr("error", 0.0);

  config.on_no_quorum = LowerNoQuorum(spec.fault_policy.on_no_quorum);
  config.on_no_majority = LowerNoMajority(spec.fault_policy.on_no_majority);
  return config;
}

Result<core::CategoricalEngine> MakeCategoricalVoter(
    const Spec& spec, size_t modules, core::CategoricalDistance distance) {
  AVOC_ASSIGN_OR_RETURN(core::CategoricalConfig config,
                        ToCategoricalConfig(spec, std::move(distance)));
  return core::CategoricalEngine::Create(modules, std::move(config));
}

Spec ExportSpec(core::AlgorithmId id, const core::PresetParams& params) {
  Spec spec;
  spec.algorithm_name = AsciiToUpper(core::AlgorithmName(id));
  spec.quorum = QuorumMode::kUntil;
  spec.quorum_amount = params.quorum_fraction * 100.0;
  spec.exclusion = ExclusionKind::kNone;
  spec.exclusion_threshold = 0.0;
  spec.params["error"] = params.error;
  if (params.scale == core::ThresholdScale::kAbsolute) {
    spec.string_params["threshold_scale"] = "ABSOLUTE";
  }

  switch (id) {
    case core::AlgorithmId::kAverage:
      spec.history = HistoryKind::kNone;
      spec.collation = CollationKind::kWeightedAverage;
      break;
    case core::AlgorithmId::kStandard:
      spec.history = HistoryKind::kStandard;
      spec.collation = CollationKind::kWeightedAverage;
      break;
    case core::AlgorithmId::kModuleElimination:
      spec.history = HistoryKind::kModuleElimination;
      spec.collation = CollationKind::kWeightedAverage;
      break;
    case core::AlgorithmId::kSoftDynamicThreshold:
      spec.history = HistoryKind::kSoftDynamicThreshold;
      spec.params["soft_threshold"] = params.soft_multiple;
      spec.collation = CollationKind::kWeightedAverage;
      break;
    case core::AlgorithmId::kHybrid:
      spec.history = HistoryKind::kHybrid;
      spec.params["soft_threshold"] = params.soft_multiple;
      spec.params["reward"] = params.reward;
      spec.params["penalty"] = params.penalty;
      spec.collation = CollationKind::kMeanNearestNeighbor;
      break;
    case core::AlgorithmId::kClusteringOnly:
      spec.history = HistoryKind::kNone;
      spec.collation = CollationKind::kWeightedAverage;
      spec.clustering_always = true;
      break;
    case core::AlgorithmId::kAvoc:
      spec.history = HistoryKind::kHybrid;
      spec.params["soft_threshold"] = params.soft_multiple;
      spec.params["reward"] = params.reward;
      spec.params["penalty"] = params.penalty;
      spec.collation = CollationKind::kMeanNearestNeighbor;
      spec.bootstrapping = true;
      break;
  }
  if (params.collation.has_value()) {
    switch (*params.collation) {
      case core::Collation::kWeightedAverage:
        spec.collation = CollationKind::kWeightedAverage;
        break;
      case core::Collation::kMeanNearestNeighbor:
        spec.collation = CollationKind::kMeanNearestNeighbor;
        break;
      case core::Collation::kWeightedMedian:
        spec.collation = CollationKind::kWeightedMedian;
        break;
    }
  }
  return spec;
}

}  // namespace avoc::vdx
