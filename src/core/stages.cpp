#include "core/stages.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace avoc::core {
namespace {

cluster::GroupingOptions MirroredGroupingOptions(
    const AgreementParams& agreement) {
  // §5: the clustering threshold "is selected to mirror the parameters of
  // the given algorithm".
  cluster::GroupingOptions options;
  options.threshold = agreement.error;
  options.mode = agreement.scale == ThresholdScale::kRelative
                     ? cluster::ThresholdMode::kRelative
                     : cluster::ThresholdMode::kAbsolute;
  options.relative_floor = agreement.relative_floor;
  return options;
}

// --- Stage bodies -----------------------------------------------------------
//
// Each stage's work is one free function over (context, compiled
// constants); RunStage below maps a position in kStageNames to its body.

// Quorum.
Status RunQuorumStage(VoteContext& context, size_t module_count,
                      size_t required, NoQuorumPolicy policy) {
  if (context.present_count >= required) return Status::Ok();
  switch (policy) {
    case NoQuorumPolicy::kEmitNothing:
      context.Fault(RoundOutcome::kNoOutput);
      break;
    case NoQuorumPolicy::kRevertLast:
      context.Fault(RoundOutcome::kRevertedLast);
      break;
    case NoQuorumPolicy::kRaise:
      context.Fault(
          RoundOutcome::kError,
          NoQuorumError(StrFormat("%zu of %zu candidates, %zu required",
                                  context.present_count, module_count,
                                  required)));
      break;
  }
  return Status::Ok();
}

// Value-based exclusion.
Status RunExclusionStage(VoteContext& context, const ExclusionParams& params) {
  context.excluded_present.resize(context.present_count);
  ComputeExclusionMask(context.present_values, params,
                       context.exclusion_scratch,
                       context.excluded_present.data());
  context.included_index.clear();
  context.included_values.clear();
  for (size_t k = 0; k < context.present_count; ++k) {
    if (context.excluded_present[k] == 0) {
      context.included_index.push_back(context.present_index[k]);
      context.included_values.push_back(context.present_values[k]);
    }
  }
  return Status::Ok();
}

// Clustering gate (AVOC bootstrap / COV).
Status RunClusteringStage(VoteContext& context, ClusteringMode mode,
                          const cluster::GroupingOptions& options) {
  context.in_winning_cluster.assign(context.included_values.size(),
                                    uint8_t{1});
  bool should_cluster = false;
  switch (mode) {
    case ClusteringMode::kOff:
      break;
    case ClusteringMode::kAlways:
      should_cluster = true;
      break;
    case ClusteringMode::kBootstrap:
      // §5: "the clustering approach should be used when all records are
      // 1 (indicating a new set) or 0 (indicating a failure of the
      // system or an extreme data spike)".
      should_cluster = context.ledger->AllRecordsAre(1.0) ||
                       context.ledger->AllRecordsAre(0.0);
      break;
  }
  if (!should_cluster || context.included_values.empty()) {
    return Status::Ok();
  }
  return context.ApplyClustering(options);
}

// Agreement scores.
Status RunAgreementStage(VoteContext& context, const AgreementParams& params) {
  AgreementScoresInto(context.included_values, params, context.scores,
                      context.agreement_scratch);
  return Status::Ok();
}

// Module elimination (ME).
Status RunEliminationStage(VoteContext& context, bool enabled, double margin) {
  context.eliminated_included.assign(context.included_values.size(),
                                     uint8_t{0});
  if (!enabled || context.included_values.size() <= 1) return Status::Ok();
  const std::span<const double> records = context.ledger->records();
  double mean_record = 0.0;
  for (const size_t m : context.included_index) {
    mean_record += records[m];
  }
  mean_record /= static_cast<double>(context.included_index.size());
  const double cutoff = mean_record - margin - 1e-12;
  for (size_t k = 0; k < context.included_index.size(); ++k) {
    // Strictly below average (minus the rejoin slack): at least one
    // candidate always survives.
    context.eliminated_included[k] = records[context.included_index[k]] < cutoff;
  }
  return Status::Ok();
}

// Round weights.
Status RunWeightingStage(VoteContext& context, RoundWeighting weighting,
                         ClusteringMode clustering,
                         const cluster::GroupingOptions& options) {
  const size_t count = context.included_values.size();
  context.weights.assign(count, 0.0);
  context.weight_sum = 0.0;
  const std::span<const double> records = context.ledger->records();
  for (size_t k = 0; k < count; ++k) {
    if (context.eliminated_included[k] || !context.in_winning_cluster[k]) {
      continue;
    }
    double weight = 0.0;
    switch (weighting) {
      case RoundWeighting::kUniform:
        weight = 1.0;
        break;
      case RoundWeighting::kHistory:
        weight = records[context.included_index[k]];
        break;
      case RoundWeighting::kAgreement:
        weight = context.scores[k];
        break;
      case RoundWeighting::kCombined:
        weight = records[context.included_index[k]] * context.scores[k];
        break;
    }
    context.weights[k] = weight;
    context.weight_sum += weight;
  }

  // Zero-weight fallback.  §5: engines fall back to an unweighted
  // approach "when the weights become 0 due to severe issues with the
  // data"; with clustering enabled the clustering step itself is the
  // fallback.
  if (context.weight_sum <= 0.0 && count > 0) {
    if (clustering != ClusteringMode::kOff && !context.used_clustering) {
      AVOC_RETURN_IF_ERROR(context.ApplyClustering(options));
    }
    for (size_t k = 0; k < count; ++k) {
      context.weights[k] = context.in_winning_cluster[k] ? 1.0 : 0.0;
      context.weight_sum += context.weights[k];
    }
  }
  return Status::Ok();
}

// Collation.
Status RunCollationStage(VoteContext& context, Collation method) {
  AVOC_ASSIGN_OR_RETURN(
      const double output,
      Collate(method, context.included_values, context.weights,
              context.previous_output, context.mean_scratch));
  context.output = output;
  return Status::Ok();
}

// Majority check.
Status RunMajorityStage(VoteContext& context, const AgreementParams& params,
                        NoMajorityPolicy policy) {
  const size_t largest_group = LargestAgreementGroup(
      context.included_values, params, context.majority_scratch);
  context.had_majority =
      2 * largest_group > context.included_values.size();
  if (context.had_majority) return Status::Ok();
  switch (policy) {
    case NoMajorityPolicy::kAccept:
      break;
    case NoMajorityPolicy::kEmitNothing:
      context.Fault(RoundOutcome::kNoOutput);
      break;
    case NoMajorityPolicy::kRevertLast:
      context.Fault(RoundOutcome::kRevertedLast);
      break;
    case NoMajorityPolicy::kRaise:
      context.Fault(
          RoundOutcome::kError,
          NoMajorityError(StrFormat(
              "largest agreement group %zu of %zu candidates",
              largest_group, context.included_values.size())));
      break;
  }
  return Status::Ok();
}

// History update.
Status RunHistoryStage(VoteContext& context, const AgreementParams& params,
                       HistoryRule rule) {
  // Every *present* module is scored against the voted output, including
  // excluded and eliminated ones ("even if discarded in the voting
  // itself"), so discarded modules can rehabilitate.  The scores come out
  // of the dense pivot kernel, then scatter to module positions.
  context.output_agreement.assign(context.module_count, 0.0);
  if (rule == HistoryRule::kNone) {
    // Stateless presets: the ledger ignores the agreement column, so the
    // pivot scores are dead work — keep the Update call (round counting
    // and arity check), skip the scoring.
    return context.ledger->Update(
        context.output_agreement,
        std::span<const uint8_t>(context.present.data(),
                                 context.module_count));
  }
  std::vector<double>& dense = context.agreement_scratch.row;
  dense.resize(context.present_count);
  kernels::AgreementWithPivotKernel(context.present_values.data(),
                                    context.present_count, *context.output,
                                    params, dense.data());
  for (size_t k = 0; k < context.present_count; ++k) {
    context.output_agreement[context.present_index[k]] = dense[k];
  }
  return context.ledger->Update(
      context.output_agreement,
      std::span<const uint8_t>(context.present.data(), context.module_count));
}

// Runs stage `stage` (its position in kStageNames) of `plan`.
Status RunStage(size_t stage, const RoundPlan& plan, VoteContext& context) {
  switch (stage) {
    case 0:
      return RunQuorumStage(context, plan.module_count, plan.quorum_required,
                            plan.on_no_quorum);
    case 1:
      return RunExclusionStage(context, plan.exclusion);
    case 2:
      return RunClusteringStage(context, plan.clustering, plan.grouping);
    case 3:
      return RunAgreementStage(context, plan.agreement);
    case 4:
      return RunEliminationStage(context, plan.module_elimination,
                                 plan.elimination_margin);
    case 5:
      return RunWeightingStage(context, plan.weighting, plan.clustering,
                               plan.grouping);
    case 6:
      return RunCollationStage(context, plan.collation);
    case 7:
      return RunMajorityStage(context, plan.agreement, plan.on_no_majority);
    default:
      return RunHistoryStage(context, plan.agreement, plan.history_rule);
  }
}

}  // namespace

void VoteContext::Begin(RoundSpan round, const RoundPlan& round_plan,
                        HistoryLedger& engine_ledger,
                        std::optional<double> previous) {
  plan = &round_plan;
  ledger = &engine_ledger;
  module_count = round.size();
  previous_output = previous;

  present_index.clear();
  present_values.clear();
  present.assign(module_count, uint8_t{0});
  for (size_t i = 0; i < module_count; ++i) {
    if (round.present[i] != 0) {
      present[i] = 1;
      present_index.push_back(i);
      present_values.push_back(round.values[i]);
    }
  }
  present_count = present_index.size();

  excluded_present.clear();
  included_index.clear();
  included_values.clear();
  used_clustering = false;
  in_winning_cluster.clear();
  scores.clear();
  eliminated_included.clear();
  weights.clear();
  weight_sum = 0.0;
  output.reset();
  had_majority = true;
  fault.reset();
  fault_status = Status::Ok();
}

void VoteContext::Fault(RoundOutcome outcome, Status status) {
  fault = outcome;
  fault_status = std::move(status);
}

Status VoteContext::ApplyClustering(const cluster::GroupingOptions& options) {
  const cluster::GroupingResult grouping =
      cluster::GroupByThreshold(included_values, options);
  const double* prev =
      previous_output.has_value() ? &*previous_output : nullptr;
  AVOC_ASSIGN_OR_RETURN(
      const cluster::Group winner,
      cluster::SelectWinningGroup(grouping, included_values, prev));
  std::fill(in_winning_cluster.begin(), in_winning_cluster.end(), uint8_t{0});
  for (const size_t member : winner.members) {
    in_winning_cluster[member] = 1;
  }
  used_clustering = true;
  return Status::Ok();
}

void StageTraceObserver::OnRoundBegin(size_t round_index,
                                      const VoteContext& context) {
  (void)context;
  round_index_ = round_index;
  entries_.clear();
}

void StageTraceObserver::OnStageDone(std::string_view stage,
                                     const VoteContext& context) {
  StageTraceEntry entry;
  entry.stage = std::string(stage);
  entry.candidates = context.included_values.size();
  entry.weight_sum = context.weight_sum;
  entry.used_clustering = context.used_clustering;
  entry.faulted = context.faulted();
  entries_.push_back(std::move(entry));
}

RoundPlan CompileRoundPlan(size_t module_count, const EngineConfig& config) {
  RoundPlan plan;
  plan.module_count = module_count;
  plan.quorum_required = std::max<size_t>(
      config.quorum.min_count,
      static_cast<size_t>(
          std::ceil(config.quorum.fraction * static_cast<double>(module_count) -
                    1e-9)));
  plan.on_no_quorum = config.on_no_quorum;
  plan.exclusion = config.exclusion;
  plan.clustering = config.clustering;
  plan.grouping = MirroredGroupingOptions(config.agreement);
  plan.agreement = config.agreement;
  plan.module_elimination = config.module_elimination;
  plan.elimination_margin = config.elimination_margin;
  plan.weighting = config.weighting;
  plan.collation = config.collation;
  plan.on_no_majority = config.on_no_majority;
  plan.history_rule = config.history.rule;
  return plan;
}

Status RunRound(const RoundPlan& plan, VoteContext& context,
                StageObserver* observer, size_t round_index) {
  if (observer != nullptr && !observer->stage_hooks_enabled()) {
    observer = nullptr;
  }
  if (observer != nullptr) observer->OnRoundBegin(round_index, context);
  for (size_t stage = 0; stage < kStageNames.size(); ++stage) {
    AVOC_RETURN_IF_ERROR(RunStage(stage, plan, context));
    if (observer != nullptr) observer->OnStageDone(kStageNames[stage], context);
    if (context.faulted()) break;  // later stages are skipped, unreported
  }
  return Status::Ok();
}

}  // namespace avoc::core
