#include "core/mlv.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/strings.h"

namespace avoc::core {

Status MlvConfig::Validate() const {
  if (output_space_size < 2) {
    return InvalidArgumentError("MLV needs an output space of >= 2 values");
  }
  if (reliability_clamp <= 0.0 || reliability_clamp >= 0.5) {
    return InvalidArgumentError("reliability clamp must lie in (0, 0.5)");
  }
  if (quorum_fraction <= 0.0 || quorum_fraction > 1.0) {
    return InvalidArgumentError("quorum fraction must lie in (0,1]");
  }
  return Status::Ok();
}

MlvEngine::MlvEngine(size_t module_count, MlvConfig config)
    : module_count_(module_count),
      config_(config),
      ledger_(module_count, HistoryParams{HistoryRule::kCumulativeRatio,
                                          0.0, 0.0, 0.0}) {}

Result<MlvEngine> MlvEngine::Create(size_t module_count, MlvConfig config) {
  if (module_count == 0) {
    return InvalidArgumentError("engine needs at least one module");
  }
  AVOC_RETURN_IF_ERROR(config.Validate());
  return MlvEngine(module_count, config);
}

double MlvEngine::reliability(size_t i) const {
  return std::clamp(ledger_.record(i), config_.reliability_clamp,
                    1.0 - config_.reliability_clamp);
}

MlvVoteResult MlvEngine::MakeFaultResult(RoundOutcome fallback, Status status,
                                         size_t present_count) const {
  MlvVoteResult result;
  result.present_count = present_count;
  result.reliability.resize(module_count_);
  for (size_t i = 0; i < module_count_; ++i) {
    result.reliability[i] = reliability(i);
  }
  switch (fallback) {
    case RoundOutcome::kRevertedLast:
      if (last_output_.has_value()) {
        result.outcome = RoundOutcome::kRevertedLast;
        result.value = last_output_;
      } else {
        result.outcome = RoundOutcome::kNoOutput;
      }
      break;
    case RoundOutcome::kError:
      result.outcome = RoundOutcome::kError;
      result.status = std::move(status);
      break;
    default:
      result.outcome = RoundOutcome::kNoOutput;
  }
  return result;
}

Result<MlvVoteResult> MlvEngine::CastVote(const std::vector<Label>& round) {
  if (round.size() != module_count_) {
    return InvalidArgumentError(
        StrFormat("round has %zu labels, engine has %zu modules", round.size(),
                  module_count_));
  }
  std::vector<size_t> present_index;
  std::vector<std::string> labels;
  std::vector<uint8_t> present(module_count_, 0);
  for (size_t i = 0; i < module_count_; ++i) {
    if (round[i].has_value()) {
      present[i] = 1;
      present_index.push_back(i);
      labels.push_back(*round[i]);
    }
  }
  const size_t present_count = present_index.size();
  const size_t required = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(
             config_.quorum_fraction * static_cast<double>(module_count_) -
             1e-9)));
  if (present_count < required) {
    switch (config_.on_no_quorum) {
      case NoQuorumPolicy::kEmitNothing:
        return MakeFaultResult(RoundOutcome::kNoOutput, Status::Ok(),
                               present_count);
      case NoQuorumPolicy::kRevertLast:
        return MakeFaultResult(RoundOutcome::kRevertedLast, Status::Ok(),
                               present_count);
      case NoQuorumPolicy::kRaise:
        return MakeFaultResult(
            RoundOutcome::kError,
            NoQuorumError(StrFormat("%zu of %zu modules", present_count,
                                    module_count_)),
            present_count);
    }
  }

  // Distinct candidates: MLV only scores values somebody submitted.
  std::map<std::string, bool> candidates;
  for (const std::string& label : labels) candidates[label] = true;
  if (candidates.size() > config_.output_space_size) {
    return MakeFaultResult(
        RoundOutcome::kError,
        InvalidArgumentError(StrFormat(
            "round contains %zu distinct values but output space is %zu",
            candidates.size(), config_.output_space_size)),
        present_count);
  }

  const double space =
      static_cast<double>(config_.output_space_size);
  double best_log_likelihood = -1e300;
  std::string winner;
  bool first = true;
  for (const auto& [candidate, unused] : candidates) {
    (void)unused;
    double log_likelihood = 0.0;
    for (size_t k = 0; k < present_count; ++k) {
      const double p = reliability(present_index[k]);
      const double term =
          labels[k] == candidate ? p : (1.0 - p) / (space - 1.0);
      log_likelihood += std::log(term);
    }
    // Ties break towards the previous output, else the first (smallest)
    // candidate — deterministic either way.
    const bool better =
        log_likelihood > best_log_likelihood + 1e-12 ||
        (std::abs(log_likelihood - best_log_likelihood) <= 1e-12 &&
         last_output_.has_value() && candidate == *last_output_);
    if (first || better) {
      best_log_likelihood = log_likelihood;
      winner = candidate;
      first = false;
    }
  }

  // Reliability update: agreement with the ML winner.
  std::vector<double> agreement(module_count_, 0.0);
  for (size_t k = 0; k < present_count; ++k) {
    agreement[present_index[k]] = labels[k] == winner ? 1.0 : 0.0;
  }
  AVOC_RETURN_IF_ERROR(ledger_.Update(agreement, present));

  MlvVoteResult result;
  result.value = winner;
  result.outcome = RoundOutcome::kVoted;
  result.log_likelihood = best_log_likelihood;
  result.present_count = present_count;
  result.reliability.resize(module_count_);
  for (size_t i = 0; i < module_count_; ++i) {
    result.reliability[i] = reliability(i);
  }
  last_output_ = winner;
  return result;
}

void MlvEngine::Reset() {
  ledger_.Reset();
  last_output_.reset();
}

}  // namespace avoc::core
