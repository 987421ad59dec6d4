#include "core/categorical.h"

#include <algorithm>
#include <map>

#include "util/strings.h"

namespace avoc::core {

double LevenshteinDistance(const std::string& a, const std::string& b) {
  if (a == b) return 0.0;
  const size_t m = a.size();
  const size_t n = b.size();
  if (m == 0 || n == 0) return 1.0;
  std::vector<size_t> previous(n + 1);
  std::vector<size_t> current(n + 1);
  for (size_t j = 0; j <= n; ++j) previous[j] = j;
  for (size_t i = 1; i <= m; ++i) {
    current[0] = i;
    for (size_t j = 1; j <= n; ++j) {
      const size_t substitution =
          previous[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      current[j] =
          std::min({previous[j] + 1, current[j - 1] + 1, substitution});
    }
    std::swap(previous, current);
  }
  return static_cast<double>(previous[n]) /
         static_cast<double>(std::max(m, n));
}

Status CategoricalConfig::Validate() const {
  if (quorum_fraction <= 0.0 || quorum_fraction > 1.0) {
    return InvalidArgumentError("quorum fraction must lie in (0,1]");
  }
  if (quorum_min_count < 1) {
    return InvalidArgumentError("quorum min count must be >= 1");
  }
  if (distance && (error < 0.0 || error > 1.0)) {
    return InvalidArgumentError(
        "categorical error threshold must lie in [0,1]");
  }
  return Status::Ok();
}

CategoricalEngine::CategoricalEngine(size_t module_count,
                                     CategoricalConfig config)
    : module_count_(module_count),
      config_(std::move(config)),
      ledger_(module_count, config_.history) {}

Result<CategoricalEngine> CategoricalEngine::Create(size_t module_count,
                                                    CategoricalConfig config) {
  if (module_count == 0) {
    return InvalidArgumentError("engine needs at least one module");
  }
  AVOC_RETURN_IF_ERROR(config.Validate());
  return CategoricalEngine(module_count, std::move(config));
}

double CategoricalEngine::Agreement(const std::string& a,
                                    const std::string& b) const {
  if (!config_.distance) return a == b ? 1.0 : 0.0;
  const double d = std::clamp(config_.distance(a, b), 0.0, 1.0);
  return d <= config_.error ? 1.0 : 0.0;
}

CategoricalVoteResult CategoricalEngine::MakeFaultResult(
    RoundOutcome fallback, Status status, size_t present_count) const {
  CategoricalVoteResult result;
  result.present_count = present_count;
  result.weights.assign(module_count_, 0.0);
  result.history.assign(ledger_.records().begin(), ledger_.records().end());
  result.eliminated.assign(module_count_, false);
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

Result<CategoricalVoteResult> CategoricalEngine::CastVote(
    const std::vector<Label>& round) {
  if (round.size() != module_count_) {
    return InvalidArgumentError(
        StrFormat("round has %zu labels, engine has %zu modules", round.size(),
                  module_count_));
  }

  std::vector<size_t> present_index;
  std::vector<std::string> present_labels;
  std::vector<uint8_t> present(module_count_, 0);
  for (size_t i = 0; i < module_count_; ++i) {
    if (round[i].has_value()) {
      present[i] = 1;
      present_index.push_back(i);
      present_labels.push_back(*round[i]);
    }
  }
  const size_t present_count = present_index.size();

  const size_t required = std::max<size_t>(
      config_.quorum_min_count,
      static_cast<size_t>(config_.quorum_fraction *
                              static_cast<double>(module_count_) +
                          0.999999));
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
            NoQuorumError(StrFormat("%zu of %zu labels, %zu required",
                                    present_count, module_count_, required)),
            present_count);
    }
  }

  // Module elimination by below-average history record.
  std::vector<bool> eliminated(module_count_, false);
  if (config_.module_elimination && present_count > 1) {
    double mean_record = 0.0;
    for (const size_t m : present_index) mean_record += ledger_.record(m);
    mean_record /= static_cast<double>(present_count);
    for (const size_t m : present_index) {
      eliminated[m] =
          ledger_.record(m) < mean_record - config_.elimination_margin - 1e-12;
    }
  }

  // Weighted plurality: each non-eliminated candidate contributes its
  // history record (or 1 under HistoryRule::kNone) to its label's tally.
  std::map<std::string, double> tally;
  std::map<std::string, size_t> supporters;
  std::vector<double> weights(module_count_, 0.0);
  double total_weight = 0.0;
  for (size_t k = 0; k < present_count; ++k) {
    const size_t m = present_index[k];
    if (eliminated[m]) continue;
    const double w = config_.history.rule == HistoryRule::kNone
                         ? 1.0
                         : ledger_.record(m);
    weights[m] = w;
    tally[present_labels[k]] += w;
    supporters[present_labels[k]] += 1;
    total_weight += w;
  }
  if (total_weight <= 0.0) {
    // All records collapsed: fall back to unweighted plurality.
    tally.clear();
    supporters.clear();
    for (size_t k = 0; k < present_count; ++k) {
      const size_t m = present_index[k];
      weights[m] = 1.0;
      tally[present_labels[k]] += 1.0;
      supporters[present_labels[k]] += 1;
      total_weight += 1.0;
    }
  }

  // Winner: highest tally; ties break towards the previous output when it
  // is among the tied labels, else the lexicographically smallest label
  // (std::map iteration order makes this deterministic).
  double best_weight = -1.0;
  std::string winner;
  bool previous_among_tied = false;
  for (const auto& [label, weight] : tally) {
    if (weight > best_weight + 1e-12) {
      best_weight = weight;
      winner = label;
      previous_among_tied =
          last_output_.has_value() && label == *last_output_;
    } else if (std::abs(weight - best_weight) <= 1e-12) {
      if (!previous_among_tied && last_output_.has_value() &&
          label == *last_output_) {
        winner = label;
        previous_among_tied = true;
      }
    }
  }

  const bool had_majority = 2 * supporters[winner] > present_count;
  if (!had_majority) {
    switch (config_.on_no_majority) {
      case NoMajorityPolicy::kAccept:
        break;
      case NoMajorityPolicy::kEmitNothing:
        return MakeFaultResult(RoundOutcome::kNoOutput, Status::Ok(),
                               present_count);
      case NoMajorityPolicy::kRevertLast:
        return MakeFaultResult(RoundOutcome::kRevertedLast, Status::Ok(),
                               present_count);
      case NoMajorityPolicy::kRaise:
        return MakeFaultResult(
            RoundOutcome::kError,
            NoMajorityError(StrFormat("winner has %zu of %zu candidates",
                                      supporters[winner], present_count)),
            present_count);
    }
  }

  // History update: agreement with the winning label, including for
  // eliminated modules.
  std::vector<double> agreement_with_output(module_count_, 0.0);
  for (size_t k = 0; k < present_count; ++k) {
    agreement_with_output[present_index[k]] =
        Agreement(present_labels[k], winner);
  }
  AVOC_RETURN_IF_ERROR(ledger_.Update(agreement_with_output, present));

  CategoricalVoteResult result;
  result.value = winner;
  result.outcome = RoundOutcome::kVoted;
  result.weights = std::move(weights);
  result.history.assign(ledger_.records().begin(), ledger_.records().end());
  result.eliminated = std::move(eliminated);
  result.present_count = present_count;
  result.had_majority = had_majority;
  last_output_ = winner;
  return result;
}

void CategoricalEngine::Reset() {
  ledger_.Reset();
  last_output_.reset();
}

}  // namespace avoc::core
