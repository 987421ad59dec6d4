#include "core/history.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace avoc::core {
namespace {

double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

}  // namespace

HistoryLedger::HistoryLedger(size_t module_count, HistoryParams params)
    : params_(params),
      records_(module_count, 1.0),
      agreement_sums_(module_count, 0.0),
      observations_(module_count, 0) {}

Status HistoryLedger::Update(std::span<const double> agreement_with_output,
                             std::span<const uint8_t> present) {
  if (agreement_with_output.size() != records_.size() ||
      present.size() != records_.size()) {
    return InvalidArgumentError(
        StrFormat("history update arity %zu/%zu, ledger has %zu modules",
                  agreement_with_output.size(), present.size(),
                  records_.size()));
  }
  ++rounds_;
  if (params_.rule == HistoryRule::kNone) return Status::Ok();

  // The rule and missing-penalty switches are hoisted out of the module
  // loop.
  const size_t n = records_.size();
  const bool penalize_missing = params_.missing_penalty > 0.0;
  switch (params_.rule) {
    case HistoryRule::kNone:
      break;
    case HistoryRule::kCumulativeRatio:
      for (size_t i = 0; i < n; ++i) {
        if (present[i] == 0) {
          if (penalize_missing) {
            records_[i] = Clamp01(records_[i] - params_.missing_penalty);
          }
          continue;
        }
        agreement_sums_[i] += Clamp01(agreement_with_output[i]);
        ++observations_[i];
        records_[i] = (1.0 + agreement_sums_[i]) /
                      (1.0 + static_cast<double>(observations_[i]));
      }
      break;
    case HistoryRule::kRewardPenalty:
      for (size_t i = 0; i < n; ++i) {
        if (present[i] == 0) {
          if (penalize_missing) {
            records_[i] = Clamp01(records_[i] - params_.missing_penalty);
          }
          continue;
        }
        const double g = Clamp01(agreement_with_output[i]);
        records_[i] = Clamp01(records_[i] + g * params_.reward -
                              (1.0 - g) * params_.penalty);
      }
      break;
  }
  return Status::Ok();
}

double HistoryLedger::MeanRecord() const {
  if (records_.empty()) return 0.0;
  double sum = 0.0;
  for (const double r : records_) sum += r;
  return sum / static_cast<double>(records_.size());
}

bool HistoryLedger::AllRecordsAre(double value, double epsilon) const {
  for (const double r : records_) {
    if (std::abs(r - value) > epsilon) return false;
  }
  return true;
}

void HistoryLedger::Reset() {
  std::fill(records_.begin(), records_.end(), 1.0);
  std::fill(agreement_sums_.begin(), agreement_sums_.end(), 0.0);
  std::fill(observations_.begin(), observations_.end(), uint64_t{0});
  rounds_ = 0;
}

void HistoryLedger::ExportTo(GroupState& state) const {
  state.records.assign(records_.begin(), records_.end());
  state.agreement_sums.assign(agreement_sums_.begin(), agreement_sums_.end());
  state.observations.assign(observations_.begin(), observations_.end());
  state.rounds = static_cast<uint64_t>(rounds_);
}

Status HistoryLedger::ImportFrom(const GroupState& state) {
  AVOC_RETURN_IF_ERROR(ValidateGroupState(state));
  if (state.records.size() != records_.size()) {
    return InvalidArgumentError(
        StrFormat("state restore of %zu modules, ledger has %zu",
                  state.records.size(), records_.size()));
  }
  // Clamped as every update clamps them: an exported state passes
  // through bit-identically, NaN and -0.0 included.
  std::transform(state.records.begin(), state.records.end(),
                 records_.begin(), Clamp01);
  agreement_sums_ = state.agreement_sums;
  observations_ = state.observations;
  rounds_ = static_cast<size_t>(state.rounds);
  return Status::Ok();
}

}  // namespace avoc::core
