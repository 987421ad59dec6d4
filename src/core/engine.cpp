#include "core/engine.h"

#include <algorithm>

#include "core/trace.h"
#include "util/strings.h"

namespace avoc::core {

VotingEngine::VotingEngine(size_t module_count, const EngineConfig& config)
    : module_count_(module_count),
      config_(config),
      plan_(CompileRoundPlan(module_count, config)),
      ledger_(module_count, config.history) {}

Result<VotingEngine> VotingEngine::Create(size_t module_count,
                                          const EngineConfig& config) {
  if (module_count == 0) {
    return InvalidArgumentError("engine needs at least one module");
  }
  AVOC_RETURN_IF_ERROR(config.Validate());
  return VotingEngine(module_count, config);
}

namespace {

Status ArityError(size_t readings, size_t modules) {
  return InvalidArgumentError(
      StrFormat("round has %zu readings, engine has %zu modules", readings,
                modules));
}

}  // namespace

RoundScalars VotingEngine::EmitColumns(VoteSink& sink, RoundColumns& columns) {
  RoundColumns cols = sink.BeginRound(module_count_);
  RoundScalars scalars;
  scalars.present_count = static_cast<uint32_t>(scratch_.present_count);
  // The scatter loops below write excluded[] at every present index and
  // weights/agreement/eliminated[] at every included index.  When every
  // module is present and included — the overwhelmingly common round —
  // they cover all four columns and the blanket zero-fill is redundant.
  const bool scatter_covers_all =
      !scratch_.faulted() && scratch_.present_count == module_count_ &&
      scratch_.included_index.size() == module_count_;
  if (!scatter_covers_all) {
    std::fill(cols.weights.begin(), cols.weights.end(), 0.0);
    std::fill(cols.agreement.begin(), cols.agreement.end(), 0.0);
    std::fill(cols.excluded.begin(), cols.excluded.end(), 0);
    std::fill(cols.eliminated.begin(), cols.eliminated.end(), 0);
  }
  const std::span<const double> records = ledger_.records();
  std::copy(records.begin(), records.end(), cols.history.begin());

  if (scratch_.faulted()) {
    // Fault rounds keep the default used_clustering / had_majority fields,
    // matching the historical VoteResult shape bit for bit.
    switch (*scratch_.fault) {
      case RoundOutcome::kRevertedLast:
        if (last_output_.has_value()) {
          scalars.outcome = RoundOutcome::kRevertedLast;
          scalars.has_value = true;
          scalars.value = *last_output_;
        } else {
          // Nothing to revert to: degrade to no-output.
          scalars.outcome = RoundOutcome::kNoOutput;
        }
        break;
      case RoundOutcome::kError:
        scalars.outcome = RoundOutcome::kError;
        scalars.status = &scratch_.fault_status;
        break;
      default:
        scalars.outcome = RoundOutcome::kNoOutput;
        break;
    }
  } else {
    scalars.outcome = RoundOutcome::kVoted;
    scalars.has_value = true;
    scalars.value = *scratch_.output;
    scalars.used_clustering = scratch_.used_clustering;
    scalars.had_majority = scratch_.had_majority;
    uint32_t excluded_count = 0;
    uint32_t eliminated_count = 0;
    if (scatter_covers_all) {
      // Full round: present_index and included_index are both the
      // identity, so the scatters below degenerate to straight copies.
      std::copy_n(scratch_.excluded_present.begin(), module_count_,
                  cols.excluded.begin());
      std::copy_n(scratch_.weights.begin(), module_count_,
                  cols.weights.begin());
      std::copy_n(scratch_.scores.begin(), module_count_,
                  cols.agreement.begin());
      std::copy_n(scratch_.eliminated_included.begin(), module_count_,
                  cols.eliminated.begin());
      for (size_t m = 0; m < module_count_; ++m) {
        excluded_count += cols.excluded[m];
        eliminated_count += cols.eliminated[m];
      }
    } else {
      for (size_t k = 0; k < scratch_.present_count; ++k) {
        const uint8_t bit = scratch_.excluded_present[k];
        cols.excluded[scratch_.present_index[k]] = bit;
        excluded_count += bit;
      }
      for (size_t k = 0; k < scratch_.included_index.size(); ++k) {
        cols.weights[scratch_.included_index[k]] = scratch_.weights[k];
        cols.agreement[scratch_.included_index[k]] = scratch_.scores[k];
        const uint8_t bit = scratch_.eliminated_included[k];
        cols.eliminated[scratch_.included_index[k]] = bit;
        eliminated_count += bit;
      }
    }
    scalars.excluded_count = excluded_count;
    scalars.eliminated_count = eliminated_count;
  }
  sink.EndRound(scalars);
  columns = cols;
  return scalars;
}

Status VotingEngine::CastVoteBlock(RoundBlock block, VoteSink& sink) {
  if (block.modules != module_count_ ||
      block.present.size() != block.values.size() ||
      block.values.size() % module_count_ != 0) {
    return ArityError(block.modules, module_count_);
  }
  const size_t rounds = block.round_count();
  for (size_t r = 0; r < rounds; ++r) {
    scratch_.Begin(block.round(r), plan_, ledger_, last_output_);
    ++round_index_;
    AVOC_RETURN_IF_ERROR(RunRound(plan_, scratch_, observer_, round_index_));
    RoundColumns columns;
    const RoundScalars scalars = EmitColumns(sink, columns);
    if (!scratch_.faulted()) last_output_ = *scratch_.output;
    if (observer_ != nullptr) {
      observer_->OnRoundCommitted(round_index_, columns, scalars);
    }
  }
  return Status::Ok();
}

Result<VoteResult> VotingEngine::CastVote(const Round& round) {
  if (round.size() != module_count_) {
    return ArityError(round.size(), module_count_);
  }
  std::vector<double> values(module_count_, 0.0);
  std::vector<uint8_t> present(module_count_, 0);
  for (size_t m = 0; m < module_count_; ++m) {
    if (round[m].has_value()) {
      values[m] = *round[m];
      present[m] = 1;
    }
  }
  BatchTrace trace(module_count_);
  AVOC_RETURN_IF_ERROR(
      CastVoteBlock(RoundBlock{values, present, module_count_}, trace));
  return trace.MaterializeRound(0);
}

void VotingEngine::ExportState(State& state) const {
  ledger_.ExportTo(state);
  state.last_output = last_output_;
  state.round_index = static_cast<uint64_t>(round_index_);
}

Status VotingEngine::RestoreState(const State& state) {
  AVOC_RETURN_IF_ERROR(ledger_.ImportFrom(state));
  last_output_ = state.last_output;
  round_index_ = static_cast<size_t>(state.round_index);
  return Status::Ok();
}

void VotingEngine::Reset() {
  ledger_.Reset();
  last_output_.reset();
  round_index_ = 0;
}

Result<double> StatelessVote(std::span<const double> values,
                             Collation collation,
                             const ExclusionParams& exclusion) {
  if (values.empty()) return InvalidArgumentError("no candidates");
  const std::vector<bool> excluded = ComputeExclusions(values, exclusion);
  std::vector<double> kept;
  kept.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (!excluded[i]) kept.push_back(values[i]);
  }
  const std::vector<double> weights(kept.size(), 1.0);
  return Collate(collation, kept, weights, std::nullopt);
}

}  // namespace avoc::core
