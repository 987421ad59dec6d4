// Historical reliability records (§4).
//
// Every module carries a record h ∈ [0,1] summarising how well its past
// readings agreed with the voted outputs.  Records start at 1 ("all
// records are 1, indicating a new set", §5) and are updated after every
// round, *including* for modules whose values were excluded or eliminated
// from the vote itself — the paper is explicit that eliminated modules
// rejoin "by submitting better values, even if discarded in the voting".
//
// Two update rules cover the algorithm family:
//  * kCumulativeRatio — the record is the running mean agreement with the
//    voted output (Laplace-smoothed so it starts at 1).  A chronic
//    disagreer decays like 1/t and never quite reaches 0; this is why the
//    paper's Standard algorithm "even after 10000 voting rounds" has not
//    fully eliminated the faulty sensor's skew (Fig. 6-c discussion).
//  * kRewardPenalty — additive reward on agreement, penalty on
//    disagreement, clamped to [0,1].  Records *can* hit 0 after a streak
//    of disagreements ("weights can drop to 0", §5); the Hybrid/AVOC
//    presets use this aggressive rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/group_state.h"
#include "util/status.h"

namespace avoc::core {

enum class HistoryRule {
  kNone,             ///< stateless voting; records pinned at 1
  kCumulativeRatio,  ///< running mean agreement (slow decay)
  kRewardPenalty,    ///< additive +reward / -penalty, clamped to [0,1]
};

struct HistoryParams {
  HistoryRule rule = HistoryRule::kCumulativeRatio;
  /// kRewardPenalty: added per unit agreement.
  double reward = 0.05;
  /// kRewardPenalty: subtracted per unit disagreement.
  double penalty = 0.3;
  /// Penalty applied to modules that submitted no reading this round
  /// (0 = missing values leave the record untouched).
  double missing_penalty = 0.0;
};

/// The per-module record store.
class HistoryLedger {
 public:
  HistoryLedger(size_t module_count, HistoryParams params);

  size_t module_count() const { return records_.size(); }
  const HistoryParams& params() const { return params_; }

  /// Current record of module `i`.
  double record(size_t i) const { return records_.at(i); }
  std::span<const double> records() const { return records_; }

  /// Rounds absorbed so far.
  size_t round_count() const { return rounds_; }

  /// Applies one round's update.  `agreement_with_output[i]` is module i's
  /// agreement score against the voted output in [0,1]; `present[i]` is 1
  /// when the module submitted a reading (the VoteContext mask column).
  /// The update rule is resolved once outside the module loop.
  Status Update(std::span<const double> agreement_with_output,
                std::span<const uint8_t> present);

  /// Mean record across modules.
  double MeanRecord() const;

  /// True when every record equals `value` within `epsilon` — the AVOC
  /// bootstrap trigger tests all-1 (new set) and all-0 (collapse).
  bool AllRecordsAre(double value, double epsilon = 1e-12) const;

  /// Resets to a fresh set (all records 1, round count 0).
  void Reset();

  /// Writes the ledger's part of a GroupState (records, accumulators,
  /// round count) into `state`, reusing its vectors' capacity.
  void ExportTo(GroupState& state) const;
  /// Installs the ledger's part of `state`, records clamped to [0,1];
  /// `state` must pass ValidateGroupState with this ledger's module count.
  Status ImportFrom(const GroupState& state);

 private:
  HistoryParams params_;
  std::vector<double> records_;
  /// kCumulativeRatio state: per-module summed agreement and observation
  /// count (Laplace prior of one full agreement).
  std::vector<double> agreement_sums_;
  std::vector<uint64_t> observations_;
  size_t rounds_ = 0;
};

}  // namespace avoc::core
