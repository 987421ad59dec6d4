// VotingEngine: the paper's voting pipeline as a policy composition.
//
// One engine instance owns the state of one logical sensor group: the
// per-module history ledger and the last accepted output.  CastVoteBlock
// consumes a block of rounds and runs each one through RunRound over the
// RoundPlan compiled from the EngineConfig (see core/stages.h), in VDX's
// declared order:
//
//   quorum check → value exclusion → clustering (bootstrap/fallback/always)
//   → agreement scoring → module elimination → round weighting → collation
//   → majority check → history update
//
// The named algorithms (avg / standard / ME / SDT / hybrid / COV / AVOC)
// are presets over EngineConfig — see algorithms.h.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/history.h"
#include "core/stages.h"
#include "core/types.h"
#include "core/vote_sink.h"
#include "util/status.h"

namespace avoc::core {

class VotingEngine {
 public:
  /// `module_count` fixes the round arity; must be >= 1.
  static Result<VotingEngine> Create(size_t module_count,
                                     const EngineConfig& config);

  size_t module_count() const { return module_count_; }
  const EngineConfig& config() const { return config_; }

  /// Attaches a non-owning observer receiving per-stage hooks for every
  /// subsequent round; nullptr detaches.  The observer must outlive its
  /// attachment and must not mutate the engine from within a hook.
  void set_observer(StageObserver* observer) { observer_ = observer; }
  StageObserver* observer() const { return observer_; }

  /// The engine's one round loop: consumes every round of the contiguous
  /// block (a whole RoundTable, one worker's slice of it, or one round)
  /// and writes each round's outputs straight into the caller-owned sink
  /// (flat columns, see core/vote_sink.h), with no per-round allocation.
  /// Outcomes kNoOutput, kRevertedLast and kError are committed to the
  /// sink like voted rounds; only hard errors (arity mismatch, stage
  /// failure) return non-OK, and then the failing round was not written.
  Status CastVoteBlock(RoundBlock block, VoteSink& sink);

  /// Single-round convenience: runs `round` as a one-round block and
  /// returns the committed round as a VoteResult (which allocates; batch
  /// loops should use CastVoteBlock).
  Result<VoteResult> CastVote(const Round& round);

  /// Last accepted output (from a kVoted round), if any.
  const std::optional<double>& last_output() const { return last_output_; }

  /// Rounds consumed (including faulted ones).
  size_t round_index() const { return round_index_; }

  const HistoryLedger& history() const { return ledger_; }

  /// The engine's full mutable state (core/group_state.h): ledger
  /// records and accumulators, last accepted output and round counter.
  /// A restart and a migration both restore through RestoreState, so a
  /// restored engine keeps voting bit-identically with the exporter.
  using State = GroupState;
  /// Writes the state into `state`, reusing its vectors' capacity.
  void ExportState(State& state) const;
  Status RestoreState(const State& state);

  /// Forgets all state: history, last output, round counter.
  void Reset();

 private:
  VotingEngine(size_t module_count, const EngineConfig& config);

  /// Writes the scratch state into one sink round; returns the committed
  /// scalars and columns (for the observer hook).
  RoundScalars EmitColumns(VoteSink& sink, RoundColumns& columns);

  size_t module_count_;
  EngineConfig config_;
  RoundPlan plan_;
  HistoryLedger ledger_;
  std::optional<double> last_output_;
  size_t round_index_ = 0;
  StageObserver* observer_ = nullptr;
  /// Reused round scratch state (see VoteContext); reset by Begin.
  VoteContext scratch_;
};

/// One-shot stateless vote: plain (exclusion + collation) fusion of a
/// value set without any engine state.  This is the "stateless vote in 50
/// microseconds" path of the paper's implementation notes.
Result<double> StatelessVote(std::span<const double> values,
                             Collation collation = Collation::kWeightedAverage,
                             const ExclusionParams& exclusion = {});

}  // namespace avoc::core
