// Engine configuration: the policy knobs every §4 algorithm is a preset
// over.
//
// EngineConfig composes the per-step parameters (quorum, exclusion,
// clustering gate, agreement, elimination, weighting, collation, history)
// that CompileRoundPlan (core/stages.h) lowers into the per-stage
// constants of the fixed nine-stage chain.  Kept separate from engine.h
// so the stages can see the configuration without depending on the
// engine itself.
#pragma once

#include <cstddef>

#include "core/agreement.h"
#include "core/collation.h"
#include "core/exclusion.h"
#include "core/history.h"
#include "core/types.h"
#include "util/status.h"

namespace avoc::core {

/// How a module's effective voting weight for the round is derived.
enum class RoundWeighting {
  kUniform,    ///< every surviving candidate weighs 1 (plain average)
  kHistory,    ///< weight = history record h_i
  kAgreement,  ///< weight = this round's agreement score s_i
  kCombined,   ///< weight = h_i * s_i
};

/// When the clustering step (cluster::GroupByThreshold) gates the vote.
enum class ClusteringMode {
  kOff,
  /// AVOC: only when the ledger indicates a new set (all records 1) or a
  /// collapse (all records 0) — bootstrap and fallback.
  kBootstrap,
  /// COV: every round, statelessly.
  kAlways,
};

struct QuorumParams {
  /// Candidates present / modules registered must reach this fraction for
  /// a vote to trigger (VDX `quorum_percentage` / 100).
  double fraction = 0.5;
  /// At least this many candidates regardless of fraction.
  size_t min_count = 1;
};

struct EngineConfig {
  AgreementParams agreement;
  HistoryParams history;
  ExclusionParams exclusion;
  QuorumParams quorum;
  RoundWeighting weighting = RoundWeighting::kHistory;
  Collation collation = Collation::kWeightedAverage;
  ClusteringMode clustering = ClusteringMode::kOff;

  /// Module elimination (ME): zero-weight modules whose history record is
  /// below the mean record of the present modules.
  bool module_elimination = false;
  /// Slack below the mean record before a module is eliminated.  Without
  /// it, a module that blemished once could never rejoin a group of
  /// perfect peers (its record approaches but never reaches theirs),
  /// violating the paper's "until their historical records improve by
  /// submitting better values".
  double elimination_margin = 0.05;

  /// Fault policies (§7 "fault scenario" discussion).
  NoQuorumPolicy on_no_quorum = NoQuorumPolicy::kRevertLast;
  NoMajorityPolicy on_no_majority = NoMajorityPolicy::kAccept;

  /// Validates parameter ranges (error > 0, quorum fraction in (0,1], ...).
  Status Validate() const;
};

}  // namespace avoc::core
