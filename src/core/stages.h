// The voting round as an explicit stage pipeline.
//
// Every §4 algorithm is a composition of the same ordered steps; a round
// is one pass of a VoteContext through the fixed chain
//
//   quorum → exclusion → clustering → agreement → elimination
//          → weighting → collation → majority → history
//
// CompileRoundPlan lowers an EngineConfig into the per-stage constants of
// that chain exactly once per engine (the quorum count, the mirrored
// clustering threshold, ...), and RunRound, the one stage executor,
// threads the context through the nine stage bodies with those constants.
//
// StageObserver is the extension seam: tracing, metrics and debugging
// attach from the outside (VotingEngine::set_observer) without touching
// the stages themselves.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/grouping.h"
#include "core/config.h"
#include "core/history.h"
#include "core/kernels/kernels.h"
#include "core/types.h"
#include "util/status.h"

namespace avoc::core {

struct RoundColumns;  // core/vote_sink.h
struct RoundScalars;  // core/vote_sink.h
struct RoundPlan;     // below

/// The nine stage names in execution order — the contract between
/// RunRound and everything that keys per-stage data (the stage trace
/// renderer, the metrics observer, the tests).
inline constexpr std::array<std::string_view, 9> kStageNames = {
    "quorum",     "exclusion", "clustering",
    "agreement",  "elimination", "weighting",
    "collation",  "majority",  "history"};

/// One round's scratch state, threaded through the stage chain.  Owned by
/// the engine and reused across rounds (Begin resets everything), so the
/// hot path performs no per-round vector allocations once warmed up.
struct VoteContext {
  // --- round inputs (set by Begin) -----------------------------------------
  const RoundPlan* plan = nullptr;
  HistoryLedger* ledger = nullptr;
  size_t module_count = 0;
  /// Last accepted output before this round (MNN tie-break, clustering
  /// winner selection, revert-last).
  std::optional<double> previous_output;

  // --- presence (set by Begin) ---------------------------------------------
  // Masks are flat 0/1 byte columns (not std::vector<bool>): the voting
  // kernels read and write them with contiguous vector loads/stores.
  std::vector<size_t> present_index;   ///< module index of each candidate
  std::vector<double> present_values;  ///< value of each candidate
  std::vector<uint8_t> present;        ///< per-module submitted-a-reading mask
  size_t present_count = 0;

  // --- exclusion -----------------------------------------------------------
  std::vector<uint8_t> excluded_present;  ///< per present candidate
  std::vector<size_t> included_index;  ///< module index per included candidate
  std::vector<double> included_values;

  // --- clustering ----------------------------------------------------------
  bool used_clustering = false;
  std::vector<uint8_t> in_winning_cluster;  ///< per included candidate

  // --- agreement / elimination / weighting ---------------------------------
  std::vector<double> scores;                ///< per included candidate
  std::vector<uint8_t> eliminated_included;  ///< per included candidate
  std::vector<double> weights;               ///< per included candidate
  double weight_sum = 0.0;

  // --- collation / majority ------------------------------------------------
  std::optional<double> output;
  bool had_majority = true;

  // --- reusable stage scratch ----------------------------------------------
  /// Per-module agreement-with-output column of the history update.
  std::vector<double> output_agreement;
  /// Sort buffer of the majority check's largest-group scan.
  std::vector<double> majority_scratch;
  /// Kernel scratch (see core/kernels/kernels.h), reused across rounds so
  /// the stage bodies stay allocation-free once warmed up.
  kernels::AgreementScratch agreement_scratch;
  kernels::ExclusionScratch exclusion_scratch;
  kernels::WeightedMeanScratch mean_scratch;

  // --- fault short-circuit -------------------------------------------------
  /// Engaged when a fault policy fired; the remaining stages are skipped
  /// and the engine emits a fault result with this outcome.
  std::optional<RoundOutcome> fault;
  Status fault_status;

  /// Resets the context for a new round and gathers the present
  /// candidates of `round` (contiguous values plus a present-bitmask).
  void Begin(RoundSpan round, const RoundPlan& round_plan,
             HistoryLedger& engine_ledger, std::optional<double> previous);

  bool faulted() const { return fault.has_value(); }

  /// Ends the round with a fault outcome (quorum / majority policies).
  void Fault(RoundOutcome outcome, Status status = Status::Ok());

  /// Runs the clustering step over the included candidates and keeps only
  /// the winning group.  Shared by the clustering stage and the weighting
  /// stage's zero-weight fallback.
  Status ApplyClustering(const cluster::GroupingOptions& options);
};

/// Observation seam for tracing/metrics.  Hooks are no-ops by default;
/// implementations must not mutate engine state.
class StageObserver {
 public:
  virtual ~StageObserver() = default;

  /// Before the first stage of a round (context holds the presence scan).
  virtual void OnRoundBegin(size_t /*round_index*/,
                            const VoteContext& /*context*/) {}

  /// After each stage that ran.  Stages skipped by a fault short-circuit
  /// are not reported.
  virtual void OnStageDone(std::string_view /*stage*/,
                           const VoteContext& /*context*/) {}

  /// With the committed sink columns and scalars, after every round
  /// (sampled or not).  The allocation-free hook: it hands over the same
  /// flat columns the sink received (valid until the sink's next
  /// BeginRound).
  virtual void OnRoundCommitted(size_t /*round_index*/,
                                const RoundColumns& /*columns*/,
                                const RoundScalars& /*scalars*/) {}

  /// Not read by the engine, which hands observers no VoteResult.  Kept
  /// only so observers that still override it keep compiling.
  virtual bool wants_vote_result() const { return false; }

  /// Inline gate RunRound reads once per round (before OnRoundBegin) to
  /// decide whether the per-round tracing hooks — OnRoundBegin and the
  /// nine OnStageDone calls — are dispatched at all.  A sampling observer
  /// clears the flag from OnRoundCommitted for the rounds it does not
  /// time, shrinking an untimed round to a single virtual call; the
  /// committed hook always fires, so counting stays exact.
  bool stage_hooks_enabled() const { return stage_hooks_enabled_; }

 protected:
  /// Derived observers may toggle this between rounds (i.e. from
  /// OnRoundCommitted); see stage_hooks_enabled.
  bool stage_hooks_enabled_ = true;
};

/// One observed stage transition, as recorded by StageTraceObserver.
struct StageTraceEntry {
  std::string stage;
  size_t candidates = 0;  ///< included candidates after the stage
  double weight_sum = 0.0;
  bool used_clustering = false;
  bool faulted = false;
};

/// Ready-made observer that records one StageTraceEntry per stage of the
/// most recent round — the substrate of core::FormatStageTrace and a
/// template for richer metrics observers.
class StageTraceObserver : public StageObserver {
 public:
  void OnRoundBegin(size_t round_index, const VoteContext& context) override;
  void OnStageDone(std::string_view stage,
                   const VoteContext& context) override;

  size_t round_index() const { return round_index_; }
  const std::vector<StageTraceEntry>& entries() const { return entries_; }

 private:
  size_t round_index_ = 0;
  std::vector<StageTraceEntry> entries_;
};

/// The fully-resolved per-stage constants of one engine — what
/// CompileRoundPlan lowers an EngineConfig into and RunRound executes.
struct RoundPlan {
  size_t module_count = 0;
  size_t quorum_required = 0;
  NoQuorumPolicy on_no_quorum = NoQuorumPolicy::kEmitNothing;
  ExclusionParams exclusion;
  ClusteringMode clustering = ClusteringMode::kOff;
  cluster::GroupingOptions grouping;
  AgreementParams agreement;
  bool module_elimination = false;
  double elimination_margin = 0.0;
  RoundWeighting weighting = RoundWeighting::kUniform;
  Collation collation = Collation::kWeightedAverage;
  NoMajorityPolicy on_no_majority = NoMajorityPolicy::kAccept;
  HistoryRule history_rule = HistoryRule::kCumulativeRatio;
};

/// Lowers `config` (assumed validated) for a `module_count`-ary round.
RoundPlan CompileRoundPlan(size_t module_count, const EngineConfig& config);

/// Runs one Begin-initialized round through the nine stages of `plan`,
/// stopping after the stage that faults.  When `observer` is non-null
/// and its stage_hooks_enabled() gate is up, OnRoundBegin(round_index)
/// fires first and OnStageDone after every stage that ran; the stage
/// bodies and their results are the same either way.  Non-OK only on
/// hard errors; policy outcomes go through context.Fault.
Status RunRound(const RoundPlan& plan, VoteContext& context,
                StageObserver* observer, size_t round_index);

}  // namespace avoc::core
