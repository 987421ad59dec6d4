// MetricsObserver: the production StageObserver.
//
// PR 1 cut the observation seam into the voting engine; this is its first
// production implementation.  One observer instance watches one engine
// "scope" (a live group, or one shard of a MultiGroupEngine) and turns
// the per-stage hooks into registry metrics:
//
//   * outcome / exclusion / elimination / quorum / majority counters,
//   * re-cluster and history-collapse counters plus JSON events,
//   * sampled per-stage and per-round latency histograms,
//   * per-module consecutive-exclusion streaks with a JSON alert event.
//
// Hot-path budget: an AVOC round runs in well under a microsecond, so the
// observer (a) times stages/rounds only every `sample_every` rounds,
// using the engine-side stage_hooks_enabled_ gate to suppress the
// OnRoundBegin + nine OnStageDone dispatches in between — an unsampled
// round costs one OnRoundCommitted call — and (b) accumulates counters
// in plain members and flushes them to the shared registry objects every
// `flush_every` rounds.  Between flushes a live scrape lags by at most
// flush_every rounds.
//
// Threading contract: the engine serializes hooks per round, so one
// observer instance must not be attached to engines voting concurrently
// (use one instance per shard — the instances may share registry metrics,
// which are thread-safe).  The streak table allocates once at the first
// round; after that warm-up every hook is allocation-free.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/stages.h"
#include "core/vote_sink.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace avoc::obs {

struct MetricsObserverOptions {
  /// Label value naming this observer's scope ("live", "shard0", ...).
  std::string scope = "default";
  /// Label key the scope registers under ("group" for live runners,
  /// "shard" for multi-group shards).
  std::string scope_label = "group";
  /// Record stage/round latency every N-th round (0 disables timing).
  size_t sample_every = 16;
  /// Publish accumulated counters to the registry every N rounds.
  size_t flush_every = 1;
  /// Log a JSON event when a module has been excluded for this many
  /// consecutive rounds (0 disables streak tracking entirely).
  size_t exclusion_streak_alert = 0;
  /// Emit JSON events (history collapse, streak alerts) through
  /// util::log; counters are unaffected.
  bool log_events = true;
  /// Flight-recorder tracer (optional).  Sampled rounds emit one
  /// "engine.stage" event per stage, parented to the thread's current
  /// span when one is active — so a traced request shows which voting
  /// stage its rounds spent time in.
  Tracer* tracer = nullptr;
};

class MetricsObserver final : public core::StageObserver {
 public:
  MetricsObserver(Registry& registry, MetricsObserverOptions options);
  ~MetricsObserver() override;

  MetricsObserver(const MetricsObserver&) = delete;
  MetricsObserver& operator=(const MetricsObserver&) = delete;

  void OnRoundBegin(size_t round_index,
                    const core::VoteContext& context) override;
  void OnStageDone(std::string_view stage,
                   const core::VoteContext& context) override;
  void OnRoundCommitted(size_t round_index,
                        const core::RoundColumns& columns,
                        const core::RoundScalars& scalars) override;

  /// Publishes the locally accumulated counts to the registry now.
  void Flush();

  const MetricsObserverOptions& options() const { return options_; }

  // Registry handles, exposed so owners (MultiGroupEngine::Stats) can
  // aggregate without going back through name lookups.
  const Counter& rounds_total() const { return *rounds_total_; }
  const Counter& voted_total() const { return *outcome_[0]; }
  const Counter& no_output_total() const { return *outcome_[2]; }
  const Counter& reverted_total() const { return *outcome_[1]; }
  const Counter& error_total() const { return *outcome_[3]; }
  const Counter& excluded_modules_total() const { return *excluded_modules_; }
  const Counter& eliminated_modules_total() const {
    return *eliminated_modules_;
  }
  const Counter& clustered_rounds_total() const { return *clustered_rounds_; }
  const Counter& history_collapse_total() const { return *history_collapse_; }
  const Counter& quorum_failures_total() const { return *quorum_failures_; }
  const Counter& majority_failures_total() const {
    return *majority_failures_;
  }
  const LatencyHistogram& round_latency() const { return *round_latency_; }
  const LatencyHistogram& stage_latency(size_t stage_index) const {
    return *stage_latency_[stage_index];
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Locally accumulated counts since the last Flush.
  struct Pending {
    uint64_t rounds = 0;
    std::array<uint64_t, 4> outcome{};  ///< indexed by RoundOutcome
    uint64_t excluded_modules = 0;
    uint64_t eliminated_modules = 0;
    uint64_t clustered_rounds = 0;
    uint64_t history_collapse = 0;
    uint64_t quorum_failures = 0;
    uint64_t majority_failures = 0;
    uint64_t no_majority_rounds = 0;
  };

  Registry* registry_;
  MetricsObserverOptions options_;

  // Shared registry objects (stable addresses, thread-safe writes).
  Counter* rounds_total_;
  std::array<Counter*, 4> outcome_;  ///< indexed by RoundOutcome value
  Counter* excluded_modules_;
  Counter* eliminated_modules_;
  Counter* clustered_rounds_;
  Counter* history_collapse_;
  Counter* quorum_failures_;
  Counter* majority_failures_;
  Counter* no_majority_rounds_;
  LatencyHistogram* round_latency_;
  std::array<LatencyHistogram*, core::kStageNames.size()> stage_latency_;

  // Per-round state (single-threaded per the threading contract).
  Pending pending_;
  size_t rounds_since_flush_ = 0;
  size_t rounds_since_sample_ = 0;
  bool sampling_round_ = false;
  /// Quorum threshold of the engine's plan, read on every sampled round;
  /// attributes non-voted outcomes to the quorum vs majority stage.
  size_t quorum_required_ = 0;
  /// Position in kStageNames of the next OnStageDone (stages report in
  /// chain order).
  size_t stage_cursor_ = 0;
  Clock::time_point round_start_{};
  Clock::time_point stage_mark_{};
  /// Consecutive-exclusion streak per module; sized at the first round.
  std::vector<uint32_t> exclusion_streaks_;
};

}  // namespace avoc::obs
