#include "obs/stage_metrics.h"

#include <cmath>

#include "obs/events.h"

namespace avoc::obs {
namespace {

/// Outcome label values, indexed like RoundOutcome.
constexpr std::array<std::string_view, 4> kOutcomeLabels = {
    "voted", "reverted", "no_output", "error"};

}  // namespace

MetricsObserver::MetricsObserver(Registry& registry,
                                 MetricsObserverOptions options)
    : registry_(&registry), options_(std::move(options)) {
  const std::string& key = options_.scope_label;
  const std::string& scope = options_.scope;
  auto counter = [&](std::string_view family) {
    return &registry_->GetCounter(LabeledName(family, {{key, scope}}));
  };
  rounds_total_ = counter("avoc_rounds_total");
  for (size_t o = 0; o < kOutcomeLabels.size(); ++o) {
    outcome_[o] = &registry_->GetCounter(
        LabeledName("avoc_round_outcome_total",
                    {{key, scope}, {"outcome", kOutcomeLabels[o]}}));
  }
  excluded_modules_ = counter("avoc_excluded_modules_total");
  eliminated_modules_ = counter("avoc_eliminated_modules_total");
  clustered_rounds_ = counter("avoc_clustered_rounds_total");
  history_collapse_ = counter("avoc_history_collapse_total");
  quorum_failures_ = counter("avoc_quorum_failures_total");
  majority_failures_ = counter("avoc_majority_failures_total");
  no_majority_rounds_ = counter("avoc_no_majority_rounds_total");
  round_latency_ = &registry_->GetHistogram(
      LabeledName("avoc_round_latency_ns", {{key, scope}}));
  for (size_t s = 0; s < core::kStageNames.size(); ++s) {
    stage_latency_[s] = &registry_->GetHistogram(
        LabeledName("avoc_stage_latency_ns",
                    {{key, scope}, {"stage", core::kStageNames[s]}}));
  }
}

MetricsObserver::~MetricsObserver() { Flush(); }

void MetricsObserver::Flush() {
  if (pending_.rounds == 0) return;
  rounds_total_->Add(pending_.rounds);
  for (size_t o = 0; o < outcome_.size(); ++o) {
    if (pending_.outcome[o] != 0) outcome_[o]->Add(pending_.outcome[o]);
  }
  if (pending_.excluded_modules != 0) {
    excluded_modules_->Add(pending_.excluded_modules);
  }
  if (pending_.eliminated_modules != 0) {
    eliminated_modules_->Add(pending_.eliminated_modules);
  }
  if (pending_.clustered_rounds != 0) {
    clustered_rounds_->Add(pending_.clustered_rounds);
  }
  if (pending_.history_collapse != 0) {
    history_collapse_->Add(pending_.history_collapse);
  }
  if (pending_.quorum_failures != 0) {
    quorum_failures_->Add(pending_.quorum_failures);
  }
  if (pending_.majority_failures != 0) {
    majority_failures_->Add(pending_.majority_failures);
  }
  if (pending_.no_majority_rounds != 0) {
    no_majority_rounds_->Add(pending_.no_majority_rounds);
  }
  pending_ = Pending{};
  rounds_since_flush_ = 0;
}

void MetricsObserver::OnRoundBegin(size_t round_index,
                                   const core::VoteContext& context) {
  // Dispatched only on sampled rounds: OnRoundCommitted raises the
  // stage_hooks_enabled_ gate for the rounds it wants timed (plus the
  // very first round, whose gate is the constructor default), and the
  // engine skips both this hook and the nine OnStageDone calls when the
  // gate is down — an untimed round costs one virtual call total.
  (void)round_index;
  quorum_required_ = context.plan->quorum_required;
  sampling_round_ = options_.sample_every != 0;
  if (sampling_round_) {
    stage_cursor_ = 0;
    round_start_ = Clock::now();
    stage_mark_ = round_start_;
  }
}

void MetricsObserver::OnStageDone(std::string_view stage,
                                  const core::VoteContext& context) {
  (void)context;
  if (!sampling_round_) return;  // engine gate off, or foreign dispatch
  const size_t index = stage_cursor_++;

  const Clock::time_point now = Clock::now();
  stage_latency_[index]->Record(
      static_cast<uint64_t>(std::chrono::duration_cast<
                                std::chrono::nanoseconds>(now - stage_mark_)
                                .count()));
  stage_mark_ = now;

  // Sampled rounds drop one flight-recorder breadcrumb per stage when the
  // round runs under a traced request (the engine span is current on this
  // thread); timestamps come from the tracer's clock so DST dumps stay
  // deterministic.
  if (options_.tracer != nullptr &&
      CurrentTraceSpan().tracer == options_.tracer) {
    options_.tracer->Event("engine.stage", stage);
  }
}

void MetricsObserver::OnRoundCommitted(size_t round_index,
                                       const core::RoundColumns& columns,
                                       const core::RoundScalars& scalars) {
  ++pending_.rounds;
  const size_t outcome = static_cast<size_t>(scalars.outcome);
  if (outcome < pending_.outcome.size()) ++pending_.outcome[outcome];
  pending_.clustered_rounds += static_cast<uint64_t>(scalars.used_clustering);
  pending_.no_majority_rounds += static_cast<uint64_t>(!scalars.had_majority);
  if (scalars.outcome != core::RoundOutcome::kVoted) {
    // Only the quorum and majority stages carry fault policies; which one
    // fired follows from how the round entered.
    if (scalars.present_count < quorum_required_) {
      ++pending_.quorum_failures;
    } else {
      ++pending_.majority_failures;
    }
  }

  pending_.excluded_modules += scalars.excluded_count;
  pending_.eliminated_modules += scalars.eliminated_count;

  // History collapse (§5: every record driven to zero forces a bootstrap
  // re-cluster).  columns.history is the committed ledger state; records
  // start at 1.0 and decay towards 0, so the first-record test rejects
  // the overwhelming majority of rounds with a single compare.
  if (!columns.history.empty() &&
      std::fabs(columns.history.front()) <= 1e-12) {
    bool collapsed = true;
    for (size_t m = 1; m < columns.history.size(); ++m) {
      if (std::fabs(columns.history[m]) > 1e-12) {
        collapsed = false;
        break;
      }
    }
    if (collapsed) {
      ++pending_.history_collapse;
      if (options_.log_events) {
        Event("history_collapse")
            .Str(options_.scope_label, options_.scope)
            .Num("round", round_index)
            .LogAt(LogLevel::kWarn);
      }
    }
  }

  if (options_.exclusion_streak_alert != 0) {
    if (exclusion_streaks_.size() != columns.excluded.size()) {
      exclusion_streaks_.assign(columns.excluded.size(), 0);  // warm-up
    }
    for (size_t m = 0; m < columns.excluded.size(); ++m) {
      if (columns.excluded[m] != 0) {
        if (++exclusion_streaks_[m] == options_.exclusion_streak_alert &&
            options_.log_events) {
          Event("sensor_excluded_streak")
              .Str(options_.scope_label, options_.scope)
              .Num("module", m)
              .Num("rounds", uint64_t{options_.exclusion_streak_alert})
              .Num("round", round_index)
              .LogAt(LogLevel::kWarn);
        }
      } else {
        exclusion_streaks_[m] = 0;
      }
    }
  }

  if (sampling_round_) {
    round_latency_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             round_start_)
            .count()));
    sampling_round_ = false;
  }
  // Schedule the next sampled round: raise the engine-side gate exactly
  // when the next round should be timed (OnRoundBegin takes it from
  // there).  In between, the engine dispatches only this hook.
  stage_hooks_enabled_ = options_.sample_every != 0 &&
                         ++rounds_since_sample_ >= options_.sample_every;
  if (stage_hooks_enabled_) rounds_since_sample_ = 0;
  if (++rounds_since_flush_ >= options_.flush_every) Flush();
}

}  // namespace avoc::obs
