#include "runtime/group_runner.h"

#include "util/strings.h"

namespace avoc::runtime {

GroupRunner::GroupRunner(std::vector<Generator> generators,
                         core::VotingEngine engine, Options options)
    : options_(std::move(options)), generators_(std::move(generators)) {
  HubTelemetry hub_telemetry;
  SinkTelemetry sink_telemetry;
  if (options_.registry != nullptr) {
    obs::Registry& reg = *options_.registry;
    const std::string& g = options_.group;
    auto counter = [&](std::string_view family) {
      return &reg.GetCounter(obs::LabeledName(family, {{"group", g}}));
    };
    auto gauge = [&](std::string_view family) {
      return &reg.GetGauge(obs::LabeledName(family, {{"group", g}}));
    };
    hub_telemetry.readings = counter("avoc_hub_readings_total");
    hub_telemetry.late_readings = counter("avoc_hub_late_readings_total");
    hub_telemetry.rounds_closed = counter("avoc_hub_rounds_closed_total");
    hub_telemetry.open_rounds = gauge("avoc_hub_open_rounds");
    hub_telemetry.last_closed_round = gauge("avoc_hub_last_closed_round");
    hub_telemetry.closed_runs = gauge("avoc_hub_closed_runs");
    sink_telemetry.outputs = counter("avoc_sink_outputs_total");
    sink_telemetry.last_round = gauge("avoc_sink_last_round");
    sink_telemetry.lag_rounds = gauge("avoc_sink_lag_rounds");
    sink_telemetry.rows = gauge("avoc_sink_rows");
    sink_telemetry.detail_rows = gauge("avoc_sink_detail_rows");

    obs::MetricsObserverOptions observer_options;
    observer_options.scope = options_.group;
    observer_options.scope_label = "group";
    observer_options.sample_every = options_.metrics_sample_every;
    // Live rounds tick at millisecond cadence; flushing every round keeps
    // scrapes exact for negligible cost.
    observer_options.flush_every = 1;
    observer_options.exclusion_streak_alert = options_.exclusion_streak_alert;
    observer_options.tracer = options_.tracer;
    observer_ = std::make_unique<obs::MetricsObserver>(
        reg, std::move(observer_options));
    // Passes run under the group lock, satisfying the observer's
    // one-scope threading contract.
    engine.set_observer(observer_.get());
  }
  pass_table_ = data::RoundTable::WithModuleCount(engine.module_count());
  hub_ = std::make_unique<HubNode>(engine.module_count(),
                                   options_.hub_close_at_count, hub_telemetry);
  VoterOptions voter_options;
  voter_options.group = options_.group;
  voter_options.store = options_.store;
  voter_ = std::make_unique<VoterNode>(std::move(engine),
                                       std::move(voter_options));
  sink_ = std::make_unique<SinkNode>(sink_telemetry, options_.trace_store,
                                     options_.group, &mutex_);
}

Result<std::unique_ptr<GroupRunner>> GroupRunner::Create(
    core::VotingEngine engine, Options options) {
  if (options.group.empty()) {
    return InvalidArgumentError("group name must not be empty");
  }
  return std::unique_ptr<GroupRunner>(
      new GroupRunner({}, std::move(engine), std::move(options)));
}

Result<std::unique_ptr<GroupRunner>> GroupRunner::WithGenerators(
    std::vector<Generator> generators, core::VotingEngine engine,
    Options options) {
  if (generators.size() != engine.module_count()) {
    return InvalidArgumentError("generator/engine module count mismatch");
  }
  if (generators.empty()) {
    return InvalidArgumentError("pipeline needs at least one sensor");
  }
  if (options.group.empty()) {
    return InvalidArgumentError("group name must not be empty");
  }
  return std::unique_ptr<GroupRunner>(new GroupRunner(
      std::move(generators), std::move(engine), std::move(options)));
}

Result<std::unique_ptr<GroupRunner>> GroupRunner::FromTable(
    const data::RoundTable& table, core::VotingEngine engine,
    Options options) {
  // Copy the table into a shared replay buffer the generators index into.
  auto shared = std::make_shared<data::RoundTable>(table);
  std::vector<Generator> generators;
  generators.reserve(table.module_count());
  for (size_t m = 0; m < table.module_count(); ++m) {
    generators.push_back(
        [shared, m](size_t round) -> std::optional<double> {
          if (round >= shared->round_count()) return std::nullopt;
          return shared->At(round, m);
        });
  }
  return WithGenerators(std::move(generators), std::move(engine),
                        std::move(options));
}

void GroupRunner::RunRound(size_t round) {
  std::vector<ReadingMessage> readings;
  readings.reserve(generators_.size());
  for (size_t m = 0; m < generators_.size(); ++m) {
    if (const std::optional<double> value = generators_[m](round)) {
      readings.push_back(ReadingMessage{m, round, *value});
    }
  }
  // Timeout stand-in: whatever has not arrived by now is missing.
  Pass(readings, round);
}

std::vector<std::thread> GroupRunner::EmitAsync(size_t round) {
  std::vector<std::thread> workers;
  workers.reserve(generators_.size());
  for (size_t m = 0; m < generators_.size(); ++m) {
    workers.emplace_back([this, m, round] {
      if (const std::optional<double> value = generators_[m](round)) {
        const ReadingMessage reading{m, round, *value};
        SubmitBatch({&reading, 1});
      }
    });
  }
  return workers;
}

Status GroupRunner::Submit(size_t module, size_t round, double value) {
  if (module >= hub_->module_count()) {
    return OutOfRangeError("module index out of range for group '" +
                           options_.group + "'");
  }
  const ReadingMessage reading{module, round, value};
  SubmitBatch({&reading, 1});
  return Status::Ok();
}

BatchIngestStats GroupRunner::SubmitBatch(
    std::span<const ReadingMessage> readings) {
  return Pass(readings, std::nullopt);
}

void GroupRunner::FlushRound(size_t round) { Pass({}, round); }

BatchIngestStats GroupRunner::Pass(std::span<const ReadingMessage> readings,
                                   std::optional<size_t> close) {
  // Parent the engine span to whatever span is current on this thread
  // (the server verb span when reached over the wire).
  obs::SpanContext parent;
  if (options_.tracer != nullptr) {
    if (const obs::CurrentSpan current = obs::CurrentTraceSpan();
        current.tracer == options_.tracer) {
      parent = current.context;
    }
  }
  obs::ScopedSpan span(options_.tracer, obs::SpanKind::kEngine,
                       "engine.batch", parent);
  BatchIngestStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pass_rounds_.clear();
    pass_table_.Clear();
    stats = hub_->IngestBatch(readings, pass_rounds_, pass_table_);
    if (close.has_value() && hub_->Close(*close, pass_rounds_, pass_table_)) {
      ++stats.rounds_closed;
    }
    if (!pass_rounds_.empty()) voter_->Vote(pass_rounds_, pass_table_, *sink_);
  }
  if (span.active()) {
    span.SetDetailF("group=%s readings=%zu rounds=%zu",
                    options_.group.c_str(), readings.size(),
                    stats.rounds_closed);
  }
  return stats;
}

void GroupRunner::ExportState(
    const std::function<void(const State&)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  State state;
  state.engine = voter_->ExportEngineState();
  state.hub = hub_->ExportState();
  state.sink_trace = sink_->trace_.view();
  state.sink_rounds = sink_->rounds_;
  fn(state);
}

Status GroupRunner::CheckSinkRows(const State& state, size_t module_count) {
  const core::TraceView& trace = state.sink_trace;
  if (state.sink_rounds.size() != trace.round_count()) {
    return InvalidArgumentError(
        StrFormat("sink state has %zu rounds for %zu trace rows",
                  state.sink_rounds.size(), trace.round_count()));
  }
  if (trace.detail_base() > trace.round_count()) {
    return InvalidArgumentError(
        StrFormat("sink state has detail base %zu past its %zu rows",
                  trace.detail_base(), trace.round_count()));
  }
  if (!trace.empty() && trace.module_count() != module_count) {
    return InvalidArgumentError(
        StrFormat("sink state rows have %zu modules, the group has %zu",
                  trace.module_count(), module_count));
  }
  return Status::Ok();
}

Status GroupRunner::RestoreState(const State& state) {
  AVOC_RETURN_IF_ERROR(CheckSinkRows(state, module_count()));
  std::lock_guard<std::mutex> lock(mutex_);
  AVOC_RETURN_IF_ERROR(voter_->RestoreEngineState(state.engine));
  hub_->RestoreState(state.hub);
  sink_->Append(state.sink_rounds, state.sink_trace);
  return Status::Ok();
}

}  // namespace avoc::runtime
