// GroupRunner: the one driver behind every execution mode.
//
// GroupRunner owns one voter group's hub → voter → sink chain and every
// round goes through one private engine pass: hub assembly into a
// columnar table, then one voter call that votes that table straight
// into the sink.  It exposes the three ways a round can be dispatched:
//
//   * RunRound    — synchronous emit-then-close (deterministic replay),
//   * EmitAsync + FlushRound — per-sensor worker threads with a
//     caller-controlled timeout (soft real-time service),
//   * Submit + FlushRound    — externally-fed readings (group manager,
//     TCP voter service).
//
// The runner is the one owner of its group's concurrency: one group
// mutex, under which every pass, ExportState and RestoreState runs whole,
// and which the sink's readers take.  The nodes hold no locks of their
// own.  A new execution mode (sharded batch, remote shard, ...) starts
// here instead of re-wiring nodes.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "data/round_table.h"
#include "obs/stage_metrics.h"
#include "obs/trace.h"
#include "runtime/nodes.h"
#include "util/status.h"

namespace avoc::runtime {

/// Produces one module's reading for a round, or nullopt when the sensor
/// had nothing to report.
using Generator = std::function<std::optional<double>(size_t round)>;

/// GroupRunnerOptions configuration.
struct GroupRunnerOptions {
  /// Group name: store key and log tag.
  std::string group = "default";
  /// Persist/restore voter history through this backend (optional).
  storage::HistoryBackend* store = nullptr;
  /// Persist every sink row as a trace point under `group` (optional);
  /// the durable feed behind QUERY_RANGE.
  storage::TraceBackend* trace_store = nullptr;
  /// Hub UNTIL-quorum: close a round once this many readings arrived
  /// (0 = close when every module reported or the round is flushed).
  size_t hub_close_at_count = 0;
  /// Telemetry registry (optional).  When set, the runner attaches an
  /// obs::MetricsObserver to the voter and instruments the hub and sink;
  /// all metrics are labeled group="<group>".  The registry must outlive
  /// the runner.
  obs::Registry* registry = nullptr;
  /// Stage/round latency sampling period for the metrics observer.
  size_t metrics_sample_every = 16;
  /// Exclusion-streak alert threshold (0 = off); see MetricsObserverOptions.
  size_t exclusion_streak_alert = 0;
  /// Flight-recorder tracer (optional).  Every engine pass (RunRound,
  /// Submit, SubmitBatch, FlushRound) runs in an "engine.batch" span
  /// parented to the caller's current span, and sampled rounds emit
  /// per-stage events.
  obs::Tracer* tracer = nullptr;
};

class GroupRunner {
 public:
  using Options = GroupRunnerOptions;

  /// Externally-fed group: no generators, readings arrive via Submit.
  static Result<std::unique_ptr<GroupRunner>> Create(
      core::VotingEngine engine, Options options = {});

  /// Sensor-driven group: one generator per module.
  static Result<std::unique_ptr<GroupRunner>> WithGenerators(
      std::vector<Generator> generators,
      core::VotingEngine engine, Options options = {});

  /// Replays a recorded table; rounds beyond the table produce only
  /// missing values.
  static Result<std::unique_ptr<GroupRunner>> FromTable(
      const data::RoundTable& table, core::VotingEngine engine,
      Options options = {});

  GroupRunner(const GroupRunner&) = delete;
  GroupRunner& operator=(const GroupRunner&) = delete;

  // --- Round dispatch -------------------------------------------------------

  /// Synchronous round: every generator is sampled in module order, then
  /// the round closes (silent sensors become missing values) — one engine
  /// pass per round.
  void RunRound(size_t round);

  /// Concurrent round: every generator is sampled on its own short-lived
  /// worker, which submits its reading, so a slow sensor cannot stall the
  /// others.  The caller closes the round (FlushRound) at its timeout,
  /// then joins the returned workers; a reading that loses the race is
  /// dropped against the closed round.
  std::vector<std::thread> EmitAsync(size_t round);

  /// SubmitBatch of one reading.  The round closes on its own once every
  /// module (or the UNTIL count) reported; an out-of-range module is an
  /// OutOfRange error.
  Status Submit(size_t module, size_t round, double value);

  /// Routes many readings into the hub under one lock; every round the
  /// batch completes is voted in ONE columnar engine call (the framed
  /// remote path).  Bad readings are counted in the stats, not fatal.
  BatchIngestStats SubmitBatch(std::span<const ReadingMessage> readings);

  /// Force-closes `round`: whatever has not arrived is missing.  No-op
  /// when the round was already closed.
  void FlushRound(size_t round);

  // --- Migration ------------------------------------------------------------

  /// The whole mutable pipeline state, for handing this group to another
  /// node: engine accumulators, hub assembly state, and the sink rows
  /// (row i of sink_trace is round sink_rounds[i]).  The sink rows are
  /// views, not copies: of the live sink while ExportState's callback
  /// runs, of the decoded blob on import.  A restored runner votes
  /// bit-identically to the exporter; its sink appends the rows through
  /// SinkNode::Append like live ones.
  struct State {
    core::VotingEngine::State engine;
    HubNode::State hub;
    core::TraceView sink_trace;
    std::span<const size_t> sink_rounds;
  };
  /// Calls `fn` with the whole state, one snapshot under the group lock
  /// held for the call, so the sink rows are read in place.  `fn` must
  /// not call back into the runner.
  void ExportState(const std::function<void(const State&)>& fn) const;
  /// Installs `state`; InvalidArgument, restoring nothing, when
  /// CheckSinkRows refuses its sink rows or the engine refuses its
  /// engine state.
  Status RestoreState(const State& state);
  /// The sink rows a group of `module_count` modules can hold: one round
  /// number per row, a detail base within the rows, and rows of
  /// `module_count` modules when there are any.  InvalidArgument
  /// otherwise.
  static Status CheckSinkRows(const State& state, size_t module_count);

  // --- Introspection --------------------------------------------------------

  const std::string& group() const { return options_.group; }
  size_t module_count() const { return hub_->module_count(); }
  size_t sensor_count() const { return generators_.size(); }
  /// The sink's readers take the group lock, so any thread may use it.
  const SinkNode& sink() const { return *sink_; }
  /// Voter and hub reads take no lock: only the thread that runs the
  /// passes (the owning reactor, a test) may make them.
  const VoterNode& voter() const { return *voter_; }
  const HubNode& hub() const { return *hub_; }
  /// The attached metrics observer; nullptr without a registry.
  const obs::MetricsObserver* metrics() const { return observer_.get(); }

 private:
  GroupRunner(std::vector<Generator> generators, core::VotingEngine engine,
              Options options);

  /// The one engine pass, under the group lock: ingests `readings`, then
  /// closes `close` when set, and votes every round that closed in one
  /// voter call.
  BatchIngestStats Pass(std::span<const ReadingMessage> readings,
                        std::optional<size_t> close);

  Options options_;
  /// The group lock; declared before the nodes, whose sink holds its
  /// address.
  mutable std::mutex mutex_;
  /// The pass's output buffers, reused by every pass under mutex_: the
  /// rounds it closed and their table (row i is round pass_rounds_[i]).
  std::vector<size_t> pass_rounds_;
  data::RoundTable pass_table_;
  /// Watches the voter engine; must outlive voter_ (declared first so it
  /// destructs last).  Null without a registry.
  std::unique_ptr<obs::MetricsObserver> observer_;
  std::vector<Generator> generators_;
  std::unique_ptr<HubNode> hub_;
  std::unique_ptr<VoterNode> voter_;
  std::unique_ptr<SinkNode> sink_;
};

}  // namespace avoc::runtime
