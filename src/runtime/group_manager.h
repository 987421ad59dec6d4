// Multi-group voter management.
//
// Real deployments fuse several logical sensors at once — UC-2 alone runs
// two beacon stacks, and the paper's smart-shopping motivation has one
// voter group per shelf.  VoterGroupManager owns one externally-fed
// GroupRunner per named group, routes submitted readings to the right
// hub, and closes rounds per group or across all groups.  Groups can be
// instantiated directly from VDX specs, which is the paper's "voter
// service running on an edge node" picture: applications ship definitions,
// the service manages the voters.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "runtime/group_runner.h"
#include "vdx/spec.h"

namespace avoc::runtime {

class VoterGroupManager {
 public:
  /// `store` (optional) persists every group's history under its name;
  /// `registry` (optional) instruments every group with group-labeled
  /// metrics; `trace_store` (optional) persists every group's vote trace
  /// (the QUERY_RANGE feed); `tracer` (optional) records engine-stage
  /// spans into the flight recorder (obs/trace.h).  All must outlive the
  /// manager.
  explicit VoterGroupManager(storage::HistoryBackend* store = nullptr,
                             obs::Registry* registry = nullptr,
                             storage::TraceBackend* trace_store = nullptr,
                             obs::Tracer* tracer = nullptr);

  /// Registers a group with a ready engine.  Fails on duplicate names.
  Status AddGroup(const std::string& name, core::VotingEngine engine);

  /// Registers a group from a VDX definition.
  Status AddGroupFromSpec(const std::string& name, const vdx::Spec& spec,
                          size_t modules);

  bool HasGroup(const std::string& name) const;
  std::vector<std::string> GroupNames() const;
  size_t group_count() const { return groups_.size(); }

  /// Unregisters a group (the migration handoff's source side).  Purely
  /// in-memory: persisted history/trace rows stay put — each node owns
  /// its own backends, and the exported state already carries the data.
  /// NotFound when absent.
  Status RemoveGroup(const std::string& name);

  /// Calls `fn` with the full pipeline state of one group (see
  /// GroupRunner::ExportState); NotFound when absent.
  Status ExportGroupState(
      const std::string& name,
      const std::function<void(const GroupRunner::State&)>& fn) const;

  /// Installs migrated state into a freshly added group.
  Status RestoreGroupState(const std::string& name,
                           const GroupRunner::State& state);

  /// Routes one reading into the group's hub.  The round closes on its
  /// own once every module reported.
  Status Submit(const std::string& group, size_t module, size_t round,
                double value);

  /// Routes a whole frame of readings into the group's hub under one
  /// lock; completed rounds are voted in one columnar engine call.
  Result<BatchIngestStats> SubmitBatch(
      const std::string& group, std::span<const ReadingMessage> readings);

  /// Force-closes `round` in one group (absent modules become missing).
  Status CloseRound(const std::string& group, size_t round);

  /// Force-closes `round` in every group.
  void CloseRoundAll(size_t round);

  /// The group's output sink.
  Result<const SinkNode*> sink(const std::string& group) const;

  /// The group's voter (history inspection).
  Result<const VoterNode*> voter(const std::string& group) const;

  /// The whole runner (health/metrics introspection).
  Result<const GroupRunner*> runner(const std::string& group) const;

  /// The telemetry registry, or nullptr when metrics are disabled.
  obs::Registry* registry() const { return registry_; }

  /// The trace backend, or nullptr when traces are not persisted.
  storage::TraceBackend* trace_store() const { return trace_store_; }

  /// The flight-recorder tracer, or nullptr when tracing is disabled.
  obs::Tracer* tracer() const { return tracer_; }

 private:
  Result<GroupRunner*> Find(const std::string& name) const;

  storage::HistoryBackend* store_;
  obs::Registry* registry_;
  storage::TraceBackend* trace_store_;
  obs::Tracer* tracer_;
  std::map<std::string, std::unique_ptr<GroupRunner>> groups_;
};

}  // namespace avoc::runtime
