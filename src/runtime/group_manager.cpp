#include "runtime/group_manager.h"

#include "vdx/factory.h"

namespace avoc::runtime {

VoterGroupManager::VoterGroupManager(storage::HistoryBackend* store,
                                     obs::Registry* registry,
                                     storage::TraceBackend* trace_store,
                                     obs::Tracer* tracer)
    : store_(store),
      registry_(registry),
      trace_store_(trace_store),
      tracer_(tracer) {}

Status VoterGroupManager::AddGroup(const std::string& name,
                                   core::VotingEngine engine) {
  if (name.empty()) return InvalidArgumentError("group name must not be empty");
  if (groups_.count(name)) {
    return InvalidArgumentError("group '" + name + "' already exists");
  }
  GroupRunner::Options options;
  options.group = name;
  options.store = store_;
  options.trace_store = trace_store_;
  options.registry = registry_;
  options.tracer = tracer_;
  AVOC_ASSIGN_OR_RETURN(
      std::unique_ptr<GroupRunner> runner,
      GroupRunner::Create(std::move(engine), std::move(options)));
  groups_.emplace(name, std::move(runner));
  return Status::Ok();
}

Status VoterGroupManager::AddGroupFromSpec(const std::string& name,
                                           const vdx::Spec& spec,
                                           size_t modules) {
  AVOC_ASSIGN_OR_RETURN(core::VotingEngine engine,
                        vdx::MakeVoter(spec, modules));
  return AddGroup(name, std::move(engine));
}

bool VoterGroupManager::HasGroup(const std::string& name) const {
  return groups_.count(name) > 0;
}

std::vector<std::string> VoterGroupManager::GroupNames() const {
  std::vector<std::string> names;
  names.reserve(groups_.size());
  for (const auto& [name, runner] : groups_) {
    (void)runner;
    names.push_back(name);
  }
  return names;
}

Status VoterGroupManager::RemoveGroup(const std::string& name) {
  auto it = groups_.find(name);
  if (it == groups_.end()) {
    return NotFoundError("no voter group named '" + name + "'");
  }
  groups_.erase(it);
  return Status::Ok();
}

Status VoterGroupManager::ExportGroupState(
    const std::string& name,
    const std::function<void(const GroupRunner::State&)>& fn) const {
  AVOC_ASSIGN_OR_RETURN(GroupRunner * runner, Find(name));
  runner->ExportState(fn);
  return Status::Ok();
}

Status VoterGroupManager::RestoreGroupState(const std::string& name,
                                            const GroupRunner::State& state) {
  AVOC_ASSIGN_OR_RETURN(GroupRunner * runner, Find(name));
  return runner->RestoreState(state);
}

Result<GroupRunner*> VoterGroupManager::Find(const std::string& name) const {
  auto it = groups_.find(name);
  if (it == groups_.end()) {
    return NotFoundError("no voter group named '" + name + "'");
  }
  return it->second.get();
}

Status VoterGroupManager::Submit(const std::string& group, size_t module,
                                 size_t round, double value) {
  AVOC_ASSIGN_OR_RETURN(GroupRunner * runner, Find(group));
  return runner->Submit(module, round, value);
}

Result<BatchIngestStats> VoterGroupManager::SubmitBatch(
    const std::string& group, std::span<const ReadingMessage> readings) {
  AVOC_ASSIGN_OR_RETURN(GroupRunner * runner, Find(group));
  return runner->SubmitBatch(readings);
}

Status VoterGroupManager::CloseRound(const std::string& group, size_t round) {
  AVOC_ASSIGN_OR_RETURN(GroupRunner * runner, Find(group));
  runner->FlushRound(round);
  return Status::Ok();
}

void VoterGroupManager::CloseRoundAll(size_t round) {
  for (auto& [name, runner] : groups_) {
    (void)name;
    runner->FlushRound(round);
  }
}

Result<const SinkNode*> VoterGroupManager::sink(
    const std::string& group) const {
  AVOC_ASSIGN_OR_RETURN(GroupRunner * runner, Find(group));
  return &runner->sink();
}

Result<const VoterNode*> VoterGroupManager::voter(
    const std::string& group) const {
  AVOC_ASSIGN_OR_RETURN(GroupRunner * runner, Find(group));
  return &runner->voter();
}

Result<const GroupRunner*> VoterGroupManager::runner(
    const std::string& group) const {
  AVOC_ASSIGN_OR_RETURN(GroupRunner * found, Find(group));
  return found;
}

}  // namespace avoc::runtime
