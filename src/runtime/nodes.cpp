#include "runtime/nodes.h"

#include <algorithm>

#include "core/batch.h"
#include "util/log.h"

namespace avoc::runtime {

HubNode::HubNode(size_t module_count, size_t close_at_count,
                 HubTelemetry telemetry)
    : module_count_(module_count),
      close_at_count_(close_at_count == 0
                          ? module_count
                          : std::min(close_at_count, module_count)),
      telemetry_(telemetry) {}

BatchIngestStats HubNode::IngestBatch(
    std::span<const ReadingMessage> readings, std::vector<size_t>& rounds,
    data::RoundTable& table) {
  BatchIngestStats stats;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const ReadingMessage& message : readings) {
    if (message.module >= module_count_) {
      ++stats.rejected;
      continue;
    }
    if (closed_.count(message.round)) {
      ++stats.late;
      if (telemetry_.late_readings != nullptr) {
        telemetry_.late_readings->Increment();
      }
      continue;
    }
    ++stats.accepted;
    auto it = pending_.try_emplace(message.round).first;
    core::Round& pending = it->second;
    if (pending.empty()) pending.resize(module_count_);
    pending[message.module] = message.value;
    size_t present = 0;
    for (const auto& reading : pending) {
      if (reading.has_value()) ++present;
    }
    if (present < close_at_count_) continue;
    core::Round complete = std::move(pending);
    pending_.erase(it);
    CloseLocked(message.round, std::move(complete), rounds, table);
    ++stats.rounds_closed;
  }
  if (telemetry_.readings != nullptr && stats.accepted > 0) {
    telemetry_.readings->Add(static_cast<uint64_t>(stats.accepted));
  }
  if (telemetry_.open_rounds != nullptr) {
    telemetry_.open_rounds->Set(static_cast<double>(pending_.size()));
  }
  return stats;
}

bool HubNode::Close(size_t round, std::vector<size_t>& rounds,
                    data::RoundTable& table) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_.count(round)) return false;
  core::Round readings;
  if (auto it = pending_.find(round); it != pending_.end()) {
    readings = std::move(it->second);
    pending_.erase(it);
  } else {
    readings.resize(module_count_);
  }
  CloseLocked(round, std::move(readings), rounds, table);
  return true;
}

void HubNode::CloseLocked(size_t round, core::Round readings,
                          std::vector<size_t>& rounds,
                          data::RoundTable& table) {
  (void)table.AppendRound(std::move(readings));
  rounds.push_back(round);
  closed_[round] = true;
  if (telemetry_.rounds_closed != nullptr) telemetry_.rounds_closed->Increment();
  if (telemetry_.open_rounds != nullptr) {
    telemetry_.open_rounds->Set(static_cast<double>(pending_.size()));
  }
  if (telemetry_.last_closed_round != nullptr) {
    telemetry_.last_closed_round->Set(static_cast<double>(round));
  }
}

size_t HubNode::open_rounds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

HubNode::State HubNode::ExportState() const {
  std::lock_guard<std::mutex> lock(mutex_);
  State state;
  state.pending.reserve(pending_.size());
  for (const auto& [round, readings] : pending_) {
    state.pending.emplace_back(static_cast<uint64_t>(round), readings);
  }
  state.closed_rounds.reserve(closed_.size());
  for (const auto& [round, flag] : closed_) {
    if (flag) state.closed_rounds.push_back(static_cast<uint64_t>(round));
  }
  return state;
}

void HubNode::RestoreState(const State& state) {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.clear();
  closed_.clear();
  for (const auto& [round, readings] : state.pending) {
    core::Round copy = readings;
    copy.resize(module_count_);
    pending_[static_cast<size_t>(round)] = std::move(copy);
  }
  for (const uint64_t round : state.closed_rounds) {
    closed_[static_cast<size_t>(round)] = true;
  }
  if (telemetry_.open_rounds != nullptr) {
    telemetry_.open_rounds->Set(static_cast<double>(pending_.size()));
  }
}

VoterNode::VoterNode(core::VotingEngine engine, VoterOptions options)
    : engine_(std::move(engine)), options_(std::move(options)) {
  if (options_.store != nullptr) {
    // Restore learned history from the datastore, if present.
    auto snapshot = options_.store->Get(options_.group);
    if (snapshot.ok() &&
        snapshot->records.size() == engine_.module_count()) {
      const Status restored =
          engine_.RestoreHistory(snapshot->records, snapshot->rounds);
      if (!restored.ok()) {
        AVOC_LOG_WARN("voter '%s': history restore failed: %s",
                      options_.group.c_str(),
                      restored.ToString().c_str());
      }
    }
  }
}

void VoterNode::Vote(std::span<const size_t> rounds,
                     const data::RoundTable& table, SinkNode& sink) {
  // One lock acquisition, one columnar engine call, one history persist
  // for the whole pass.  The sink appends under this lock because it
  // copies out of batch_trace_, which the next pass reuses.
  std::lock_guard<std::mutex> lock(mutex_);
  batch_trace_.Reset(engine_.module_count());
  batch_trace_.ReserveRounds(table.round_count());
  const Status status = core::RunOverTable(engine_, table, batch_trace_);
  if (!status.ok()) {
    last_status_ = status;
    AVOC_LOG_ERROR("voter '%s': pass of %zu rounds failed: %s",
                   options_.group.c_str(), table.round_count(),
                   status.ToString().c_str());
    return;
  }
  PersistHistoryLocked();
  sink.Append(rounds, batch_trace_.view());
}

void VoterNode::PersistHistoryLocked() {
  if (options_.store != nullptr) {
    HistorySnapshot snapshot;
    const auto records = engine_.history().records();
    snapshot.records.assign(records.begin(), records.end());
    snapshot.rounds = engine_.history().round_count();
    last_status_ = options_.store->Put(options_.group, snapshot);
  } else {
    last_status_ = Status::Ok();
  }
}

Status VoterNode::last_status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_status_;
}

core::VotingEngine::State VoterNode::ExportEngineState() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_.ExportState();
}

Status VoterNode::RestoreEngineState(const core::VotingEngine::State& state) {
  std::lock_guard<std::mutex> lock(mutex_);
  AVOC_RETURN_IF_ERROR(engine_.RestoreState(state));
  PersistHistoryLocked();
  return last_status_;
}

SinkNode::SinkNode(SinkTelemetry telemetry,
                   storage::TraceBackend* trace_store, std::string group)
    : telemetry_(telemetry),
      trace_store_(trace_store),
      group_(std::move(group)) {}

void SinkNode::Append(std::span<const size_t> rounds, core::TraceView trace) {
  const size_t count = trace.round_count();
  if (count == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  // Column-to-column copy out of the borrowed view.
  for (size_t i = 0; i < count; ++i) {
    trace_.AppendFrom(trace, i);
    rounds_.push_back(rounds[i]);
  }
  const size_t last_round =
      *std::max_element(rounds.begin(), rounds.begin() + count);
  NoteAppendedLocked(last_round, count);
  PersistAppendedLocked(count);
}

void SinkNode::PersistAppendedLocked(size_t appended) {
  if (trace_store_ == nullptr || appended == 0) return;
  // Build the points from the rows just stored, not the input: what the
  // backend holds is then bit-identical to this trace by construction.
  std::vector<storage::TracePoint> points;
  points.reserve(appended);
  for (size_t i = rounds_.size() - appended; i < rounds_.size(); ++i) {
    const std::optional<double> value = trace_.output(i);
    points.push_back(storage::TracePoint{rounds_[i], value.value_or(0.0),
                                         value.has_value()});
  }
  const Status persisted = trace_store_->AppendTrace(group_, points);
  if (!persisted.ok()) {
    AVOC_LOG_WARN("sink '%s': trace persist failed: %s", group_.c_str(),
                  persisted.ToString().c_str());
  }
}

void SinkNode::NoteAppendedLocked(size_t last_round, size_t appended) {
  if (telemetry_.outputs != nullptr) {
    telemetry_.outputs->Add(static_cast<uint64_t>(appended));
  }
  if (telemetry_.last_round != nullptr) {
    telemetry_.last_round->Set(static_cast<double>(last_round));
  }
  if (telemetry_.lag_rounds != nullptr) {
    // Round numbers start at 0, so last_round + 1 rounds were dispatched
    // up to here; anything this sink has not recorded was lost upstream.
    const double dispatched = static_cast<double>(last_round) + 1.0;
    telemetry_.lag_rounds->Set(
        std::max(0.0, dispatched - static_cast<double>(rounds_.size())));
  }
}

std::vector<OutputMessage> SinkNode::outputs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<OutputMessage> out;
  out.reserve(rounds_.size());
  for (size_t i = 0; i < rounds_.size(); ++i) {
    out.push_back(OutputMessage{rounds_[i], trace_.MaterializeRound(i)});
  }
  return out;
}

size_t SinkNode::output_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rounds_.size();
}

void SinkNode::RestoreOutputs(std::span<const OutputMessage> restored) {
  if (restored.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const OutputMessage& message : restored) {
    trace_.Append(message.result);
    rounds_.push_back(message.round);
  }
  NoteAppendedLocked(restored.back().round, restored.size());
  PersistAppendedLocked(restored.size());
}

std::optional<double> SinkNode::last_value() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = rounds_.size(); i-- > 0;) {
    const auto value = trace_.output(i);
    if (value.has_value()) return value;
  }
  return std::nullopt;
}

}  // namespace avoc::runtime
