#include "runtime/nodes.h"

#include <algorithm>

#include "core/batch.h"
#include "util/log.h"

namespace avoc::runtime {

bool ClosedRounds::Contains(uint64_t round) const {
  if (runs_.empty() || round > runs_.back().last) return false;
  if (round >= runs_.back().first) return true;
  // The first run starting past `round`; its predecessor may hold it.
  const auto next = std::upper_bound(
      runs_.begin(), runs_.end(), round,
      [](uint64_t r, const Run& run) { return r < run.first; });
  return next != runs_.begin() && std::prev(next)->last >= round;
}

bool ClosedRounds::Insert(uint64_t round) {
  if (runs_.empty() || round > runs_.back().last) {
    // In-order close: extend the last run (last < round, so last + 1
    // cannot wrap).
    if (!runs_.empty() && runs_.back().last + 1 == round) {
      runs_.back().last = round;
    } else {
      runs_.push_back(Run{round, round});
    }
    return true;
  }
  const auto next = std::upper_bound(
      runs_.begin(), runs_.end(), round,
      [](uint64_t r, const Run& run) { return r < run.first; });
  const bool has_prev = next != runs_.begin();
  if (has_prev && std::prev(next)->last >= round) return false;
  // prev->last < round < next->first: neither +1 below can wrap.
  const bool joins_prev = has_prev && std::prev(next)->last + 1 == round;
  const bool joins_next = next != runs_.end() && round + 1 == next->first;
  if (joins_prev && joins_next) {
    std::prev(next)->last = next->last;
    runs_.erase(next);
  } else if (joins_prev) {
    std::prev(next)->last = round;
  } else if (joins_next) {
    next->first = round;
  } else {
    runs_.insert(next, Run{round, round});
  }
  return true;
}

bool ClosedRounds::AppendRun(uint64_t first, uint64_t last) {
  if (first > last) return false;
  // back().last + 1 would wrap when the last run ends at 2^64-1.
  if (!runs_.empty() && (runs_.back().last == UINT64_MAX ||
                         first <= runs_.back().last + 1)) {
    return false;
  }
  runs_.push_back(Run{first, last});
  return true;
}

HubNode::HubNode(size_t module_count, size_t close_at_count,
                 HubTelemetry telemetry)
    : module_count_(module_count),
      close_at_count_(close_at_count == 0
                          ? module_count
                          : std::min(close_at_count, module_count)),
      telemetry_(telemetry) {}

std::vector<HubNode::OpenRound>::iterator HubNode::OpenLowerBound(
    size_t round) {
  // Rounds usually open in ascending order: past the last, no search.
  if (open_.empty() || round > open_.back().round) return open_.end();
  return std::lower_bound(
      open_.begin(), open_.end(), round,
      [](const OpenRound& open, size_t r) { return open.round < r; });
}

size_t HubNode::AcquireSlot() {
  if (!free_slots_.empty()) {
    const size_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const size_t slot = present_counts_.size();
  present_counts_.push_back(0);
  values_.resize(values_.size() + module_count_);
  present_.resize(present_.size() + module_count_, 0);
  return slot;
}

void HubNode::ReleaseSlot(size_t slot) {
  std::fill_n(present_.begin() + static_cast<ptrdiff_t>(slot * module_count_),
              module_count_, uint8_t{0});
  present_counts_[slot] = 0;
  free_slots_.push_back(slot);
  if (cached_slot_ == slot) cached_slot_ = kNoSlot;
}

size_t HubNode::OpenSlot(size_t round) {
  auto it = OpenLowerBound(round);
  if (it == open_.end() || it->round != round) {
    it = open_.insert(it, OpenRound{round, AcquireSlot()});
  }
  cached_round_ = round;
  cached_slot_ = it->slot;
  return it->slot;
}

void HubNode::CloseSlot(size_t round, size_t slot,
                        std::vector<size_t>& rounds,
                        data::RoundTable& table) {
  const size_t offset = slot * module_count_;
  (void)table.AppendRound(
      std::span<const double>(values_).subspan(offset, module_count_),
      std::span<const uint8_t>(present_).subspan(offset, module_count_));
  rounds.push_back(round);
  closed_.Insert(round);
  ReleaseSlot(slot);
}

BatchIngestStats HubNode::IngestBatch(
    std::span<const ReadingMessage> readings, std::vector<size_t>& rounds,
    data::RoundTable& table) {
  BatchIngestStats stats;
  for (const ReadingMessage& reading : readings) {
    if (reading.module >= module_count_) {
      ++stats.rejected;
      continue;
    }
    const size_t round = static_cast<size_t>(reading.round);
    size_t slot = cached_slot_;
    if (slot == kNoSlot || round != cached_round_) {
      if (closed_.Contains(round)) {
        ++stats.late;
        continue;
      }
      slot = OpenSlot(round);
    }
    ++stats.accepted;
    const size_t cell = slot * module_count_ + reading.module;
    values_[cell] = reading.value;
    if (present_[cell] == 0) {
      present_[cell] = 1;
      ++present_counts_[slot];
    }
    if (present_counts_[slot] < close_at_count_) continue;
    open_.erase(OpenLowerBound(round));
    CloseSlot(round, slot, rounds, table);
    ++stats.rounds_closed;
  }
  if (telemetry_.readings != nullptr && stats.accepted > 0) {
    telemetry_.readings->Add(static_cast<uint64_t>(stats.accepted));
  }
  if (telemetry_.late_readings != nullptr && stats.late > 0) {
    telemetry_.late_readings->Add(static_cast<uint64_t>(stats.late));
  }
  if (stats.rounds_closed > 0) {
    if (telemetry_.rounds_closed != nullptr) {
      telemetry_.rounds_closed->Add(static_cast<uint64_t>(stats.rounds_closed));
    }
    if (telemetry_.last_closed_round != nullptr) {
      telemetry_.last_closed_round->Set(static_cast<double>(rounds.back()));
    }
    SetClosedRunsGauge();
  }
  if (telemetry_.open_rounds != nullptr) {
    telemetry_.open_rounds->Set(static_cast<double>(open_.size()));
  }
  return stats;
}

bool HubNode::Close(size_t round, std::vector<size_t>& rounds,
                    data::RoundTable& table) {
  if (closed_.Contains(round)) return false;
  if (const auto it = OpenLowerBound(round);
      it != open_.end() && it->round == round) {
    const size_t slot = it->slot;
    open_.erase(it);
    CloseSlot(round, slot, rounds, table);
  } else {
    // Never seen: a fresh row is the all-missing round.
    CloseSlot(round, AcquireSlot(), rounds, table);
  }
  if (telemetry_.rounds_closed != nullptr) telemetry_.rounds_closed->Increment();
  if (telemetry_.open_rounds != nullptr) {
    telemetry_.open_rounds->Set(static_cast<double>(open_.size()));
  }
  if (telemetry_.last_closed_round != nullptr) {
    telemetry_.last_closed_round->Set(static_cast<double>(round));
  }
  SetClosedRunsGauge();
  return true;
}

void HubNode::SetClosedRunsGauge() {
  if (telemetry_.closed_runs != nullptr) {
    telemetry_.closed_runs->Set(static_cast<double>(closed_.run_count()));
  }
}

HubNode::State HubNode::ExportState() const {
  State state;
  state.pending.reserve(open_.size());
  for (const OpenRound& open : open_) {
    core::Round readings(module_count_);
    const size_t offset = open.slot * module_count_;
    for (size_t m = 0; m < module_count_; ++m) {
      if (present_[offset + m] != 0) readings[m] = values_[offset + m];
    }
    state.pending.emplace_back(static_cast<uint64_t>(open.round),
                               std::move(readings));
  }
  state.closed = closed_;
  return state;
}

void HubNode::RestoreState(const State& state) {
  for (const OpenRound& open : open_) ReleaseSlot(open.slot);
  open_.clear();
  for (const auto& [round, readings] : state.pending) {
    // A repeated round keeps its last entry, as the old map insert did.
    const size_t slot = OpenSlot(static_cast<size_t>(round));
    const size_t offset = slot * module_count_;
    size_t present = 0;
    for (size_t m = 0; m < module_count_; ++m) {
      const bool has = m < readings.size() && readings[m].has_value();
      present_[offset + m] = has ? 1 : 0;
      values_[offset + m] = has ? *readings[m] : 0.0;
      present += has ? 1 : 0;
    }
    present_counts_[slot] = present;
  }
  // A restored round may be closed as well; the cache holds only
  // unclosed rounds.
  cached_slot_ = kNoSlot;
  closed_ = state.closed;
  if (telemetry_.open_rounds != nullptr) {
    telemetry_.open_rounds->Set(static_cast<double>(open_.size()));
  }
  SetClosedRunsGauge();
}

VoterNode::VoterNode(core::VotingEngine engine, VoterOptions options)
    : engine_(std::move(engine)), options_(std::move(options)) {
  if (options_.store != nullptr) {
    // Restore the group's persisted state, if present, exactly as a
    // migration restores it.
    auto state = options_.store->Get(options_.group);
    if (state.ok()) {
      const Status restored = engine_.RestoreState(*state);
      if (!restored.ok()) {
        AVOC_LOG_WARN("voter '%s': state restore failed: %s",
                      options_.group.c_str(),
                      restored.ToString().c_str());
      }
    }
  }
}

void VoterNode::Vote(std::span<const size_t> rounds,
                     const data::RoundTable& table, SinkNode& sink) {
  // One columnar engine call straight into the sink's trace, one state
  // persist, then the sink records the rows the engine committed.
  const size_t first_row = sink.trace_.round_count();
  const Status status = core::RunOverTable(engine_, table, sink.trace_);
  if (status.ok()) {
    PersistState();
  } else {
    last_status_ = status;
    AVOC_LOG_ERROR("voter '%s': pass of %zu rounds failed: %s",
                   options_.group.c_str(), table.round_count(),
                   status.ToString().c_str());
  }
  sink.CommitRows(rounds, first_row);
}

void VoterNode::PersistState() {
  if (options_.store != nullptr) {
    engine_.ExportState(persist_state_);
    last_status_ = options_.store->Put(options_.group, persist_state_);
  } else {
    last_status_ = Status::Ok();
  }
}

core::VotingEngine::State VoterNode::ExportEngineState() const {
  core::VotingEngine::State state;
  engine_.ExportState(state);
  return state;
}

Status VoterNode::RestoreEngineState(const core::VotingEngine::State& state) {
  AVOC_RETURN_IF_ERROR(engine_.RestoreState(state));
  PersistState();
  return last_status_;
}

SinkNode::SinkNode(SinkTelemetry telemetry,
                   storage::TraceBackend* trace_store, std::string group,
                   std::mutex* group_mutex)
    : telemetry_(telemetry),
      trace_store_(trace_store),
      group_(std::move(group)),
      group_mutex_(group_mutex) {}

void SinkNode::Append(std::span<const size_t> rounds, core::TraceView trace) {
  const size_t first_row = trace_.round_count();
  // Block copy out of the borrowed view, one per column.
  trace_.AppendRows(trace);
  CommitRows(rounds, first_row);
}

void SinkNode::CommitRows(std::span<const size_t> rounds, size_t first_row) {
  const size_t count = trace_.round_count() - first_row;
  if (count == 0) return;
  rounds_.insert(rounds_.end(), rounds.begin(), rounds.begin() + count);
  const auto [lowest, highest] =
      std::minmax_element(rounds.begin(), rounds.begin() + count);
  first_round_ = std::min(first_round_, *lowest);
  if (telemetry_.outputs != nullptr) {
    telemetry_.outputs->Add(static_cast<uint64_t>(count));
  }
  if (telemetry_.last_round != nullptr) {
    telemetry_.last_round->Set(static_cast<double>(*highest));
  }
  if (telemetry_.lag_rounds != nullptr) {
    // Rounds first_round_..highest were dispatched up to here; any this
    // sink has not recorded was lost upstream.
    const double dispatched = static_cast<double>(*highest - first_round_) + 1.0;
    telemetry_.lag_rounds->Set(
        std::max(0.0, dispatched - static_cast<double>(rounds_.size())));
  }
  // Only a recent window keeps per-module detail; every row keeps its
  // fused series.
  trace_.TrimDetail(core::SinkDetailBase(rounds_.size()));
  if (telemetry_.rows != nullptr) {
    telemetry_.rows->Set(static_cast<double>(rounds_.size()));
  }
  if (telemetry_.detail_rows != nullptr) {
    telemetry_.detail_rows->Set(static_cast<double>(trace_.detail_rows()));
  }
  if (trace_store_ == nullptr) return;
  // Build the points from the rows just stored, not the input: what the
  // backend holds is then bit-identical to this trace by construction.
  const std::span<const double> values = trace_.values();
  const std::span<const uint8_t> engaged = trace_.engaged();
  points_.clear();
  for (size_t i = first_row; i < rounds_.size(); ++i) {
    points_.push_back(storage::TracePoint{
        rounds_[i], engaged[i] != 0 ? values[i] : 0.0, engaged[i] != 0});
  }
  const Status persisted = trace_store_->AppendTrace(group_, points_);
  if (!persisted.ok()) {
    AVOC_LOG_WARN("sink '%s': trace persist failed: %s", group_.c_str(),
                  persisted.ToString().c_str());
  }
}

size_t SinkNode::output_count() const {
  const std::unique_lock<std::mutex> lock = LockGroup();
  return rounds_.size();
}

std::optional<double> SinkNode::last_value() const {
  const std::unique_lock<std::mutex> lock = LockGroup();
  for (size_t i = rounds_.size(); i-- > 0;) {
    const auto value = trace_.output(i);
    if (value.has_value()) return value;
  }
  return std::nullopt;
}

}  // namespace avoc::runtime
