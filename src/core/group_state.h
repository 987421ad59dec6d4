// GroupState: everything a voter group's engine learned, as one flat
// value.
//
// The same struct is the engine's export/restore unit
// (VotingEngine::State), the storage seam's per-group entry
// (storage::HistorySnapshot) and the engine part of a migration blob, so
// a restart restores exactly what a live migration restores.  Every
// per-module vector has the engine's module count.  storage/snapshot.h
// holds its one byte encoding.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/status.h"
#include "util/strings.h"

namespace avoc::core {

struct GroupState {
  /// Per-module reliability records, in [0,1] (§4).
  std::vector<double> records;
  /// Rounds the history ledger absorbed.
  uint64_t rounds = 0;
  /// kCumulativeRatio accumulators: summed agreement and observation
  /// count per module (the Laplace prior is not included).
  std::vector<double> agreement_sums;
  std::vector<uint64_t> observations;
  /// Last accepted output (the revert-to-last fallback), if any.
  std::optional<double> last_output;
  /// Rounds the engine consumed, faulted ones included.
  uint64_t round_index = 0;
};

/// OK when every per-module vector has the records' arity — checked
/// where a state enters a store or an engine (which also compares the
/// arity with its module count).
inline Status ValidateGroupState(const GroupState& state) {
  if (state.agreement_sums.size() != state.records.size() ||
      state.observations.size() != state.records.size()) {
    return InvalidArgumentError(StrFormat(
        "group state arity %zu/%zu/%zu: records, agreement sums and "
        "observations must match",
        state.records.size(), state.agreement_sums.size(),
        state.observations.size()));
  }
  return Status::Ok();
}

/// The records-only upgrade: a state from inputs that persisted only
/// records and a round count (stores and AVSN files of format version 1,
/// the legacy JSON HistoryStore).  Each record is read as the mean
/// agreement over `rounds` observations, the cumulative-ratio
/// accumulators are rebuilt from it, and the last output and round index
/// start empty — the approximation every restart made before the full
/// state was persisted.  Records are kept verbatim (a reader answers
/// what was written); the accumulators see them clamped to [0,1], as
/// does HistoryLedger::ImportFrom.
inline GroupState UpgradeRecordsOnly(std::span<const double> records,
                                     uint64_t rounds) {
  GroupState state;
  state.records.assign(records.begin(), records.end());
  state.rounds = rounds;
  state.observations.assign(records.size(), rounds);
  state.agreement_sums.reserve(records.size());
  for (const double record : records) {
    state.agreement_sums.push_back(
        std::max(0.0, std::clamp(record, 0.0, 1.0) *
                              (1.0 + static_cast<double>(rounds)) -
                          1.0));
  }
  return state;
}

}  // namespace avoc::core
