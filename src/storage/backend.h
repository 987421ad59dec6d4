// Storage seams for history and trace persistence.
//
// The paper's premise is that per-module reliability records outlive the
// voter process: a voter service restarts (or migrates between edge
// nodes) and resumes with its learned history.  Every runtime component
// that persists or restores history talks to these two small interfaces,
// so the execution layer never knows whether it is writing the legacy
// JSON file (runtime::HistoryStore) or the embedded WAL + compressed
// chunk engine (storage::StorageEngine, see storage/engine.h and
// docs/STORAGE.md).
//
//   HistoryBackend  per-group engine state (the voter's reliability
//                   ledger, its accumulators, last output and round
//                   counter), keyed by group name.
//   TraceBackend    append-only per-group vote traces (round, engaged,
//                   fused value) with round-range queries — what the
//                   QUERY_RANGE wire verb serves.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/group_state.h"
#include "util/status.h"

namespace avoc::storage {

/// One persisted group state: the engine's full state
/// (core/group_state.h), so a restart restores exactly what a migration
/// restores.  `records` and `rounds` are the reliability records and the
/// rounds the ledger absorbed.
using HistorySnapshot = core::GroupState;

/// One persisted vote-trace point.  `value` carries the exact IEEE-754
/// bits of the fused output (0.0 when the round produced none), so a
/// range query is bit-identical to the in-memory BatchTrace row.
struct TracePoint {
  uint64_t round = 0;
  double value = 0.0;
  bool engaged = false;  ///< round produced a fused output
};

/// Keyed history persistence.  Implementations are thread-safe: the
/// sharded runtime calls one backend from every shard loop.
class HistoryBackend {
 public:
  virtual ~HistoryBackend() = default;

  /// Writes (replaces) the snapshot of `group`.
  virtual Status Put(const std::string& group,
                     const HistorySnapshot& snapshot) = 0;

  /// Reads the snapshot of `group`; NotFound when absent.
  virtual Result<HistorySnapshot> Get(const std::string& group) const = 0;

  /// Removes `group`.  Returns whether it existed; a failed persist is an
  /// error (a silently resurrected group is exactly the bug this seam
  /// retired from the legacy store).
  virtual Result<bool> Erase(const std::string& group) = 0;

  /// All group names, sorted.
  virtual std::vector<std::string> Groups() const = 0;

  virtual size_t size() const = 0;
};

/// Append-only vote-trace persistence with round-range reads.
class TraceBackend {
 public:
  virtual ~TraceBackend() = default;

  /// Appends `points` to the group's trace, in order.
  virtual Status AppendTrace(const std::string& group,
                             std::span<const TracePoint> points) = 0;

  /// Every stored point of `group` with round in [lo_round, hi_round]
  /// (inclusive), in append order.  An unknown group yields an empty
  /// vector — the trace of a group that never voted is empty, not an
  /// error.
  virtual Result<std::vector<TracePoint>> QueryTraceRange(
      const std::string& group, uint64_t lo_round,
      uint64_t hi_round) const = 0;
};

}  // namespace avoc::storage
