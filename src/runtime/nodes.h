// Middleware nodes: hub → voter → sink (Fig. 1's topology).
//
// The nodes are plain classes wired by direct calls: the HubNode plays the
// VINT hub's role, assembling per-round candidate sets from individual
// sensor readings and closing a round either when every registered module
// reported or when the round is flushed (timeout) — missing modules
// become missing values, feeding the §7 missing-value fault scenario.
// Closed rounds leave the hub as a columnar RoundTable; the VoterNode
// votes that table in one engine pass and appends the resulting trace
// rows to the SinkNode.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/trace.h"
#include "data/round_table.h"
#include "obs/metrics.h"
#include "runtime/datastore.h"
#include "util/status.h"

namespace avoc::runtime {

/// Optional hub instrumentation: null pointers disable each signal.  The
/// metric objects live in an obs::Registry and are thread-safe, so hubs
/// of different groups may share them (labels tell them apart).
struct HubTelemetry {
  obs::Counter* readings = nullptr;       ///< readings accepted
  obs::Counter* late_readings = nullptr;  ///< dropped against a closed round
  obs::Counter* rounds_closed = nullptr;  ///< rounds closed
  obs::Gauge* open_rounds = nullptr;      ///< pending-round queue depth
  obs::Gauge* last_closed_round = nullptr;
};

/// Optional sink instrumentation.
struct SinkTelemetry {
  obs::Counter* outputs = nullptr;  ///< fused outputs recorded
  obs::Gauge* last_round = nullptr;
  /// Rounds that closed upstream but never produced an output here
  /// (hard CastVote/persistence errors drop the round before the sink).
  obs::Gauge* lag_rounds = nullptr;
};

/// A single sensor reading addressed to a hub.
struct ReadingMessage {
  size_t module = 0;  ///< module index within the voter group
  size_t round = 0;
  double value = 0.0;
};

/// The voter's fused output for one round, materialized (migration blob
/// and tests; the live path stays columnar).
struct OutputMessage {
  size_t round = 0;
  core::VoteResult result;
};

/// What one IngestBatch call did with its readings.
struct BatchIngestStats {
  size_t accepted = 0;       ///< readings stored into open rounds
  size_t late = 0;           ///< dropped against already-closed rounds
  size_t rejected = 0;       ///< dropped for an out-of-range module index
  size_t rounds_closed = 0;  ///< rounds completed (and voted) by this batch
};

/// Assembles readings into rounds.  Every call that closes rounds
/// appends them to the caller's `rounds` list and `table` (row i of the
/// table is round rounds[i]); the hub itself never votes.
class HubNode {
 public:
  /// `close_at_count` implements VDX's UNTIL quorum at the hub: when > 0,
  /// a round closes as soon as that many readings arrived instead of
  /// waiting for every module (later readings for the round are dropped).
  /// 0 keeps the default close-when-complete behaviour.
  explicit HubNode(size_t module_count, size_t close_at_count = 0,
                   HubTelemetry telemetry = {});

  HubNode(const HubNode&) = delete;
  HubNode& operator=(const HubNode&) = delete;

  size_t module_count() const { return module_count_; }

  /// Ingests readings under one hub lock, appending every round they
  /// complete.  Readings for closed rounds or unknown modules are
  /// counted, not fatal.
  BatchIngestStats IngestBatch(std::span<const ReadingMessage> readings,
                               std::vector<size_t>& rounds,
                               data::RoundTable& table);

  /// Closes `round` with whatever arrived (absent modules are missing
  /// values, a round that saw no reading closes all-missing) and appends
  /// it.  Returns false, appending nothing, when the round was already
  /// closed.
  bool Close(size_t round, std::vector<size_t>& rounds,
             data::RoundTable& table);

  /// Rounds currently open (received some but not all readings).
  size_t open_rounds() const;

  /// Assembly state for migrating a live hub between nodes: partially
  /// filled rounds plus the closed-round set (the late-reading filter).
  struct State {
    std::vector<std::pair<uint64_t, core::Round>> pending;
    std::vector<uint64_t> closed_rounds;
  };
  State ExportState() const;
  void RestoreState(const State& state);

 private:
  /// Moves `readings` into the output as `round`, marks the round closed
  /// and updates the close-side gauges; caller holds mutex_.
  void CloseLocked(size_t round, core::Round readings,
                   std::vector<size_t>& rounds, data::RoundTable& table);

  size_t module_count_;
  size_t close_at_count_;
  HubTelemetry telemetry_;
  mutable std::mutex mutex_;
  std::map<size_t, core::Round> pending_;   // round -> partial readings
  std::map<size_t, bool> closed_;           // rounds already closed
};

class SinkNode;

/// VoterNode configuration.
struct VoterOptions {
  /// Store group key; persistence disabled when store == nullptr.
  std::string group = "default";
  storage::HistoryBackend* store = nullptr;
};

/// Runs the voting engine over closed rounds; optionally persists the
/// history ledger to a HistoryBackend after every pass (the datastore
/// round-trip of the paper's latency notes) and restores it on start.
class VoterNode {
 public:
  explicit VoterNode(core::VotingEngine engine, VoterOptions options = {});

  VoterNode(const VoterNode&) = delete;
  VoterNode& operator=(const VoterNode&) = delete;

  const core::VotingEngine& engine() const { return engine_; }

  /// Votes every row of `table` (row i is round rounds[i]) in one
  /// columnar engine pass, persists the history once, and appends the
  /// trace rows to `sink` — all under the voter lock, so the sink copies
  /// out of the scratch trace before the next pass can reuse it.  A
  /// failed pass appends nothing; its status shows in last_status().
  void Vote(std::span<const size_t> rounds, const data::RoundTable& table,
            SinkNode& sink);

  /// Status of the most recent pass (persistence failures surface here).
  Status last_status() const;

  /// Full engine state for migration (see core::VotingEngine::State).
  core::VotingEngine::State ExportEngineState() const;
  /// Installs a migrated engine state and persists it to the store.
  Status RestoreEngineState(const core::VotingEngine::State& state);

 private:
  /// Persists the engine's history ledger; caller holds mutex_.
  void PersistHistoryLocked();

  core::VotingEngine engine_;
  VoterOptions options_;
  mutable std::mutex mutex_;
  Status last_status_;
  /// Scratch trace reused across passes (guarded by mutex_).
  core::BatchTrace batch_trace_;
};

/// Records outputs (the LCD display / downstream consumer stand-in).
/// Storage is columnar: arriving results land in a BatchTrace (one flat
/// column per field) plus a round-number column, so a long-running sink
/// holds no per-round heap objects; outputs() materializes messages on
/// demand for consumers that still speak VoteResult.
class SinkNode {
 public:
  /// When `trace_store` is set, every appended row is also persisted as a
  /// storage::TracePoint under `group` — the durable feed behind the
  /// QUERY_RANGE wire verb.  Persist errors are logged, never fatal: the
  /// in-memory trace is the source of truth for the live process.
  explicit SinkNode(SinkTelemetry telemetry = {},
                    storage::TraceBackend* trace_store = nullptr,
                    std::string group = {});

  SinkNode(const SinkNode&) = delete;
  SinkNode& operator=(const SinkNode&) = delete;

  /// Appends the rows of `trace` (row i is round rounds[i]), copying
  /// them out of the borrowed view.
  void Append(std::span<const size_t> rounds, core::TraceView trace);

  /// Outputs received so far, in arrival order (materialized per call;
  /// prefer trace() for bulk reads).
  std::vector<OutputMessage> outputs() const;
  size_t output_count() const;

  /// Most recent fused value, if any round voted successfully.
  std::optional<double> last_value() const;

  /// Appends migrated rows as if they had arrived live (same gauge and
  /// persistence side effects), keeping the trace bit-identical across a
  /// handoff.
  void RestoreOutputs(std::span<const OutputMessage> restored);

  /// Columnar read access under the sink lock: calls `fn(trace, rounds)`
  /// where rounds[i] is the round number of trace row i.
  template <typename Fn>
  void WithTrace(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    fn(static_cast<const core::BatchTrace&>(trace_),
       static_cast<const std::vector<size_t>&>(rounds_));
  }

 private:
  /// Updates the sink gauges after appending rows; caller holds mutex_.
  void NoteAppendedLocked(size_t last_round, size_t appended);

  /// Persists the last `appended` rows of trace_ to trace_store_; caller
  /// holds mutex_.
  void PersistAppendedLocked(size_t appended);

  SinkTelemetry telemetry_;
  storage::TraceBackend* trace_store_;
  std::string group_;
  mutable std::mutex mutex_;
  core::BatchTrace trace_;
  std::vector<size_t> rounds_;  ///< round number of each trace row
};

}  // namespace avoc::runtime
