// Middleware nodes: hub → voter → sink (Fig. 1's topology).
//
// The nodes are plain classes wired by direct calls: the HubNode plays the
// VINT hub's role, assembling per-round candidate sets from individual
// sensor readings and closing a round either when every registered module
// reported or when the round is flushed (timeout) — missing modules
// become missing values, feeding the §7 missing-value fault scenario.
// Closed rounds leave the hub as a columnar RoundTable; the VoterNode
// votes that table in one engine pass straight into the SinkNode's trace.
//
// The nodes hold no locks.  Their owner, GroupRunner, runs every pass
// under one group mutex; the sink's readers take that mutex, so they are
// the only calls safe from other threads.
#pragma once

#include <cstdint>
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
#include "runtime/reading.h"
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
  obs::Gauge* closed_runs = nullptr;  ///< runs of the closed-round set
};

/// Optional sink instrumentation.
struct SinkTelemetry {
  obs::Counter* outputs = nullptr;  ///< fused outputs recorded
  obs::Gauge* last_round = nullptr;
  /// Rounds that closed upstream but never produced an output here,
  /// counted from the first round this sink recorded (a hard engine
  /// error drops the failing round and the rest of its pass).
  obs::Gauge* lag_rounds = nullptr;
  obs::Gauge* rows = nullptr;         ///< rows held (fused series)
  obs::Gauge* detail_rows = nullptr;  ///< rows holding per-module columns
};

/// What one IngestBatch call did with its readings.
struct BatchIngestStats {
  size_t accepted = 0;       ///< readings stored into open rounds
  size_t late = 0;           ///< dropped against already-closed rounds
  size_t rejected = 0;       ///< dropped for an out-of-range module index
  size_t rounds_closed = 0;  ///< rounds completed (and voted) by this batch
};

/// The hub's closed-round set (its late-reading filter) as sorted,
/// disjoint, non-adjacent runs of consecutive rounds.  Rounds that close
/// in order extend one run, so the set stays one entry however long the
/// group runs.  A run stores its last round inclusively: the run holding
/// round 2^64-1 needs no past-the-end bound that would wrap to 0.
class ClosedRounds {
 public:
  struct Run {
    uint64_t first = 0;
    uint64_t last = 0;  ///< inclusive
  };

  bool Contains(uint64_t round) const;
  /// Adds `round`; false when it was already in the set.
  bool Insert(uint64_t round);
  /// Adds the run [first, last] past the set's last run, as runs() lists
  /// them (rebuilding a set from its export).  False, adding nothing,
  /// when first > last or the run does not start past the last run plus
  /// one.
  bool AppendRun(uint64_t first, uint64_t last);

  /// The set, ascending by first.
  std::span<const Run> runs() const { return runs_; }
  size_t run_count() const { return runs_.size(); }

 private:
  std::vector<Run> runs_;  ///< ascending by first
};

/// Assembles readings into rounds.  Every call that closes rounds
/// appends them to the caller's `rounds` list and `table` (row i of the
/// table is round rounds[i]); the hub itself never votes.
///
/// Open rounds live in a pool of flat rows (module_count() values plus
/// presence flags and a present count each) that closed rounds hand back
/// for reuse, so steady-state assembly allocates nothing; a last-round
/// cache serves the readings of a frame that lists them round by round.
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

  /// Ingests readings, appending every round they complete.  Readings for closed rounds or unknown modules are
  /// counted, not fatal; a repeated reading for an open round replaces
  /// the earlier value.
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
  size_t open_rounds() const { return open_.size(); }
  /// Runs the closed-round set is stored as (1 while rounds close in
  /// order).
  size_t closed_run_count() const { return closed_.run_count(); }

  /// Assembly state for migrating a live hub between nodes: partially
  /// filled rounds, ascending by round, plus the closed-round set (the
  /// late-reading filter) as its runs.
  struct State {
    std::vector<std::pair<uint64_t, core::Round>> pending;
    ClosedRounds closed;
  };
  State ExportState() const;
  void RestoreState(const State& state);

 private:
  /// An open round and the pool row holding its readings.
  struct OpenRound {
    size_t round = 0;
    size_t slot = 0;
  };
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// First open_ entry whose round is not below `round`.
  std::vector<OpenRound>::iterator OpenLowerBound(size_t round);
  /// Row of open `round`, opening the round on a fresh row when it has
  /// none; the caller checked that the round is not closed.
  size_t OpenSlot(size_t round);
  /// A pool row with no reading present.
  size_t AcquireSlot();
  /// Clears row `slot` and hands it back to the pool.
  void ReleaseSlot(size_t slot);
  /// Publishes closed_.run_count() to the closed-runs gauge.
  void SetClosedRunsGauge();
  /// Appends row `slot` to the output as `round`, marks the round closed
  /// and releases the row; the caller drops its open_ entry.
  void CloseSlot(size_t round, size_t slot, std::vector<size_t>& rounds,
                 data::RoundTable& table);

  size_t module_count_;
  size_t close_at_count_;
  HubTelemetry telemetry_;
  /// Row pool: row s holds cells [s * module_count_, (s + 1) *
  /// module_count_) of values_ and present_; present_counts_[s] counts
  /// its present cells.  Values of absent cells are stale, never read.
  std::vector<double> values_;
  std::vector<uint8_t> present_;
  std::vector<size_t> present_counts_;
  std::vector<size_t> free_slots_;
  /// Ascending by round.  Rounds mostly open at the end and close near
  /// the front; an insert or erase moves the entries past it, which the
  /// usual handful of open rounds keeps short.
  std::vector<OpenRound> open_;
  ClosedRounds closed_;
  /// Last-round cache: an open, unclosed round and its row (kNoSlot when
  /// empty).
  size_t cached_round_ = 0;
  size_t cached_slot_ = kNoSlot;
};

class SinkNode;

/// VoterNode configuration.
struct VoterOptions {
  /// Store group key; persistence disabled when store == nullptr.
  std::string group = "default";
  storage::HistoryBackend* store = nullptr;
};

/// Runs the voting engine over closed rounds; optionally persists the
/// engine's full state to a HistoryBackend after every pass (the
/// datastore round-trip of the paper's latency notes) and restores it on
/// start through the same RestoreState a migration uses.
class VoterNode {
 public:
  explicit VoterNode(core::VotingEngine engine, VoterOptions options = {});

  VoterNode(const VoterNode&) = delete;
  VoterNode& operator=(const VoterNode&) = delete;

  const core::VotingEngine& engine() const { return engine_; }

  /// Votes every row of `table` (row i is round rounds[i]) in one
  /// columnar engine pass straight into `sink`'s trace, persists the
  /// state once, and has the sink record the new rows.  On a hard engine
  /// error the rows committed before the failing round stay in the sink
  /// (the engine has absorbed them), the state is not persisted, and
  /// the status shows in last_status().
  void Vote(std::span<const size_t> rounds, const data::RoundTable& table,
            SinkNode& sink);

  /// Status of the most recent pass (persistence failures surface here).
  const Status& last_status() const { return last_status_; }

  /// Full engine state for migration (see core::VotingEngine::State).
  core::VotingEngine::State ExportEngineState() const;
  /// Installs a migrated engine state and persists it to the store.
  Status RestoreEngineState(const core::VotingEngine::State& state);

 private:
  void PersistState();

  core::VotingEngine engine_;
  VoterOptions options_;
  Status last_status_;
  /// State copy PersistState reuses.
  core::VotingEngine::State persist_state_;
};

/// Records outputs (the LCD display / downstream consumer stand-in).
/// Storage is columnar: arriving results land in a BatchTrace (one flat
/// column per field) plus a round-number column, so a long-running sink
/// holds no per-round heap objects; WithTrace reads the columns and
/// BatchTrace::MaterializeRound one row as a VoteResult.
///
/// Every row keeps its fused series.  After each append the sink moves
/// its trace's detail base to core::SinkDetailBase(rows), so only the
/// newest 1024–2047 rows keep their per-module columns (the recent
/// window that explanation and migration read), and the per-module
/// blocks stop growing once they hold two windows plus one pass.
class SinkNode {
 public:
  /// When `trace_store` is set, every appended row is also persisted as a
  /// storage::TracePoint under `group` — the durable feed behind the
  /// QUERY_RANGE wire verb.  Persist errors are logged, never fatal: the
  /// in-memory trace is the source of truth for the live process.
  /// `group_mutex` is the owner's group lock, which the readers below
  /// take; without one the sink is single-threaded.
  explicit SinkNode(SinkTelemetry telemetry = {},
                    storage::TraceBackend* trace_store = nullptr,
                    std::string group = {}, std::mutex* group_mutex = nullptr);

  SinkNode(const SinkNode&) = delete;
  SinkNode& operator=(const SinkNode&) = delete;

  /// Appends the rows of `trace` (row i is round rounds[i]), copying
  /// them out of the borrowed view.  Migrated rows arrive here, with the
  /// same gauge and persistence side effects as voted ones.  The caller
  /// holds the group lock.
  void Append(std::span<const size_t> rounds, core::TraceView trace);

  size_t output_count() const;

  /// Most recent fused value, if any round voted successfully.
  std::optional<double> last_value() const;

  /// Columnar read access under the group lock: calls `fn(trace, rounds)`
  /// where rounds[i] is the round number of trace row i.
  template <typename Fn>
  void WithTrace(Fn&& fn) const {
    const std::unique_lock<std::mutex> lock = LockGroup();
    fn(static_cast<const core::BatchTrace&>(trace_),
       static_cast<const std::vector<size_t>&>(rounds_));
  }

 private:
  // VoterNode votes straight into trace_; GroupRunner::ExportState reads
  // trace_ and rounds_ under the group lock it already holds.
  friend class VoterNode;
  friend class GroupRunner;

  std::unique_lock<std::mutex> LockGroup() const {
    return group_mutex_ != nullptr ? std::unique_lock<std::mutex>(*group_mutex_)
                                   : std::unique_lock<std::mutex>();
  }

  /// Records trace_ rows [first_row, end) as rounds[0..): the round
  /// column, the gauges and the trace store.
  void CommitRows(std::span<const size_t> rounds, size_t first_row);

  SinkTelemetry telemetry_;
  storage::TraceBackend* trace_store_;
  std::string group_;
  std::mutex* group_mutex_;
  core::BatchTrace trace_;
  std::vector<size_t> rounds_;  ///< round number of each trace row
  /// Lowest round recorded; the lag gauge counts from it, so a restarted
  /// group's earlier rounds (held by the trace store only) are not lost.
  size_t first_round_ = SIZE_MAX;
  /// Scratch of CommitRows' persist, reused across appends.
  std::vector<storage::TracePoint> points_;
};

}  // namespace avoc::runtime
