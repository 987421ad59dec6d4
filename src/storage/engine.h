// The embedded storage engine: WAL + snapshot segments for history,
// sealed Gorilla chunks for vote traces.
//
// One StorageEngine owns one directory:
//
//   wal-<seq>    CRC-framed mutation log (storage/wal.h): STATE_PUT,
//                HISTORY_ERASE, TRACE_APPEND.  fsynced per policy.
//   snap-<seq>   compacted snapshot: the full group-state map plus every
//                group's unsealed trace tail.  Written durably
//                (tmp + fsync + rename + dir fsync); compaction bumps
//                <seq>, rotates the WAL and deletes the old generation.
//   chunks       append-only sealed trace chunks (storage/chunk.h).
//                A seal appends without an fsync (the WAL still holds
//                its points); the file is fsynced before a compaction
//                retires that WAL, by Sync() and at shutdown.  Never
//                rewritten; recovery truncates a torn tail.
//
// Recovery order: newest valid snapshot -> chunks (truncate to last
// valid entry) -> replay the matching WAL (truncate to last valid
// record) -> renumber tails whose sealed chunks were lost, and compact.
// Per-group monotone point indices (`base_index`) make replay idempotent
// against sealed chunks regardless of where a crash interleaved —
// docs/STORAGE.md walks every window.
//
// Thread-safe behind one mutex; the sharded runtime calls one engine
// from every shard loop.  Registers avoc_storage_* metrics when opened
// with a registry.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/backend.h"
#include "storage/chunk.h"
#include "storage/wal.h"
#include "util/status.h"

namespace avoc::storage {

struct StorageEngineOptions {
  /// Directory holding the store (created if absent).
  std::string dir;
  /// WAL fsync policy; 0 = fsync every commit (see WalWriterOptions).
  size_t wal_sync_every_bytes = 0;
  /// Seal a group's trace tail into a compressed chunk at this many
  /// points.
  size_t chunk_max_points = 512;
  /// Auto-compact (snapshot + WAL rotation) once the live WAL exceeds
  /// this many bytes; 0 disables auto-compaction.
  size_t compact_wal_bytes = 8u << 20;
  /// Optional metrics registry (must outlive the engine).
  obs::Registry* registry = nullptr;
  /// Optional flight-recorder tracer (must outlive the engine): WAL
  /// appends, fsyncs, chunk seals and compactions become storage spans
  /// parented to the calling request's span.
  obs::Tracer* tracer = nullptr;
};

/// Counters for introspection, avoc_storectl and BENCH_storage.
struct StorageStats {
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;         ///< live WAL file size
  uint64_t wal_synced_bytes = 0;  ///< durable prefix of the live WAL
  uint64_t fsyncs = 0;  ///< WAL, chunks, snapshot and directory fsyncs
  uint64_t compactions = 0;
  uint64_t snapshot_seq = 0;
  uint64_t sealed_chunks = 0;
  uint64_t chunk_raw_bytes = 0;         ///< 17 bytes/point before encoding
  uint64_t chunk_compressed_bytes = 0;  ///< sealed chunk bodies
  uint64_t history_groups = 0;
  uint64_t trace_points = 0;  ///< sealed + tail points across groups
  uint64_t recovery_ms = 0;   ///< wall time of the last Open
  bool recovered_truncated_tail = false;

  /// raw/compressed over sealed chunks (1.0 when nothing sealed yet).
  double compression_ratio() const {
    return chunk_compressed_bytes == 0
               ? 1.0
               : static_cast<double>(chunk_raw_bytes) /
                     static_cast<double>(chunk_compressed_bytes);
  }
};

class StorageEngine final : public HistoryBackend, public TraceBackend {
 public:
  /// Opens (recovering) or creates the store at options.dir.
  static Result<std::unique_ptr<StorageEngine>> Open(
      StorageEngineOptions options);

  /// Graceful shutdown: syncs the WAL and the chunks file (best effort).
  ~StorageEngine() override;

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  // --- HistoryBackend --------------------------------------------------------
  Status Put(const std::string& group, const HistorySnapshot& snapshot) override;
  Result<HistorySnapshot> Get(const std::string& group) const override;
  Result<bool> Erase(const std::string& group) override;
  std::vector<std::string> Groups() const override;
  size_t size() const override;

  // --- TraceBackend ----------------------------------------------------------
  Status AppendTrace(const std::string& group,
                     std::span<const TracePoint> points) override;
  Result<std::vector<TracePoint>> QueryTraceRange(
      const std::string& group, uint64_t lo_round,
      uint64_t hi_round) const override;

  // --- maintenance -----------------------------------------------------------

  /// Commit barrier: fsyncs the WAL and the chunks file now.
  Status Sync();

  /// Seals full trace tails, writes a fresh snapshot, rotates the WAL
  /// and deletes the previous generation.
  Status Compact();

  StorageStats stats() const;
  const std::string& dir() const { return options_.dir; }

  // --- crash simulation (DST) ------------------------------------------------

  /// What a simulated power loss leaves on disk.
  struct CrashState {
    std::string wal_path;
    uint64_t wal_bytes = 0;         ///< bytes written (page cache)
    uint64_t wal_synced_bytes = 0;  ///< bytes guaranteed durable
    std::string chunks_path;
    uint64_t chunks_bytes = 0;         ///< bytes written (page cache)
    uint64_t chunks_synced_bytes = 0;  ///< bytes guaranteed durable
  };

  /// Models power loss: closes every descriptor WITHOUT syncing and
  /// marks the engine dead (every later call fails).  The caller decides
  /// how much of each unsynced tail "reached the platter" by truncating
  /// wal_path anywhere in [wal_synced_bytes, wal_bytes] and chunks_path
  /// anywhere in [chunks_synced_bytes, chunks_bytes] before reopening
  /// the directory.
  CrashState SimulateCrash();

 private:
  /// One group's trace: sealed chunks plus the open tail.
  struct GroupTrace {
    std::vector<SealedChunk> sealed;
    uint64_t tail_base = 0;  ///< append index of tail.front()
    std::vector<TracePoint> tail;

    uint64_t next_index() const { return tail_base + tail.size(); }
    uint64_t sealed_end() const {
      return sealed.empty() ? 0
                            : sealed.back().base_index + sealed.back().count;
    }
  };

  explicit StorageEngine(StorageEngineOptions options);

  std::string WalPath(uint64_t seq) const;
  std::string SnapshotPath(uint64_t seq) const;
  std::string ChunksPath() const;

  Status RecoverLocked();
  Status LoadChunksLocked();
  /// Loads the newest valid snapshot; sets seq_ (0 = none).
  Status LoadSnapshotLocked();
  Status ReplayWalLocked();
  /// Drops tail points already covered by sealed chunks (crash between
  /// a seal and the next snapshot replays them from the WAL).
  void TrimSealedTailsLocked();
  /// A tail base past the sealed run means sealed points were lost for
  /// good (an entry dropped as corrupt after a snapshot retired its
  /// WAL).  Renumbers each such tail to follow the sealed run, so later
  /// seals continue it and the next load finds no gap; returns whether
  /// any tail moved (the caller then compacts to make it durable).
  bool CloseSealedGapsLocked();
  Status RemoveStaleFilesLocked();

  /// A storage span parented to the calling thread's current span.
  obs::ScopedSpan StorageSpan(std::string_view name) const;
  void CountFsyncsLocked(uint64_t n);
  /// fsyncs the WAL / the chunks file if it has unsynced bytes.
  Status SyncWalLocked();
  Status SyncChunksLocked();
  /// Commits the record begun in wal_ (its payload already written) and
  /// syncs per policy.
  Status CommitWalLocked(WalRecordType type, size_t payload_size);
  /// Auto-compacts past compact_wal_bytes.  Runs after a mutation is
  /// applied in memory: the snapshot must hold the record whose WAL it
  /// retires.
  Status MaybeCompactLocked();
  /// Seals chunk_max_points off `trace`'s tail into the chunks file.
  Status SealLocked(const std::string& group, GroupTrace& trace);
  Status CompactLocked();
  std::string EncodeSnapshotLocked() const;

  void UpdateGaugesLocked();

  StorageEngineOptions options_;
  mutable std::mutex mutex_;
  bool dead_ = false;  ///< SimulateCrash called
  uint64_t seq_ = 0;   ///< current snapshot/WAL generation
  WalWriter wal_;
  AppendFile chunks_;
  std::map<std::string, HistorySnapshot> history_;
  std::map<std::string, GroupTrace> traces_;

  // Lifetime counters (monotone across compactions, not across Open).
  uint64_t compactions_ = 0;
  uint64_t sealed_chunks_ = 0;
  uint64_t chunk_raw_bytes_ = 0;
  uint64_t chunk_compressed_bytes_ = 0;
  uint64_t trace_points_ = 0;  ///< sealed + tail points across groups
  uint64_t wal_records_total_ = 0;
  uint64_t fsyncs_total_ = 0;
  uint64_t recovery_ms_ = 0;
  bool recovered_truncated_tail_ = false;

  // Optional metrics (null without a registry).
  obs::Counter* wal_bytes_metric_ = nullptr;
  obs::Counter* wal_records_metric_ = nullptr;
  obs::Counter* fsyncs_metric_ = nullptr;
  obs::Counter* compactions_metric_ = nullptr;
  obs::Counter* chunks_sealed_metric_ = nullptr;
  obs::Counter* chunk_raw_metric_ = nullptr;
  obs::Counter* chunk_compressed_metric_ = nullptr;
  obs::Gauge* groups_gauge_ = nullptr;
  obs::Gauge* trace_points_gauge_ = nullptr;
  obs::Gauge* recovery_ms_gauge_ = nullptr;
};

}  // namespace avoc::storage
