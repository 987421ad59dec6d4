#include "storage/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <utility>

#include "storage/snapshot.h"

namespace avoc::storage {

namespace {

constexpr std::string_view kSnapshotMagic = "AVSN";
constexpr std::string_view kChunkMagic = "AVCK";
constexpr uint32_t kSnapshotVersion = 2;
/// Snapshots written before the full group state was persisted: their
/// history entries hold records only (read through the upgrade).
constexpr uint32_t kRecordsOnlySnapshotVersion = 1;

/// Uncompressed footprint of one TracePoint on disk (u64 round + u64
/// value bits + u8 engaged) — the numerator of the compression ratio.
constexpr uint64_t kRawPointBytes = 17;

/// Upper bound on a sealed chunk body; larger lengths in the chunks
/// file are corruption (mirrors the WAL's record bound).
constexpr uint64_t kMaxChunkBytes = 64ull << 20;

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Record encoders.  Each pair sizes a payload, then writes exactly that
// many bytes through one pointer (into the WAL writer's record buffer or
// a sized snapshot or chunk entry), so a record is built once, in place.

/// `bytes group`: the field every record and entry starts with.
size_t GroupSize(const std::string& group) { return 4 + group.size(); }

/// STATE_PUT payload, also a snapshot's history entry: bytes group, then
/// the group state (storage/snapshot.h).
size_t HistoryEntrySize(const std::string& group,
                        const HistorySnapshot& state) {
  return GroupSize(group) + GroupStateSize(state);
}

char* PutHistoryEntry(char* out, const std::string& group,
                      const HistorySnapshot& state) {
  return PutGroupState(PutBytes(out, group), state);
}

/// The one history-entry reader, for WAL records and snapshot entries
/// alike.  `records_only` reads the format-1 entry (a HISTORY_PUT record,
/// a version-1 snapshot) through the records-only upgrade.
Result<std::pair<std::string_view, HistorySnapshot>> ReadHistoryEntry(
    ByteReader& reader, bool records_only) {
  AVOC_ASSIGN_OR_RETURN(const std::string_view name, reader.ReadBytes());
  AVOC_ASSIGN_OR_RETURN(HistorySnapshot state,
                        ReadGroupState(reader, records_only));
  return std::pair{name, std::move(state)};
}

/// u64 n, n x (u64 round, u64 value_bits, u8 engaged): the points of a
/// TRACE_APPEND record and of a snapshot's trace tail.
size_t TracePointsSize(size_t n) { return 8 + kRawPointBytes * n; }

char* PutTracePoints(char* out, std::span<const TracePoint> points) {
  out = PutU64(out, points.size());
  for (const TracePoint& point : points) {
    out = PutU64(out, point.round);
    out = PutU64(out, DoubleBits(point.value));
    out = PutU8(out, point.engaged ? 1 : 0);
  }
  return out;
}

/// TRACE_APPEND payload: bytes group, u64 base_index, points.
size_t TraceAppendSize(const std::string& group, size_t n) {
  return GroupSize(group) + 8 + TracePointsSize(n);
}

char* PutTraceAppend(char* out, const std::string& group,
                     uint64_t base_index, std::span<const TracePoint> points) {
  out = PutBytes(out, group);
  out = PutU64(out, base_index);
  return PutTracePoints(out, points);
}

Result<std::vector<TracePoint>> ReadTracePoints(ByteReader& reader) {
  AVOC_ASSIGN_OR_RETURN(const uint64_t n, reader.ReadU64());
  std::vector<TracePoint> points;
  points.reserve(static_cast<size_t>(std::min<uint64_t>(n, 1u << 20)));
  for (uint64_t i = 0; i < n; ++i) {
    TracePoint point;
    AVOC_ASSIGN_OR_RETURN(point.round, reader.ReadU64());
    AVOC_ASSIGN_OR_RETURN(const uint64_t bits, reader.ReadU64());
    point.value = BitsToDouble(bits);
    AVOC_ASSIGN_OR_RETURN(const uint8_t engaged, reader.ReadU8());
    point.engaged = engaged != 0;
    points.push_back(point);
  }
  return points;
}

/// Sequence number of a "wal-NNNNNN" / "snap-NNNNNN" file name, or 0.
uint64_t ParseSeq(std::string_view name, std::string_view prefix) {
  if (!name.starts_with(prefix)) return 0;
  const std::string digits(name.substr(prefix.size()));
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return 0;
  }
  return std::strtoull(digits.c_str(), nullptr, 10);
}

}  // namespace

StorageEngine::StorageEngine(StorageEngineOptions options)
    : options_(std::move(options)) {}

StorageEngine::~StorageEngine() {
  std::lock_guard lock(mutex_);
  if (dead_) return;
  if (wal_.open()) (void)SyncWalLocked();
  if (chunks_.open()) (void)SyncChunksLocked();
}

std::string StorageEngine::WalPath(uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%06llu",
                static_cast<unsigned long long>(seq));
  return options_.dir + "/" + name;
}

std::string StorageEngine::SnapshotPath(uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "snap-%06llu",
                static_cast<unsigned long long>(seq));
  return options_.dir + "/" + name;
}

std::string StorageEngine::ChunksPath() const { return options_.dir + "/chunks"; }

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    StorageEngineOptions options) {
  if (options.dir.empty()) {
    return InvalidArgumentError("storage directory must be set");
  }
  if (options.chunk_max_points == 0) options.chunk_max_points = 512;
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return IoError("create storage dir '" + options.dir +
                   "': " + ec.message());
  }

  const auto start = std::chrono::steady_clock::now();
  std::unique_ptr<StorageEngine> engine(
      new StorageEngine(std::move(options)));
  {
    std::lock_guard lock(engine->mutex_);
    AVOC_RETURN_IF_ERROR(engine->RecoverLocked());
    engine->recovery_ms_ = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (obs::Registry* registry = engine->options_.registry) {
      engine->wal_bytes_metric_ =
          &registry->GetCounter("avoc_storage_wal_bytes_total");
      engine->wal_records_metric_ =
          &registry->GetCounter("avoc_storage_wal_records_total");
      engine->fsyncs_metric_ =
          &registry->GetCounter("avoc_storage_fsyncs_total");
      engine->compactions_metric_ =
          &registry->GetCounter("avoc_storage_compactions_total");
      engine->chunks_sealed_metric_ =
          &registry->GetCounter("avoc_storage_chunks_sealed_total");
      engine->chunk_raw_metric_ =
          &registry->GetCounter("avoc_storage_chunk_raw_bytes_total");
      engine->chunk_compressed_metric_ =
          &registry->GetCounter("avoc_storage_chunk_bytes_total");
      engine->groups_gauge_ = &registry->GetGauge("avoc_storage_groups");
      engine->trace_points_gauge_ =
          &registry->GetGauge("avoc_storage_trace_points");
      engine->recovery_ms_gauge_ =
          &registry->GetGauge("avoc_storage_recovery_ms");
      engine->recovery_ms_gauge_->Set(
          static_cast<double>(engine->recovery_ms_));
    }
    engine->UpdateGaugesLocked();
  }
  return engine;
}

Status StorageEngine::RecoverLocked() {
  // The snapshot goes first: its tail bases tell LoadChunksLocked which
  // gaps in a group's sealed run are harmless.
  AVOC_RETURN_IF_ERROR(LoadSnapshotLocked());
  AVOC_RETURN_IF_ERROR(LoadChunksLocked());
  TrimSealedTailsLocked();
  AVOC_RETURN_IF_ERROR(ReplayWalLocked());
  const bool renumbered = CloseSealedGapsLocked();
  AVOC_RETURN_IF_ERROR(RemoveStaleFilesLocked());
  AVOC_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(WalPath(seq_),
                            WalWriterOptions{options_.wal_sync_every_bytes}));
  AVOC_ASSIGN_OR_RETURN(chunks_, AppendFile::Open(ChunksPath()));

  trace_points_ = 0;
  for (const auto& [group, trace] : traces_) {
    for (const SealedChunk& chunk : trace.sealed) trace_points_ += chunk.count;
    trace_points_ += trace.tail.size();
  }
  // A renumbered tail base must reach disk before the next seal does.
  if (renumbered) AVOC_RETURN_IF_ERROR(CompactLocked());
  return Status::Ok();
}

Status StorageEngine::LoadChunksLocked() {
  auto contents = ReadFileToString(ChunksPath());
  if (!contents.ok()) {
    if (contents.status().code() == ErrorCode::kNotFound) return Status::Ok();
    return contents.status();
  }
  const std::string& data = *contents;
  size_t pos = 0;
  std::vector<TracePoint> decoded;
  std::vector<ChunkMark> marks;
  while (pos + kChunkMagic.size() <= data.size()) {
    if (std::string_view(data).substr(pos, kChunkMagic.size()) !=
        kChunkMagic) {
      break;
    }
    const std::string_view rest =
        std::string_view(data).substr(pos + kChunkMagic.size());
    ByteReader reader(rest);
    SealedChunk chunk;
    std::string group;
    uint32_t body_len = 0;
    uint32_t crc = 0;
    {
      auto name = reader.ReadBytes();
      if (!name.ok()) break;
      group.assign(*name);
    }
    bool header_ok = true;
    for (uint64_t* field :
         {&chunk.base_index, &chunk.count, &chunk.first_round,
          &chunk.last_round}) {
      auto value = reader.ReadU64();
      if (!value.ok()) {
        header_ok = false;
        break;
      }
      *field = *value;
    }
    if (!header_ok) break;
    {
      auto len = reader.ReadU32();
      auto sum = reader.ReadU32();
      if (!len.ok() || !sum.ok()) break;
      body_len = *len;
      crc = *sum;
    }
    if (body_len > kMaxChunkBytes || reader.remaining() < body_len) break;
    const size_t body_off =
        pos + kChunkMagic.size() + (rest.size() - reader.remaining());
    const std::string_view body =
        std::string_view(data).substr(body_off, body_len);
    if (Crc32(body) != crc) break;
    chunk.body.assign(body);
    // The CRC covers only the body, so the header is checked against
    // it: the entry must continue its group's sealed run, and the body
    // must decode to exactly `count` points spanning the header's rounds.
    // The same pass rebuilds the seek marks QueryTraceRange reads.
    // The run may skip ahead only to an entry that ends at or below the
    // snapshot's tail base (tail_base is still the snapshot's here, 0
    // without one).  Sealed indices up to there decide nothing: trimming,
    // WAL replay and the next seal all start at the tail base.
    const auto existing = traces_.find(group);
    const uint64_t sealed_end =
        existing == traces_.end() ? 0 : existing->second.sealed_end();
    const uint64_t snapshot_base =
        existing == traces_.end() ? 0 : existing->second.tail_base;
    const bool continues =
        chunk.base_index == sealed_end ||
        (chunk.base_index > sealed_end && chunk.base_index <= snapshot_base &&
         chunk.count <= snapshot_base - chunk.base_index);
    if (!continues || !DecodeChunk(chunk, &decoded, &marks).ok()) break;
    chunk.marks = std::move(marks);

    GroupTrace& trace = traces_[group];
    trace.sealed.push_back(std::move(chunk));
    ++sealed_chunks_;
    chunk_raw_bytes_ += trace.sealed.back().count * kRawPointBytes;
    chunk_compressed_bytes_ += body_len;
    pos = body_off + body_len;
  }
  if (pos != data.size()) {
    recovered_truncated_tail_ = true;
    std::error_code ec;
    std::filesystem::resize_file(ChunksPath(), pos, ec);
    if (ec) {
      return IoError("truncate torn chunks file: " + ec.message());
    }
  }
  return Status::Ok();
}

Status StorageEngine::LoadSnapshotLocked() {
  std::vector<uint64_t> snapshot_seqs;
  uint64_t max_wal_seq = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (const uint64_t seq = ParseSeq(name, "snap-"); seq != 0) {
      snapshot_seqs.push_back(seq);
    }
    if (const uint64_t seq = ParseSeq(name, "wal-"); seq != 0) {
      max_wal_seq = std::max(max_wal_seq, seq);
    }
  }
  if (ec) return IoError("scan storage dir: " + ec.message());
  std::sort(snapshot_seqs.rbegin(), snapshot_seqs.rend());

  for (const uint64_t seq : snapshot_seqs) {
    auto contents = ReadFileToString(SnapshotPath(seq));
    if (!contents.ok()) continue;
    const std::string& data = *contents;
    if (data.size() < kSnapshotMagic.size() + 8 ||
        std::string_view(data).substr(0, kSnapshotMagic.size()) !=
            kSnapshotMagic) {
      recovered_truncated_tail_ = true;
      continue;
    }
    ByteReader header(
        std::string_view(data).substr(kSnapshotMagic.size(), 8));
    const uint32_t version = *header.ReadU32();
    const uint32_t crc = *header.ReadU32();
    const std::string_view body =
        std::string_view(data).substr(kSnapshotMagic.size() + 8);
    if ((version != kSnapshotVersion &&
         version != kRecordsOnlySnapshotVersion) ||
        Crc32(body) != crc) {
      recovered_truncated_tail_ = true;
      continue;
    }

    // Body parse; a CRC-valid body that fails to parse is treated like a
    // corrupt snapshot (fall back to the next-older one).
    std::map<std::string, HistorySnapshot> history;
    std::map<std::string, std::pair<uint64_t, std::vector<TracePoint>>> tails;
    ByteReader reader(body);
    const Status parsed = [&]() -> Status {
      AVOC_ASSIGN_OR_RETURN(const uint64_t history_count, reader.ReadU64());
      for (uint64_t i = 0; i < history_count; ++i) {
        AVOC_ASSIGN_OR_RETURN(
            auto entry,
            ReadHistoryEntry(reader, version == kRecordsOnlySnapshotVersion));
        history[std::string(entry.first)] = std::move(entry.second);
      }
      AVOC_ASSIGN_OR_RETURN(const uint64_t trace_count, reader.ReadU64());
      for (uint64_t i = 0; i < trace_count; ++i) {
        AVOC_ASSIGN_OR_RETURN(const std::string_view name,
                              reader.ReadBytes());
        AVOC_ASSIGN_OR_RETURN(const uint64_t tail_base, reader.ReadU64());
        AVOC_ASSIGN_OR_RETURN(std::vector<TracePoint> points,
                              ReadTracePoints(reader));
        tails[std::string(name)] = {tail_base, std::move(points)};
      }
      return reader.ExpectEnd();
    }();
    if (!parsed.ok()) {
      recovered_truncated_tail_ = true;
      continue;
    }

    history_ = std::move(history);
    for (auto& [name, tail] : tails) {
      GroupTrace& trace = traces_[name];
      trace.tail_base = tail.first;
      trace.tail = std::move(tail.second);
    }
    seq_ = seq;
    return Status::Ok();
  }

  // No usable snapshot: a fresh store, or one that never compacted.
  seq_ = std::max<uint64_t>(1, max_wal_seq);
  return Status::Ok();
}

void StorageEngine::TrimSealedTailsLocked() {
  for (auto& [group, trace] : traces_) {
    const uint64_t sealed_end = trace.sealed_end();
    if (trace.tail_base >= sealed_end) continue;
    const uint64_t overlap = sealed_end - trace.tail_base;
    if (overlap >= trace.tail.size()) {
      trace.tail.clear();
    } else {
      trace.tail.erase(trace.tail.begin(),
                       trace.tail.begin() + static_cast<ptrdiff_t>(overlap));
    }
    trace.tail_base = sealed_end;
  }
}

bool StorageEngine::CloseSealedGapsLocked() {
  bool renumbered = false;
  for (auto& [group, trace] : traces_) {
    const uint64_t sealed_end = trace.sealed_end();
    if (trace.tail_base <= sealed_end) continue;
    trace.tail_base = sealed_end;
    renumbered = true;
  }
  return renumbered;
}

Status StorageEngine::ReplayWalLocked() {
  AVOC_ASSIGN_OR_RETURN(const WalReplay replay, ReadWal(WalPath(seq_)));
  if (replay.truncated_tail) {
    recovered_truncated_tail_ = true;
    std::error_code ec;
    std::filesystem::resize_file(WalPath(seq_), replay.valid_bytes, ec);
    if (ec) return IoError("truncate torn WAL: " + ec.message());
  }
  for (const WalRecord& record : replay.records) {
    ByteReader reader(record.payload);
    switch (record.type) {
      case WalRecordType::kHistoryPut:
      case WalRecordType::kStatePut: {
        AVOC_ASSIGN_OR_RETURN(
            auto entry,
            ReadHistoryEntry(reader,
                             record.type == WalRecordType::kHistoryPut));
        AVOC_RETURN_IF_ERROR(reader.ExpectEnd());
        history_[std::string(entry.first)] = std::move(entry.second);
        break;
      }
      case WalRecordType::kHistoryErase: {
        AVOC_ASSIGN_OR_RETURN(const std::string_view name,
                              reader.ReadBytes());
        AVOC_RETURN_IF_ERROR(reader.ExpectEnd());
        history_.erase(std::string(name));
        break;
      }
      case WalRecordType::kTraceAppend: {
        AVOC_ASSIGN_OR_RETURN(const std::string_view name,
                              reader.ReadBytes());
        AVOC_ASSIGN_OR_RETURN(const uint64_t base_index, reader.ReadU64());
        AVOC_ASSIGN_OR_RETURN(std::vector<TracePoint> points,
                              ReadTracePoints(reader));
        AVOC_RETURN_IF_ERROR(reader.ExpectEnd());
        GroupTrace& trace = traces_[std::string(name)];
        const uint64_t next = trace.next_index();
        if (base_index > next) {
          // Points past a gap cannot be placed: appending them at
          // next_index would renumber them.  Replay stops here as at a
          // torn tail, and the log is cut so later appends follow the
          // last applied record.
          recovered_truncated_tail_ = true;
          std::error_code ec;
          std::filesystem::resize_file(WalPath(seq_), record.offset, ec);
          if (ec) return IoError("truncate WAL at a gap: " + ec.message());
          return Status::Ok();
        }
        if (base_index + points.size() <= next) break;  // fully covered
        const size_t skip = static_cast<size_t>(next - base_index);
        trace.tail.insert(trace.tail.end(),
                          points.begin() + static_cast<ptrdiff_t>(skip),
                          points.end());
        break;
      }
      default:
        return ParseError("unknown WAL record type");
    }
  }
  return Status::Ok();
}

Status StorageEngine::RemoveStaleFilesLocked() {
  std::error_code ec;
  std::vector<std::filesystem::path> stale;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".tmp")) {
      stale.push_back(entry.path());
      continue;
    }
    const uint64_t wal_seq = ParseSeq(name, "wal-");
    const uint64_t snap_seq = ParseSeq(name, "snap-");
    if ((wal_seq != 0 && wal_seq != seq_) ||
        (snap_seq != 0 && snap_seq != seq_)) {
      stale.push_back(entry.path());
    }
  }
  if (ec) return IoError("scan storage dir: " + ec.message());
  for (const std::filesystem::path& path : stale) {
    std::filesystem::remove(path, ec);  // best effort
  }
  return Status::Ok();
}

obs::ScopedSpan StorageEngine::StorageSpan(std::string_view name) const {
  // Storage spans parent to the calling thread's innermost span (the
  // server verb span when reached over the wire), so a traced
  // SUBMIT_BATCH_SEQ shows its own WAL write, fsync, seal and compaction.
  obs::SpanContext parent;
  if (options_.tracer != nullptr) {
    if (const obs::CurrentSpan current = obs::CurrentTraceSpan();
        current.tracer == options_.tracer) {
      parent = current.context;
    }
  }
  return obs::ScopedSpan(options_.tracer, obs::SpanKind::kStorage, name,
                         parent);
}

void StorageEngine::CountFsyncsLocked(uint64_t n) {
  fsyncs_total_ += n;
  if (fsyncs_metric_) fsyncs_metric_->Add(n);
}

Status StorageEngine::SyncWalLocked() {
  if (wal_.synced_bytes() == wal_.bytes()) return Status::Ok();
  obs::ScopedSpan span = StorageSpan("wal.fsync");
  if (span.active()) {
    span.SetDetailF("bytes=%llu", static_cast<unsigned long long>(
                                      wal_.bytes() - wal_.synced_bytes()));
  }
  AVOC_RETURN_IF_ERROR(wal_.Sync());
  CountFsyncsLocked(1);
  return Status::Ok();
}

Status StorageEngine::SyncChunksLocked() {
  if (chunks_.synced_size() == chunks_.size()) return Status::Ok();
  AVOC_RETURN_IF_ERROR(chunks_.Sync());
  CountFsyncsLocked(1);
  return Status::Ok();
}

Status StorageEngine::CommitWalLocked(WalRecordType type,
                                      size_t payload_size) {
  obs::ScopedSpan span = StorageSpan("wal.append");
  const uint64_t before = wal_.bytes();
  AVOC_RETURN_IF_ERROR(wal_.CommitRecord());
  ++wal_records_total_;
  if (wal_bytes_metric_) wal_bytes_metric_->Add(wal_.bytes() - before);
  if (wal_records_metric_) wal_records_metric_->Increment();
  const bool sync = wal_.sync_due();
  if (sync) AVOC_RETURN_IF_ERROR(SyncWalLocked());
  if (span.active()) {
    span.SetDetailF("type=%u bytes=%zu synced=%s", static_cast<unsigned>(type),
                    payload_size, sync ? "yes" : "no");
  }
  return Status::Ok();
}

Status StorageEngine::MaybeCompactLocked() {
  if (options_.compact_wal_bytes != 0 &&
      wal_.bytes() >= options_.compact_wal_bytes) {
    return CompactLocked();
  }
  return Status::Ok();
}

Status StorageEngine::Put(const std::string& group,
                          const HistorySnapshot& snapshot) {
  std::lock_guard lock(mutex_);
  if (dead_) return FailedPreconditionError("storage engine crashed");
  AVOC_RETURN_IF_ERROR(core::ValidateGroupState(snapshot));
  const size_t size = HistoryEntrySize(group, snapshot);
  PutHistoryEntry(wal_.BeginRecord(WalRecordType::kStatePut, size), group,
                  snapshot);
  AVOC_RETURN_IF_ERROR(CommitWalLocked(WalRecordType::kStatePut, size));
  history_[group] = snapshot;
  UpdateGaugesLocked();
  return MaybeCompactLocked();
}

Result<HistorySnapshot> StorageEngine::Get(const std::string& group) const {
  std::lock_guard lock(mutex_);
  if (dead_) return FailedPreconditionError("storage engine crashed");
  const auto it = history_.find(group);
  if (it == history_.end()) {
    return NotFoundError("no history for group '" + group + "'");
  }
  return it->second;
}

Result<bool> StorageEngine::Erase(const std::string& group) {
  std::lock_guard lock(mutex_);
  if (dead_) return FailedPreconditionError("storage engine crashed");
  const auto it = history_.find(group);
  if (it == history_.end()) return false;
  PutBytes(wal_.BeginRecord(WalRecordType::kHistoryErase, GroupSize(group)),
           group);
  AVOC_RETURN_IF_ERROR(
      CommitWalLocked(WalRecordType::kHistoryErase, GroupSize(group)));
  history_.erase(it);
  UpdateGaugesLocked();
  AVOC_RETURN_IF_ERROR(MaybeCompactLocked());
  return true;
}

std::vector<std::string> StorageEngine::Groups() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> groups;
  groups.reserve(history_.size());
  for (const auto& [group, snapshot] : history_) groups.push_back(group);
  return groups;
}

size_t StorageEngine::size() const {
  std::lock_guard lock(mutex_);
  return history_.size();
}

Status StorageEngine::AppendTrace(const std::string& group,
                                  std::span<const TracePoint> points) {
  if (points.empty()) return Status::Ok();
  std::lock_guard lock(mutex_);
  if (dead_) return FailedPreconditionError("storage engine crashed");
  GroupTrace& trace = traces_[group];
  const size_t size = TraceAppendSize(group, points.size());
  PutTraceAppend(wal_.BeginRecord(WalRecordType::kTraceAppend, size), group,
                 trace.next_index(), points);
  AVOC_RETURN_IF_ERROR(CommitWalLocked(WalRecordType::kTraceAppend, size));
  trace.tail.insert(trace.tail.end(), points.begin(), points.end());
  trace_points_ += points.size();
  while (trace.tail.size() >= options_.chunk_max_points) {
    AVOC_RETURN_IF_ERROR(SealLocked(group, trace));
  }
  UpdateGaugesLocked();
  return MaybeCompactLocked();
}

Result<std::vector<TracePoint>> StorageEngine::QueryTraceRange(
    const std::string& group, uint64_t lo_round, uint64_t hi_round) const {
  std::lock_guard lock(mutex_);
  if (dead_) return FailedPreconditionError("storage engine crashed");
  std::vector<TracePoint> out;
  const auto it = traces_.find(group);
  if (it == traces_.end()) return out;
  for (const SealedChunk& chunk : it->second.sealed) {
    if (chunk.last_round < lo_round || chunk.first_round > hi_round) continue;
    AVOC_RETURN_IF_ERROR(DecodeChunkRange(chunk, lo_round, hi_round, &out));
  }
  for (const TracePoint& point : it->second.tail) {
    if (point.round >= lo_round && point.round <= hi_round) {
      out.push_back(point);
    }
  }
  return out;
}

Status StorageEngine::SealLocked(const std::string& group, GroupTrace& trace) {
  obs::ScopedSpan span = StorageSpan("storage.chunk_seal");
  const size_t n = options_.chunk_max_points;
  SealedChunk chunk = SealChunk(
      trace.tail_base, std::span<const TracePoint>(trace.tail.data(), n));

  // Appended without an fsync: until the next compaction the WAL still
  // holds every point of this entry, and recovery replays the ones a
  // lost entry held (docs/STORAGE.md, Recovery).
  // Header: magic, group, four u64 fields, body length and CRC.
  std::string entry(kChunkMagic.size() + GroupSize(group) + 4 * 8 + 2 * 4 +
                        chunk.body.size(),
                    '\0');
  std::memcpy(entry.data(), kChunkMagic.data(), kChunkMagic.size());
  char* out = PutBytes(entry.data() + kChunkMagic.size(), group);
  out = PutU64(out, chunk.base_index);
  out = PutU64(out, chunk.count);
  out = PutU64(out, chunk.first_round);
  out = PutU64(out, chunk.last_round);
  out = PutU32(out, static_cast<uint32_t>(chunk.body.size()));
  out = PutU32(out, Crc32(chunk.body));
  std::memcpy(out, chunk.body.data(), chunk.body.size());
  AVOC_RETURN_IF_ERROR(chunks_.Append(entry));
  if (span.active()) {
    span.SetDetailF("group=%s points=%zu bytes=%zu", group.c_str(), n,
                    chunk.body.size());
  }

  trace.tail.erase(trace.tail.begin(), trace.tail.begin() + static_cast<ptrdiff_t>(n));
  trace.tail_base += n;
  ++sealed_chunks_;
  chunk_raw_bytes_ += chunk.count * kRawPointBytes;
  chunk_compressed_bytes_ += chunk.body.size();
  if (chunks_sealed_metric_) chunks_sealed_metric_->Increment();
  if (chunk_raw_metric_) chunk_raw_metric_->Add(chunk.count * kRawPointBytes);
  if (chunk_compressed_metric_) chunk_compressed_metric_->Add(chunk.body.size());
  trace.sealed.push_back(std::move(chunk));
  return Status::Ok();
}

std::string StorageEngine::EncodeSnapshotLocked() const {
  size_t body_size = 16;  // the two u64 counts
  for (const auto& [group, snapshot] : history_) {
    body_size += HistoryEntrySize(group, snapshot);
  }
  for (const auto& [group, trace] : traces_) {
    body_size += GroupSize(group) + 8 + TracePointsSize(trace.tail.size());
  }
  const size_t header_size = kSnapshotMagic.size() + 8;
  std::string file(header_size + body_size, '\0');
  char* const body = file.data() + header_size;
  char* out = PutU64(body, history_.size());
  for (const auto& [group, snapshot] : history_) {
    out = PutHistoryEntry(out, group, snapshot);
  }
  out = PutU64(out, traces_.size());
  for (const auto& [group, trace] : traces_) {
    out = PutBytes(out, group);
    out = PutU64(out, trace.tail_base);
    out = PutTracePoints(out, trace.tail);
  }
  std::memcpy(file.data(), kSnapshotMagic.data(), kSnapshotMagic.size());
  PutU32(PutU32(file.data() + kSnapshotMagic.size(), kSnapshotVersion),
         Crc32(std::string_view(body, body_size)));
  return file;
}

Status StorageEngine::CompactLocked() {
  obs::ScopedSpan span = StorageSpan("storage.compaction");
  const uint64_t new_seq = seq_ + 1;
  if (span.active()) {
    span.SetDetailF("seq=%llu", static_cast<unsigned long long>(new_seq));
  }
  // The snapshot retires the WAL, the only other copy of the points in
  // unsynced chunk entries, so those entries reach disk first.
  AVOC_RETURN_IF_ERROR(SyncChunksLocked());
  AVOC_RETURN_IF_ERROR(
      WriteFileDurable(SnapshotPath(new_seq), EncodeSnapshotLocked()));
  CountFsyncsLocked(2);  // the snapshot file and its directory

  const std::string old_wal = WalPath(seq_);
  const std::string old_snap = SnapshotPath(seq_);
  wal_.CloseNoSync();  // the new snapshot covers everything in it
  AVOC_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(WalPath(new_seq),
                            WalWriterOptions{options_.wal_sync_every_bytes}));

  std::error_code ec;
  std::filesystem::remove(old_wal, ec);
  std::filesystem::remove(old_snap, ec);
  seq_ = new_seq;
  ++compactions_;
  if (compactions_metric_) compactions_metric_->Increment();
  return Status::Ok();
}

Status StorageEngine::Sync() {
  std::lock_guard lock(mutex_);
  if (dead_) return FailedPreconditionError("storage engine crashed");
  AVOC_RETURN_IF_ERROR(SyncWalLocked());
  return SyncChunksLocked();
}

Status StorageEngine::Compact() {
  std::lock_guard lock(mutex_);
  if (dead_) return FailedPreconditionError("storage engine crashed");
  return CompactLocked();
}

StorageStats StorageEngine::stats() const {
  std::lock_guard lock(mutex_);
  StorageStats stats;
  stats.wal_records = wal_records_total_;
  stats.wal_bytes = wal_.open() ? wal_.bytes() : 0;
  stats.wal_synced_bytes = wal_.open() ? wal_.synced_bytes() : 0;
  stats.fsyncs = fsyncs_total_;
  stats.compactions = compactions_;
  stats.snapshot_seq = seq_;
  stats.sealed_chunks = sealed_chunks_;
  stats.chunk_raw_bytes = chunk_raw_bytes_;
  stats.chunk_compressed_bytes = chunk_compressed_bytes_;
  stats.history_groups = history_.size();
  stats.trace_points = trace_points_;
  stats.recovery_ms = recovery_ms_;
  stats.recovered_truncated_tail = recovered_truncated_tail_;
  return stats;
}

StorageEngine::CrashState StorageEngine::SimulateCrash() {
  std::lock_guard lock(mutex_);
  CrashState state;
  state.wal_path = wal_.open() ? wal_.path() : WalPath(seq_);
  state.wal_bytes = wal_.open() ? wal_.bytes() : 0;
  state.wal_synced_bytes = wal_.open() ? wal_.synced_bytes() : 0;
  state.chunks_path = ChunksPath();
  state.chunks_bytes = chunks_.open() ? chunks_.size() : 0;
  state.chunks_synced_bytes = chunks_.open() ? chunks_.synced_size() : 0;
  wal_.CloseNoSync();
  chunks_.CloseNoSync();
  dead_ = true;
  return state;
}

void StorageEngine::UpdateGaugesLocked() {
  if (groups_gauge_) groups_gauge_->Set(static_cast<double>(history_.size()));
  if (trace_points_gauge_) {
    trace_points_gauge_->Set(static_cast<double>(trace_points_));
  }
}

}  // namespace avoc::storage
