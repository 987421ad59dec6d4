// Append-only write-ahead log with CRC-framed records.
//
// Record framing (little-endian, see docs/STORAGE.md):
//
//   record := u32 body_len  u32 crc32(body)  body
//   body   := u8 type  payload
//
// Writers append records and fsync per policy (`sync_every_bytes`; 0 =
// fsync on every commit).  Readers scan the file front to back and stop
// at the first record that is truncated or fails its CRC — a torn tail
// from a crash mid-write is expected, not an error; everything before it
// is trusted.  The durability contract is exactly "nothing synced is
// ever lost; unsynced tail records may be" (the DST crash-recovery
// sweep proves it seed by seed).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "storage/io.h"
#include "util/status.h"

namespace avoc::storage {

enum class WalRecordType : uint8_t {
  kHistoryPut = 1,    ///< str group, u64 rounds, u64 n, n x f64 (format 1:
                      ///<   read, upgraded, never written)
  kHistoryErase = 2,  ///< str group
  kTraceAppend = 3,   ///< str group, u64 base_index, u64 n,
                      ///<   n x (u64 round, u64 value_bits, u8 engaged)
  kStatePut = 4,      ///< str group, group state (storage/snapshot.h)
};

struct WalRecord {
  WalRecordType type = WalRecordType::kHistoryPut;
  std::string payload;
  uint64_t offset = 0;  ///< where the record starts in the file
};

struct WalWriterOptions {
  /// fsync once this many bytes accumulated since the last sync;
  /// 0 = fsync after every Append (strictest durability).
  size_t sync_every_bytes = 0;
};

/// Appends CRC-framed records to one WAL file.  Movable, not copyable.
class WalWriter {
 public:
  WalWriter() = default;

  static Result<WalWriter> Open(const std::string& path,
                                WalWriterOptions options = {});

  /// Starts a record with a `payload_size`-byte payload in the writer's
  /// reused record buffer and returns where the payload goes.  The
  /// caller writes exactly `payload_size` bytes there, then calls
  /// CommitRecord.
  char* BeginRecord(WalRecordType type, size_t payload_size);

  /// Patches the begun record's length and CRC into its header in
  /// place and writes it with one write.  The owner then applies the
  /// sync policy: Sync() when sync_due().
  Status CommitRecord();

  /// Whether the sync policy asks for an fsync now.
  bool sync_due() const {
    return file_.size() != file_.synced_size() &&
           (options_.sync_every_bytes == 0 ||
            file_.size() - file_.synced_size() >= options_.sync_every_bytes);
  }

  /// Appends one record holding a copy of `payload` and applies the
  /// sync policy.
  Status Append(WalRecordType type, std::string_view payload);

  /// fsyncs now if anything is unsynced (commit barrier).
  Status Sync();

  /// Closes without syncing — crash simulation and teardown paths.
  void CloseNoSync() { file_.CloseNoSync(); }

  bool open() const { return file_.open(); }
  const std::string& path() const { return file_.path(); }
  uint64_t bytes() const { return file_.size(); }
  uint64_t synced_bytes() const { return file_.synced_size(); }
  uint64_t records() const { return records_; }
  uint64_t fsyncs() const { return fsyncs_; }

 private:
  AppendFile file_;
  WalWriterOptions options_;
  std::string record_;       ///< reused record buffer; never shrinks
  size_t record_size_ = 0;   ///< bytes of the begun record in record_
  uint64_t records_ = 0;
  uint64_t fsyncs_ = 0;
};

/// Result of scanning one WAL file.
struct WalReplay {
  std::vector<WalRecord> records;  ///< every valid record, in order
  uint64_t valid_bytes = 0;        ///< offset just past the last valid record
  bool truncated_tail = false;     ///< trailing bytes were torn/corrupt
};

/// Scans `path` front to back; stops at the first invalid record.
/// A missing file replays as empty.  Never fails on corruption — the
/// caller truncates to `valid_bytes` and moves on.
Result<WalReplay> ReadWal(const std::string& path);

}  // namespace avoc::storage
