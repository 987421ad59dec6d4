// Low-level durable-file plumbing shared by the storage engine and the
// legacy JSON HistoryStore: CRC32, fixed-width little-endian byte
// encoding, fd-level fsync helpers, durable atomic file replacement, and
// an append-only file handle that tracks its synced prefix (the unit the
// WAL's "no loss beyond the last synced entry" contract is written in).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/status.h"

namespace avoc::storage {

/// CRC-32 (IEEE 802.3 polynomial, reflected), eight bytes per step
/// (slicing-by-8).  `seed` chains partial computations:
/// Crc32(b, Crc32(a)) == Crc32(a + b).
uint32_t Crc32(std::string_view bytes, uint32_t seed = 0);

// --- fixed-width little-endian encoding --------------------------------------
//
// On-disk records favour fixed-width fields over varints: simpler
// decoders are easier to keep crash/corruption-safe, and the WAL is
// about durability, not wire compactness (chunks carry the compressed
// representation).
//
// The Put* writers store one field at `out` and return the byte past
// it, so an encoder that sizes its record first writes every field
// through one pointer.  The Append* forms append the same bytes to a
// string, one append per field.

inline char* PutU8(char* out, uint8_t value) {
  *out = static_cast<char>(value);
  return out + 1;
}

inline char* PutU32(char* out, uint32_t value) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &value, 4);
  } else {
    for (int i = 0; i < 4; ++i) out[i] = static_cast<char>(value >> (8 * i));
  }
  return out + 4;
}

inline char* PutU64(char* out, uint64_t value) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &value, 8);
  } else {
    for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(value >> (8 * i));
  }
  return out + 8;
}

inline char* PutF64(char* out, double value) {
  return PutU64(out, std::bit_cast<uint64_t>(value));
}

/// u32 length prefix + raw bytes; 4 + bytes.size() bytes.
inline char* PutBytes(char* out, std::string_view bytes) {
  out = PutU32(out, static_cast<uint32_t>(bytes.size()));
  if (!bytes.empty()) std::memcpy(out, bytes.data(), bytes.size());
  return out + bytes.size();
}

void AppendU8(std::string& out, uint8_t value);
void AppendU32(std::string& out, uint32_t value);
void AppendU64(std::string& out, uint64_t value);
void AppendF64(std::string& out, double value);
/// u32 length prefix + raw bytes.
void AppendBytes(std::string& out, std::string_view bytes);

/// Bounds-checked cursor over one on-disk record payload.  Every read
/// fails with ParseError instead of walking off the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<double> ReadF64();
  /// A u32-length-prefixed byte string (view into the payload).
  Result<std::string_view> ReadBytes();

  size_t remaining() const { return data_.size() - pos_; }
  bool empty() const { return remaining() == 0; }

  /// ParseError unless every byte was consumed.
  Status ExpectEnd() const;

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// --- fsync helpers -----------------------------------------------------------

/// fsyncs the directory containing `path`, making a rename/create of
/// that name durable (a rename without it can vanish on power loss).
Status SyncParentDirectory(const std::string& path);

/// Durable atomic replacement: writes `path`.tmp, fsyncs the file
/// descriptor, renames over `path`, fsyncs the directory.  Readers see
/// the old or the new contents, never a torn file — and after it
/// returns OK the new contents survive a crash.
Status WriteFileDurable(const std::string& path, std::string_view contents);

/// Whole file as a string, read with one sized buffer (fstat, then
/// read calls straight into it); NotFound when the file does not exist.
Result<std::string> ReadFileToString(const std::string& path);

// --- append-only file --------------------------------------------------------

/// An append-only file descriptor tracking written vs synced bytes.
/// Movable, not copyable.  The destructor closes WITHOUT syncing —
/// owners decide durability explicitly (StorageEngine syncs on graceful
/// shutdown; SimulateCrash drops the handle to model power loss).
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile();
  AppendFile(AppendFile&& other) noexcept;
  AppendFile& operator=(AppendFile&& other) noexcept;
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Opens (creating if absent) for appending; `size()` starts at the
  /// current file size and `synced_size()` at 0.  After a process crash
  /// the existing bytes may sit only in the page cache, so nothing counts
  /// as durable until this handle's first Sync() covers it.
  static Result<AppendFile> Open(const std::string& path);

  Status Append(std::string_view bytes);
  /// fsyncs; afterwards synced_size() == size().
  Status Sync();
  /// Closes the descriptor without syncing (crash simulation / error
  /// paths).  Idempotent.
  void CloseNoSync();

  bool open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  uint64_t size() const { return size_; }
  uint64_t synced_size() const { return synced_size_; }

 private:
  int fd_ = -1;
  std::string path_;
  uint64_t size_ = 0;
  uint64_t synced_size_ = 0;
};

}  // namespace avoc::storage
