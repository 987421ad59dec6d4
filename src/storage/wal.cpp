#include "storage/wal.h"

#include <cstring>

namespace avoc::storage {

namespace {

/// Largest body one record may carry.  A length field beyond this is
/// corruption by definition (the engine's payloads are far smaller), and
/// bounding it keeps a flipped length bit from turning into a giant
/// allocation during replay.
constexpr uint64_t kMaxRecordBytes = 64ull << 20;

}  // namespace

Result<WalWriter> WalWriter::Open(const std::string& path,
                                  WalWriterOptions options) {
  WalWriter writer;
  AVOC_ASSIGN_OR_RETURN(writer.file_, AppendFile::Open(path));
  writer.options_ = options;
  return writer;
}

char* WalWriter::BeginRecord(WalRecordType type, size_t payload_size) {
  record_size_ = 8 + 1 + payload_size;
  if (record_.size() < record_size_) record_.resize(record_size_);
  return PutU8(record_.data() + 8, static_cast<uint8_t>(type));
}

Status WalWriter::CommitRecord() {
  char* header = record_.data();
  const std::string_view body(header + 8, record_size_ - 8);
  PutU32(PutU32(header, static_cast<uint32_t>(body.size())), Crc32(body));
  AVOC_RETURN_IF_ERROR(file_.Append(std::string_view(header, record_size_)));
  ++records_;
  return Status::Ok();
}

Status WalWriter::Append(WalRecordType type, std::string_view payload) {
  char* out = BeginRecord(type, payload.size());
  if (!payload.empty()) std::memcpy(out, payload.data(), payload.size());
  AVOC_RETURN_IF_ERROR(CommitRecord());
  return sync_due() ? Sync() : Status::Ok();
}

Status WalWriter::Sync() {
  if (file_.synced_size() == file_.size()) return Status::Ok();
  AVOC_RETURN_IF_ERROR(file_.Sync());
  ++fsyncs_;
  return Status::Ok();
}

Result<WalReplay> ReadWal(const std::string& path) {
  WalReplay replay;
  auto contents = ReadFileToString(path);
  if (!contents.ok()) {
    if (contents.status().code() == ErrorCode::kNotFound) return replay;
    return contents.status();
  }
  const std::string& data = *contents;
  size_t pos = 0;
  while (pos + 8 <= data.size()) {
    ByteReader header(std::string_view(data).substr(pos, 8));
    const uint32_t body_len = *header.ReadU32();
    const uint32_t crc = *header.ReadU32();
    if (body_len < 1 || body_len > kMaxRecordBytes ||
        pos + 8 + body_len > data.size()) {
      break;  // torn or corrupt tail
    }
    const std::string_view body =
        std::string_view(data).substr(pos + 8, body_len);
    if (Crc32(body) != crc) break;
    WalRecord record;
    record.type = static_cast<WalRecordType>(static_cast<uint8_t>(body[0]));
    record.payload.assign(body.substr(1));
    record.offset = pos;
    replay.records.push_back(std::move(record));
    pos += 8 + body_len;
  }
  replay.valid_bytes = pos;
  replay.truncated_tail = pos != data.size();
  return replay;
}

}  // namespace avoc::storage
