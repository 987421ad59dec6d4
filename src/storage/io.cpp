#include "storage/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

namespace avoc::storage {

namespace {

/// Slicing-by-8 tables: table[0] is the bytewise table of the reflected
/// IEEE polynomial, and table[k][i] is the CRC of byte i followed by k
/// zero bytes, so one step folds eight input bytes with eight lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

uint32_t LoadLe32(const unsigned char* p) {
  uint32_t value = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&value, p, 4);
  } else {
    for (int i = 0; i < 4; ++i) value |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return value;
}

std::string ErrnoMessage(std::string_view what, const std::string& path) {
  return std::string(what) + " '" + path + "': " + std::strerror(errno);
}

Status SyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) return IoError(ErrnoMessage("fsync", path));
  return Status::Ok();
}

Status WriteAllFd(int fd, std::string_view bytes, const std::string& path) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError(ErrnoMessage("write", path));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

uint32_t Crc32(std::string_view bytes, uint32_t seed) {
  const CrcTables& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  size_t n = bytes.size();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void AppendU8(std::string& out, uint8_t value) {
  out.push_back(static_cast<char>(value));
}

void AppendU32(std::string& out, uint32_t value) {
  char buffer[4] = {};
  out.append(buffer, PutU32(buffer, value));
}

void AppendU64(std::string& out, uint64_t value) {
  char buffer[8] = {};
  out.append(buffer, PutU64(buffer, value));
}

void AppendF64(std::string& out, double value) {
  char buffer[8] = {};
  out.append(buffer, PutF64(buffer, value));
}

void AppendBytes(std::string& out, std::string_view bytes) {
  AppendU32(out, static_cast<uint32_t>(bytes.size()));
  out.append(bytes);
}

Result<uint8_t> ByteReader::ReadU8() {
  if (remaining() < 1) return ParseError("record truncated reading u8");
  const uint8_t value = static_cast<uint8_t>(data_[pos_]);
  pos_ += 1;
  return value;
}

Result<uint32_t> ByteReader::ReadU32() {
  if (remaining() < 4) return ParseError("record truncated reading u32");
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
  }
  pos_ += 4;
  return value;
}

Result<uint64_t> ByteReader::ReadU64() {
  if (remaining() < 8) return ParseError("record truncated reading u64");
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
  }
  pos_ += 8;
  return value;
}

Result<double> ByteReader::ReadF64() {
  AVOC_ASSIGN_OR_RETURN(const uint64_t bits, ReadU64());
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<std::string_view> ByteReader::ReadBytes() {
  AVOC_ASSIGN_OR_RETURN(const uint32_t len, ReadU32());
  if (remaining() < len) return ParseError("record truncated reading bytes");
  std::string_view view = data_.substr(pos_, len);
  pos_ += len;
  return view;
}

Status ByteReader::ExpectEnd() const {
  if (!empty()) return ParseError("trailing bytes in record");
  return Status::Ok();
}

Status SyncParentDirectory(const std::string& path) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) parent = ".";
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return IoError(ErrnoMessage("open dir", parent.string()));
  const Status synced = SyncFd(fd, parent.string());
  ::close(fd);
  return synced;
}

Status WriteFileDurable(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoError(ErrnoMessage("open", tmp));
  Status status = WriteAllFd(fd, contents, tmp);
  if (status.ok()) status = SyncFd(fd, tmp);
  ::close(fd);
  if (!status.ok()) return status;
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return IoError("rename to '" + path + "' failed: " + ec.message());
  return SyncParentDirectory(path);
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return NotFoundError("cannot open '" + path + "'");
    return IoError(ErrnoMessage("open", path));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status status = IoError(ErrnoMessage("fstat", path));
    ::close(fd);
    return status;
  }
  std::string contents(static_cast<size_t>(st.st_size), '\0');
  size_t filled = 0;
  while (filled < contents.size()) {
    const ssize_t n =
        ::read(fd, contents.data() + filled, contents.size() - filled);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = IoError(ErrnoMessage("read", path));
      ::close(fd);
      return status;
    }
    if (n == 0) break;  // the file shrank since fstat
    filled += static_cast<size_t>(n);
  }
  ::close(fd);
  contents.resize(filled);
  return contents;
}

AppendFile::~AppendFile() { CloseNoSync(); }

AppendFile::AppendFile(AppendFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      size_(other.size_),
      synced_size_(other.synced_size_) {}

AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
  if (this != &other) {
    CloseNoSync();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    size_ = other.size_;
    synced_size_ = other.synced_size_;
  }
  return *this;
}

Result<AppendFile> AppendFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return IoError(ErrnoMessage("open", path));
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return IoError(ErrnoMessage("lseek", path));
  }
  AppendFile file;
  file.fd_ = fd;
  file.path_ = path;
  file.size_ = static_cast<uint64_t>(end);
  return file;
}

Status AppendFile::Append(std::string_view bytes) {
  if (fd_ < 0) return FailedPreconditionError("append file is closed");
  AVOC_RETURN_IF_ERROR(WriteAllFd(fd_, bytes, path_));
  size_ += bytes.size();
  return Status::Ok();
}

Status AppendFile::Sync() {
  if (fd_ < 0) return FailedPreconditionError("append file is closed");
  AVOC_RETURN_IF_ERROR(SyncFd(fd_, path_));
  synced_size_ = size_;
  return Status::Ok();
}

void AppendFile::CloseNoSync() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace avoc::storage
