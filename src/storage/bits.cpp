#include "storage/bits.h"

namespace avoc::storage {

void BitWriter::AppendWord(uint64_t word) {
  word = BigEndian64(word);
  char bytes[8];
  std::memcpy(bytes, &word, sizeof(bytes));
  bytes_.append(bytes, sizeof(bytes));
}

std::string BitWriter::Finish() {
  if (used_ > 0) {
    const uint64_t word = acc_ << (64 - used_);
    for (unsigned i = 0; i < (used_ + 7) / 8; ++i) {
      bytes_.push_back(static_cast<char>(word >> (56 - 8 * i)));
    }
    used_ = 0;
  }
  return std::move(bytes_);
}

Status BitReader::status() const {
  return failed_ ? ParseError("bit stream exhausted") : Status::Ok();
}

uint64_t BitReader::LoadTail(size_t byte) const {
  uint64_t word = 0;
  for (size_t i = 0; i < 8; ++i) {
    const size_t at = byte + i;
    word = (word << 8) |
           (at < bytes_.size() ? static_cast<uint8_t>(bytes_[at]) : 0u);
  }
  return word;
}

}  // namespace avoc::storage
