// Word-level bit writer/reader for the Gorilla-style chunk codec
// (storage/chunk.h).  Bits are packed MSB-first within each byte, which
// keeps the encoded stream readable in hex dumps and matches the order
// the Facebook Gorilla paper describes.
//
// Both sides move 64-bit words, not single bits: the writer gathers bits
// in an accumulator and appends eight bytes at a time, and the reader
// loads the big-endian word under its cursor and shifts the field out of
// it.  The byte stream is the same one a bit-at-a-time coder produces
// (tests/storage_chunk_test.cpp pins it with golden bodies).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/status.h"

namespace avoc::storage {

/// Swaps between native and big-endian (stream) byte order; the same
/// swap serves both directions.
inline uint64_t BigEndian64(uint64_t word) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(word);
  }
  return word;
}

class BitWriter {
 public:
  /// Appends the low `count` (<= 64) bits of `value`, most significant
  /// first.
  void WriteBits(uint64_t value, unsigned count) {
    if (count < 64) value &= (uint64_t{1} << count) - 1;
    const unsigned room = 64 - used_;
    if (count < room) {
      acc_ = (acc_ << count) | value;
      used_ += count;
      return;
    }
    // The field fills the accumulator: flush the full word and keep the
    // field's low `rest` bits (stale bits above them shift out later).
    const unsigned rest = count - room;
    AppendWord(used_ == 0 ? value : (acc_ << room) | (value >> rest));
    acc_ = value;
    used_ = rest;
  }
  void WriteBit(uint32_t bit) { WriteBits(bit, 1); }

  /// Bits written so far, i.e. the position of the next bit.
  size_t bits_written() const { return bytes_.size() * 8 + used_; }

  /// Pads the final partial byte with zero bits and returns the buffer.
  /// No further writes afterwards.
  std::string Finish();

 private:
  void AppendWord(uint64_t word);

  std::string bytes_;
  uint64_t acc_ = 0;   ///< pending bits, right-aligned
  unsigned used_ = 0;  ///< pending bit count, always < 64
};

/// Reads past the end never touch memory outside the buffer: such a read
/// returns 0 and fails the reader for good, so a decoder may read a whole
/// record and check `ok()` once.
class BitReader {
 public:
  explicit BitReader(std::string_view bytes) : bytes_(bytes) {}

  /// Reads `count` (<= 64) bits, most significant first.
  uint64_t ReadBits(unsigned count) {
    if (count > bits_remaining()) {
      failed_ = true;
      pos_ = bytes_.size() * 8;
      return 0;
    }
    if (count == 0) return 0;
    const size_t byte = pos_ / 8;
    const unsigned skip = static_cast<unsigned>(pos_ % 8);
    pos_ += count;
    uint64_t word = 0;
    if (byte + 8 <= bytes_.size()) {
      word = LoadWord(bytes_.data() + byte) << skip;
      // A field straddling the word ends inside the ninth byte, which
      // the bounds check above proved exists.
      if (skip + count > 64) {
        word |= static_cast<uint8_t>(bytes_[byte + 8]) >> (8 - skip);
      }
    } else {
      word = LoadTail(byte) << skip;
    }
    return word >> (64 - count);
  }
  uint32_t ReadBit() { return static_cast<uint32_t>(ReadBits(1)); }

  /// Moves the cursor to bit `pos`.  A position past the end fails the
  /// reader, as a read past the end does.
  void Seek(size_t pos) {
    if (pos > bytes_.size() * 8) {
      failed_ = true;
      pos = bytes_.size() * 8;
    }
    pos_ = pos;
  }
  size_t position() const { return pos_; }

  bool ok() const { return !failed_; }
  /// ParseError once any read has run past the end.
  Status status() const;
  size_t bits_remaining() const { return bytes_.size() * 8 - pos_; }

 private:
  static uint64_t LoadWord(const char* p) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    return BigEndian64(word);
  }
  /// The fewer than 8 bytes from `byte` to the end, zero-padded.
  uint64_t LoadTail(size_t byte) const;

  std::string_view bytes_;
  size_t pos_ = 0;  ///< bit position
  bool failed_ = false;
};

}  // namespace avoc::storage
