#include "storage/chunk.h"

#include <algorithm>
#include <cstring>
#include <tuple>
#include <utility>

#include "storage/bits.h"

namespace avoc::storage {

namespace {

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

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

unsigned LeadingZeros(uint64_t v) {
  return v == 0 ? 64u : static_cast<unsigned>(__builtin_clzll(v));
}

unsigned TrailingZeros(uint64_t v) {
  return v == 0 ? 64u : static_cast<unsigned>(__builtin_ctzll(v));
}

void WriteDod(BitWriter& bits, int64_t dod) {
  const uint64_t zz = ZigZag(dod);
  if (zz == 0) {
    bits.WriteBit(0);
  } else if (zz < (1ull << 7)) {
    bits.WriteBits((0b10ull << 7) | zz, 2 + 7);
  } else if (zz < (1ull << 12)) {
    bits.WriteBits((0b110ull << 12) | zz, 3 + 12);
  } else if (zz < (1ull << 20)) {
    bits.WriteBits((0b1110ull << 20) | zz, 4 + 20);
  } else {
    bits.WriteBits(0b1111, 4);
    bits.WriteBits(zz, 64);
  }
}

int64_t ReadDod(BitReader& bits) {
  if (bits.ReadBit() == 0) return 0;
  if (bits.ReadBit() == 0) return UnZigZag(bits.ReadBits(7));
  if (bits.ReadBit() == 0) return UnZigZag(bits.ReadBits(12));
  if (bits.ReadBit() == 0) return UnZigZag(bits.ReadBits(20));
  return UnZigZag(bits.ReadBits(64));
}

std::string Encode(std::span<const TracePoint> points,
                   std::vector<ChunkMark>* marks) {
  BitWriter bits;
  marks->clear();
  if (points.empty()) return bits.Finish();

  // Segment 0 starts at bit 0 from the initial state.  Each mark's
  // round range is filled in when its segment closes.
  marks->emplace_back();

  // First point: raw round, raw value bits, engaged bit.
  bits.WriteBits(points[0].round, 64);
  bits.WriteBits(DoubleBits(points[0].value), 64);
  bits.WriteBit(points[0].engaged ? 1 : 0);

  // Deltas wrap modulo 2^64 (rounds are unsigned); the dod field stores
  // the wrapped difference as a signed value.
  uint64_t prev_delta = 0;
  uint64_t prev_round = points[0].round;
  uint64_t prev_bits = DoubleBits(points[0].value);
  unsigned window_lead = 64;  // 64 = no reusable XOR window yet
  unsigned window_len = 0;
  uint64_t min_round = prev_round;
  uint64_t max_round = prev_round;

  for (size_t i = 1; i < points.size(); ++i) {
    const TracePoint& p = points[i];
    if (i % kChunkSegmentPoints == 0) {
      marks->back().min_round = min_round;
      marks->back().max_round = max_round;
      marks->push_back(ChunkMark{bits.bits_written(), prev_round, prev_delta,
                                 prev_bits, 0, 0,
                                 static_cast<uint8_t>(window_lead),
                                 static_cast<uint8_t>(window_len)});
      min_round = max_round = p.round;
    }
    min_round = std::min(min_round, p.round);
    max_round = std::max(max_round, p.round);

    // Round: delta-of-delta.
    const uint64_t delta = p.round - prev_round;
    WriteDod(bits, static_cast<int64_t>(delta - prev_delta));
    prev_delta = delta;
    prev_round = p.round;

    // Value: XOR against the previous value.
    const uint64_t value_bits = DoubleBits(p.value);
    const uint64_t x = value_bits ^ prev_bits;
    prev_bits = value_bits;
    if (x == 0) {
      bits.WriteBit(0);
    } else {
      bits.WriteBit(1);
      unsigned lead = LeadingZeros(x);
      if (lead > 31) lead = 31;  // 5 bits of headroom beat a wider field
      const unsigned trail = TrailingZeros(x);
      const unsigned len = 64 - lead - trail;
      if (window_lead <= lead && window_lead + window_len >= lead + len) {
        // The previous window still covers every meaningful bit.
        bits.WriteBit(0);
        bits.WriteBits(x >> (64 - window_lead - window_len), window_len);
      } else {
        bits.WriteBit(1);
        bits.WriteBits(lead, 6);
        bits.WriteBits(len - 1, 6);
        bits.WriteBits(x >> trail, len);
        window_lead = lead;
        window_len = len;
      }
    }

    bits.WriteBit(p.engaged ? 1 : 0);
  }
  marks->back().min_round = min_round;
  marks->back().max_round = max_round;
  return bits.Finish();
}

// The one decode loop, behind DecodeChunk and DecodeChunkRange.
//
// With `rebuilt` set it reads the body from bit 0, segment after
// segment, and records each segment's mark.  Without it, it seeks
// through `chunk.marks` to the segments whose round range meets
// [lo, hi] and checks each one it decodes against its mark.  Either way
// it appends the decoded points whose round lies in [lo, hi], in append
// order, and every decoded segment must end where the next one starts
// (the last one within a byte, on zero padding).
Status DecodeSegments(const SealedChunk& chunk, uint64_t lo, uint64_t hi,
                      std::vector<ChunkMark>* rebuilt,
                      std::vector<TracePoint>* out) {
  const uint64_t count = chunk.count;
  if (count == 0) return ParseError("chunk holds no points");
  if (count > chunk.body.size() * 8) {
    // Cheap sanity bound: every point costs >= 3 bits.
    return ParseError("chunk count exceeds encoded capacity");
  }
  const uint64_t segments =
      (count + kChunkSegmentPoints - 1) / kChunkSegmentPoints;
  if (rebuilt != nullptr) {
    rebuilt->clear();
    rebuilt->reserve(static_cast<size_t>(segments));
    out->reserve(out->size() + static_cast<size_t>(count));
  } else if (chunk.marks.size() != segments) {
    return ParseError("chunk seek marks do not match its count");
  }

  // Callers pass lo <= hi, so a round lies in [lo, hi] exactly when
  // round - lo <= hi - lo (unsigned): one compare per point.
  const uint64_t span = hi - lo;
  BitReader bits(chunk.body);
  ChunkMark next;  // rebuilding: the state the next segment starts from
  for (uint64_t s = 0; s < segments; ++s) {
    ChunkMark mark = rebuilt != nullptr ? next : chunk.marks[s];
    if (rebuilt != nullptr) {
      mark.bit_offset = bits.position();
    } else {
      if (mark.max_round < lo || mark.min_round > hi) continue;
      if (mark.window_lead + mark.window_len > 64) {
        return ParseError("chunk seek mark holds an impossible XOR window");
      }
      bits.Seek(mark.bit_offset);
    }

    uint64_t prev_round = mark.prev_round;
    uint64_t prev_delta = mark.prev_delta;
    uint64_t prev_bits = mark.prev_bits;
    unsigned window_lead = mark.window_lead;
    unsigned window_len = mark.window_len;
    uint64_t i = s * kChunkSegmentPoints;
    const uint64_t end = std::min(count, i + kChunkSegmentPoints);

    uint64_t min_round = UINT64_MAX;
    uint64_t max_round = 0;

    // A read past the end yields zeros and latches the reader's error,
    // so each point checks `bits.ok()` once, after all of its fields.
    if (i == 0) {
      // First point: raw round, raw value bits, engaged bit.
      prev_round = bits.ReadBits(64);
      prev_bits = bits.ReadBits(64);
      const uint32_t engaged = bits.ReadBit();
      AVOC_RETURN_IF_ERROR(bits.status());
      min_round = max_round = prev_round;
      if (prev_round - lo <= span) {
        out->push_back(
            TracePoint{prev_round, BitsToDouble(prev_bits), engaged != 0});
      }
      ++i;
    }

    for (; i < end; ++i) {
      const uint64_t delta = prev_delta + static_cast<uint64_t>(ReadDod(bits));
      const uint64_t round = prev_round + delta;
      prev_delta = delta;
      prev_round = round;

      if (bits.ReadBit() != 0) {
        if (bits.ReadBit() == 0) {
          if (window_len == 0) {
            return ParseError("chunk reuses XOR window before defining one");
          }
          prev_bits ^= bits.ReadBits(window_len)
                       << (64 - window_lead - window_len);
        } else {
          const auto lead = static_cast<unsigned>(bits.ReadBits(6));
          const auto len = static_cast<unsigned>(bits.ReadBits(6)) + 1;
          if (lead + len > 64) {
            return ParseError("chunk XOR window exceeds 64 bits");
          }
          prev_bits ^= bits.ReadBits(len) << (64 - lead - len);
          window_lead = lead;
          window_len = len;
        }
      }

      const uint32_t engaged = bits.ReadBit();
      if (!bits.ok()) return bits.status();
      min_round = std::min(min_round, round);
      max_round = std::max(max_round, round);
      if (round - lo <= span) {
        out->push_back(
            TracePoint{round, BitsToDouble(prev_bits), engaged != 0});
      }
    }

    if (rebuilt != nullptr) {
      mark.min_round = min_round;
      mark.max_round = max_round;
      rebuilt->push_back(mark);
      next.prev_round = prev_round;
      next.prev_delta = prev_delta;
      next.prev_bits = prev_bits;
      next.window_lead = static_cast<uint8_t>(window_lead);
      next.window_len = static_cast<uint8_t>(window_len);
    } else if (min_round != mark.min_round || max_round != mark.max_round) {
      return ParseError("chunk segment rounds disagree with its seek mark");
    }

    if (s + 1 < segments) {
      if (rebuilt == nullptr &&
          bits.position() != chunk.marks[s + 1].bit_offset) {
        return ParseError("chunk segment does not end at the next seek mark");
      }
    } else {
      // The encoder pads only the last byte, with zeros; anything else
      // means the header's count does not describe this body.
      const size_t padding = bits.bits_remaining();
      if (padding >= 8 || bits.ReadBits(static_cast<unsigned>(padding)) != 0) {
        return ParseError("chunk body continues past its last point");
      }
    }
  }
  return Status::Ok();
}

// The min and max round over the segments `marks` describe.
std::pair<uint64_t, uint64_t> MarkedRounds(std::span<const ChunkMark> marks) {
  uint64_t min_round = UINT64_MAX;
  uint64_t max_round = 0;
  for (const ChunkMark& mark : marks) {
    min_round = std::min(min_round, mark.min_round);
    max_round = std::max(max_round, mark.max_round);
  }
  return {min_round, max_round};
}

}  // namespace

std::string EncodeChunk(std::span<const TracePoint> points) {
  std::vector<ChunkMark> marks;
  return Encode(points, &marks);
}

SealedChunk SealChunk(uint64_t base_index,
                      std::span<const TracePoint> points) {
  SealedChunk chunk;
  chunk.base_index = base_index;
  chunk.count = points.size();
  chunk.body = Encode(points, &chunk.marks);
  std::tie(chunk.first_round, chunk.last_round) = MarkedRounds(chunk.marks);
  return chunk;
}

Status DecodeChunk(const SealedChunk& chunk, std::vector<TracePoint>* out,
                   std::vector<ChunkMark>* marks) {
  out->clear();
  std::vector<ChunkMark> local;
  std::vector<ChunkMark>& rebuilt = marks != nullptr ? *marks : local;
  AVOC_RETURN_IF_ERROR(DecodeSegments(chunk, 0, UINT64_MAX, &rebuilt, out));
  if (MarkedRounds(rebuilt) !=
      std::pair(chunk.first_round, chunk.last_round)) {
    return ParseError("chunk rounds disagree with its header");
  }
  return Status::Ok();
}

Status DecodeChunkRange(const SealedChunk& chunk, uint64_t lo, uint64_t hi,
                        std::vector<TracePoint>* out) {
  if (hi < lo) return Status::Ok();
  return DecodeSegments(chunk, lo, hi, nullptr, out);
}

}  // namespace avoc::storage
