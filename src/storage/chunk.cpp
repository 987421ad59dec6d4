#include "storage/chunk.h"

#include <algorithm>
#include <cstring>

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

}  // namespace

std::string EncodeChunk(std::span<const TracePoint> points) {
  BitWriter bits;
  if (points.empty()) return bits.Finish();

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

  for (size_t i = 1; i < points.size(); ++i) {
    const TracePoint& p = points[i];

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
  return bits.Finish();
}

SealedChunk SealChunk(uint64_t base_index,
                      std::span<const TracePoint> points) {
  SealedChunk chunk;
  chunk.base_index = base_index;
  chunk.count = points.size();
  const auto [lo, hi] = std::minmax_element(
      points.begin(), points.end(),
      [](const TracePoint& a, const TracePoint& b) {
        return a.round < b.round;
      });
  chunk.first_round = lo->round;
  chunk.last_round = hi->round;
  chunk.body = EncodeChunk(points);
  return chunk;
}

Status DecodeChunk(const SealedChunk& chunk, std::vector<TracePoint>* out) {
  out->clear();
  const uint64_t count = chunk.count;
  if (count == 0) return ParseError("chunk holds no points");
  if (count > chunk.body.size() * 8) {
    // Cheap sanity bound: every point costs >= 3 bits.
    return ParseError("chunk count exceeds encoded capacity");
  }
  BitReader bits(chunk.body);
  out->reserve(static_cast<size_t>(count));

  // A read past the end yields zeros and latches the reader's error, so
  // each point checks `bits.ok()` once, after all of its fields.
  const uint64_t first_round = bits.ReadBits(64);
  const uint64_t first_bits = bits.ReadBits(64);
  const uint32_t first_engaged = bits.ReadBit();
  AVOC_RETURN_IF_ERROR(bits.status());
  out->push_back(
      TracePoint{first_round, BitsToDouble(first_bits), first_engaged != 0});

  uint64_t prev_delta = 0;
  uint64_t prev_round = first_round;
  uint64_t prev_bits = first_bits;
  uint64_t min_round = first_round;
  uint64_t max_round = first_round;
  unsigned window_lead = 64;
  unsigned window_len = 0;

  for (uint64_t i = 1; i < count; ++i) {
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
    out->push_back(TracePoint{round, BitsToDouble(prev_bits), engaged != 0});
  }

  // The encoder pads only the last byte, with zeros; anything else means
  // the header's count does not describe this body.
  const size_t padding = bits.bits_remaining();
  if (padding >= 8 || bits.ReadBits(static_cast<unsigned>(padding)) != 0) {
    return ParseError("chunk body continues past its last point");
  }
  if (min_round != chunk.first_round || max_round != chunk.last_round) {
    return ParseError("chunk rounds disagree with its header");
  }
  return Status::Ok();
}

}  // namespace avoc::storage
