#include "storage/chunk.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/bits.h"
#include "util/rng.h"

namespace avoc::storage {
namespace {

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TracePoint Raw(uint64_t round, uint64_t value_bits, bool engaged = true) {
  double value = 0.0;
  std::memcpy(&value, &value_bits, sizeof(value));
  return TracePoint{round, value, engaged};
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto byte = static_cast<uint8_t>(c);
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xF]);
  }
  return hex;
}

std::string Unhex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

TEST(BitsTest, RoundTripSingleBits) {
  BitWriter writer;
  const uint32_t pattern[] = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1};
  for (uint32_t bit : pattern) writer.WriteBit(bit);
  const std::string bytes = writer.Finish();
  BitReader reader(bytes);
  for (uint32_t bit : pattern) {
    const uint32_t read = reader.ReadBit();
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(read, bit);
  }
}

TEST(BitsTest, RoundTripMultiBitFields) {
  BitWriter writer;
  writer.WriteBits(0x5A, 8);
  writer.WriteBits(0x3, 2);
  writer.WriteBits(0xFFFFFFFFFFFFFFFFull, 64);
  writer.WriteBits(0, 1);
  writer.WriteBits(0x12345, 20);
  const std::string bytes = writer.Finish();
  BitReader reader(bytes);
  EXPECT_EQ(reader.ReadBits(8), 0x5Au);
  EXPECT_EQ(reader.ReadBits(2), 0x3u);
  EXPECT_EQ(reader.ReadBits(64), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(reader.ReadBits(1), 0u);
  EXPECT_EQ(reader.ReadBits(20), 0x12345u);
  EXPECT_TRUE(reader.ok());
}

TEST(BitsTest, ReadPastEndFails) {
  BitWriter writer;
  writer.WriteBits(0xAB, 8);
  const std::string bytes = writer.Finish();
  BitReader reader(bytes);
  reader.ReadBits(8);
  EXPECT_TRUE(reader.ok());
  reader.ReadBits(1);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.ReadBits(1), 0u);
  EXPECT_EQ(reader.status().code(), ErrorCode::kParseError);
}

// Fields of every width at every bit offset, including ones that
// straddle a 64-bit word and ones inside the last 8 bytes, against a
// bit-at-a-time reference packer.
TEST(BitsTest, RandomFieldsMatchBitAtATimeReference) {
  avoc::Rng rng(20261018);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::pair<uint64_t, unsigned>> fields;
    std::vector<bool> reference;
    BitWriter writer;
    const size_t n = 1 + rng.UniformInt(40);
    for (size_t f = 0; f < n; ++f) {
      const auto count = static_cast<unsigned>(rng.UniformInt(65));
      const uint64_t value =
          count == 64 ? rng() : rng() & ((uint64_t{1} << count) - 1);
      fields.emplace_back(value, count);
      writer.WriteBits(value, count);
      for (unsigned b = count; b-- > 0;) reference.push_back((value >> b) & 1);
    }
    std::string want((reference.size() + 7) / 8, '\0');
    for (size_t b = 0; b < reference.size(); ++b) {
      if (reference[b]) want[b / 8] |= static_cast<char>(0x80 >> (b % 8));
    }
    const std::string bytes = writer.Finish();
    ASSERT_EQ(Hex(bytes), Hex(want)) << "iteration " << iter;

    BitReader reader(bytes);
    for (const auto& [value, count] : fields) {
      EXPECT_EQ(reader.ReadBits(count), value) << "width " << count;
    }
    ASSERT_TRUE(reader.ok());
    EXPECT_LT(reader.bits_remaining(), 8u);
    reader.ReadBits(static_cast<unsigned>(reader.bits_remaining()) + 1);
    EXPECT_EQ(reader.status().code(), ErrorCode::kParseError);
  }
}

/// Rounds whose delta-of-delta walks through `dods`, starting at `first`.
std::vector<TracePoint> RoundsWithDods(uint64_t first,
                                       std::span<const int64_t> dods) {
  std::vector<TracePoint> points{{first, 3.5, true}};
  int64_t delta = 0;
  for (const int64_t dod : dods) {
    delta += dod;
    points.push_back(TracePoint{
        points.back().round + static_cast<uint64_t>(delta), 3.5, true});
  }
  return points;
}

struct GoldenChunk {
  const char* name;
  std::vector<TracePoint> points;
  const char* hex;  ///< EncodeChunk(points) as the format defines it
};

// Chunk bodies as the format defines them.  Sealed `chunks` files hold
// exactly these bytes, so the encoder must keep emitting them and the
// decoder must keep reading them back bit for bit; a round trip alone
// cannot catch a format change made on both sides at once.
std::vector<GoldenChunk> GoldenChunks() {
  // Every delta-of-delta bucket, both signs, and each bucket edge:
  // zig-zag 127/128, 4095/4096 and 2^20-1/2^20.
  const int64_t dods[] = {1,       0,      -2,
                          100,     -1500,  300000,
                          -400000, int64_t{1} << 40,
                          -(int64_t{1} << 40),
                          -64,     64,     -2048,
                          2048,    -524288, 524288,
                          0};
  return {
      {"dod_buckets", RoundsWithDods(1000000000000, dods),
       "000000e8d4a51000400c000000000000c0930370643aedde927c07b0"
       "d3fdf00000200000000007c000007fffffffffdbfb8201dffef00800"
       "3dffffef800000000008000024"},
      {"xor_paths",
       {
           Raw(0, 0x3FF0000000000000),  // 1.0
           Raw(1, 0x3FF0000000000000),  // identical: '0'
           Raw(2, 0x3FF8000000000000),  // new window (12, 1)
           Raw(3, 0x3FF0000000000000),  // reuses (12, 1)
           Raw(4, 0x3FFC000000000000),  // wider: new window (12, 2)
           Raw(5, 0x3FF8000000000000),  // fits (12, 2): reuse
           Raw(6, 0x3FF8000000000001),  // lead 63 clamped to 31
           Raw(7, 0x3FF8000000000003),  // fits (31, 33): reuse
           Raw(8, 0x0000000000000000),  // new window (2, 62)
           Raw(9, 0x8000000000000001),  // 64-bit-wide window (0, 64)
           Raw(10, 0x0000000000000003),  // reuses the 64-bit window
           Raw(11, 0xFFFFFFFFFFFFFFFF),  // and again, all bits
       },
       "00000000000000003ff0000000000000c096601ad980f4dbf0000000"
       "006800000005617bffc000000000001d81fc000000000000000d4000"
       "00000000000157ffffffffffffffe4"},
      {"special_values",
       {
           Raw(0, 0x0000000000000000),  // +0.0
           Raw(1, 0x8000000000000000),  // -0.0
           Raw(2, 0x7FF0000000000000),  // +inf
           Raw(3, 0xFFF0000000000000),  // -inf
           Raw(4, 0x7FF8000000000123),  // quiet NaN with a payload
           Raw(5, 0x7FF0000000000001),  // signalling NaN
           Raw(6, 0xFFF8000000000000),  // negative NaN
           Raw(7, 0x0000000000000001),  // smallest denormal
           Raw(8, 0x000FFFFFFFFFFFFF),  // largest denormal
           Raw(9, 0x800FFFFFFFFFFFFF),  // negative denormal
       },
       "00000000000000000000000000000000c0b000d805fffd400581fc00"
       "4000000000091d000400000000009154004000000000000d7ffc0000"
       "00000000d0007ffffffffffff5400000000000000040"},
      {"non_engaged",
       {
           {50, 20.25, true},
           {51, 0.0, false},
           {52, 20.5, true},
           {53, 20.625, true},
           {54, 0.0, false},
           {55, 0.0, false},
           {56, 21.0, true},
       },
       "00000000000000324034400000000000c0b050806894034ad20360a3"
       "00d282806a20"},
      // 129 bits: the body ends 7 bits short of a byte boundary.
      {"single_point_off_boundary",
       {{7, 2.5, true}},
       "0000000000000007400400000000000080"},
      // 129 + 11 + 4 * 3 = 152 bits: the body ends on a byte boundary.
      {"on_byte_boundary",
       {{7, 2.5, true},
        {8, 2.5, true},
        {9, 2.5, true},
        {10, 2.5, true},
        {11, 2.5, true},
        {12, 2.5, true}},
       "00000000000000074004000000000000c09249"},
  };
}

std::vector<TracePoint> RoundTrip(std::span<const TracePoint> points) {
  std::vector<TracePoint> decoded;
  const Status status = DecodeChunk(SealChunk(0, points), &decoded);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return decoded;
}

void ExpectBitIdentical(std::span<const TracePoint> want,
                        std::span<const TracePoint> got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].round, got[i].round) << "point " << i;
    EXPECT_EQ(want[i].engaged, got[i].engaged) << "point " << i;
    EXPECT_EQ(Bits(want[i].value), Bits(got[i].value)) << "point " << i;
  }
}

TEST(ChunkTest, GoldenBodiesAreByteIdentical) {
  for (const GoldenChunk& golden : GoldenChunks()) {
    EXPECT_EQ(Hex(EncodeChunk(golden.points)), golden.hex) << golden.name;
  }
}

TEST(ChunkTest, GoldenBodiesDecodeBitIdentical) {
  for (const GoldenChunk& golden : GoldenChunks()) {
    SCOPED_TRACE(golden.name);
    SealedChunk chunk = SealChunk(0, golden.points);
    chunk.body = Unhex(golden.hex);
    std::vector<TracePoint> decoded;
    const Status status = DecodeChunk(chunk, &decoded);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ExpectBitIdentical(golden.points, decoded);
  }
}

TEST(ChunkTest, SinglePoint) {
  const TracePoint point{42, 3.25, true};
  ExpectBitIdentical(std::span(&point, 1), RoundTrip(std::span(&point, 1)));
}

TEST(ChunkTest, MonotoneRoundsSlowlyDriftingValues) {
  std::vector<TracePoint> points;
  double value = 20.0;
  for (uint64_t round = 0; round < 1000; ++round) {
    value += 0.01;
    points.push_back(TracePoint{round, value, true});
  }
  ExpectBitIdentical(points, RoundTrip(points));
  // The whole purpose of the codec: the steady case compresses well
  // below the 17-byte raw point.
  EXPECT_LT(EncodeChunk(points).size(), points.size() * 17 / 2);
}

TEST(ChunkTest, NonEngagedRoundsEncodeAsZero) {
  std::vector<TracePoint> points;
  for (uint64_t round = 0; round < 64; ++round) {
    const bool engaged = round % 3 != 0;
    points.push_back(TracePoint{round, engaged ? 1.5 + round : 0.0, engaged});
  }
  ExpectBitIdentical(points, RoundTrip(points));
}

TEST(ChunkTest, SpecialValuesRoundTripBitExact) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double snan = std::numeric_limits<double>::signaling_NaN();
  std::vector<TracePoint> points{
      {0, 0.0, true},
      {1, -0.0, true},
      {2, std::numeric_limits<double>::infinity(), true},
      {3, -std::numeric_limits<double>::infinity(), true},
      {4, qnan, true},
      {5, snan, true},
      {6, std::numeric_limits<double>::denorm_min(), true},
      {7, -std::numeric_limits<double>::max(), true},
  };
  ExpectBitIdentical(points, RoundTrip(points));
}

TEST(ChunkTest, OutOfOrderAndSparseRounds) {
  std::vector<TracePoint> points{
      {100, 1.0, true},  {5, 2.0, true},     {6, 2.0, true},
      {1000000, 3.0, true}, {999999, -3.0, true}, {0, 0.5, true},
  };
  ExpectBitIdentical(points, RoundTrip(points));
}

TEST(ChunkTest, LargeRoundNumbers) {
  std::vector<TracePoint> points{
      {0, 1.0, true},
      {std::numeric_limits<uint64_t>::max() / 2, 2.0, true},
      {std::numeric_limits<uint64_t>::max(), 3.0, true},
  };
  ExpectBitIdentical(points, RoundTrip(points));
}

TEST(ChunkTest, RandomizedRoundTrip) {
  avoc::Rng rng(20260808);
  for (int iter = 0; iter < 50; ++iter) {
    const size_t n = 1 + static_cast<size_t>(rng.UniformInt(300));
    std::vector<TracePoint> points;
    uint64_t round = rng.UniformInt(1000);
    double value = rng.NextDouble() * 100.0;
    for (size_t i = 0; i < n; ++i) {
      // Mostly steady strides and drifts, with occasional jumps — the
      // workload shape the bucket boundaries were picked for.
      switch (rng.UniformInt(8)) {
        case 0: round += rng.UniformInt(100000); break;
        case 1: value = rng.NextDouble() * 1e12 - 5e11; break;
        default:
          round += 1;
          value += rng.NextDouble() * 0.1 - 0.05;
          break;
      }
      const bool engaged = rng.UniformInt(10) != 0;
      points.push_back(TracePoint{round, engaged ? value : 0.0, engaged});
    }
    ExpectBitIdentical(points, RoundTrip(points));
  }
}

TEST(ChunkTest, DecodeRejectsTruncatedBody) {
  std::vector<std::vector<TracePoint>> bodies;
  std::vector<TracePoint> steady;
  for (uint64_t round = 0; round < 100; ++round) {
    steady.push_back(TracePoint{round, 1.0 + round * 0.5, true});
  }
  bodies.push_back(steady);
  // The last point's raw 64-bit dod is read inside the final 8 bytes.
  bodies.push_back(
      {{0, 1.0, true}, {1, 1.0, true}, {1 + (1ull << 40), 1.0, true}});
  for (const GoldenChunk& golden : GoldenChunks()) {
    bodies.push_back(golden.points);
  }
  std::vector<TracePoint> decoded;
  for (const std::vector<TracePoint>& points : bodies) {
    const SealedChunk full = SealChunk(0, points);
    for (size_t keep = 0; keep < full.body.size(); ++keep) {
      SealedChunk chunk = full;
      chunk.body.resize(keep);
      EXPECT_EQ(DecodeChunk(chunk, &decoded).code(), ErrorCode::kParseError)
          << "kept " << keep << " of " << full.body.size();
    }
  }
}

TEST(ChunkTest, DecodeRejectsImpossibleCount) {
  const TracePoint point{1, 2.0, true};
  SealedChunk chunk = SealChunk(0, std::span(&point, 1));
  std::vector<TracePoint> decoded;
  // More points than the body has bits cannot be valid.
  chunk.count = chunk.body.size() * 8 + 1;
  EXPECT_FALSE(DecodeChunk(chunk, &decoded).ok());
  chunk.count = 0;
  EXPECT_FALSE(DecodeChunk(chunk, &decoded).ok());
}

// The chunks file CRCs only the body, so the decoder cross-checks the
// header fields it can: the point count against where the body ends,
// and the round range against the decoded rounds.
TEST(ChunkTest, DecodeRejectsHeaderThatDisagreesWithBody) {
  std::vector<TracePoint> points;
  for (uint64_t round = 10; round < 30; ++round) {
    points.push_back(TracePoint{round, 0.25 * round, true});
  }
  const SealedChunk sealed = SealChunk(7, points);
  std::vector<TracePoint> decoded;
  ASSERT_TRUE(DecodeChunk(sealed, &decoded).ok());

  const auto expect_rejected = [&](const SealedChunk& chunk,
                                   const char* what) {
    EXPECT_EQ(DecodeChunk(chunk, &decoded).code(), ErrorCode::kParseError)
        << what;
  };
  for (const uint64_t count : {sealed.count - 1, sealed.count + 1}) {
    SealedChunk chunk = sealed;
    chunk.count = count;
    expect_rejected(chunk, "count");
  }
  for (const uint64_t flip : {1ull, 8ull, 1ull << 40}) {
    SealedChunk chunk = sealed;
    chunk.first_round ^= flip;
    expect_rejected(chunk, "first_round");
    chunk = sealed;
    chunk.last_round ^= flip;
    expect_rejected(chunk, "last_round");
  }
  SealedChunk chunk = sealed;
  chunk.body.push_back('\0');
  expect_rejected(chunk, "trailing byte");
  chunk = sealed;
  chunk.body.back() = static_cast<char>(chunk.body.back() | 1);
  expect_rejected(chunk, "non-zero padding");
}

// --- range decode through seek marks -----------------------------------------

/// `points` filtered to rounds in [lo, hi]: what DecodeChunkRange must
/// return.
std::vector<TracePoint> InWindow(std::span<const TracePoint> points,
                                 uint64_t lo, uint64_t hi) {
  std::vector<TracePoint> kept;
  for (const TracePoint& point : points) {
    if (point.round >= lo && point.round <= hi) kept.push_back(point);
  }
  return kept;
}

/// Consecutive rounds from 1000 with a drifting value, every seventh
/// point not engaged, and a signed zero or a NaN with a payload mixed in
/// so bit-identity covers them too.
std::vector<TracePoint> SteadyTrace(size_t n) {
  std::vector<TracePoint> points;
  double value = 20.0;
  for (size_t i = 0; i < n; ++i) {
    value += 0.015625 * static_cast<double>(i % 5) - 0.03125;
    TracePoint point{1000 + i, value, i % 7 != 3};
    if (!point.engaged) point.value = 0.0;
    if (i % 41 == 5) point = Raw(point.round, 0x8000000000000000);  // -0.0
    if (i % 53 == 9) point = Raw(point.round, 0x7FF8000000000ABC);  // NaN
    points.push_back(point);
  }
  return points;
}

void ExpectRangeMatchesFilter(const SealedChunk& chunk,
                              std::span<const TracePoint> points, uint64_t lo,
                              uint64_t hi) {
  SCOPED_TRACE(testing::Message() << "window [" << lo << ", " << hi << "]");
  std::vector<TracePoint> got;
  const Status status = DecodeChunkRange(chunk, lo, hi, &got);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectBitIdentical(InWindow(points, lo, hi), got);
}

TEST(ChunkRangeTest, MatchesWholeDecodePlusFilterAcrossChunkSizes) {
  avoc::Rng rng(20261018);
  for (const size_t n : {1u, 255u, 256u, 257u, 8192u}) {
    SCOPED_TRACE(testing::Message() << n << " points");
    const std::vector<TracePoint> points = SteadyTrace(n);
    const SealedChunk chunk = SealChunk(0, points);
    std::vector<TracePoint> whole;
    ASSERT_TRUE(DecodeChunk(chunk, &whole).ok());
    ExpectBitIdentical(points, whole);

    const uint64_t first = points.front().round;
    const uint64_t last = points.back().round;
    const uint64_t mid = first + n / 2;
    // The whole chunk, its start, middle and end, windows ending just
    // before, on and just after each mark, and windows outside it.
    std::vector<std::pair<uint64_t, uint64_t>> windows{
        {0, UINT64_MAX},      {first, first},      {first, first + 255},
        {mid - 128, mid + 127}, {last - 255, last}, {last, last},
        {0, first - 1},       {last + 1, UINT64_MAX}};
    for (uint64_t mark = kChunkSegmentPoints; mark < n;
         mark += kChunkSegmentPoints) {
      const uint64_t at = first + mark;
      windows.emplace_back(at - 1, at);
      windows.emplace_back(at - 10, at - 1);
      windows.emplace_back(at, at + 10);
      windows.emplace_back(at - 200, at + 56);
    }
    for (int i = 0; i < 40; ++i) {
      const uint64_t lo = first - 5 + rng.UniformInt(n + 10);
      windows.emplace_back(lo, lo + rng.UniformInt(600));
    }
    for (const auto& [lo, hi] : windows) {
      ExpectRangeMatchesFilter(chunk, points, lo, hi);
    }
  }
}

// Rounds closed out of order and far apart give segments whose round
// ranges overlap: a window can meet several segments, and the points
// must still come back in append order.
TEST(ChunkRangeTest, OutOfOrderSparseRoundsWithOverlappingSegments) {
  avoc::Rng rng(0x5EEC);
  for (int iter = 0; iter < 20; ++iter) {
    const size_t n = 1 + rng.UniformInt(1500);
    std::vector<TracePoint> points;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t round = rng.UniformInt(4) == 0
                                 ? rng.UniformInt(1u << 20)
                                 : 5000 + i * 3 - rng.UniformInt(700);
      const bool engaged = rng.UniformInt(6) != 0;
      points.push_back(
          TracePoint{round, engaged ? rng.NextDouble() * 50.0 : 0.0, engaged});
    }
    const SealedChunk chunk = SealChunk(0, points);
    for (int w = 0; w < 30; ++w) {
      const uint64_t lo = rng.UniformInt(10000);
      ExpectRangeMatchesFilter(chunk, points, lo, lo + rng.UniformInt(2000));
    }
    ExpectRangeMatchesFilter(chunk, points, 0, UINT64_MAX);
  }
}

TEST(ChunkRangeTest, SealedMarksEqualMarksRebuiltFromTheBody) {
  std::vector<std::vector<TracePoint>> traces;
  for (const size_t n : {1u, 255u, 256u, 257u, 1000u, 8192u}) {
    traces.push_back(SteadyTrace(n));
  }
  for (const GoldenChunk& golden : GoldenChunks()) {
    traces.push_back(golden.points);
  }
  for (const std::vector<TracePoint>& points : traces) {
    SCOPED_TRACE(testing::Message() << points.size() << " points");
    const SealedChunk chunk = SealChunk(0, points);
    EXPECT_EQ(chunk.marks.size(),
              (points.size() + kChunkSegmentPoints - 1) / kChunkSegmentPoints);
    std::vector<TracePoint> decoded;
    std::vector<ChunkMark> rebuilt;
    ASSERT_TRUE(DecodeChunk(chunk, &decoded, &rebuilt).ok());
    EXPECT_TRUE(rebuilt == chunk.marks);
  }
}

// Every decoded segment is checked against its mark, so a mark that
// does not describe the body fails the decode rather than returning
// different points.
TEST(ChunkRangeTest, RejectsMarksThatDisagreeWithTheBody) {
  const std::vector<TracePoint> points = SteadyTrace(600);
  const SealedChunk sealed = SealChunk(0, points);
  ASSERT_EQ(sealed.marks.size(), 3u);
  const uint64_t first = points.front().round;
  std::vector<TracePoint> got;
  const auto expect_rejected = [&](const SealedChunk& chunk, uint64_t lo,
                                   uint64_t hi, const char* what) {
    got.clear();
    EXPECT_EQ(DecodeChunkRange(chunk, lo, hi, &got).code(),
              ErrorCode::kParseError)
        << what;
  };

  SealedChunk chunk = sealed;
  chunk.marks.pop_back();
  expect_rejected(chunk, first, first, "too few marks");
  chunk.marks.clear();
  expect_rejected(chunk, first, first, "no marks");

  chunk = sealed;
  chunk.marks[1].bit_offset += 1;  // segment 0 now ends short of it
  expect_rejected(chunk, first, first, "segment 0 end");
  chunk = sealed;
  chunk.marks[2].max_round += 1;
  expect_rejected(chunk, first + 599, first + 599, "segment 2 max");
  chunk = sealed;
  chunk.marks[1].min_round -= 1;
  expect_rejected(chunk, first + 300, first + 300, "segment 1 min");
  chunk = sealed;
  chunk.marks[1].window_lead = 40;
  chunk.marks[1].window_len = 40;
  expect_rejected(chunk, first + 300, first + 300, "impossible window");
  chunk = sealed;
  chunk.marks[2].bit_offset = chunk.body.size() * 8 + 64;
  expect_rejected(chunk, first + 599, first + 599, "mark past the end");
  chunk = sealed;
  chunk.body.push_back('\0');
  expect_rejected(chunk, first + 599, first + 599, "trailing byte");

  // A window that skips the bad segment never looks at it.
  chunk = sealed;
  chunk.marks[2].max_round += 1;
  got.clear();
  EXPECT_TRUE(DecodeChunkRange(chunk, first, first + 10, &got).ok());
  EXPECT_EQ(got.size(), 11u);
}

}  // namespace
}  // namespace avoc::storage
