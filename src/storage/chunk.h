// Gorilla-style chunk codec for vote traces.
//
// A sealed chunk compresses a run of TracePoints (round, engaged, fused
// value) with the two tricks of the Facebook Gorilla paper, adapted to
// voting rounds:
//
//   rounds  delta-of-delta.  Round numbers normally advance by a
//           constant stride (usually 1), so the second difference is 0
//           and costs one bit.  Out-of-order closes produce negative
//           deltas; zig-zag encoding keeps those cheap too:
//             '0'                    dod == 0
//             '10'  +  7 bits        zig-zag dod  <  2^7
//             '110' + 12 bits        zig-zag dod  <  2^12
//             '1110'+ 20 bits        zig-zag dod  <  2^20
//             '1111'+ 64 bits        anything else (raw)
//
//   values  XOR with the previous value.  Fused outputs drift slowly, so
//           the XOR concentrates in a few significand bits:
//             '0'                    identical value
//             '10' + meaningful      previous leading/length window fits
//             '11' + 6b lead + 6b (len-1) + meaningful bits
//
//   engaged one bit per point (value is encoded as 0.0 for non-engaged
//           rounds, which the XOR path compresses to almost nothing).
//
// The codec is bit-exact: NaN payloads, infinities and signed zeros
// round-trip unchanged, which is what makes QUERY_RANGE responses
// hex-float-identical to the in-memory BatchTrace.  The decoder is
// defensive — truncated or bit-flipped input yields ParseError, never
// out-of-bounds access (see storage_corruption_soak_test).
//
// Reads decode only what a window needs.  The body is cut, in memory,
// into segments of kChunkSegmentPoints points, each with a seek mark
// holding the decoder state at its start and its round range;
// DecodeChunkRange skips the segments outside the window and starts the
// others at their marks.  Whole-chunk and range decodes run the same
// loop.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/backend.h"
#include "util/status.h"

namespace avoc::storage {

/// Points per segment of a chunk body.  Every segment starts at a seek
/// mark, so a range decode reads at most one segment's worth of points
/// outside its window at either end.  256 keeps a 256-round window over
/// consecutive rounds to two segments at worst, and the marks to 56
/// bytes per 256 points (about 0.22 B per point against about 7 B of
/// body); bench_latency's BM_ChunkQueryRange times the choice.
inline constexpr uint64_t kChunkSegmentPoints = 256;

/// Where a segment of a chunk body starts: the bit offset of its first
/// point, the decoder state just before that point, and the segment's
/// round range.  A range decode starts a segment here instead of at bit
/// 0, and skips a segment whose range misses its window.  Marks live in
/// memory only: SealChunk records them while encoding and DecodeChunk
/// rebuilds them from a body read back from disk, so the on-disk format
/// does not carry them.
struct ChunkMark {
  uint64_t bit_offset = 0;
  uint64_t prev_round = 0;
  uint64_t prev_delta = 0;
  uint64_t prev_bits = 0;
  uint64_t min_round = 0;
  uint64_t max_round = 0;
  uint8_t window_lead = 64;  ///< 64 = no reusable XOR window yet
  uint8_t window_len = 0;

  bool operator==(const ChunkMark&) const = default;
};

/// A sealed chunk as held in memory: metadata, compressed body and seek
/// marks (one per kChunkSegmentPoints points).
/// `base_index` is the index of the first point within the group's
/// append history — recovery uses it to dedupe the WAL tail against
/// already-sealed points (docs/STORAGE.md).  The chunks file CRCs only
/// the body; DecodeChunk cross-checks `count` and the round range
/// against the body instead.
struct SealedChunk {
  uint64_t base_index = 0;
  uint64_t count = 0;
  uint64_t first_round = 0;  ///< min round in the chunk
  uint64_t last_round = 0;   ///< max round in the chunk
  std::string body;          ///< EncodeChunk output
  std::vector<ChunkMark> marks;
};

/// Compresses `points` into a chunk body.
std::string EncodeChunk(std::span<const TracePoint> points);

/// Seals `points` (must be non-empty), the group's points from append
/// index `base_index` on, into a chunk with its header and marks filled
/// in.
SealedChunk SealChunk(uint64_t base_index, std::span<const TracePoint> points);

/// Decompresses `chunk.body` into exactly `chunk.count` points, reading
/// it from the first bit and ignoring `chunk.marks`.  Fails with
/// ParseError when the body is malformed, when it does not end within a
/// byte of the last point with zero padding, or when the decoded min/max
/// round differs from the header's.  On success a non-null `marks`
/// holds the chunk's seek marks, rebuilt from the body.
Status DecodeChunk(const SealedChunk& chunk, std::vector<TracePoint>* out,
                   std::vector<ChunkMark>* marks = nullptr);

/// Appends to `out` the points of `chunk` whose round lies in [lo, hi],
/// in append order — what DecodeChunk plus a filter returns — decoding
/// only the segments whose mark's round range meets the window.  Each
/// decoded segment is checked against its mark: it must end at the next
/// mark's bit offset (the last one with DecodeChunk's zero-padding
/// check) and span the mark's round range, or the decode fails with
/// ParseError.  So does a chunk whose marks do not match its count.  An
/// empty window (hi < lo) appends nothing.
Status DecodeChunkRange(const SealedChunk& chunk, uint64_t lo, uint64_t hi,
                        std::vector<TracePoint>* out);

}  // namespace avoc::storage
