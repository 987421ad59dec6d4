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
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/backend.h"
#include "util/status.h"

namespace avoc::storage {

/// A sealed chunk as held in memory: metadata + compressed body.
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
};

/// Compresses `points` into a chunk body.
std::string EncodeChunk(std::span<const TracePoint> points);

/// Seals `points` (must be non-empty), the group's points from append
/// index `base_index` on, into a chunk with its header filled in.
SealedChunk SealChunk(uint64_t base_index, std::span<const TracePoint> points);

/// Decompresses `chunk.body` into exactly `chunk.count` points.  Fails
/// with ParseError when the body is malformed, when it does not end
/// within a byte of the last point with zero padding, or when the
/// decoded min/max round differs from the header's.
Status DecodeChunk(const SealedChunk& chunk, std::vector<TracePoint>* out);

}  // namespace avoc::storage
