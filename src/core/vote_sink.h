// VoteSink: the zero-allocation result seam of VotingEngine::CastVoteBlock.
//
// A VoteResult per round costs six heap-backed vectors, which makes large
// batch runs allocator-bound rather than compute-bound.  VoteSink inverts
// the ownership: the *caller* owns flat, reusable column storage and the
// engine writes each round's outputs straight into it.  A round is two
// virtual calls:
//
//   RoundColumns cols = sink.BeginRound(module_count);  // where to write
//   ... engine fills the per-module columns in place ...
//   sink.EndRound(scalars);                             // commit scalars
//
// BatchTrace (core/trace.h) is the canonical SoA sink; its
// MaterializeRound turns a committed round back into a VoteResult for the
// single-round CastVote convenience and for explain/tests.
#pragma once

#include <cstdint>
#include <span>

#include "core/types.h"
#include "util/status.h"

namespace avoc::core {

/// Writable per-module columns of one round.  Every span has exactly the
/// module count handed to BeginRound and stays valid (and readable) until
/// the next BeginRound on the same sink.
struct RoundColumns {
  std::span<double> weights;      ///< effective voting weight (0 when out)
  std::span<double> agreement;    ///< pairwise agreement score in [0,1]
  std::span<double> history;      ///< history record after the update
  std::span<uint8_t> excluded;    ///< 1 = pruned by value exclusion
  std::span<uint8_t> eliminated;  ///< 1 = eliminated by history (ME)
};

/// Scalar fields of one round, committed by EndRound.
struct RoundScalars {
  double value = 0.0;  ///< fused output; meaningful iff has_value
  bool has_value = false;
  RoundOutcome outcome = RoundOutcome::kVoted;
  bool used_clustering = false;
  bool had_majority = true;
  uint32_t present_count = 0;
  /// Set-bit totals of the excluded/eliminated columns, counted while the
  /// engine fills them — consumers (the metrics observer) read the rates
  /// without rescanning the masks.  Zero on fault rounds.
  uint32_t excluded_count = 0;
  uint32_t eliminated_count = 0;
  /// Non-null only when outcome == kError; borrowed for the call.
  const Status* status = nullptr;
};

/// Caller-owned columnar receiver for CastVoteBlock outputs.
class VoteSink {
 public:
  virtual ~VoteSink() = default;

  /// Opens the next round and returns its writable columns.
  virtual RoundColumns BeginRound(size_t module_count) = 0;

  /// Commits the round after the columns were filled.
  virtual void EndRound(const RoundScalars& scalars) = 0;
};

}  // namespace avoc::core
