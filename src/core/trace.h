// Columnar batch traces (structure-of-arrays result path).
//
// A batch run over R rounds x M modules used to produce R VoteResults —
// R * 6 heap vectors.  BatchTrace stores the same information as eleven
// flat columns: one rounds-long column per scalar field and one
// (rounds x modules) row-major block per per-module field.  The layout is
// the unit of every downstream consumer: span accessors for metrics and
// benches, a VoteResult materializer for explain/tests, and a contiguous
// block a future SIMD or persistence pass can work on directly.
//
// TraceView is the non-owning read surface over that layout; BatchTrace
// owns the storage, implements VoteSink (core/vote_sink.h) so an engine
// writes rounds straight into it, and is reusable: Reset keeps capacity,
// so a warmed-up trace adds no allocations on subsequent batches.
//
// A trace has a detail base: every row keeps its fused series (value,
// engaged, outcome, flags, present count, error), but only the rows from
// the base on keep their per-module columns.  The base is 0 unless an
// owner moves it (TrimDetail); a long-lived sink (runtime::SinkNode)
// moves it by SinkDetailBase, keeping the newest 1024-2047 rows' detail.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/types.h"
#include "core/vote_sink.h"
#include "util/status.h"

namespace avoc::core {

/// Sparse error record: the Status of one kError round.
struct RoundError {
  uint32_t round = 0;
  Status status;
};

/// Allocator whose value-initialization is a no-op: vector::resize leaves
/// new elements uninitialized instead of memset-ing them.  Used for the
/// per-module slab blocks, which are sized ahead of the committed rounds
/// and fully written row by row before any read (view() clamps to the
/// committed prefix) — zero-filling megabytes of slab up front would be
/// pure waste on the hot path.
template <typename T>
struct UninitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;  // default-init: no zero fill
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

/// One slab block of a BatchTrace (doubles or mask bytes).
template <typename T>
using SlabVector = std::vector<T, UninitAllocator<T>>;

/// Per-module detail rows a long-lived sink keeps: between one and two
/// windows of the newest rows.
inline constexpr size_t kSinkDetailRows = 1024;

/// The detail base of a sink that holds `rows` rows: every whole window
/// but the newest, so rows - base stays in [kSinkDetailRows,
/// 2 * kSinkDetailRows) once the sink holds one window.
constexpr size_t SinkDetailBase(size_t rows) {
  const size_t windows = rows / kSinkDetailRows;
  return windows > 1 ? (windows - 1) * kSinkDetailRows : 0;
}

/// The raw columns of a trace; all round-indexed spans have `rounds`
/// entries, all block spans have `(rounds - detail_base) * modules`
/// entries (row-major: round r >= detail_base, module m at
/// [(r - detail_base) * modules + m]).  `errors` is sparse and ordered by
/// round.
struct TraceColumns {
  size_t rounds = 0;
  size_t modules = 0;
  /// First row that keeps its per-module columns; at most `rounds`.
  size_t detail_base = 0;
  std::span<const double> values;          ///< fused value where engaged
  std::span<const uint8_t> engaged;        ///< 1 = round produced a value
  std::span<const RoundOutcome> outcomes;
  std::span<const uint8_t> used_clustering;
  std::span<const uint8_t> had_majority;
  std::span<const uint32_t> present_counts;
  std::span<const double> weights;    ///< block
  std::span<const double> agreement;  ///< block
  std::span<const double> history;    ///< block
  std::span<const uint8_t> excluded;    ///< block
  std::span<const uint8_t> eliminated;  ///< block
  std::span<const RoundError> errors;
};

/// Non-owning read surface over one trace (or one group's slice of a
/// multi-group block).  Copyable, cheap, and valid as long as the
/// underlying storage is.
class TraceView {
 public:
  TraceView() = default;
  explicit TraceView(TraceColumns columns) : c_(columns) {}

  size_t round_count() const { return c_.rounds; }
  size_t module_count() const { return c_.modules; }
  bool empty() const { return c_.rounds == 0; }
  /// Rows below this keep only their fused series.
  size_t detail_base() const { return c_.detail_base; }

  const TraceColumns& columns() const { return c_; }

  // --- per-round scalars ----------------------------------------------------
  std::optional<double> output(size_t r) const {
    return c_.engaged[r] != 0 ? std::optional<double>(c_.values[r])
                              : std::nullopt;
  }
  RoundOutcome outcome(size_t r) const { return c_.outcomes[r]; }
  bool used_clustering(size_t r) const { return c_.used_clustering[r] != 0; }
  bool had_majority(size_t r) const { return c_.had_majority[r] != 0; }
  size_t present_count(size_t r) const { return c_.present_counts[r]; }
  /// Status of round r; Ok unless the outcome was kError.
  Status status(size_t r) const;

  // --- per-round module columns (empty below detail_base()) ----------------
  std::span<const double> weights(size_t r) const { return Row(c_.weights, r); }
  std::span<const double> agreement(size_t r) const {
    return Row(c_.agreement, r);
  }
  std::span<const double> history(size_t r) const { return Row(c_.history, r); }
  std::span<const uint8_t> excluded(size_t r) const {
    return Row(c_.excluded, r);
  }
  std::span<const uint8_t> eliminated(size_t r) const {
    return Row(c_.eliminated, r);
  }

  // --- derived series -------------------------------------------------------
  /// Per-round fused values; nullopt for suppressed/errored rounds.
  std::vector<std::optional<double>> Outputs() const;

  /// Outputs with gaps filled by the previous value (leading gaps seeded
  /// with the first real output).  Empty when no round produced a value.
  std::vector<double> ContinuousOutputs() const;

  /// Number of rounds whose outcome was kVoted.
  size_t voted_rounds() const;
  /// Rounds where the clustering step gated the vote.
  size_t clustered_rounds() const;

  /// Legacy materializer: round r as a full VoteResult (for explain,
  /// goldens, and APIs that still speak per-round results).  A row below
  /// detail_base() has empty per-module vectors.
  VoteResult MaterializeRound(size_t r) const;

 private:
  template <typename T>
  std::span<const T> Row(std::span<const T> block, size_t r) const {
    if (r < c_.detail_base) return {};
    return block.subspan((r - c_.detail_base) * c_.modules, c_.modules);
  }

  TraceColumns c_;
};

/// Owning, growable SoA trace; the canonical VoteSink.  One BatchTrace is
/// one engine's result series; reuse it across batches via Reset to keep
/// the warmed-up capacity.
class BatchTrace final : public VoteSink {
 public:
  BatchTrace() = default;
  explicit BatchTrace(size_t modules) { Reset(modules); }

  /// Drops all rounds, fixes the module arity and the detail base at 0;
  /// keeps capacity.
  void Reset(size_t modules);

  /// Pre-grows every column for `rounds` rounds (the blocks for the rows
  /// from the detail base on).
  void ReserveRounds(size_t rounds);

  // --- VoteSink -------------------------------------------------------------
  RoundColumns BeginRound(size_t module_count) override;
  void EndRound(const RoundScalars& scalars) override;

  /// Copies a legacy VoteResult in as one round (message-driven sinks).
  /// Adopts the result's arity when the trace is still empty/unsized.
  void Append(const VoteResult& result);

  /// Copies every row of another trace in — the bulk-append path of
  /// batch-driven sinks: one block copy per per-module column, no
  /// intermediate VoteResult.  Adopts the source's arity when the trace
  /// is still empty/unsized; a source of another arity is truncated or
  /// zero-padded per row.  A source with a detail base moves this trace's
  /// base to the source's first detail row, so the detail stays one
  /// contiguous suffix.
  void AppendRows(const TraceView& src);

  /// Moves the detail base up to `base` (at most round_count()): rows
  /// below it drop their per-module columns, and the surviving ones shift
  /// down in place, keeping capacity.  No-op when `base` is not above
  /// detail_base().
  void TrimDetail(size_t base);

  // --- read surface ---------------------------------------------------------
  size_t round_count() const { return rounds_; }
  size_t module_count() const { return modules_; }
  bool empty() const { return rounds_ == 0; }
  size_t detail_base() const { return base_; }
  /// Rows that keep their per-module columns.
  size_t detail_rows() const { return rounds_ - base_; }

  TraceView view() const;

  std::optional<double> output(size_t r) const { return view().output(r); }
  RoundOutcome outcome(size_t r) const { return outcomes_[r]; }
  bool used_clustering(size_t r) const { return used_clustering_[r] != 0; }
  bool had_majority(size_t r) const { return had_majority_[r] != 0; }
  size_t present_count(size_t r) const { return present_counts_[r]; }
  Status status(size_t r) const { return view().status(r); }

  std::span<const double> weights(size_t r) const { return view().weights(r); }
  std::span<const double> agreement(size_t r) const {
    return view().agreement(r);
  }
  std::span<const double> history(size_t r) const { return view().history(r); }
  std::span<const uint8_t> excluded(size_t r) const {
    return view().excluded(r);
  }
  std::span<const uint8_t> eliminated(size_t r) const {
    return view().eliminated(r);
  }

  /// Raw value/engaged columns — the inputs of the columnar convergence
  /// overloads in stats/convergence.h.
  std::span<const double> values() const { return values_; }
  std::span<const uint8_t> engaged() const { return engaged_; }

  std::vector<std::optional<double>> Outputs() const {
    return view().Outputs();
  }
  std::vector<double> ContinuousOutputs() const {
    return view().ContinuousOutputs();
  }
  size_t voted_rounds() const { return view().voted_rounds(); }
  size_t clustered_rounds() const { return view().clustered_rounds(); }
  VoteResult MaterializeRound(size_t r) const {
    return view().MaterializeRound(r);
  }

 private:
  /// Grows the five per-module blocks to at least `elements` doubles /
  /// bytes each, in geometric slabs.  Blocks are sized ahead of the
  /// committed rounds so BeginRound never resizes on the hot path;
  /// view() clamps reads back to the committed prefix.
  void GrowBlocks(size_t elements);

  size_t modules_ = 0;
  size_t rounds_ = 0;       ///< committed rounds
  size_t base_ = 0;         ///< detail base: block row 0 is round base_

  std::vector<double> values_;
  std::vector<uint8_t> engaged_;
  std::vector<RoundOutcome> outcomes_;
  std::vector<uint8_t> used_clustering_;
  std::vector<uint8_t> had_majority_;
  std::vector<uint32_t> present_counts_;
  SlabVector<double> weights_;
  SlabVector<double> agreement_;
  SlabVector<double> history_;
  SlabVector<uint8_t> excluded_;
  SlabVector<uint8_t> eliminated_;
  std::vector<RoundError> errors_;
};

}  // namespace avoc::core
