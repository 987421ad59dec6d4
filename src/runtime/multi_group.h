// Sharded multi-group batch execution.
//
// The paper's smart-shopping motivation is one voter group per shelf —
// hundreds of independent fusion problems with identical configuration.
// MultiGroupEngine owns N VotingEngines compiled from one EngineConfig
// (they share the immutable stage pipeline) and runs batch workloads
// across groups on a worker pool (util/thread_pool.h): groups are
// independent, so each worker drives whole groups with no cross-group
// synchronisation.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/batch.h"
#include "core/engine.h"
#include "core/trace.h"
#include "data/round_table.h"
#include "obs/stage_metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "vdx/spec.h"

namespace avoc::runtime {

/// MultiGroupEngine configuration.
struct MultiGroupOptions {
  /// Worker threads for RunBatch (0 = one per hardware thread).
  size_t threads = 0;
  /// Telemetry registry (optional).  When set, every group gets an
  /// obs::MetricsObserver; groups map onto `metrics_shards` metric scopes
  /// (labeled shard="s0".."s<n-1>") so a wide deployment does not create
  /// hundreds of metric families.  The registry must outlive the engine.
  obs::Registry* registry = nullptr;
  /// Metric scopes the groups are folded into.
  size_t metrics_shards = 4;
  /// Stage/round latency sampling period per group (0 = counters only).
  /// A sampled round pays ~10 clock reads, so at sub-microsecond round
  /// times the period sets the telemetry overhead almost by itself; 256
  /// keeps batch overhead around a percent on syscall-priced clocks.
  size_t metrics_sample_every = 256;
};

/// Aggregated telemetry across every group of a MultiGroupEngine —
/// per-shard registry counters summed back into one deployment view.
struct MultiGroupStats {
  uint64_t rounds = 0;
  uint64_t voted = 0;
  uint64_t reverted = 0;
  uint64_t no_output = 0;
  uint64_t errors = 0;
  uint64_t excluded_modules = 0;
  uint64_t eliminated_modules = 0;
  uint64_t clustered_rounds = 0;
  uint64_t history_collapse = 0;
  uint64_t quorum_failures = 0;
  uint64_t majority_failures = 0;
  /// Sampled per-round latency merged across shards.
  obs::LatencySnapshot round_latency;
};

/// Results of one multi-group batch as a single group-major SoA block:
/// group g's rounds occupy the contiguous row range
/// [round_offset(g), round_offset(g + 1)) of every column, so the whole
/// deployment's outputs live in one allocation and each worker writes a
/// disjoint slice with no synchronisation.  Reusable: a second RunBatch
/// into the same trace reuses the block when the shape still fits.
class MultiGroupTrace {
 public:
  MultiGroupTrace() = default;

  size_t group_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t module_count() const { return modules_; }
  /// Rounds across all groups (the row count of the block).
  size_t total_rounds() const { return offsets_.empty() ? 0 : offsets_.back(); }

  /// First block row of group g; offsets are prefix sums, so
  /// round_offset(group_count()) == total_rounds().
  size_t round_offset(size_t g) const { return offsets_[g]; }
  size_t group_rounds(size_t g) const { return offsets_[g + 1] - offsets_[g]; }

  /// Read surface of group g's slice: a plain TraceView, indexed by the
  /// group-local round number.
  core::TraceView group(size_t g) const;

 private:
  friend class MultiGroupEngine;

  /// One group's writable slice of the block, handed to a worker.
  class GroupSink final : public core::VoteSink {
   public:
    GroupSink() = default;
    GroupSink(MultiGroupTrace* trace, size_t group)
        : trace_(trace), base_(trace->offsets_[group]), group_(group) {}

    core::RoundColumns BeginRound(size_t module_count) override;
    void EndRound(const core::RoundScalars& scalars) override;

   private:
    MultiGroupTrace* trace_ = nullptr;
    size_t base_ = 0;   ///< first block row of this group
    size_t group_ = 0;
    size_t cursor_ = 0; ///< group-local round index
  };

  /// Sizes the block for one round-range per group; keeps capacity.
  void Resize(std::span<const data::RoundTable> tables, size_t modules);

  size_t modules_ = 0;
  /// group_count() + 1 prefix sums of per-group round counts.
  std::vector<size_t> offsets_;
  std::vector<double> values_;
  std::vector<uint8_t> engaged_;
  std::vector<core::RoundOutcome> outcomes_;
  std::vector<uint8_t> used_clustering_;
  std::vector<uint8_t> had_majority_;
  std::vector<uint32_t> present_counts_;
  std::vector<double> weights_;
  std::vector<double> agreement_;
  std::vector<double> history_;
  std::vector<uint8_t> excluded_;
  std::vector<uint8_t> eliminated_;
  /// Sparse per-group error records (group-local round numbers); one
  /// vector per group so workers never share a growing container.
  std::vector<std::vector<core::RoundError>> errors_;
};

class MultiGroupEngine {
 public:
  /// `group_count` identical engines of `module_count` modules each.
  static Result<MultiGroupEngine> Create(size_t group_count,
                                         size_t module_count,
                                         const core::EngineConfig& config,
                                         MultiGroupOptions options = {});

  /// Groups configured from a VDX definition.
  static Result<MultiGroupEngine> FromSpec(const vdx::Spec& spec,
                                           size_t group_count,
                                           size_t module_count,
                                           MultiGroupOptions options = {});

  MultiGroupEngine(MultiGroupEngine&&) = default;
  MultiGroupEngine& operator=(MultiGroupEngine&&) = default;

  size_t group_count() const { return engines_.size(); }
  size_t module_count() const { return module_count_; }

  core::VotingEngine& group(size_t g) { return engines_[g]; }
  const core::VotingEngine& group(size_t g) const { return engines_[g]; }

  /// Runs one table per group across the worker pool, writing all groups
  /// into `trace`'s group-major block (resized to fit, capacity kept
  /// across calls).  Requires tables.size() == group_count() and every
  /// table to have module_count() modules.  Groups are sharded across
  /// workers, each writing its own disjoint slice.
  Status RunBatch(std::span<const data::RoundTable> tables,
                  MultiGroupTrace& trace);

  /// Convenience wrapper returning a fresh trace.
  Result<MultiGroupTrace> RunBatch(std::span<const data::RoundTable> tables);

  /// Same contract as RunBatch on the calling thread only — the
  /// correctness baseline for the parallel path (bit-for-bit identical
  /// results) and its speedup reference.
  Status RunBatchSequential(std::span<const data::RoundTable> tables,
                            MultiGroupTrace& trace);

  /// Convenience wrapper returning a fresh trace.
  Result<MultiGroupTrace> RunBatchSequential(
      std::span<const data::RoundTable> tables);

  // --- History ---------------------------------------------------------------

  /// Group g's live reliability records.
  std::span<const double> GroupHistory(size_t g) const {
    return engines_[g].history().records();
  }

  /// Resets every group to a fresh set.
  void ResetAll();

  // --- Telemetry ------------------------------------------------------------

  /// Whether a registry was wired in.
  bool observed() const { return !observers_.empty(); }

  /// Aggregated counters/latency across all groups (zeros when
  /// unobserved).  Call between batches, not during one.
  MultiGroupStats Stats() const;

  /// Publishes every group's locally accumulated counts to the registry.
  /// RunBatch does this on completion; calling it mid-batch races the
  /// workers, so only use it between batches (e.g. after driving groups
  /// directly through group()).
  void FlushObservers();

 private:
  MultiGroupEngine(std::vector<core::VotingEngine> engines,
                   size_t module_count, MultiGroupOptions options);

  Status ValidateTables(std::span<const data::RoundTable> tables) const;

  size_t module_count_ = 0;
  MultiGroupOptions options_;
  std::vector<core::VotingEngine> engines_;
  /// One observer per group (group g maps to shard g % metrics_shards);
  /// empty when options_.registry is null.  unique_ptr keeps the
  /// addresses engines hold stable across engine moves.
  std::vector<std::unique_ptr<obs::MetricsObserver>> observers_;
  /// Created on first RunBatch; sequential use never pays for threads.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace avoc::runtime
