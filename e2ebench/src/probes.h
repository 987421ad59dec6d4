// Measurement probes the benchmark attaches from outside the runtime:
// timing decorators on the storage seams, a sampled stage observer on
// every group engine, and the span arithmetic that turns a flight
// recorder snapshot into per-layer self times.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "core/stages.h"
#include "obs/trace.h"
#include "storage/backend.h"

namespace e2e {

namespace core = avoc::core;
namespace obs = avoc::obs;
namespace storage = avoc::storage;

/// Forwards every HistoryBackend / TraceBackend call to the real store,
/// timing it (mutex wait included) and recording a "bench.store.<op>"
/// span under the caller's current span, so the WAL span nests inside.
class TimedBackend final : public storage::HistoryBackend,
                           public storage::TraceBackend {
 public:
  TimedBackend(storage::HistoryBackend* history, storage::TraceBackend* trace,
               obs::Tracer* tracer)
      : history_(history), trace_(trace), tracer_(tracer) {}

  avoc::Status Put(const std::string& group,
                   const storage::HistorySnapshot& snapshot) override;
  avoc::Result<storage::HistorySnapshot> Get(
      const std::string& group) const override;
  avoc::Result<bool> Erase(const std::string& group) override;
  std::vector<std::string> Groups() const override;
  size_t size() const override;
  avoc::Status AppendTrace(
      const std::string& group,
      std::span<const storage::TracePoint> points) override;
  avoc::Result<std::vector<storage::TracePoint>> QueryTraceRange(
      const std::string& group, uint64_t lo_round,
      uint64_t hi_round) const override;

  /// Per-call durations in microseconds.
  struct Samples {
    std::vector<double> put_us;
    std::vector<double> append_us;
    std::vector<double> query_us;
    std::vector<double> get_us;
  };
  Samples TakeSamples() const;

 private:
  void Note(std::vector<double> Samples::*field, double us) const;

  storage::HistoryBackend* history_;
  storage::TraceBackend* trace_;
  obs::Tracer* tracer_;
  mutable std::mutex mutex_;
  mutable Samples samples_;
};

/// Summed stage times over the sampled rounds, in bench_scale's buckets.
struct StageTotals {
  size_t sampled = 0;
  double round_ns = 0.0;
  double agreement_ns = 0.0;
  double exclusion_ns = 0.0;
  double collation_ns = 0.0;
  double other_ns = 0.0;

  void Add(const StageTotals& other);
};

/// Times every Nth round of one engine.  One observer per engine: the
/// voter serializes its rounds.
class SampledStageObserver final : public core::StageObserver {
 public:
  explicit SampledStageObserver(size_t sample_every)
      : sample_every_(sample_every == 0 ? 1 : sample_every) {}

  void OnRoundBegin(size_t round_index,
                    const core::VoteContext& context) override;
  void OnStageDone(std::string_view stage,
                   const core::VoteContext& context) override;
  void OnRoundCommitted(size_t round_index, const core::RoundColumns& columns,
                        const core::RoundScalars& scalars) override;
  bool wants_vote_result() const override { return false; }

  const StageTotals& totals() const { return totals_; }

 private:
  StageTotals totals_;
  size_t sample_every_;
  size_t committed_ = 0;
  bool timing_ = false;
  Clock::time_point begin_{};
  Clock::time_point prev_{};
};

/// One write frame's span tree (SUBMIT_BATCH[_SEQ]), microseconds.
struct FrameSpans {
  uint64_t trace_id = 0;  ///< joins the client's latency for the frame
  double verb_us = 0.0;   ///< server verb span
  double batch_us = 0.0;  ///< its engine.batch child
  double store_us = 0.0;  ///< bench.store.* spans under the batch
  double rounds = 0.0;    ///< rounds the batch closed
};

/// Walks a tracer snapshot.  Only complete write trees are used: a verb
/// span with its engine.batch child, and that batch with both of its
/// storage calls.  The flight recorder overwrites its oldest records and
/// children finish before their parents, so a tree cut by the wrap is
/// dropped instead of inflating a parent's self time.
std::vector<FrameSpans> AnalyzeSpans(
    const std::vector<obs::SpanRecord>& records);

}  // namespace e2e
