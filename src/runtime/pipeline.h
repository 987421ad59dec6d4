// Deterministic replay pipeline.
//
// A thin adapter over GroupRunner (group_runner.h): each Step() is one
// fully synchronous RunRound, so tests and benches observe exact
// per-round behaviour — the reproducible counterpart of the threaded
// service (service.h).  Sensors replay a RoundTable or sample arbitrary
// generators.
#pragma once

#include <memory>
#include <vector>

#include "core/engine.h"
#include "data/round_table.h"
#include "runtime/group_runner.h"
#include "util/status.h"

namespace avoc::runtime {

/// Pipeline configuration.
struct PipelineOptions {
  /// Persist/restore voter history through this backend (optional).
  storage::HistoryBackend* store = nullptr;
  /// Persist every sink row as a trace point (optional).
  storage::TraceBackend* trace_store = nullptr;
  std::string group = "default";
};

class Pipeline {
 public:

  /// Replays a recorded table through the given engine.
  static Result<Pipeline> FromTable(const data::RoundTable& table,
                                    core::VotingEngine engine,
                                    PipelineOptions options = {});

  /// Drives arbitrary per-module generators.
  static Result<Pipeline> FromGenerators(
      std::vector<Generator> generators,
      core::VotingEngine engine, PipelineOptions options = {});

  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  /// Runs one round: every sensor emits, then the hub flushes the round
  /// (turning silent sensors into missing values).
  void Step();

  /// Runs `rounds` steps.
  void Run(size_t rounds);

  /// Rounds stepped so far.
  size_t rounds_run() const { return next_round_; }

  const SinkNode& sink() const { return runner_->sink(); }
  const VoterNode& voter() const { return runner_->voter(); }
  const GroupRunner& runner() const { return *runner_; }

 private:
  explicit Pipeline(std::unique_ptr<GroupRunner> runner)
      : runner_(std::move(runner)) {}

  std::unique_ptr<GroupRunner> runner_;
  size_t next_round_ = 0;
};

}  // namespace avoc::runtime
