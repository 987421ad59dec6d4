// Threaded voter service — the "shoe-box demonstrator" analogue (Fig. 2).
//
// A thin adapter over GroupRunner (group_runner.h): each scheduler tick
// fans sampling out through EmitAsync, closes the round at the timeout
// with FlushRound, and joins the workers.  Each sensor samples from its
// own thread at a configurable rate; late/absent sensors become missing
// values; the voter fuses and the sink records, all live.  This is the
// soft real-time configuration the paper's implementation notes describe;
// the deterministic experiments call GroupRunner::RunRound directly.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "runtime/group_runner.h"
#include "util/status.h"

namespace avoc::runtime {

/// VoterService configuration.
struct ServiceOptions {
  /// Round cadence (the paper's UC-1 polls at 8 samples/s).
  std::chrono::milliseconds round_period{125};
  /// How long after opening a round the hub force-closes it.
  std::chrono::milliseconds round_timeout{100};
  storage::HistoryBackend* store = nullptr;
  /// Persist every sink row as a trace point (optional).
  storage::TraceBackend* trace_store = nullptr;
  std::string group = "live";
  /// Telemetry registry (optional); forwarded to the GroupRunner and used
  /// for the service-level gauges.  Must outlive the service.
  obs::Registry* registry = nullptr;
};

class VoterService {
 public:

  /// `samplers` produce the live value per module; they are called from
  /// per-sensor worker threads.  (Heap-allocated because the service owns
  /// non-movable thread/atomic state.)
  static Result<std::unique_ptr<VoterService>> Create(
      std::vector<Generator> samplers, core::VotingEngine engine,
      ServiceOptions options = {});

  VoterService(const VoterService&) = delete;
  VoterService& operator=(const VoterService&) = delete;

  ~VoterService();

  /// Starts the sensor threads and the round scheduler.  Idempotent while
  /// running, and well-defined after Stop(): the service restarts and
  /// round numbering continues where the previous run left off (the
  /// voter's history carries across the restart).
  Status Start();

  /// Stops the scheduler and drains the in-flight round: the round that
  /// was open when Stop() was called is flushed and its output reaches
  /// the sink before Stop() returns.  No-op if already stopped.
  void Stop();

  bool running() const { return running_.load(); }

  /// Rounds opened by the scheduler so far (every opened round is flushed
  /// to the sink before the scheduler exits).
  size_t rounds_opened() const { return current_round_.load(); }

  /// Rounds closed so far.
  size_t rounds_completed() const;

  const SinkNode& sink() const { return runner_->sink(); }
  const GroupRunner& runner() const { return *runner_; }

 private:
  VoterService(std::unique_ptr<GroupRunner> runner, ServiceOptions options);

  void SchedulerLoop();

  ServiceOptions options_;
  std::unique_ptr<GroupRunner> runner_;
  obs::Gauge* running_gauge_ = nullptr;          ///< null when unobserved
  obs::Counter* rounds_opened_counter_ = nullptr;

  // Serializes Start/Stop so a restart never races the old scheduler.
  std::mutex lifecycle_mutex_;
  std::atomic<bool> running_{false};
  std::atomic<size_t> current_round_{0};
  std::thread scheduler_;
};

}  // namespace avoc::runtime
