#include "runtime/service.h"

#include "util/log.h"

namespace avoc::runtime {

VoterService::VoterService(std::unique_ptr<GroupRunner> runner,
                           ServiceOptions options)
    : options_(std::move(options)), runner_(std::move(runner)) {
  if (options_.registry != nullptr) {
    running_gauge_ = &options_.registry->GetGauge(
        obs::LabeledName("avoc_service_running", {{"group", options_.group}}));
    rounds_opened_counter_ = &options_.registry->GetCounter(obs::LabeledName(
        "avoc_service_rounds_opened_total", {{"group", options_.group}}));
  }
}

Result<std::unique_ptr<VoterService>> VoterService::Create(
    std::vector<Generator> samplers, core::VotingEngine engine,
    ServiceOptions options) {
  if (samplers.size() != engine.module_count()) {
    return InvalidArgumentError("sampler/engine module count mismatch");
  }
  if (samplers.empty()) {
    return InvalidArgumentError("service needs at least one sensor");
  }
  if (options.round_period.count() <= 0) {
    return InvalidArgumentError("round period must be positive");
  }
  GroupRunner::Options runner_options;
  runner_options.group = options.group;
  runner_options.store = options.store;
  runner_options.trace_store = options.trace_store;
  runner_options.registry = options.registry;
  AVOC_ASSIGN_OR_RETURN(
      std::unique_ptr<GroupRunner> runner,
      GroupRunner::WithGenerators(std::move(samplers), std::move(engine),
                                  std::move(runner_options)));
  return std::unique_ptr<VoterService>(
      new VoterService(std::move(runner), std::move(options)));
}

VoterService::~VoterService() { Stop(); }

Status VoterService::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (running_.load()) return Status::Ok();
  // A previous run's scheduler is joined by Stop(); a stale handle here
  // would mean Stop() was never called, which the flag above rules out.
  if (scheduler_.joinable()) scheduler_.join();
  running_.store(true);
  scheduler_ = std::thread([this] { SchedulerLoop(); });
  return Status::Ok();
}

void VoterService::SchedulerLoop() {
  AVOC_LOG_INFO("voter service '%s': started (%lld ms rounds)",
                options_.group.c_str(),
                static_cast<long long>(options_.round_period.count()));
  if (running_gauge_ != nullptr) running_gauge_->Set(1.0);
  while (running_.load()) {
    const size_t round = current_round_.fetch_add(1);
    if (rounds_opened_counter_ != nullptr) rounds_opened_counter_->Increment();
    // Fan the sampling out to one short-lived worker per sensor so a slow
    // sensor cannot stall the others — its reading simply misses the
    // timeout and the round proceeds without it.
    std::vector<std::thread> workers = runner_->EmitAsync(round);
    std::this_thread::sleep_for(
        std::min(options_.round_timeout, options_.round_period));
    // Close the round at the timeout: whatever has not arrived becomes a
    // missing value, and a late worker's reading is discarded by the hub
    // against the already-closed round.
    runner_->FlushRound(round);
    for (std::thread& worker : workers) {
      worker.join();
    }
    const auto remainder = options_.round_period - options_.round_timeout;
    if (remainder.count() > 0) std::this_thread::sleep_for(remainder);
  }
  if (running_gauge_ != nullptr) running_gauge_->Set(0.0);
  AVOC_LOG_INFO("voter service '%s': stopped after %zu rounds",
                options_.group.c_str(), current_round_.load());
}

void VoterService::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  // Joining the scheduler lets it finish the round it already opened:
  // the loop flushes that round and joins its sensor workers before it
  // rechecks the flag, so the last output reaches the sink here.
  if (scheduler_.joinable()) scheduler_.join();
}

size_t VoterService::rounds_completed() const {
  return runner_->sink().output_count();
}

}  // namespace avoc::runtime
