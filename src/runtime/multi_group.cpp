#include "runtime/multi_group.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "runtime/group_router.h"
#include "util/strings.h"
#include "vdx/factory.h"

namespace avoc::runtime {

void MultiGroupTrace::Resize(std::span<const data::RoundTable> tables,
                             size_t modules) {
  modules_ = modules;
  offsets_.assign(1, 0);
  offsets_.reserve(tables.size() + 1);
  for (const data::RoundTable& table : tables) {
    offsets_.push_back(offsets_.back() + table.round_count());
  }
  const size_t rounds = offsets_.back();
  values_.resize(rounds);
  engaged_.resize(rounds);
  outcomes_.resize(rounds);
  used_clustering_.resize(rounds);
  had_majority_.resize(rounds);
  present_counts_.resize(rounds);
  weights_.resize(rounds * modules);
  agreement_.resize(rounds * modules);
  history_.resize(rounds * modules);
  excluded_.resize(rounds * modules);
  eliminated_.resize(rounds * modules);
  errors_.resize(tables.size());
  for (std::vector<core::RoundError>& errors : errors_) errors.clear();
}

core::RoundColumns MultiGroupTrace::GroupSink::BeginRound(size_t module_count) {
  MultiGroupTrace& t = *trace_;
  const size_t row = (base_ + cursor_) * t.modules_;
  return core::RoundColumns{
      std::span<double>(t.weights_).subspan(row, module_count),
      std::span<double>(t.agreement_).subspan(row, module_count),
      std::span<double>(t.history_).subspan(row, module_count),
      std::span<uint8_t>(t.excluded_).subspan(row, module_count),
      std::span<uint8_t>(t.eliminated_).subspan(row, module_count)};
}

void MultiGroupTrace::GroupSink::EndRound(const core::RoundScalars& scalars) {
  MultiGroupTrace& t = *trace_;
  const size_t r = base_ + cursor_;
  t.values_[r] = scalars.value;
  t.engaged_[r] = scalars.has_value ? 1 : 0;
  t.outcomes_[r] = scalars.outcome;
  t.used_clustering_[r] = scalars.used_clustering ? 1 : 0;
  t.had_majority_[r] = scalars.had_majority ? 1 : 0;
  t.present_counts_[r] = scalars.present_count;
  if (scalars.status != nullptr) {
    t.errors_[group_].push_back(
        {static_cast<uint32_t>(cursor_), *scalars.status});
  }
  ++cursor_;
}

core::TraceView MultiGroupTrace::group(size_t g) const {
  const size_t begin = offsets_[g];
  const size_t rounds = offsets_[g + 1] - begin;
  core::TraceColumns columns;
  columns.rounds = rounds;
  columns.modules = modules_;
  columns.values = std::span<const double>(values_).subspan(begin, rounds);
  columns.engaged = std::span<const uint8_t>(engaged_).subspan(begin, rounds);
  columns.outcomes =
      std::span<const core::RoundOutcome>(outcomes_).subspan(begin, rounds);
  columns.used_clustering =
      std::span<const uint8_t>(used_clustering_).subspan(begin, rounds);
  columns.had_majority =
      std::span<const uint8_t>(had_majority_).subspan(begin, rounds);
  columns.present_counts =
      std::span<const uint32_t>(present_counts_).subspan(begin, rounds);
  const size_t block = begin * modules_;
  const size_t block_len = rounds * modules_;
  columns.weights = std::span<const double>(weights_).subspan(block, block_len);
  columns.agreement =
      std::span<const double>(agreement_).subspan(block, block_len);
  columns.history = std::span<const double>(history_).subspan(block, block_len);
  columns.excluded =
      std::span<const uint8_t>(excluded_).subspan(block, block_len);
  columns.eliminated =
      std::span<const uint8_t>(eliminated_).subspan(block, block_len);
  columns.errors = errors_[g];
  return core::TraceView(columns);
}

MultiGroupEngine::MultiGroupEngine(std::vector<core::VotingEngine> engines,
                                   size_t module_count,
                                   MultiGroupOptions options)
    : module_count_(module_count),
      options_(options),
      engines_(std::move(engines)) {
  if (options_.registry != nullptr) {
    const size_t shards = std::max<size_t>(1, options_.metrics_shards);
    observers_.reserve(engines_.size());
    for (size_t g = 0; g < engines_.size(); ++g) {
      // One observer per group (the engine serializes its own rounds, and
      // two groups of one shard may vote concurrently on different
      // workers); the shard label makes same-shard groups share metrics.
      obs::MetricsObserverOptions observer_options;
      observer_options.scope = StrFormat("s%zu", g % shards);
      observer_options.scope_label = "shard";
      observer_options.sample_every = options_.metrics_sample_every;
      // Batch rounds are sub-microsecond: amortize the registry writes.
      observer_options.flush_every = 32;
      observer_options.log_events = false;
      observers_.push_back(std::make_unique<obs::MetricsObserver>(
          *options_.registry, std::move(observer_options)));
      engines_[g].set_observer(observers_.back().get());
    }
  }
}

Result<MultiGroupEngine> MultiGroupEngine::Create(
    size_t group_count, size_t module_count, const core::EngineConfig& config,
    MultiGroupOptions options) {
  if (group_count == 0) {
    return InvalidArgumentError("multi-group engine needs at least one group");
  }
  // One prototype compiles the stage pipeline; the copies share it.
  AVOC_ASSIGN_OR_RETURN(core::VotingEngine prototype,
                        core::VotingEngine::Create(module_count, config));
  std::vector<core::VotingEngine> engines(group_count, prototype);
  return MultiGroupEngine(std::move(engines), module_count, options);
}

Result<MultiGroupEngine> MultiGroupEngine::FromSpec(const vdx::Spec& spec,
                                                    size_t group_count,
                                                    size_t module_count,
                                                    MultiGroupOptions options) {
  if (group_count == 0) {
    return InvalidArgumentError("multi-group engine needs at least one group");
  }
  AVOC_ASSIGN_OR_RETURN(core::VotingEngine prototype,
                        vdx::MakeVoter(spec, module_count));
  std::vector<core::VotingEngine> engines(group_count, prototype);
  return MultiGroupEngine(std::move(engines), module_count, options);
}

Status MultiGroupEngine::ValidateTables(
    std::span<const data::RoundTable> tables) const {
  if (tables.size() != engines_.size()) {
    return InvalidArgumentError(
        StrFormat("%zu tables for %zu groups", tables.size(), engines_.size()));
  }
  for (size_t g = 0; g < tables.size(); ++g) {
    if (tables[g].module_count() != module_count_) {
      return InvalidArgumentError(
          StrFormat("table %zu has %zu modules, groups have %zu", g,
                    tables[g].module_count(), module_count_));
    }
  }
  return Status::Ok();
}

Status MultiGroupEngine::RunBatch(std::span<const data::RoundTable> tables,
                                  MultiGroupTrace& trace) {
  AVOC_RETURN_IF_ERROR(ValidateTables(tables));
  trace.Resize(tables, module_count_);
  const unsigned hardware = std::thread::hardware_concurrency();
  const size_t configured =
      options_.threads != 0 ? options_.threads
                            : (hardware != 0 ? hardware : 1);
  const size_t workers = std::min(configured, engines_.size());
  if (workers <= 1) {
    // One worker would pay pool dispatch and join for nothing — run the
    // identical per-group loop inline so the parallel entry point never
    // loses to the sequential one on a single-core host.
    for (size_t g = 0; g < engines_.size(); ++g) {
      MultiGroupTrace::GroupSink sink(&trace, g);
      AVOC_RETURN_IF_ERROR(core::RunOverTable(engines_[g], tables[g], sink));
    }
  } else {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<util::ThreadPool>(options_.threads);
    }
    // One contiguous group range per worker (GroupRouter's dense
    // partition): each worker owns an adjacent slice of the group-major
    // block, so writes from different workers never interleave within a
    // cache line (the old one-task-per-group scatter did, and also paid
    // one queue round-trip per group instead of per worker).  Each group's
    // table feeds the engine's many-rounds block entry point whole
    // (ValidateTables already proved the arity), so a worker streams its
    // group range through one instruction stream.
    GroupRouter router(workers);
    std::vector<Status> statuses(workers);
    pool_->ParallelFor(
        workers, [this, tables, &trace, &statuses, &router](size_t w) {
          const ShardRange range = router.RangeFor(w, engines_.size());
          for (size_t g = range.begin; g < range.end; ++g) {
            MultiGroupTrace::GroupSink sink(&trace, g);
            const Status status = engines_[g].CastVoteBlock(
                core::RoundBlock{tables[g].value_block(),
                                 tables[g].present_block(), module_count_},
                sink);
            if (!status.ok() && statuses[w].ok()) statuses[w] = status;
          }
        });
    for (const Status& status : statuses) {
      AVOC_RETURN_IF_ERROR(status);
    }
  }
  // The pool join above orders every worker's pending counts before this.
  FlushObservers();
  return Status::Ok();
}

Result<MultiGroupTrace> MultiGroupEngine::RunBatch(
    std::span<const data::RoundTable> tables) {
  MultiGroupTrace trace;
  AVOC_RETURN_IF_ERROR(RunBatch(tables, trace));
  return trace;
}

Status MultiGroupEngine::RunBatchSequential(
    std::span<const data::RoundTable> tables, MultiGroupTrace& trace) {
  AVOC_RETURN_IF_ERROR(ValidateTables(tables));
  trace.Resize(tables, module_count_);
  for (size_t g = 0; g < engines_.size(); ++g) {
    MultiGroupTrace::GroupSink sink(&trace, g);
    AVOC_RETURN_IF_ERROR(core::RunOverTable(engines_[g], tables[g], sink));
  }
  FlushObservers();
  return Status::Ok();
}

Result<MultiGroupTrace> MultiGroupEngine::RunBatchSequential(
    std::span<const data::RoundTable> tables) {
  MultiGroupTrace trace;
  AVOC_RETURN_IF_ERROR(RunBatchSequential(tables, trace));
  return trace;
}

void MultiGroupEngine::FlushObservers() {
  for (const auto& observer : observers_) observer->Flush();
}

MultiGroupStats MultiGroupEngine::Stats() const {
  MultiGroupStats stats;
  // Shard metrics are shared by every group of the shard, so summing the
  // first observer of each distinct shard covers the deployment once.
  const size_t distinct =
      std::min(observers_.size(), std::max<size_t>(1, options_.metrics_shards));
  for (size_t s = 0; s < distinct; ++s) {
    const obs::MetricsObserver& shard = *observers_[s];
    stats.rounds += shard.rounds_total().Value();
    stats.voted += shard.voted_total().Value();
    stats.reverted += shard.reverted_total().Value();
    stats.no_output += shard.no_output_total().Value();
    stats.errors += shard.error_total().Value();
    stats.excluded_modules += shard.excluded_modules_total().Value();
    stats.eliminated_modules += shard.eliminated_modules_total().Value();
    stats.clustered_rounds += shard.clustered_rounds_total().Value();
    stats.history_collapse += shard.history_collapse_total().Value();
    stats.quorum_failures += shard.quorum_failures_total().Value();
    stats.majority_failures += shard.majority_failures_total().Value();
    stats.round_latency.Merge(shard.round_latency().Snapshot());
  }
  return stats;
}

void MultiGroupEngine::ResetAll() {
  for (core::VotingEngine& engine : engines_) {
    engine.Reset();
  }
}

}  // namespace avoc::runtime
