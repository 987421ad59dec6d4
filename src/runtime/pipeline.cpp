#include "runtime/pipeline.h"

namespace avoc::runtime {

namespace {

GroupRunner::Options ToRunnerOptions(PipelineOptions options) {
  GroupRunner::Options runner_options;
  runner_options.group = std::move(options.group);
  runner_options.store = options.store;
  runner_options.trace_store = options.trace_store;
  return runner_options;
}

}  // namespace

Result<Pipeline> Pipeline::FromGenerators(
    std::vector<Generator> generators, core::VotingEngine engine,
    PipelineOptions options) {
  AVOC_ASSIGN_OR_RETURN(
      std::unique_ptr<GroupRunner> runner,
      GroupRunner::WithGenerators(std::move(generators), std::move(engine),
                                  ToRunnerOptions(std::move(options))));
  return Pipeline(std::move(runner));
}

Result<Pipeline> Pipeline::FromTable(const data::RoundTable& table,
                                     core::VotingEngine engine,
                                     PipelineOptions options) {
  AVOC_ASSIGN_OR_RETURN(
      std::unique_ptr<GroupRunner> runner,
      GroupRunner::FromTable(table, std::move(engine),
                             ToRunnerOptions(std::move(options))));
  return Pipeline(std::move(runner));
}

void Pipeline::Step() { runner_->RunRound(next_round_++); }

void Pipeline::Run(size_t rounds) {
  for (size_t i = 0; i < rounds; ++i) Step();
}

}  // namespace avoc::runtime
