#include "core/batch.h"

namespace avoc::core {

Status RunOverTable(VotingEngine& engine, const data::RoundTable& table,
                    VoteSink& sink) {
  if (table.module_count() != engine.module_count()) {
    return InvalidArgumentError("table/engine module count mismatch");
  }
  // The whole table goes through the engine's many-rounds entry point as
  // one contiguous block — per-round dispatch overhead is paid once.
  return engine.CastVoteBlock(
      RoundBlock{table.value_block(), table.present_block(),
                 table.module_count()},
      sink);
}

Result<BatchTrace> RunOverTable(VotingEngine& engine,
                                const data::RoundTable& table) {
  BatchTrace trace(engine.module_count());
  trace.ReserveRounds(table.round_count());
  AVOC_RETURN_IF_ERROR(RunOverTable(engine, table, trace));
  return trace;
}

Result<BatchTrace> RunAlgorithm(AlgorithmId id, const data::RoundTable& table,
                                const PresetParams& params) {
  AVOC_ASSIGN_OR_RETURN(VotingEngine engine,
                        MakeEngine(id, table.module_count(), params));
  return RunOverTable(engine, table);
}

}  // namespace avoc::core
