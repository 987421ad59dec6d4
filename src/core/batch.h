// Batch execution: drive a VotingEngine over a pre-recorded RoundTable.
//
// This is how the paper evaluates ("the evaluation was done with
// pre-recorded data for reproducibility purposes"): every algorithm sees
// the identical table of raw readings and produces one output series.
//
// The result path is columnar: the whole table goes to
// VotingEngine::CastVoteBlock as one RoundBlock and every round lands in a
// BatchTrace, so the hot loop performs no per-round Round materialization
// and no VoteResult allocation.
#pragma once

#include "core/algorithms.h"
#include "core/engine.h"
#include "core/trace.h"
#include "data/round_table.h"
#include "util/status.h"

namespace avoc::core {

/// The batch result IS the columnar trace; the old name stays usable.
using BatchResult = BatchTrace;

/// Runs `engine` over every round of `table`, appending into the
/// caller-owned sink (reusable across batches).  The engine keeps its
/// state, so a fresh engine gives the from-bootstrap behaviour of the
/// figures.
Status RunOverTable(VotingEngine& engine, const data::RoundTable& table,
                    VoteSink& sink);

/// Convenience wrapper returning a freshly-built trace.
Result<BatchTrace> RunOverTable(VotingEngine& engine,
                                const data::RoundTable& table);

/// Convenience: fresh preset engine over the table.
Result<BatchTrace> RunAlgorithm(AlgorithmId id, const data::RoundTable& table,
                                const PresetParams& params = {});

}  // namespace avoc::core
