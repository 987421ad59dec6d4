// Test-side reader of a SinkNode's rows: each trace row materialized as
// a VoteResult next to its round number.  SetSinkRows fills a migration
// blob's sink rows from a trace; EncodedState renders a runner's whole
// state as blob bytes.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/trace.h"
#include "core/types.h"
#include "runtime/migration.h"
#include "runtime/nodes.h"

namespace avoc::runtime {

struct SinkRow {
  size_t round = 0;
  core::VoteResult result;
};

inline std::vector<SinkRow> SinkRows(const SinkNode& sink) {
  std::vector<SinkRow> rows;
  sink.WithTrace([&rows](const core::BatchTrace& trace,
                         const std::vector<size_t>& rounds) {
    rows.reserve(rounds.size());
    for (size_t i = 0; i < rounds.size(); ++i) {
      rows.push_back(SinkRow{rounds[i], trace.MaterializeRound(i)});
    }
  });
  return rows;
}

/// Points `blob`'s sink rows at `trace` (row i is round rounds[i]); the
/// blob keeps both alive.
inline void SetSinkRows(GroupStateBlob& blob, core::BatchTrace trace,
                        std::vector<size_t> rounds) {
  auto rows = std::make_shared<
      std::pair<core::BatchTrace, std::vector<size_t>>>(std::move(trace),
                                                         std::move(rounds));
  blob.state.sink_trace = rows->first.view();
  blob.state.sink_rounds = rows->second;
  blob.sink_columns = std::move(rows);
}

/// The runner's whole state as a migration blob would ship it.
inline std::string EncodedState(const GroupRunner& runner) {
  std::string bytes;
  runner.ExportState([&](const GroupRunner::State& state) {
    GroupStateBlob blob;
    blob.group = runner.group();
    blob.state = state;
    bytes = EncodeGroupState(blob);
  });
  return bytes;
}

}  // namespace avoc::runtime
