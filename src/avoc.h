// Umbrella header: the AVOC library's public API in one include.
//
//   #include "avoc.h"
//
//   auto spec  = avoc::vdx::Spec::Parse(definition_json);
//   auto voter = avoc::vdx::MakeVoter(*spec, modules);
//   auto fused = voter->CastVote(avoc::core::Round{18.4, 18.5, 18.3});
//
// CastVote is the single-round convenience; batch callers hand whole
// blocks of rounds to CastVoteBlock (or core::RunOverTable) instead.
//
// Fine-grained headers remain available for targeted includes; this one
// exists so applications and quick experiments need exactly one line.
#pragma once

#include "core/algorithms.h"   // the seven §4-§5 algorithm presets
#include "core/batch.h"        // run engines over recorded round tables
#include "core/categorical.h"  // §6 categorical voting
#include "core/engine.h"       // the voting engine itself
#include "core/mlv.h"          // maximum-likelihood voting (extension)
#include "core/multidim.h"     // §5 multi-dimensional voting
#include "data/dataset.h"      // dataset persistence
#include "data/round_table.h"  // the rounds x modules container
#include "data/stream.h"       // asynchronous streams -> rounds
#include "obs/events.h"        // structured JSON event logging
#include "obs/metrics.h"       // lock-free metrics registry
#include "obs/stage_metrics.h"      // the production metrics observer
#include "runtime/group_manager.h"  // multi-group voter management
#include "runtime/group_runner.h"   // one group; RunRound replays a table
#include "runtime/remote.h"    // the TCP voter service + client
#include "runtime/service.h"   // the threaded soft-real-time service
#include "stats/filters.h"     // post-fusion filters
#include "vdx/factory.h"       // VDX spec -> configured voter
#include "vdx/registry.h"      // named spec collections
#include "vdx/schema.h"        // the published VDX JSON schema

namespace avoc {

/// Library semantic version.
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 0;
inline constexpr const char kVersionString[] = "1.0.0";

}  // namespace avoc
