#include "core/stages.h"

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/engine.h"
#include "core/explain.h"

namespace avoc::core {
namespace {

const std::vector<std::string> kExpectedOrder = {
    "quorum",     "exclusion", "clustering", "agreement", "elimination",
    "weighting",  "collation", "majority",   "history"};

TEST(StagePipelineTest, CompilesNineStagesInDeclaredOrder) {
  ASSERT_EQ(kStageNames.size(), kExpectedOrder.size());
  for (size_t i = 0; i < kStageNames.size(); ++i) {
    EXPECT_EQ(kStageNames[i], kExpectedOrder[i]) << "stage " << i;
  }
  // The plan resolves the per-stage constants once per engine: the quorum
  // count is max(min_count, ceil(fraction * modules)).
  EngineConfig config;
  config.quorum.min_count = 0;
  config.quorum.fraction = 0.5;
  EXPECT_EQ(CompileRoundPlan(3, config).quorum_required, 2u);
  config.quorum.fraction = 1.0;
  EXPECT_EQ(CompileRoundPlan(3, config).quorum_required, 3u);
  config.quorum.min_count = 5;
  const RoundPlan plan = CompileRoundPlan(4, config);
  EXPECT_EQ(plan.quorum_required, 5u);
  EXPECT_EQ(plan.module_count, 4u);
  EXPECT_EQ(plan.history_rule, config.history.rule);
}

TEST(StageObserverTest, SeesEveryStageOfACleanRound) {
  auto engine = MakeEngine(AlgorithmId::kStandard, 3);
  ASSERT_TRUE(engine.ok());
  StageTraceObserver trace;
  engine->set_observer(&trace);
  auto result = engine->CastVote(Round{10.0, 10.1, 9.9});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, RoundOutcome::kVoted);
  EXPECT_EQ(trace.round_index(), 1u);
  ASSERT_EQ(trace.entries().size(), kExpectedOrder.size());
  for (size_t i = 0; i < trace.entries().size(); ++i) {
    EXPECT_EQ(trace.entries()[i].stage, kExpectedOrder[i]) << "stage " << i;
    EXPECT_FALSE(trace.entries()[i].faulted);
  }
  // After weighting, the round carries positive weight mass.
  EXPECT_GT(trace.entries()[5].weight_sum, 0.0);
  // Detaching stops observation.
  engine->set_observer(nullptr);
  ASSERT_TRUE(engine->CastVote(Round{10.0, 10.1, 9.9}).ok());
  EXPECT_EQ(trace.round_index(), 1u);
}

TEST(StageObserverTest, FaultShortCircuitSkipsLaterStages) {
  EngineConfig config;
  config.quorum.min_count = 3;
  config.on_no_quorum = NoQuorumPolicy::kEmitNothing;
  auto engine = VotingEngine::Create(3, config);
  ASSERT_TRUE(engine.ok());
  StageTraceObserver trace;
  engine->set_observer(&trace);
  Round round = {std::optional<double>(10.0), std::nullopt, std::nullopt};
  auto result = engine->CastVote(round);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, RoundOutcome::kNoOutput);
  // Only the quorum stage ran; the fault short-circuit skipped the rest.
  ASSERT_EQ(trace.entries().size(), 1u);
  EXPECT_EQ(trace.entries()[0].stage, "quorum");
  EXPECT_TRUE(trace.entries()[0].faulted);
}

TEST(StageObserverTest, RoundLifecycleHooksFire) {
  struct CountingObserver : StageObserver {
    size_t begins = 0;
    size_t stages = 0;
    size_t ends = 0;
    std::optional<RoundOutcome> last_outcome;
    void OnRoundBegin(size_t, const VoteContext&) override { ++begins; }
    void OnStageDone(std::string_view, const VoteContext&) override {
      ++stages;
    }
    void OnRoundCommitted(size_t, const RoundColumns&,
                          const RoundScalars& scalars) override {
      ++ends;
      last_outcome = scalars.outcome;
    }
  };
  auto engine = MakeEngine(AlgorithmId::kAverage, 2);
  ASSERT_TRUE(engine.ok());
  CountingObserver observer;
  engine->set_observer(&observer);
  ASSERT_TRUE(engine->CastVote(Round{1.0, 1.2}).ok());
  ASSERT_TRUE(engine->CastVote(Round{1.1, 1.3}).ok());
  EXPECT_EQ(observer.begins, 2u);
  EXPECT_EQ(observer.ends, 2u);
  EXPECT_EQ(observer.stages, 2 * kExpectedOrder.size());
  ASSERT_TRUE(observer.last_outcome.has_value());
  EXPECT_EQ(*observer.last_outcome, RoundOutcome::kVoted);
}

TEST(StageObserverTest, FormatStageTraceRendersEveryRow) {
  auto engine = MakeEngine(AlgorithmId::kAvoc, 3);
  ASSERT_TRUE(engine.ok());
  StageTraceObserver trace;
  engine->set_observer(&trace);
  ASSERT_TRUE(engine->CastVote(Round{5.0, 5.1, 4.9}).ok());
  const std::string rendered = FormatStageTrace(trace.entries());
  for (const std::string& name : kExpectedOrder) {
    EXPECT_NE(rendered.find(name), std::string::npos) << name;
  }
  // The AVOC bootstrap round clusters (all records start at 1).
  EXPECT_NE(rendered.find("clustered"), std::string::npos);
}

// --- RestoreState / Reset round-trip through the stage pipeline ------------

TEST(HistoryRestoreTest, RestoredLedgerDoesNotRetriggerBootstrap) {
  // AVOC gates clustering on a pristine ledger (all records 1: "new set").
  auto engine = MakeEngine(AlgorithmId::kAvoc, 3);
  ASSERT_TRUE(engine.ok());
  auto fresh = engine->CastVote(Round{10.0, 10.1, 9.9});
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->used_clustering) << "bootstrap round must cluster";

  // A restored mid-life ledger is neither a new set nor a collapse, so
  // the clustering stage must stay closed after a datastore round-trip.
  const std::vector<double> records = {0.9, 0.7, 0.8};
  ASSERT_TRUE(
      engine->RestoreState(UpgradeRecordsOnly(records, /*rounds=*/25)).ok());
  EXPECT_EQ(engine->history().round_count(), 25u);
  auto restored = engine->CastVote(Round{10.0, 10.1, 9.9});
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->outcome, RoundOutcome::kVoted);
  EXPECT_FALSE(restored->used_clustering)
      << "restored history must not look like a new set";

  // Reset forgets the deployment: the next round bootstraps again.
  engine->Reset();
  EXPECT_EQ(engine->round_index(), 0u);
  auto reset_round = engine->CastVote(Round{10.0, 10.1, 9.9});
  ASSERT_TRUE(reset_round.ok());
  EXPECT_TRUE(reset_round->used_clustering)
      << "reset must re-arm the bootstrap gate";
}

TEST(HistoryRestoreTest, RestoreRoundTripsThroughStoreSnapshot) {
  // Run an engine for a while, export its state, restore it into a
  // fresh engine: the two engines must then vote bit-identically.
  auto source = MakeEngine(AlgorithmId::kAvoc, 3);
  ASSERT_TRUE(source.ok());
  for (int r = 0; r < 10; ++r) {
    ASSERT_TRUE(
        source->CastVote(Round{10.0, 10.2, 12.0}).ok());
  }
  VotingEngine::State snapshot;
  source->ExportState(snapshot);

  auto restored = MakeEngine(AlgorithmId::kAvoc, 3);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(restored->RestoreState(snapshot).ok());
  EXPECT_EQ(restored->last_output(), source->last_output());
  EXPECT_EQ(restored->round_index(), source->round_index());
  auto a = source->CastVote(Round{10.1, 10.3, 12.1});
  auto b = restored->CastVote(Round{10.1, 10.3, 12.1});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a->value.has_value());
  ASSERT_TRUE(b->value.has_value());
  EXPECT_EQ(std::bit_cast<uint64_t>(*a->value),
            std::bit_cast<uint64_t>(*b->value));
  EXPECT_EQ(a->used_clustering, b->used_clustering);
  EXPECT_EQ(a->weights, b->weights);
  EXPECT_EQ(a->history, b->history);
}

}  // namespace
}  // namespace avoc::core
