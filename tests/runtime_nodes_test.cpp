#include "runtime/nodes.h"

#include <gtest/gtest.h>

#include "core/algorithms.h"

namespace avoc::runtime {
namespace {

core::VotingEngine AverageEngine(size_t modules) {
  auto engine = core::MakeEngine(core::AlgorithmId::kAverage, modules);
  EXPECT_TRUE(engine.ok());
  return std::move(*engine);
}

/// The rounds a hub closed: round numbers plus the columnar table.
struct Closed {
  explicit Closed(size_t modules)
      : table(data::RoundTable::WithModuleCount(modules)) {}

  size_t size() const { return rounds.size(); }
  core::Round row(size_t i) const { return table.MaterializeRound(i); }

  std::vector<size_t> rounds;
  data::RoundTable table;
};

BatchIngestStats Feed(HubNode& hub, Closed& closed, ReadingMessage reading) {
  return hub.IngestBatch({&reading, 1}, closed.rounds, closed.table);
}

/// Votes `readings` as rounds 0..n-1 and appends them to `sink`.
void VoteRounds(VoterNode& voter, SinkNode& sink,
                const std::vector<core::Round>& readings) {
  Closed closed(voter.engine().module_count());
  for (size_t r = 0; r < readings.size(); ++r) {
    ASSERT_TRUE(closed.table.AppendRound(readings[r]).ok());
    closed.rounds.push_back(r);
  }
  voter.Vote(closed.rounds, closed.table, sink);
}

TEST(HubNodeTest, ClosesRoundWhenAllModulesReport) {
  HubNode hub(3);
  Closed closed(3);
  Feed(hub, closed, {0, 0, 1.0});
  Feed(hub, closed, {1, 0, 2.0});
  EXPECT_EQ(closed.size(), 0u);
  EXPECT_EQ(hub.open_rounds(), 1u);
  const BatchIngestStats stats = Feed(hub, closed, {2, 0, 3.0});
  EXPECT_EQ(stats.rounds_closed, 1u);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed.rounds[0], 0u);
  EXPECT_DOUBLE_EQ(*closed.row(0)[2], 3.0);
  EXPECT_EQ(hub.open_rounds(), 0u);
}

TEST(HubNodeTest, FlushPublishesPartialRound) {
  HubNode hub(3);
  Closed closed(3);
  Feed(hub, closed, {0, 5, 1.0});
  EXPECT_TRUE(hub.Close(5, closed.rounds, closed.table));
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed.rounds[0], 5u);
  const core::Round row = closed.row(0);
  EXPECT_TRUE(row[0].has_value());
  EXPECT_FALSE(row[1].has_value());
  EXPECT_FALSE(row[2].has_value());
}

TEST(HubNodeTest, LateReadingsAfterCloseAreDropped) {
  HubNode hub(2);
  Closed closed(2);
  Feed(hub, closed, {0, 0, 1.0});
  EXPECT_TRUE(hub.Close(0, closed.rounds, closed.table));
  const BatchIngestStats stats = Feed(hub, closed, {1, 0, 2.0});  // too late
  EXPECT_EQ(stats.late, 1u);
  EXPECT_EQ(closed.size(), 1u);
  EXPECT_EQ(hub.open_rounds(), 0u);
  // Closing again is a no-op too.
  EXPECT_FALSE(hub.Close(0, closed.rounds, closed.table));
  EXPECT_EQ(closed.size(), 1u);
}

TEST(HubNodeTest, CloseOfUnknownRoundClosesItEmpty) {
  HubNode hub(2);
  Closed closed(2);
  EXPECT_TRUE(hub.Close(10, closed.rounds, closed.table));
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed.rounds[0], 10u);
  EXPECT_FALSE(closed.row(0)[0].has_value());
  EXPECT_FALSE(closed.row(0)[1].has_value());
}

TEST(HubNodeTest, UnknownModuleIgnored) {
  HubNode hub(2);
  Closed closed(2);
  const BatchIngestStats stats =
      Feed(hub, closed, {7, 0, 1.0});  // module out of range
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(hub.open_rounds(), 0u);
}

TEST(HubNodeTest, InterleavedRoundsAssembleIndependently) {
  HubNode hub(2);
  Closed closed(2);
  Feed(hub, closed, {0, 0, 1.0});
  Feed(hub, closed, {0, 1, 10.0});
  Feed(hub, closed, {1, 1, 11.0});  // round 1 completes first
  Feed(hub, closed, {1, 0, 2.0});   // then round 0
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed.rounds[0], 1u);
  EXPECT_EQ(closed.rounds[1], 0u);
  EXPECT_DOUBLE_EQ(*closed.row(0)[1], 11.0);
  EXPECT_DOUBLE_EQ(*closed.row(1)[1], 2.0);
}

TEST(HubNodeTest, UntilQuorumClosesEarly) {
  HubNode hub(5, /*close_at_count=*/3);
  Closed closed(5);
  Feed(hub, closed, {0, 0, 1.0});
  Feed(hub, closed, {1, 0, 2.0});
  EXPECT_EQ(closed.size(), 0u);
  Feed(hub, closed, {2, 0, 3.0});  // quorum reached: round closes
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_FALSE(closed.row(0)[3].has_value());
  EXPECT_FALSE(closed.row(0)[4].has_value());
  // Stragglers are dropped against the closed round.
  EXPECT_EQ(Feed(hub, closed, {3, 0, 4.0}).late, 1u);
  EXPECT_EQ(closed.size(), 1u);
}

TEST(HubNodeTest, UntilQuorumCappedAtModuleCount) {
  HubNode hub(2, /*close_at_count=*/99);
  Closed closed(2);
  Feed(hub, closed, {0, 0, 1.0});
  EXPECT_EQ(closed.size(), 0u);
  Feed(hub, closed, {1, 0, 2.0});
  EXPECT_EQ(closed.size(), 1u);
}

TEST(HubNodeTest, ExportRestoreKeepsPendingAndClosedRounds) {
  HubNode source(2);
  Closed closed(2);
  Feed(source, closed, {0, 0, 1.0});
  Feed(source, closed, {1, 0, 2.0});  // round 0 closes
  Feed(source, closed, {0, 1, 3.0});  // round 1 stays open

  HubNode restored(2);
  restored.RestoreState(source.ExportState());
  EXPECT_EQ(restored.open_rounds(), 1u);
  Closed after(2);
  EXPECT_EQ(Feed(restored, after, {1, 0, 9.0}).late, 1u);
  Feed(restored, after, {1, 1, 4.0});
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after.rounds[0], 1u);
  EXPECT_DOUBLE_EQ(*after.row(0)[0], 3.0);
  EXPECT_DOUBLE_EQ(*after.row(0)[1], 4.0);
}

TEST(VoterNodeTest, VotesOnIncomingRounds) {
  VoterNode voter(AverageEngine(3));
  SinkNode sink;
  VoteRounds(voter, sink, {{10.0, 20.0, 30.0}});
  const auto outputs = sink.outputs();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].round, 0u);
  EXPECT_DOUBLE_EQ(*outputs[0].result.value, 20.0);
  EXPECT_TRUE(voter.last_status().ok());
}

TEST(VoterNodeTest, PersistsHistoryToStore) {
  HistoryStore store;
  VoterOptions options;
  options.group = "test-group";
  options.store = &store;
  auto engine = core::MakeEngine(core::AlgorithmId::kHybrid, 3);
  ASSERT_TRUE(engine.ok());
  VoterNode voter(std::move(*engine), options);
  SinkNode sink;
  VoteRounds(voter, sink, {{10.0, 10.1, 90.0}});
  auto snapshot = store.Get("test-group");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->rounds, 1u);
  ASSERT_EQ(snapshot->records.size(), 3u);
  EXPECT_LT(snapshot->records[2], 1.0);  // the outlier's record dropped
}

TEST(VoterNodeTest, RestoresHistoryFromStore) {
  HistoryStore store;
  HistorySnapshot seed;
  seed.records = {1.0, 1.0, 0.0};
  seed.rounds = 50;
  ASSERT_TRUE(store.Put("warm", seed).ok());

  VoterOptions options;
  options.group = "warm";
  options.store = &store;
  auto engine = core::MakeEngine(core::AlgorithmId::kHybrid, 3);
  ASSERT_TRUE(engine.ok());
  VoterNode voter(std::move(*engine), options);
  SinkNode sink;
  // Module 2's restored record is 0 -> eliminated on the very first round.
  VoteRounds(voter, sink, {{10.0, 10.1, 10.05}});
  const auto outputs = sink.outputs();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_TRUE(outputs[0].result.eliminated[2]);
}

TEST(SinkNodeTest, CollectsOutputs) {
  SinkNode sink;
  VoterNode voter(AverageEngine(2));
  VoteRounds(voter, sink, {{1.0, 3.0}, {5.0, 7.0}});
  EXPECT_EQ(sink.output_count(), 2u);
  ASSERT_TRUE(sink.last_value().has_value());
  EXPECT_DOUBLE_EQ(*sink.last_value(), 6.0);
  EXPECT_DOUBLE_EQ(*sink.outputs()[0].result.value, 2.0);
}

TEST(SinkNodeTest, LastValueSkipsSuppressedRounds) {
  SinkNode sink;
  auto config = core::MakeConfig(core::AlgorithmId::kAverage);
  config.quorum.fraction = 1.0;
  config.on_no_quorum = core::NoQuorumPolicy::kEmitNothing;
  auto engine = core::VotingEngine::Create(2, config);
  ASSERT_TRUE(engine.ok());
  VoterNode voter(std::move(*engine));
  VoteRounds(voter, sink, {{4.0, 6.0}, {std::nullopt, 6.0}});
  EXPECT_EQ(sink.output_count(), 2u);
  ASSERT_TRUE(sink.last_value().has_value());
  EXPECT_DOUBLE_EQ(*sink.last_value(), 5.0);  // from round 0
}

TEST(SinkNodeTest, EmptySinkHasNoValue) {
  SinkNode sink;
  EXPECT_FALSE(sink.last_value().has_value());
  EXPECT_EQ(sink.output_count(), 0u);
}

}  // namespace
}  // namespace avoc::runtime
