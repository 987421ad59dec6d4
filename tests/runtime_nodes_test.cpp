#include "runtime/nodes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "core/algorithms.h"
#include "util/rng.h"
#include "sink_rows.h"

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

/// Reference hub for the differential test: the map-based assembly the
/// pooled HubNode replaced (one map entry per open round, one per closed
/// round, a present-count rescan per reading).  Same decisions, same
/// close order, same exported state — by definition of equivalence.
class MapHub {
 public:
  MapHub(size_t module_count, size_t close_at_count)
      : module_count_(module_count),
        close_at_count_(close_at_count == 0
                            ? module_count
                            : std::min(close_at_count, module_count)) {}

  BatchIngestStats IngestBatch(std::span<const ReadingMessage> readings,
                               std::vector<size_t>& rounds,
                               data::RoundTable& table) {
    BatchIngestStats stats;
    for (const ReadingMessage& message : readings) {
      if (message.module >= module_count_) {
        ++stats.rejected;
        continue;
      }
      if (closed_.count(message.round)) {
        ++stats.late;
        continue;
      }
      ++stats.accepted;
      auto it = pending_.try_emplace(message.round).first;
      core::Round& pending = it->second;
      if (pending.empty()) pending.resize(module_count_);
      pending[message.module] = message.value;
      size_t present = 0;
      for (const auto& reading : pending) {
        if (reading.has_value()) ++present;
      }
      if (present < close_at_count_) continue;
      core::Round complete = std::move(pending);
      pending_.erase(it);
      CloseLocked(message.round, std::move(complete), rounds, table);
      ++stats.rounds_closed;
    }
    return stats;
  }

  bool Close(size_t round, std::vector<size_t>& rounds,
             data::RoundTable& table) {
    if (closed_.count(round)) return false;
    core::Round readings;
    if (auto it = pending_.find(round); it != pending_.end()) {
      readings = std::move(it->second);
      pending_.erase(it);
    } else {
      readings.resize(module_count_);
    }
    CloseLocked(round, std::move(readings), rounds, table);
    return true;
  }

  size_t open_rounds() const { return pending_.size(); }

  HubNode::State ExportState() const {
    HubNode::State state;
    for (const auto& [round, readings] : pending_) {
      state.pending.emplace_back(static_cast<uint64_t>(round), readings);
    }
    for (const auto& [round, flag] : closed_) {
      if (flag) state.closed.Insert(static_cast<uint64_t>(round));
    }
    return state;
  }

  void RestoreState(const HubNode::State& state) {
    pending_.clear();
    closed_.clear();
    for (const auto& [round, readings] : state.pending) {
      core::Round copy = readings;
      copy.resize(module_count_);
      pending_[static_cast<size_t>(round)] = std::move(copy);
    }
    for (const ClosedRounds::Run& run : state.closed.runs()) {
      for (uint64_t round = run.first;; ++round) {
        closed_[static_cast<size_t>(round)] = true;
        if (round == run.last) break;
      }
    }
  }

 private:
  void CloseLocked(size_t round, core::Round readings,
                   std::vector<size_t>& rounds, data::RoundTable& table) {
    (void)table.AppendRound(std::move(readings));
    rounds.push_back(round);
    closed_[round] = true;
  }

  size_t module_count_;
  size_t close_at_count_;
  std::map<size_t, core::Round> pending_;
  std::map<size_t, bool> closed_;
};

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Bit-level comparison of two closed-round outputs.
void ExpectSameOutput(const Closed& want, const Closed& got,
                      const std::string& where) {
  ASSERT_EQ(got.rounds, want.rounds) << where;
  ASSERT_EQ(got.table.round_count(), want.table.round_count()) << where;
  const auto want_values = want.table.value_block();
  const auto got_values = got.table.value_block();
  ASSERT_EQ(got_values.size(), want_values.size()) << where;
  for (size_t i = 0; i < want_values.size(); ++i) {
    ASSERT_EQ(Bits(got_values[i]), Bits(want_values[i]))
        << where << " cell " << i;
  }
  const auto want_present = want.table.present_block();
  const auto got_present = got.table.present_block();
  ASSERT_TRUE(std::equal(want_present.begin(), want_present.end(),
                         got_present.begin(), got_present.end()))
      << where;
}

/// The closed set as (first, last) pairs.
std::vector<std::pair<uint64_t, uint64_t>> Runs(const ClosedRounds& closed) {
  std::vector<std::pair<uint64_t, uint64_t>> runs;
  for (const ClosedRounds::Run& run : closed.runs()) {
    runs.emplace_back(run.first, run.last);
  }
  return runs;
}

void ExpectSameState(const HubNode::State& want, const HubNode::State& got,
                     const std::string& where) {
  ASSERT_EQ(Runs(got.closed), Runs(want.closed)) << where;
  ASSERT_EQ(got.pending.size(), want.pending.size()) << where;
  for (size_t i = 0; i < want.pending.size(); ++i) {
    ASSERT_EQ(got.pending[i].first, want.pending[i].first) << where;
    const core::Round& w = want.pending[i].second;
    const core::Round& g = got.pending[i].second;
    ASSERT_EQ(g.size(), w.size()) << where;
    for (size_t m = 0; m < w.size(); ++m) {
      ASSERT_EQ(g[m].has_value(), w[m].has_value()) << where;
      if (w[m].has_value()) {
        ASSERT_EQ(Bits(*g[m]), Bits(*w[m])) << where;
      }
    }
  }
}

void ExpectSameStats(const BatchIngestStats& want, const BatchIngestStats& got,
                     const std::string& where) {
  EXPECT_EQ(got.accepted, want.accepted) << where;
  EXPECT_EQ(got.late, want.late) << where;
  EXPECT_EQ(got.rejected, want.rejected) << where;
  EXPECT_EQ(got.rounds_closed, want.rounds_closed) << where;
}

/// One seeded stream of mixed hub calls against both hubs.
void RunDifferential(uint64_t seed) {
  Rng rng(seed);
  const size_t modules = 1 + rng.UniformInt(6);
  // 0 = close when complete; up to modules + 1 exercises the cap.
  const size_t close_at = rng.UniformInt(modules + 2);
  // Half the streams run next to the top of the round space, so runs
  // touch round 2^64-1.
  const uint64_t base = rng.Bernoulli(0.5)
                            ? 0
                            : std::numeric_limits<uint64_t>::max() - 200;
  const uint64_t top = std::numeric_limits<uint64_t>::max();
  auto hub = std::make_unique<HubNode>(modules, close_at);
  MapHub reference(modules, close_at);
  uint64_t cursor = 0;  // offset of the stream's newest round from base
  auto pick_round = [&]() -> uint64_t {
    const uint64_t lag = rng.UniformInt(12);
    const uint64_t offset = cursor >= lag ? cursor - lag : 0;
    const uint64_t round = base + std::min<uint64_t>(offset, top - base);
    return rng.Bernoulli(0.02) ? top - rng.UniformInt(3) : round;
  };
  for (size_t step = 0; step < 400; ++step) {
    const std::string where = "seed " + std::to_string(seed) + " step " +
                              std::to_string(step);
    Closed want(modules);
    Closed got(modules);
    const uint64_t op = rng.UniformInt(100);
    if (op < 70) {
      // A frame: mostly in order, with repeats, stale rounds and
      // modules past the group.
      std::vector<ReadingMessage> frame;
      const size_t count = 1 + rng.UniformInt(3 * modules + 4);
      for (size_t i = 0; i < count; ++i) {
        if (rng.Bernoulli(0.3)) cursor += 1;
        const uint64_t module = rng.UniformInt(modules + 1);
        const double value = rng.Bernoulli(0.05)
                                 ? (rng.Bernoulli(0.5) ? -0.0 : 0.0)
                                 : rng.Gaussian(20.0, 5.0);
        frame.push_back(ReadingMessage{module, pick_round(), value});
      }
      ExpectSameStats(reference.IngestBatch(frame, want.rounds, want.table),
                      hub->IngestBatch(frame, got.rounds, got.table), where);
    } else if (op < 90) {
      // CLOSE of an open, a closed or a never-seen round.
      const uint64_t round = rng.Bernoulli(0.3)
                                 ? base + std::min<uint64_t>(
                                              cursor + 1 + rng.UniformInt(4),
                                              top - base)
                                 : pick_round();
      EXPECT_EQ(hub->Close(round, got.rounds, got.table),
                reference.Close(round, want.rounds, want.table))
          << where;
    } else if (op < 96) {
      // Migration mid-stream: the exported state moves to a fresh hub.
      const HubNode::State state = hub->ExportState();
      ExpectSameState(reference.ExportState(), state, where);
      hub = std::make_unique<HubNode>(modules, close_at);
      hub->RestoreState(state);
      reference.RestoreState(state);
    } else {
      // A foreign state: more closed rounds (some already closed) and
      // unsorted pending rows of the wrong width, restored over a live
      // hub.
      HubNode::State state = hub->ExportState();
      for (size_t i = 0; i < 3; ++i) {
        state.closed.Insert(pick_round());
        core::Round row(rng.UniformInt(modules + 2));
        for (auto& cell : row) {
          if (rng.Bernoulli(0.5)) cell = rng.Gaussian(0.0, 1.0);
        }
        state.pending.emplace_back(pick_round(), std::move(row));
      }
      hub->RestoreState(state);
      reference.RestoreState(state);
    }
    ExpectSameOutput(want, got, where);
    ASSERT_EQ(hub->open_rounds(), reference.open_rounds()) << where;
    ExpectSameState(reference.ExportState(), hub->ExportState(), where);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(HubNodeTest, PooledHubMatchesMapHubOnRandomStreams) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    RunDifferential(seed);
    if (HasFailure()) break;
  }
}

TEST(HubNodeTest, InOrderClosingKeepsOneClosedRun) {
  HubNode hub(3);
  Closed closed(3);
  for (size_t round = 0; round < 1000; ++round) {
    for (uint64_t m = 0; m < 3; ++m) Feed(hub, closed, {m, round, 1.0});
  }
  hub.Close(1000, closed.rounds, closed.table);
  EXPECT_EQ(closed.size(), 1001u);
  EXPECT_EQ(hub.closed_run_count(), 1u);
  EXPECT_EQ(hub.open_rounds(), 0u);
  EXPECT_EQ(Runs(hub.ExportState().closed),
            (std::vector<std::pair<uint64_t, uint64_t>>{{0, 1000}}));
  // An out-of-order close opens a second run; filling the gap merges it.
  hub.Close(1002, closed.rounds, closed.table);
  EXPECT_EQ(hub.closed_run_count(), 2u);
  hub.Close(1001, closed.rounds, closed.table);
  EXPECT_EQ(hub.closed_run_count(), 1u);
}

TEST(HubNodeTest, TopRoundClosesWithoutWrapping) {
  const uint64_t top = std::numeric_limits<uint64_t>::max();
  HubNode hub(1);
  Closed closed(1);
  Feed(hub, closed, {0, top - 1, 1.0});
  Feed(hub, closed, {0, top, 2.0});
  EXPECT_EQ(hub.closed_run_count(), 1u);
  EXPECT_EQ(Feed(hub, closed, {0, top, 3.0}).late, 1u);
  // Round 0 is not in the run [2^64-2, 2^64-1].
  EXPECT_EQ(Feed(hub, closed, {0, 0, 4.0}).accepted, 1u);
  EXPECT_FALSE(hub.Close(top, closed.rounds, closed.table));
  EXPECT_EQ(hub.closed_run_count(), 2u);
  EXPECT_EQ(Runs(hub.ExportState().closed),
            (std::vector<std::pair<uint64_t, uint64_t>>{{0, 0},
                                                        {top - 1, top}}));
}

TEST(ClosedRoundsTest, MergesNeighbouringRuns) {
  ClosedRounds set;
  EXPECT_TRUE(set.Insert(5));
  EXPECT_TRUE(set.Insert(7));
  EXPECT_TRUE(set.Insert(3));
  EXPECT_EQ(set.run_count(), 3u);
  EXPECT_FALSE(set.Insert(5));
  EXPECT_TRUE(set.Insert(6));  // joins [5] and [7]
  EXPECT_EQ(set.run_count(), 2u);
  EXPECT_TRUE(set.Insert(4));
  EXPECT_EQ(set.run_count(), 1u);
  for (uint64_t r = 0; r < 10; ++r) {
    EXPECT_EQ(set.Contains(r), r >= 3 && r <= 7) << r;
  }
  EXPECT_EQ(Runs(set), (std::vector<std::pair<uint64_t, uint64_t>>{{3, 7}}));
}

TEST(ClosedRoundsTest, AppendRunTakesOnlyAscendingDisjointRuns) {
  const uint64_t top = std::numeric_limits<uint64_t>::max();
  ClosedRounds set;
  EXPECT_FALSE(set.AppendRun(4, 3));  // first > last
  EXPECT_TRUE(set.AppendRun(3, 5));
  EXPECT_FALSE(set.AppendRun(6, 9));  // adjacent: would be one run
  EXPECT_FALSE(set.AppendRun(5, 9));  // overlapping
  EXPECT_FALSE(set.AppendRun(0, 1));  // not ascending
  EXPECT_TRUE(set.AppendRun(7, top));
  EXPECT_FALSE(set.AppendRun(top, top));  // nothing follows 2^64-1
  EXPECT_EQ(Runs(set), (std::vector<std::pair<uint64_t, uint64_t>>{
                           {3, 5}, {7, top}}));
  EXPECT_TRUE(set.Contains(top));
  EXPECT_FALSE(set.Contains(6));
}

TEST(VoterNodeTest, VotesOnIncomingRounds) {
  VoterNode voter(AverageEngine(3));
  SinkNode sink;
  VoteRounds(voter, sink, {{10.0, 20.0, 30.0}});
  const auto outputs = SinkRows(sink);
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
  ASSERT_TRUE(
      store.Put("warm", core::UpgradeRecordsOnly({{1.0, 1.0, 0.0}}, 50)).ok());

  VoterOptions options;
  options.group = "warm";
  options.store = &store;
  auto engine = core::MakeEngine(core::AlgorithmId::kHybrid, 3);
  ASSERT_TRUE(engine.ok());
  VoterNode voter(std::move(*engine), options);
  SinkNode sink;
  // Module 2's restored record is 0 -> eliminated on the very first round.
  VoteRounds(voter, sink, {{10.0, 10.1, 10.05}});
  const auto outputs = SinkRows(sink);
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
  EXPECT_DOUBLE_EQ(*SinkRows(sink)[0].result.value, 2.0);
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
