#include "runtime/group_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/algorithms.h"
#include "core/batch.h"
#include "runtime/migration.h"
#include "sim/light.h"
#include "util/rng.h"
#include "util/strings.h"
#include "sink_rows.h"

namespace avoc::runtime {
namespace {

core::VotingEngine AverageEngine(size_t modules) {
  auto engine = core::MakeEngine(core::AlgorithmId::kAverage, modules);
  EXPECT_TRUE(engine.ok());
  return std::move(*engine);
}

data::RoundTable SmallTable() {
  data::RoundTable table({"a", "b", "c"});
  EXPECT_TRUE(table.AppendRound({10.0, 10.2, 9.8}).ok());
  EXPECT_TRUE(table.AppendRound({10.1, 10.3, 9.9}).ok());
  EXPECT_TRUE(table.AppendRound({{10.0}, std::nullopt, {10.2}}).ok());
  return table;
}

/// Hex-float rendering of every column of a trace — bit identity, not
/// closeness.
std::string RenderTrace(const core::TraceView& trace) {
  std::string text;
  for (size_t r = 0; r < trace.round_count(); ++r) {
    const std::optional<double> output = trace.output(r);
    text += output.has_value() ? StrFormat("%a", *output) : "-";
    text += StrFormat(" o%d p%zu c%d m%d |",
                      static_cast<int>(trace.outcome(r)),
                      trace.present_count(r), trace.used_clustering(r) ? 1 : 0,
                      trace.had_majority(r) ? 1 : 0);
    for (size_t m = 0; m < trace.module_count(); ++m) {
      text += StrFormat(" %a/%a/%a/%d%d", trace.weights(r)[m],
                        trace.agreement(r)[m], trace.history(r)[m],
                        trace.excluded(r)[m], trace.eliminated(r)[m]);
    }
    text += "\n";
  }
  return text;
}

TEST(GroupRunnerTest, FactoriesValidate) {
  EXPECT_FALSE(GroupRunner::WithGenerators({}, AverageEngine(1)).ok());
  std::vector<Generator> two(
      2, [](size_t) { return std::optional<double>(1.0); });
  EXPECT_FALSE(GroupRunner::WithGenerators(two, AverageEngine(3)).ok());
  GroupRunner::Options unnamed;
  unnamed.group = "";
  EXPECT_FALSE(GroupRunner::Create(AverageEngine(2), unnamed).ok());
}

TEST(GroupRunnerTest, SynchronousRoundsMatchBatchRunner) {
  // The replayed rounds fuse bit-identically to the direct batch path,
  // for a stateless engine and a history-aware one over a faulty
  // scenario.
  sim::LightScenarioParams params;
  params.rounds = 300;
  const std::pair<core::AlgorithmId, data::RoundTable> cases[] = {
      {core::AlgorithmId::kAverage, SmallTable()},
      {core::AlgorithmId::kAvoc, sim::LightScenario(params).MakeFaultyTable()}};
  for (const auto& [id, table] : cases) {
    auto engine = core::MakeEngine(id, table.module_count());
    ASSERT_TRUE(engine.ok());
    auto runner = GroupRunner::FromTable(table, std::move(*engine));
    ASSERT_TRUE(runner.ok());
    EXPECT_EQ((*runner)->module_count(), table.module_count());
    EXPECT_EQ((*runner)->sensor_count(), table.module_count());
    for (size_t r = 0; r < table.round_count(); ++r) (*runner)->RunRound(r);
    auto batch = core::RunAlgorithm(id, table);
    ASSERT_TRUE(batch.ok());
    std::string live;
    (*runner)->sink().WithTrace(
        [&](const core::BatchTrace& trace, const std::vector<size_t>& rounds) {
          EXPECT_EQ(rounds.size(), table.round_count());
          live = RenderTrace(trace.view());
        });
    EXPECT_EQ(live, RenderTrace(batch->view()));
  }
}

TEST(GroupRunnerTest, RunRoundVotesGeneratorValues) {
  const Generator silent = [](size_t) { return std::optional<double>(); };
  auto runner = GroupRunner::WithGenerators(
      {silent, [](size_t round) { return 10.0 + round; },
       [](size_t round) { return 20.0 + round; }},
      AverageEngine(3));
  ASSERT_TRUE(runner.ok());
  (*runner)->RunRound(0);
  (*runner)->RunRound(1);
  const auto outputs = SinkRows((*runner)->sink());
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[1].round, 1u);
  EXPECT_EQ(outputs[0].result.present_count, 2u);
  // The silent generator's module is the one without a reading.
  EXPECT_EQ(outputs[0].result.weights[0], 0.0);
  EXPECT_GT(outputs[0].result.weights[2], 0.0);
  EXPECT_DOUBLE_EQ(*outputs[0].result.value, 15.0);
  EXPECT_DOUBLE_EQ(*outputs[1].result.value, 16.0);
}

TEST(GroupRunnerTest, MissingGeneratorsBecomeMissingValues) {
  auto runner = GroupRunner::WithGenerators(
      {[](size_t) { return std::optional<double>(10.0); },
       [](size_t round) {
         return round % 2 == 0 ? std::optional<double>(20.0) : std::nullopt;
       }},
      AverageEngine(2));
  ASSERT_TRUE(runner.ok());
  (*runner)->RunRound(0);
  (*runner)->RunRound(1);
  const auto outputs = SinkRows((*runner)->sink());
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_DOUBLE_EQ(*outputs[0].result.value, 15.0);
  EXPECT_EQ(outputs[1].result.present_count, 1u);
  EXPECT_DOUBLE_EQ(*outputs[1].result.value, 10.0);
}

TEST(GroupRunnerTest, StepsBeyondTableProduceEmptyRounds) {
  auto config = core::MakeConfig(core::AlgorithmId::kAverage);
  config.on_no_quorum = core::NoQuorumPolicy::kRevertLast;
  auto engine = core::VotingEngine::Create(3, config);
  ASSERT_TRUE(engine.ok());
  auto runner = GroupRunner::FromTable(SmallTable(), std::move(*engine));
  ASSERT_TRUE(runner.ok());
  for (size_t r = 0; r < 4; ++r) (*runner)->RunRound(r);  // one past
  const auto outputs = SinkRows((*runner)->sink());
  ASSERT_EQ(outputs.size(), 4u);
  EXPECT_EQ(outputs[3].round, 3u);
  EXPECT_EQ(outputs[3].result.present_count, 0u);
  // The starved round reverts to the last fused value.
  EXPECT_EQ(outputs[3].result.outcome, core::RoundOutcome::kRevertedLast);
  EXPECT_EQ(outputs[3].result.value, outputs[2].result.value);
}

TEST(GroupRunnerTest, SilentGeneratorsCloseAnAllMissingRound) {
  const Generator silent = [](size_t) { return std::optional<double>(); };
  auto runner = GroupRunner::WithGenerators({silent, silent}, AverageEngine(2));
  ASSERT_TRUE(runner.ok());
  (*runner)->RunRound(0);
  const auto outputs = SinkRows((*runner)->sink());
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].result.present_count, 0u);
  EXPECT_EQ((*runner)->hub().open_rounds(), 0u);
}

TEST(GroupRunnerTest, ExternalSubmitClosesRoundWhenComplete) {
  auto runner = GroupRunner::Create(AverageEngine(2));
  ASSERT_TRUE(runner.ok());
  EXPECT_EQ((*runner)->sensor_count(), 0u);
  EXPECT_TRUE((*runner)->Submit(0, 0, 4.0).ok());
  EXPECT_EQ((*runner)->sink().output_count(), 0u);
  EXPECT_TRUE((*runner)->Submit(1, 0, 6.0).ok());
  ASSERT_EQ((*runner)->sink().output_count(), 1u);
  EXPECT_DOUBLE_EQ(*(*runner)->sink().last_value(), 5.0);
}

TEST(GroupRunnerTest, SubmitRejectsOutOfRangeModule) {
  GroupRunner::Options options;
  options.group = "shelf-1";
  auto runner = GroupRunner::Create(AverageEngine(2), options);
  ASSERT_TRUE(runner.ok());
  const Status status = (*runner)->Submit(7, 0, 1.0);
  EXPECT_EQ(status.code(), ErrorCode::kOutOfRange);
  EXPECT_NE(status.message().find("shelf-1"), std::string::npos);
}

TEST(GroupRunnerTest, FlushTurnsSilenceIntoMissingValues) {
  auto runner = GroupRunner::Create(AverageEngine(3));
  ASSERT_TRUE(runner.ok());
  EXPECT_TRUE((*runner)->Submit(0, 0, 8.0).ok());
  EXPECT_TRUE((*runner)->Submit(2, 0, 10.0).ok());
  (*runner)->FlushRound(0);
  ASSERT_EQ((*runner)->sink().output_count(), 1u);
  const auto outputs = SinkRows((*runner)->sink());
  EXPECT_EQ(outputs[0].result.present_count, 2u);
  EXPECT_DOUBLE_EQ(*outputs[0].result.value, 9.0);
}

TEST(GroupRunnerTest, EmitAsyncWithFlushDeliversTheRound) {
  auto runner = GroupRunner::WithGenerators(
      {[](size_t) { return std::optional<double>(3.0); },
       [](size_t) { return std::optional<double>(5.0); }},
      AverageEngine(2));
  ASSERT_TRUE(runner.ok());
  std::vector<std::thread> workers = (*runner)->EmitAsync(0);
  for (std::thread& worker : workers) worker.join();
  (*runner)->FlushRound(0);
  ASSERT_EQ((*runner)->sink().output_count(), 1u);
  EXPECT_DOUBLE_EQ(*(*runner)->sink().last_value(), 4.0);
}

TEST(GroupRunnerTest, PersistsHistoryThroughStore) {
  HistoryStore store;
  GroupRunner::Options options;
  options.group = "gr";
  options.store = &store;
  auto engine = core::MakeEngine(core::AlgorithmId::kHybrid, 3);
  ASSERT_TRUE(engine.ok());
  auto runner = GroupRunner::FromTable(SmallTable(), std::move(*engine),
                                       options);
  ASSERT_TRUE(runner.ok());
  (*runner)->RunRound(0);
  (*runner)->RunRound(1);
  auto snapshot = store.Get("gr");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->rounds, 2u);
  EXPECT_EQ(snapshot->records.size(), 3u);
}

TEST(GroupRunnerTest, HistoryPersistsThroughStoreAcrossRunners) {
  HistoryStore store;
  GroupRunner::Options options;
  options.group = "uc1";
  options.store = &store;
  data::RoundTable table = data::RoundTable::WithModuleCount(3);
  for (int r = 0; r < 10; ++r) {
    ASSERT_TRUE(table.AppendRound(std::vector<double>{10.0, 10.1, 60.0}).ok());
  }
  auto hybrid = [] {
    auto engine = core::MakeEngine(core::AlgorithmId::kHybrid, 3);
    EXPECT_TRUE(engine.ok());
    return std::move(*engine);
  };
  {
    auto runner = GroupRunner::FromTable(table, hybrid(), options);
    ASSERT_TRUE(runner.ok());
    for (size_t r = 0; r < 10; ++r) (*runner)->RunRound(r);
  }
  // A fresh runner restores the learned distrust of module 2.
  auto runner = GroupRunner::FromTable(table, hybrid(), options);
  ASSERT_TRUE(runner.ok());
  (*runner)->RunRound(0);
  const auto outputs = SinkRows((*runner)->sink());
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_TRUE(outputs[0].result.eliminated[2]);
}

TEST(GroupRunnerTest, PerReadingAndBatchSubmitsShareOneRoundPath) {
  constexpr size_t kModules = 4;
  constexpr size_t kRounds = 60;
  Rng rng(2024);
  data::RoundTable table = data::RoundTable::WithModuleCount(kModules);
  for (size_t r = 0; r < kRounds; ++r) {
    std::vector<data::Reading> row(kModules);
    for (size_t m = 0; m < kModules; ++m) {
      // Module 3 drifts off and sometimes goes silent, so the history
      // ledger (and therefore round order) shapes every later output.
      if (m == 3 && r % 7 == 5) continue;
      row[m] = 20.0 + rng.Gaussian(0.0, 0.2) + (m == 3 ? 0.05 * r : 0.0);
    }
    ASSERT_TRUE(table.AppendRound(std::move(row)).ok());
  }
  auto readings_of = [&](size_t r) {
    std::vector<ReadingMessage> readings;
    for (size_t m = 0; m < kModules; ++m) {
      if (const data::Reading value = table.View(r).at(m)) {
        readings.push_back(ReadingMessage{m, r, *value});
      }
    }
    return readings;
  };

  auto engine = core::MakeEngine(core::AlgorithmId::kAvoc, kModules);
  ASSERT_TRUE(engine.ok());
  auto runner = GroupRunner::Create(std::move(*engine));
  ASSERT_TRUE(runner.ok());
  GroupRunner& group = **runner;
  // A reading of the next round arrives early through Submit, so two
  // rounds are open at once.
  std::optional<ReadingMessage> early;
  for (size_t r = 0; r < kRounds; ++r) {
    std::vector<ReadingMessage> readings = readings_of(r);
    if (early.has_value()) {
      std::erase_if(readings, [&](const ReadingMessage& reading) {
        return reading.module == early->module;
      });
      early.reset();
    }
    if (r + 1 < kRounds && r % 5 == 1) {
      early = readings_of(r + 1).front();
      ASSERT_TRUE(group.Submit(early->module, early->round, early->value).ok());
    }
    switch (r % 3) {
      case 0:
        for (const ReadingMessage& reading : readings) {
          ASSERT_TRUE(
              group.Submit(reading.module, reading.round, reading.value).ok());
        }
        break;
      case 1:
        group.SubmitBatch(readings);
        break;
      default:
        if (readings.empty()) break;
        ASSERT_TRUE(group
                        .Submit(readings[0].module, readings[0].round,
                                readings[0].value)
                        .ok());
        group.SubmitBatch(std::span(readings).subspan(1));
        break;
    }
    // Closes the rounds with a silent module; a no-op for complete ones.
    group.FlushRound(r);
  }

  auto reference = core::MakeEngine(core::AlgorithmId::kAvoc, kModules);
  ASSERT_TRUE(reference.ok());
  auto batch = core::RunOverTable(*reference, table);
  ASSERT_TRUE(batch.ok());
  std::string live;
  group.sink().WithTrace(
      [&](const core::BatchTrace& trace, const std::vector<size_t>& rounds) {
        ASSERT_EQ(rounds.size(), kRounds);
        for (size_t r = 0; r < kRounds; ++r) EXPECT_EQ(rounds[r], r);
        live = RenderTrace(trace.view());
      });
  EXPECT_EQ(live, RenderTrace(batch->view()));
}

/// Submits whole rounds [from, to) of a 5-module group.
void SubmitRounds(GroupRunner& runner, size_t from, size_t to) {
  for (size_t r = from; r < to; ++r) {
    std::vector<ReadingMessage> round;
    for (size_t m = 0; m < 5; ++m) {
      round.push_back(ReadingMessage{
          m, r, 20.0 + 0.1 * static_cast<double>(m) + (m == 4 ? r : 0.0)});
    }
    runner.SubmitBatch(round);
  }
}

TEST(GroupRunnerTest, RestoreRejectsSinkRowsTheGroupCannotHold) {
  // Sink rows narrower than the engine would have the next pass write
  // five modules into four-wide rows; a detail base past the rows names
  // rows that do not exist.  Either state is refused before anything is
  // restored.
  auto make = [] {
    auto engine = core::MakeEngine(core::AlgorithmId::kAvoc, 5);
    EXPECT_TRUE(engine.ok());
    auto runner = GroupRunner::Create(std::move(*engine));
    EXPECT_TRUE(runner.ok());
    return std::move(*runner);
  };
  std::unique_ptr<GroupRunner> runner = make();
  SubmitRounds(*runner, 0, 10);
  SubmitRounds(*runner, 12, 13);  // a second closed run
  const ReadingMessage open{1, 15, 20.0};
  runner->SubmitBatch({&open, 1});  // an open round
  const std::string before = EncodedState(*runner);

  std::unique_ptr<GroupRunner> other = make();
  SubmitRounds(*other, 0, 30);
  core::BatchTrace four(4);
  core::VoteResult row;
  row.value = 1.0;
  row.weights.assign(4, 0.25);
  row.agreement.assign(4, 1.0);
  row.history.assign(4, 1.0);
  row.excluded.assign(4, false);
  row.eliminated.assign(4, false);
  for (int i = 0; i < 3; ++i) four.Append(row);
  const std::vector<size_t> rounds = {30, 31, 32};
  other->ExportState([&](const GroupRunner::State& state) {
    GroupRunner::State narrow = state;
    narrow.sink_trace = four.view();
    narrow.sink_rounds = rounds;
    const Status status = runner->RestoreState(narrow);
    EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument) << status.ToString();

    GroupRunner::State past = state;
    core::TraceColumns columns = state.sink_trace.columns();
    columns.detail_base = columns.rounds + 1;
    columns.weights = columns.agreement = columns.history = {};
    columns.excluded = columns.eliminated = {};
    past.sink_trace = core::TraceView(columns);
    EXPECT_EQ(runner->RestoreState(past).code(), ErrorCode::kInvalidArgument);
  });
  EXPECT_EQ(EncodedState(*runner), before);
  EXPECT_EQ(runner->hub().closed_run_count(), 2u);
  EXPECT_EQ(runner->hub().open_rounds(), 1u);
}

TEST(GroupRunnerTest, ConcurrentPassesAndExportSeeOneState) {
  // Writers submit distinct whole rounds into one runner while a reader
  // exports its state and reads the sink.  Every pass runs under the one
  // group lock, so each export is one consistent snapshot.
  constexpr size_t kModules = 3;
  constexpr size_t kWriters = 4;
  constexpr size_t kRounds = 2000;
  auto runner = GroupRunner::Create(AverageEngine(kModules));
  ASSERT_TRUE(runner.ok());
  GroupRunner& group = **runner;

  std::atomic<bool> start{false};
  std::atomic<size_t> writers_done{0};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&group, &start, &writers_done, w] {
      while (!start.load()) std::this_thread::yield();
      // Writer w owns rounds w, w + kWriters, ...: one whole round per
      // call, so every call is a pass that votes.
      std::vector<ReadingMessage> round(kModules);
      for (size_t r = w; r < kRounds; r += kWriters) {
        for (size_t m = 0; m < kModules; ++m) {
          round[m] = ReadingMessage{m, r, static_cast<double>(r + m)};
        }
        group.SubmitBatch(round);
      }
      writers_done.fetch_add(1);
    });
  }

  start.store(true);
  size_t exports = 0;
  size_t inconsistent = 0;
  while (writers_done.load() < kWriters || exports == 0) {
    group.ExportState([&](const GroupRunner::State& state) {
      ++exports;
      std::vector<size_t> rounds(state.sink_rounds.begin(),
                                 state.sink_rounds.end());
      std::sort(rounds.begin(), rounds.end());
      std::vector<size_t> closed;
      for (const ClosedRounds::Run& run : state.hub.closed.runs()) {
        for (uint64_t r = run.first; r <= run.last; ++r) closed.push_back(r);
      }
      if (state.engine.round_index != state.sink_trace.round_count() ||
          rounds.size() != state.sink_trace.round_count() ||
          closed != rounds) {
        ++inconsistent;
      }
    });
    group.sink().WithTrace(
        [&](const core::BatchTrace& trace, const std::vector<size_t>& rounds) {
          if (rounds.size() != trace.round_count()) ++inconsistent;
        });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_GT(exports, 0u);
  EXPECT_EQ(inconsistent, 0u);

  std::vector<size_t> rounds;
  group.sink().WithTrace(
      [&](const core::BatchTrace&, const std::vector<size_t>& sink_rounds) {
        rounds = sink_rounds;
      });
  std::sort(rounds.begin(), rounds.end());
  ASSERT_EQ(rounds.size(), kRounds);
  for (size_t r = 0; r < kRounds; ++r) EXPECT_EQ(rounds[r], r);
  EXPECT_EQ(group.hub().open_rounds(), 0u);
}

}  // namespace
}  // namespace avoc::runtime
