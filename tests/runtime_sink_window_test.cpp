// The sink's recent detail window on a long-lived group: every row keeps
// its fused output, only the newest 1024-2047 rows keep their per-module
// columns, the retained rows match a batch run bit for bit, and a group
// migrated mid-stream ends byte-identical to one that never moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/batch.h"
#include "obs/metrics.h"
#include "runtime/group_runner.h"
#include "runtime/migration.h"
#include "util/rng.h"
#include "util/strings.h"
#include "sink_rows.h"

namespace avoc::runtime {
namespace {

constexpr size_t kModules = 16;
constexpr size_t kRounds = 100000;

/// kRounds rounds of kModules readings: module 3 drifts off, module 9 is
/// noisy, so the history ledger shapes every later output.
const data::RoundTable& WideTable() {
  static const data::RoundTable table = [] {
    data::RoundTable t = data::RoundTable::WithModuleCount(kModules);
    Rng rng(0x5EED);
    std::vector<double> row(kModules);
    std::vector<uint8_t> present(kModules, 1);
    for (size_t r = 0; r < kRounds; ++r) {
      for (size_t m = 0; m < kModules; ++m) {
        row[m] = 20.0 + rng.Gaussian(0.0, m == 9 ? 2.0 : 0.1) +
                 (m == 3 ? 1e-4 * static_cast<double>(r % 20000) : 0.0);
      }
      EXPECT_TRUE(t.AppendRound(row, present).ok());
    }
    return t;
  }();
  return table;
}

std::unique_ptr<GroupRunner> NewRunner(GroupRunner::Options options = {}) {
  auto engine = core::MakeEngine(core::AlgorithmId::kAvoc, kModules);
  EXPECT_TRUE(engine.ok());
  auto runner = GroupRunner::Create(std::move(*engine), std::move(options));
  EXPECT_TRUE(runner.ok());
  return std::move(*runner);
}

/// Submits rounds [from, to) of WideTable in passes of `pass` rounds;
/// calls `after_pass` after each.
template <typename AfterPass>
void Feed(GroupRunner& runner, size_t from, size_t to, size_t pass,
          AfterPass after_pass) {
  const data::RoundTable& table = WideTable();
  std::vector<ReadingMessage> readings;
  for (size_t first = from; first < to; first += pass) {
    readings.clear();
    for (size_t r = first; r < std::min(first + pass, to); ++r) {
      for (size_t m = 0; m < kModules; ++m) {
        readings.push_back(ReadingMessage{m, r, *table.At(r, m)});
      }
    }
    const BatchIngestStats stats = runner.SubmitBatch(readings);
    ASSERT_EQ(stats.rounds_closed, std::min(pass, to - first));
    after_pass();
  }
}

void Feed(GroupRunner& runner, size_t from, size_t to, size_t pass) {
  Feed(runner, from, to, pass, [] {});
}

/// Hex-float rendering of rows [from, round_count()): the fused series of
/// each, and the per-module columns of those from the detail base on.
std::string RenderRows(const core::TraceView& trace, size_t from = 0) {
  std::string text;
  for (size_t r = from; r < trace.round_count(); ++r) {
    const std::optional<double> output = trace.output(r);
    text += output.has_value() ? StrFormat("%a", *output) : "-";
    text += StrFormat(" o%d p%zu c%d m%d |",
                      static_cast<int>(trace.outcome(r)),
                      trace.present_count(r), trace.used_clustering(r) ? 1 : 0,
                      trace.had_majority(r) ? 1 : 0);
    for (size_t m = 0; m < trace.weights(r).size(); ++m) {
      text += StrFormat(" %a/%a/%a/%d%d", trace.weights(r)[m],
                        trace.agreement(r)[m], trace.history(r)[m],
                        trace.excluded(r)[m], trace.eliminated(r)[m]);
    }
    text += "\n";
  }
  return text;
}

/// The retained rows of the runner's sink, rendered.
std::string RetainedRows(const GroupRunner& runner) {
  std::string text;
  runner.sink().WithTrace(
      [&](const core::BatchTrace& trace, const std::vector<size_t>&) {
        text = RenderRows(trace.view(), trace.detail_base());
      });
  return text;
}

TEST(SinkWindowTest, HundredThousandRoundsKeepEveryOutputAndOneWindow) {
  std::unique_ptr<GroupRunner> runner = NewRunner();
  size_t max_detail = 0;
  Feed(*runner, 0, kRounds, 32, [&] {
    runner->sink().WithTrace(
        [&](const core::BatchTrace& trace, const std::vector<size_t>&) {
          max_detail = std::max(max_detail, trace.detail_rows());
        });
  });
  EXPECT_LE(max_detail, 2 * core::kSinkDetailRows - 1 + 32);

  auto engine = core::MakeEngine(core::AlgorithmId::kAvoc, kModules);
  ASSERT_TRUE(engine.ok());
  auto reference = core::RunOverTable(*engine, WideTable());
  ASSERT_TRUE(reference.ok());
  runner->sink().WithTrace([&](const core::BatchTrace& trace,
                               const std::vector<size_t>& rounds) {
    ASSERT_EQ(trace.round_count(), kRounds);
    ASSERT_EQ(rounds.size(), kRounds);
    for (size_t r = 0; r < kRounds; ++r) ASSERT_EQ(rounds[r], r);
    EXPECT_EQ(trace.detail_base(), core::SinkDetailBase(kRounds));
    EXPECT_EQ(trace.detail_rows(), kRounds - 98304);
    // The batch run keeps every row's detail; trim a copy of it to the
    // sink's base, then every row must match to the bit.
    core::BatchTrace trimmed = *reference;
    trimmed.TrimDetail(trace.detail_base());
    EXPECT_EQ(RenderRows(trace.view()), RenderRows(trimmed.view()));
    // The retained rows' columns are the batch run's untrimmed ones.
    EXPECT_EQ(RenderRows(trace.view(), trace.detail_base()),
              RenderRows(reference->view(), trace.detail_base()));
  });
}

TEST(SinkWindowTest, OneRoundPassesRetainTheSameDetailAsWidePasses) {
  std::unique_ptr<GroupRunner> wide = NewRunner();
  std::unique_ptr<GroupRunner> narrow = NewRunner();
  size_t max_detail = 0;
  Feed(*wide, 0, kRounds, 32);
  Feed(*narrow, 0, kRounds, 1, [&] {
    narrow->sink().WithTrace(
        [&](const core::BatchTrace& trace, const std::vector<size_t>&) {
          max_detail = std::max(max_detail, trace.detail_rows());
        });
  });
  EXPECT_LE(max_detail, 2 * core::kSinkDetailRows - 1);
  const std::string retained = RetainedRows(*narrow);
  EXPECT_EQ(std::count(retained.begin(), retained.end(), '\n'),
            static_cast<ptrdiff_t>(kRounds - core::SinkDetailBase(kRounds)));
  EXPECT_EQ(retained, RetainedRows(*wide));
  EXPECT_EQ(EncodedState(*narrow), EncodedState(*wide));
}

TEST(SinkWindowTest, MigratedAtRowFiveThousandEndsIdenticalToUnmoved) {
  constexpr size_t kMoveAt = 5000;
  std::unique_ptr<GroupRunner> unmoved = NewRunner();
  Feed(*unmoved, 0, kRounds, 32);

  std::unique_ptr<GroupRunner> source = NewRunner();
  Feed(*source, 0, kMoveAt, 32);
  const std::string blob = EncodedState(*source);
  auto decoded = DecodeGroupState(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->state.sink_trace.round_count(), kMoveAt);
  EXPECT_EQ(decoded->state.sink_trace.detail_base(),
            core::SinkDetailBase(kMoveAt));
  std::unique_ptr<GroupRunner> moved = NewRunner();
  ASSERT_TRUE(moved->RestoreState(decoded->state).ok());
  EXPECT_EQ(EncodedState(*moved), blob);

  Feed(*moved, kMoveAt, kRounds, 32);
  EXPECT_EQ(RetainedRows(*moved), RetainedRows(*unmoved));
  EXPECT_EQ(EncodedState(*moved), EncodedState(*unmoved));
}

TEST(SinkWindowTest, GaugesReadRowsDetailAndClosedRuns) {
  obs::Registry registry;
  GroupRunner::Options options;
  options.group = "wide";
  options.registry = &registry;
  std::unique_ptr<GroupRunner> runner = NewRunner(options);
  const auto gauge = [&](std::string_view family) -> const obs::Gauge& {
    return registry.GetGauge(obs::LabeledName(family, {{"group", "wide"}}));
  };
  const obs::Gauge& rows = gauge("avoc_sink_rows");
  const obs::Gauge& detail = gauge("avoc_sink_detail_rows");
  const obs::Gauge& runs = gauge("avoc_hub_closed_runs");
  constexpr size_t kFed = 20 * core::kSinkDetailRows;
  size_t fed = 0;
  Feed(*runner, 0, kFed, 32, [&] {
    fed += 32;
    ASSERT_EQ(rows.Value(), static_cast<double>(fed));
    ASSERT_EQ(runs.Value(), 1.0);
    if (fed >= core::kSinkDetailRows) {
      ASSERT_GE(detail.Value(), static_cast<double>(core::kSinkDetailRows));
      ASSERT_LE(detail.Value(),
                static_cast<double>(2 * core::kSinkDetailRows - 1 + 32));
    }
  });
  EXPECT_EQ(rows.Value(), 20480.0);
  EXPECT_EQ(detail.Value(), 1024.0);
  EXPECT_EQ(runs.Value(), 1.0);
  EXPECT_NE(registry.RenderPrometheus().find("avoc_sink_detail_rows"),
            std::string::npos);
}

}  // namespace
}  // namespace avoc::runtime
