// Units for the SoA result path: BatchTrace as a VoteSink, the TraceView
// read surface, sparse error storage, and the legacy materializers.
#include "core/trace.h"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "core/types.h"
#include "core/vote_sink.h"

namespace avoc::core {
namespace {

// Writes one round through the sink seam the way the engine does.
void PushRound(VoteSink& sink, size_t modules, double base,
               const RoundScalars& scalars) {
  RoundColumns cols = sink.BeginRound(modules);
  ASSERT_EQ(cols.weights.size(), modules);
  ASSERT_EQ(cols.agreement.size(), modules);
  ASSERT_EQ(cols.history.size(), modules);
  ASSERT_EQ(cols.excluded.size(), modules);
  ASSERT_EQ(cols.eliminated.size(), modules);
  for (size_t m = 0; m < modules; ++m) {
    cols.weights[m] = base + static_cast<double>(m);
    cols.agreement[m] = base * 0.1 + static_cast<double>(m);
    cols.history[m] = base * 0.01 + static_cast<double>(m);
    cols.excluded[m] = m % 2;
    cols.eliminated[m] = m == modules - 1 ? 1 : 0;
  }
  sink.EndRound(scalars);
}

RoundScalars VotedScalars(double value, uint32_t present) {
  RoundScalars scalars;
  scalars.value = value;
  scalars.has_value = true;
  scalars.outcome = RoundOutcome::kVoted;
  scalars.used_clustering = false;
  scalars.had_majority = true;
  scalars.present_count = present;
  return scalars;
}

TEST(BatchTraceTest, SinkRoundsLandInColumns) {
  BatchTrace trace(3);
  PushRound(trace, 3, 10.0, VotedScalars(42.5, 3));
  RoundScalars suppressed;
  suppressed.has_value = false;
  suppressed.outcome = RoundOutcome::kNoOutput;
  suppressed.present_count = 1;
  PushRound(trace, 3, 20.0, suppressed);

  ASSERT_EQ(trace.round_count(), 2u);
  EXPECT_EQ(trace.module_count(), 3u);
  ASSERT_TRUE(trace.output(0).has_value());
  EXPECT_DOUBLE_EQ(*trace.output(0), 42.5);
  EXPECT_FALSE(trace.output(1).has_value());
  EXPECT_EQ(trace.outcome(0), RoundOutcome::kVoted);
  EXPECT_EQ(trace.outcome(1), RoundOutcome::kNoOutput);
  EXPECT_EQ(trace.present_count(0), 3u);
  EXPECT_EQ(trace.present_count(1), 1u);
  EXPECT_EQ(trace.voted_rounds(), 1u);

  // Per-module rows are the disjoint subspans of the block columns.
  EXPECT_DOUBLE_EQ(trace.weights(0)[2], 12.0);
  EXPECT_DOUBLE_EQ(trace.weights(1)[0], 20.0);
  EXPECT_DOUBLE_EQ(trace.agreement(1)[1], 3.0);
  EXPECT_DOUBLE_EQ(trace.history(0)[0], 0.1);
  EXPECT_EQ(trace.excluded(0)[1], 1);
  EXPECT_EQ(trace.excluded(0)[0], 0);
  EXPECT_EQ(trace.eliminated(1)[2], 1);
}

TEST(BatchTraceTest, SparseStatusLookup) {
  BatchTrace trace(2);
  PushRound(trace, 2, 1.0, VotedScalars(5.0, 2));
  const Status no_quorum(ErrorCode::kNoQuorum, "starved");
  RoundScalars errored;
  errored.has_value = false;
  errored.outcome = RoundOutcome::kError;
  errored.status = &no_quorum;
  PushRound(trace, 2, 2.0, errored);
  PushRound(trace, 2, 3.0, VotedScalars(6.0, 2));
  const Status no_majority(ErrorCode::kNoMajority, "split");
  errored.status = &no_majority;
  PushRound(trace, 2, 4.0, errored);

  EXPECT_TRUE(trace.status(0).ok());
  EXPECT_EQ(trace.status(1).code(), ErrorCode::kNoQuorum);
  EXPECT_TRUE(trace.status(2).ok());
  EXPECT_EQ(trace.status(3).code(), ErrorCode::kNoMajority);
  // The borrowed Status was copied, not kept by pointer.
  EXPECT_EQ(trace.status(1).message(), "starved");
}

TEST(BatchTraceTest, ResetKeepsArityDropsRounds) {
  BatchTrace trace(4);
  PushRound(trace, 4, 1.0, VotedScalars(1.0, 4));
  PushRound(trace, 4, 2.0, VotedScalars(2.0, 4));
  trace.Reset(4);
  EXPECT_EQ(trace.round_count(), 0u);
  EXPECT_EQ(trace.module_count(), 4u);
  EXPECT_TRUE(trace.empty());
  // Reusable after Reset; the new round is round 0.
  PushRound(trace, 4, 9.0, VotedScalars(9.0, 4));
  ASSERT_EQ(trace.round_count(), 1u);
  EXPECT_DOUBLE_EQ(*trace.output(0), 9.0);
  EXPECT_DOUBLE_EQ(trace.weights(0)[0], 9.0);
}

TEST(BatchTraceTest, AppendAdoptsArityWhenEmpty) {
  VoteResult result;
  result.value = 7.0;
  result.outcome = RoundOutcome::kVoted;
  result.weights = {1.0, 0.0, 1.0};
  result.agreement = {0.9, 0.1, 0.8};
  result.history = {1.0, 0.2, 1.0};
  result.excluded = {false, true, false};
  result.eliminated = {false, false, false};
  result.present_count = 3;

  BatchTrace trace;  // unsized
  trace.Append(result);
  EXPECT_EQ(trace.module_count(), 3u);
  ASSERT_EQ(trace.round_count(), 1u);
  EXPECT_DOUBLE_EQ(trace.weights(0)[0], 1.0);
  EXPECT_EQ(trace.excluded(0)[1], 1);
}

TEST(BatchTraceTest, MaterializeRoundTripsAppend) {
  VoteResult result;
  result.value = std::nullopt;
  result.outcome = RoundOutcome::kError;
  result.status = Status(ErrorCode::kNoQuorum, "too few");
  result.used_clustering = true;
  result.had_majority = false;
  result.present_count = 1;
  result.weights = {0.0, 0.5};
  result.agreement = {0.0, 1.0};
  result.history = {0.3, 0.6};
  result.excluded = {true, false};
  result.eliminated = {false, true};

  BatchTrace trace(2);
  trace.Append(result);
  const VoteResult back = trace.MaterializeRound(0);
  EXPECT_EQ(back.value, result.value);
  EXPECT_EQ(back.outcome, result.outcome);
  EXPECT_EQ(back.status.code(), result.status.code());
  EXPECT_EQ(back.used_clustering, result.used_clustering);
  EXPECT_EQ(back.had_majority, result.had_majority);
  EXPECT_EQ(back.present_count, result.present_count);
  EXPECT_EQ(back.weights, result.weights);
  EXPECT_EQ(back.agreement, result.agreement);
  EXPECT_EQ(back.history, result.history);
  EXPECT_EQ(back.excluded, result.excluded);
  EXPECT_EQ(back.eliminated, result.eliminated);
}

/// Appends rounds of `modules` width: voted, errored, suppressed.
void PushMixedRounds(BatchTrace& trace, size_t modules, double base) {
  PushRound(trace, modules, base, VotedScalars(base + 0.5, 2));
  const Status no_quorum(ErrorCode::kNoQuorum, "starved");
  RoundScalars errored;
  errored.has_value = false;
  errored.outcome = RoundOutcome::kError;
  errored.used_clustering = true;
  errored.status = &no_quorum;
  PushRound(trace, modules, base + 1.0, errored);
  RoundScalars suppressed;
  suppressed.outcome = RoundOutcome::kNoOutput;
  suppressed.present_count = 1;
  PushRound(trace, modules, base + 2.0, suppressed);
}

void ExpectSameRound(const VoteResult& got, const VoteResult& want) {
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.outcome, want.outcome);
  EXPECT_EQ(got.status.code(), want.status.code());
  EXPECT_EQ(got.status.message(), want.status.message());
  EXPECT_EQ(got.used_clustering, want.used_clustering);
  EXPECT_EQ(got.had_majority, want.had_majority);
  EXPECT_EQ(got.present_count, want.present_count);
  EXPECT_EQ(got.weights, want.weights);
  EXPECT_EQ(got.agreement, want.agreement);
  EXPECT_EQ(got.history, want.history);
  EXPECT_EQ(got.excluded, want.excluded);
  EXPECT_EQ(got.eliminated, want.eliminated);
}

TEST(BatchTraceTest, AppendRowsMatchesRowByRowAppend) {
  // Same arity (a block copy per column), then narrower and wider
  // sources (row by row, zero-padded or truncated): the result must be
  // what appending each materialized row would give.
  for (const size_t source_modules : {3u, 2u, 5u}) {
    BatchTrace source(source_modules);
    PushMixedRounds(source, source_modules, 10.0);
    BatchTrace blocks(3);
    PushMixedRounds(blocks, 3, 1.0);
    BatchTrace rows(3);
    PushMixedRounds(rows, 3, 1.0);

    blocks.AppendRows(source.view());
    for (size_t r = 0; r < source.round_count(); ++r) {
      VoteResult round = source.MaterializeRound(r);
      for (auto* column : {&round.weights, &round.agreement, &round.history}) {
        column->resize(3, 0.0);
      }
      round.excluded.resize(3, false);
      round.eliminated.resize(3, false);
      rows.Append(round);
    }
    ASSERT_EQ(blocks.round_count(), rows.round_count()) << source_modules;
    EXPECT_EQ(blocks.module_count(), 3u);
    for (size_t r = 0; r < rows.round_count(); ++r) {
      SCOPED_TRACE(testing::Message() << source_modules << " round " << r);
      ExpectSameRound(blocks.MaterializeRound(r), rows.MaterializeRound(r));
    }
  }
}

TEST(BatchTraceTest, AppendRowsAdoptsArityWhenEmpty) {
  BatchTrace source(4);
  PushMixedRounds(source, 4, 3.0);
  BatchTrace trace;  // unsized
  trace.AppendRows(source.view());
  EXPECT_EQ(trace.module_count(), 4u);
  ASSERT_EQ(trace.round_count(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    ExpectSameRound(trace.MaterializeRound(r), source.MaterializeRound(r));
  }
  trace.AppendRows(BatchTrace(4).view());  // no rows: no change
  EXPECT_EQ(trace.round_count(), 3u);
}

TEST(BatchTraceTest, OutputsAndContinuousOutputs) {
  BatchTrace trace(1);
  RoundScalars gap;
  gap.has_value = false;
  gap.outcome = RoundOutcome::kNoOutput;
  PushRound(trace, 1, 0.0, gap);                    // leading gap
  PushRound(trace, 1, 0.0, VotedScalars(3.0, 1));
  PushRound(trace, 1, 0.0, gap);                    // carried forward
  PushRound(trace, 1, 0.0, VotedScalars(4.0, 1));

  const auto outputs = trace.Outputs();
  ASSERT_EQ(outputs.size(), 4u);
  EXPECT_FALSE(outputs[0].has_value());
  EXPECT_EQ(outputs[1], std::optional<double>(3.0));
  EXPECT_FALSE(outputs[2].has_value());
  EXPECT_EQ(outputs[3], std::optional<double>(4.0));

  const auto continuous = trace.ContinuousOutputs();
  const std::vector<double> expected = {3.0, 3.0, 3.0, 4.0};
  EXPECT_EQ(continuous, expected);
}

/// Pushes `count` rows of `modules` width whose columns encode their
/// row index, every seventh an error row.
void PushIndexedRows(BatchTrace& trace, size_t modules, size_t count) {
  const Status failed(ErrorCode::kNoQuorum, "starved");
  for (size_t i = 0; i < count; ++i) {
    const double row = static_cast<double>(trace.round_count());
    RoundScalars scalars = VotedScalars(row + 0.5, 2);
    if (trace.round_count() % 7 == 3) {
      scalars.has_value = false;
      scalars.outcome = RoundOutcome::kError;
      scalars.status = &failed;
    }
    PushRound(trace, modules, row, scalars);
  }
}

/// `trace` holds `reference`'s rows: every row's fused series, and the
/// per-module columns of the rows from its detail base on (none below).
void ExpectTrimmedCopyOf(const BatchTrace& trace, const BatchTrace& reference) {
  ASSERT_EQ(trace.round_count(), reference.round_count());
  for (size_t r = 0; r < reference.round_count(); ++r) {
    SCOPED_TRACE(testing::Message() << "row " << r);
    VoteResult want = reference.MaterializeRound(r);
    if (r < trace.detail_base()) {
      EXPECT_TRUE(trace.weights(r).empty());
      EXPECT_TRUE(trace.eliminated(r).empty());
      want.weights.clear();
      want.agreement.clear();
      want.history.clear();
      want.excluded.clear();
      want.eliminated.clear();
    }
    ExpectSameRound(trace.MaterializeRound(r), want);
  }
}

TEST(BatchTraceTest, SinkDetailBaseKeepsOneToTwoWindows) {
  EXPECT_EQ(kSinkDetailRows, 1024u);
  // rows -> base: the newest partial window plus the whole one before it.
  const std::pair<size_t, size_t> rule[] = {
      {0, 0},       {1023, 0},    {1024, 0},    {2047, 0},
      {2048, 1024}, {3071, 1024}, {3072, 2048}, {5000, 3072}};
  for (const auto& [rows, base] : rule) {
    EXPECT_EQ(SinkDetailBase(rows), base) << rows;
  }
  // Fed row by row and trimmed after each one, as a sink does.
  BatchTrace reference(3);
  BatchTrace trace(3);
  for (size_t rows = 1; rows <= 3071; ++rows) {
    PushIndexedRows(reference, 3, 1);
    PushIndexedRows(trace, 3, 1);
    trace.TrimDetail(SinkDetailBase(rows));
    ASSERT_EQ(trace.detail_base(), SinkDetailBase(rows));
    ASSERT_EQ(trace.view().detail_base(), trace.detail_base());
    if (rows == 1023 || rows == 1024 || rows == 2047 || rows == 2048 ||
        rows == 3071) {
      SCOPED_TRACE(testing::Message() << rows << " rows");
      ExpectTrimmedCopyOf(trace, reference);
    }
  }
  EXPECT_EQ(trace.detail_rows(), 2047u);
}

TEST(BatchTraceTest, OnePassOfFiveThousandRowsTrimsToTheWindow) {
  BatchTrace reference(4);
  PushIndexedRows(reference, 4, 5000);
  BatchTrace trace(4);
  trace.ReserveRounds(5000);
  trace.AppendRows(reference.view());
  trace.TrimDetail(SinkDetailBase(trace.round_count()));
  EXPECT_EQ(trace.detail_base(), 3072u);
  EXPECT_EQ(trace.detail_rows(), 1928u);
  EXPECT_EQ(trace.view().columns().weights.size(), 1928u * 4);
  ExpectTrimmedCopyOf(trace, reference);
  // Trimming never moves the base down, and stops at the last row.
  trace.TrimDetail(1024);
  EXPECT_EQ(trace.detail_base(), 3072u);
  trace.TrimDetail(9999);
  EXPECT_EQ(trace.detail_base(), 5000u);
  EXPECT_EQ(trace.detail_rows(), 0u);
  ExpectTrimmedCopyOf(trace, reference);
  // Rows voted past a base of 5000 keep their detail.
  PushIndexedRows(reference, 4, 3);
  PushIndexedRows(trace, 4, 3);
  ExpectTrimmedCopyOf(trace, reference);
}

TEST(BatchTraceTest, RowsBelowTheBaseKeepOnlyTheFusedSeries) {
  BatchTrace trace(2);
  PushIndexedRows(trace, 2, 12);
  trace.TrimDetail(5);
  const TraceView view = trace.view();
  for (size_t r = 0; r < 5; ++r) {
    EXPECT_TRUE(view.weights(r).empty());
    EXPECT_TRUE(view.agreement(r).empty());
    EXPECT_TRUE(view.history(r).empty());
    EXPECT_TRUE(view.excluded(r).empty());
    EXPECT_TRUE(view.eliminated(r).empty());
    const VoteResult round = view.MaterializeRound(r);
    EXPECT_TRUE(round.weights.empty());
    EXPECT_TRUE(round.history.empty());
    EXPECT_TRUE(round.excluded.empty());
  }
  // The fused series is whole: row 3 is an error row below the base.
  EXPECT_EQ(view.outcome(3), RoundOutcome::kError);
  EXPECT_EQ(view.status(3).message(), "starved");
  EXPECT_FALSE(view.output(3).has_value());
  EXPECT_EQ(view.output(4), std::optional<double>(4.5));
  EXPECT_EQ(view.Outputs().size(), 12u);
  ASSERT_EQ(view.weights(5).size(), 2u);
  EXPECT_EQ(view.weights(5)[1], 6.0);
  EXPECT_EQ(view.weights(11)[0], 11.0);
  // Reset drops the base with the rows.
  trace.Reset(2);
  EXPECT_EQ(trace.detail_base(), 0u);
  PushIndexedRows(trace, 2, 1);
  EXPECT_EQ(trace.weights(0).size(), 2u);
}

TEST(BatchTraceTest, AppendRowsOfATrimmedViewKeepsDetailOneSuffix) {
  BatchTrace whole(3);
  PushIndexedRows(whole, 3, 40);
  BatchTrace source = whole;
  source.TrimDetail(25);

  // Into an empty trace: the base travels with the rows.
  BatchTrace empty;
  empty.AppendRows(source.view());
  EXPECT_EQ(empty.module_count(), 3u);
  EXPECT_EQ(empty.detail_base(), 25u);
  ExpectTrimmedCopyOf(empty, whole);

  // Into a trace with rows of its own: those rows and the source's rows
  // below its base lose their detail, the source's detail rows keep it.
  BatchTrace full(3);
  PushIndexedRows(full, 3, 10);
  full.TrimDetail(4);
  BatchTrace reference(3);
  PushIndexedRows(reference, 3, 10);
  reference.AppendRows(whole.view());
  full.AppendRows(source.view());
  EXPECT_EQ(full.round_count(), 50u);
  EXPECT_EQ(full.detail_base(), 35u);
  EXPECT_EQ(full.detail_rows(), 15u);
  ExpectTrimmedCopyOf(full, reference);
  EXPECT_EQ(full.status(13).message(), "starved");
  EXPECT_EQ(full.weights(35)[0], 25.0);

  // An untrimmed source appends below a trimmed trace's detail as before.
  BatchTrace more(3);
  PushIndexedRows(more, 3, 5);
  reference.AppendRows(more.view());
  full.AppendRows(more.view());
  EXPECT_EQ(full.detail_base(), 35u);
  ExpectTrimmedCopyOf(full, reference);
}

TEST(TraceViewTest, ViewIsNonOwningWindowOverTrace) {
  BatchTrace trace(2);
  RoundScalars clustered = VotedScalars(8.0, 2);
  clustered.used_clustering = true;
  PushRound(trace, 2, 5.0, clustered);
  const TraceView view = trace.view();
  EXPECT_EQ(view.round_count(), 1u);
  EXPECT_EQ(view.module_count(), 2u);
  EXPECT_EQ(view.clustered_rounds(), 1u);
  EXPECT_TRUE(view.used_clustering(0));
  EXPECT_DOUBLE_EQ(view.weights(0)[1], 6.0);
  // columns() exposes the raw block layout: round r module m at
  // [r * modules + m].
  EXPECT_DOUBLE_EQ(view.columns().weights[1], 6.0);
  EXPECT_EQ(view.columns().engaged[0], 1);
}

}  // namespace
}  // namespace avoc::core
