#include "core/history.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

namespace avoc::core {
namespace {

HistoryParams RewardPenalty(double reward, double penalty,
                            double missing_penalty = 0.0) {
  HistoryParams params;
  params.rule = HistoryRule::kRewardPenalty;
  params.reward = reward;
  params.penalty = penalty;
  params.missing_penalty = missing_penalty;
  return params;
}

HistoryParams Cumulative() {
  HistoryParams params;
  params.rule = HistoryRule::kCumulativeRatio;
  return params;
}

std::vector<double> Agreements(std::initializer_list<double> values) {
  return std::vector<double>(values);
}

/// A presence mask column: 1 = the module submitted a reading.
std::vector<uint8_t> Mask(std::initializer_list<uint8_t> present) {
  return std::vector<uint8_t>(present);
}

TEST(HistoryLedgerTest, FreshSetStartsAtOne) {
  const HistoryLedger ledger(4, Cumulative());
  EXPECT_EQ(ledger.module_count(), 4u);
  EXPECT_TRUE(ledger.AllRecordsAre(1.0));
  EXPECT_DOUBLE_EQ(ledger.MeanRecord(), 1.0);
  EXPECT_EQ(ledger.round_count(), 0u);
}

TEST(HistoryLedgerTest, UpdateRejectsArityMismatch) {
  HistoryLedger ledger(2, Cumulative());
  EXPECT_FALSE(ledger.Update(Agreements({1.0}), Mask({1, 1})).ok());
  EXPECT_FALSE(ledger.Update(Agreements({1.0, 1.0}), Mask({1})).ok());
}

TEST(HistoryLedgerTest, NoneRuleKeepsRecordsPinned) {
  HistoryParams params;
  params.rule = HistoryRule::kNone;
  HistoryLedger ledger(2, params);
  ASSERT_TRUE(ledger.Update(Agreements({0.0, 0.0}), Mask({1, 1})).ok());
  EXPECT_TRUE(ledger.AllRecordsAre(1.0));
  EXPECT_EQ(ledger.round_count(), 1u);
}

TEST(HistoryLedgerTest, CumulativeRatioDecaysLikeOneOverT) {
  HistoryLedger ledger(1, Cumulative());
  // Chronic disagreer: record after t rounds = 1/(1+t).
  for (size_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(ledger.Update(Agreements({0.0}), Mask({1})).ok());
    EXPECT_NEAR(ledger.record(0), 1.0 / (1.0 + static_cast<double>(t)),
                1e-12);
  }
  // Never reaches zero exactly — the paper's "skew is not eliminated
  // completely" behaviour.
  EXPECT_GT(ledger.record(0), 0.0);
}

TEST(HistoryLedgerTest, CumulativeRatioStaysAtOneWhileAgreeing) {
  HistoryLedger ledger(1, Cumulative());
  for (int t = 0; t < 5; ++t) {
    ASSERT_TRUE(ledger.Update(Agreements({1.0}), Mask({1})).ok());
    EXPECT_DOUBLE_EQ(ledger.record(0), 1.0);
  }
}

TEST(HistoryLedgerTest, CumulativeRatioRecovers) {
  HistoryLedger ledger(1, Cumulative());
  ASSERT_TRUE(ledger.Update(Agreements({0.0}), Mask({1})).ok());
  const double damaged = ledger.record(0);
  for (int t = 0; t < 20; ++t) {
    ASSERT_TRUE(ledger.Update(Agreements({1.0}), Mask({1})).ok());
  }
  EXPECT_GT(ledger.record(0), damaged);
  EXPECT_GT(ledger.record(0), 0.9);
}

TEST(HistoryLedgerTest, RewardPenaltyDropsToZeroAndClamps) {
  HistoryLedger ledger(1, RewardPenalty(0.05, 0.3));
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(ledger.Update(Agreements({0.0}), Mask({1})).ok());
  }
  // 1 - 10*0.3 clamps at 0 — "weights can drop to 0".
  EXPECT_DOUBLE_EQ(ledger.record(0), 0.0);
  EXPECT_TRUE(ledger.AllRecordsAre(0.0));
}

TEST(HistoryLedgerTest, RewardPenaltyClampsAtOne) {
  HistoryLedger ledger(1, RewardPenalty(0.5, 0.3));
  ASSERT_TRUE(ledger.Update(Agreements({1.0}), Mask({1})).ok());
  EXPECT_DOUBLE_EQ(ledger.record(0), 1.0);
}

TEST(HistoryLedgerTest, PartialAgreementBlendsRewardAndPenalty) {
  HistoryLedger ledger(1, RewardPenalty(0.1, 0.4));
  ASSERT_TRUE(ledger.Update(Agreements({0.5}), Mask({1})).ok());
  // 1 + 0.5*0.1 - 0.5*0.4 = 0.85.
  EXPECT_NEAR(ledger.record(0), 0.85, 1e-12);
}

TEST(HistoryLedgerTest, RecordsAlwaysBounded) {
  HistoryLedger ledger(3, RewardPenalty(1.0, 1.0));
  for (int t = 0; t < 50; ++t) {
    const double g = (t % 3) / 2.0;
    ASSERT_TRUE(
        ledger.Update(Agreements({g, 1.0 - g, 0.5}), Mask({1, 1, 1})).ok());
    for (size_t m = 0; m < 3; ++m) {
      EXPECT_GE(ledger.record(m), 0.0);
      EXPECT_LE(ledger.record(m), 1.0);
    }
  }
}

TEST(HistoryLedgerTest, MissingModulesUntouchedByDefault) {
  HistoryLedger ledger(2, RewardPenalty(0.05, 0.3));
  ASSERT_TRUE(ledger.Update(Agreements({0.0, 0.0}), Mask({1, 0})).ok());
  EXPECT_LT(ledger.record(0), 1.0);
  EXPECT_DOUBLE_EQ(ledger.record(1), 1.0);
}

TEST(HistoryLedgerTest, MissingPenaltyApplies) {
  HistoryLedger ledger(1, RewardPenalty(0.05, 0.3, /*missing=*/0.1));
  ASSERT_TRUE(ledger.Update(Agreements({0.0}), Mask({0})).ok());
  EXPECT_NEAR(ledger.record(0), 0.9, 1e-12);
}

TEST(HistoryLedgerTest, MeanRecord) {
  HistoryLedger ledger(2, RewardPenalty(0.05, 0.5));
  ASSERT_TRUE(ledger.Update(Agreements({1.0, 0.0}), Mask({1, 1})).ok());
  EXPECT_NEAR(ledger.MeanRecord(), (1.0 + 0.5) / 2.0, 1e-12);
}

TEST(HistoryLedgerTest, ResetRestoresFreshSet) {
  HistoryLedger ledger(2, Cumulative());
  ASSERT_TRUE(ledger.Update(Agreements({0.0, 1.0}), Mask({1, 1})).ok());
  ledger.Reset();
  EXPECT_TRUE(ledger.AllRecordsAre(1.0));
  EXPECT_EQ(ledger.round_count(), 0u);
  // Cumulative state also cleared: one disagreement decays as from fresh.
  ASSERT_TRUE(ledger.Update(Agreements({0.0, 1.0}), Mask({1, 1})).ok());
  EXPECT_NEAR(ledger.record(0), 0.5, 1e-12);
}

TEST(HistoryLedgerTest, RestoreRoundTripsThroughCumulativeState) {
  HistoryLedger ledger(2, Cumulative());
  const std::vector<double> records = {0.25, 0.75};
  ASSERT_TRUE(ledger.ImportFrom(UpgradeRecordsOnly(records, 10)).ok());
  EXPECT_NEAR(ledger.record(0), 0.25, 1e-12);
  EXPECT_NEAR(ledger.record(1), 0.75, 1e-12);
  EXPECT_EQ(ledger.round_count(), 10u);
  // Updates continue consistently from the restored state.
  ASSERT_TRUE(ledger.Update(Agreements({1.0, 1.0}), Mask({1, 1})).ok());
  EXPECT_GT(ledger.record(0), 0.25);
  EXPECT_LE(ledger.record(1), 1.0);

  // An exported state restores exactly: both ledgers then update
  // bit-identically.
  GroupState state;
  ledger.ExportTo(state);
  HistoryLedger copy(2, Cumulative());
  ASSERT_TRUE(copy.ImportFrom(state).ok());
  ASSERT_TRUE(ledger.Update(Agreements({0.5, 0.0}), Mask({1, 0})).ok());
  ASSERT_TRUE(copy.Update(Agreements({0.5, 0.0}), Mask({1, 0})).ok());
  EXPECT_EQ(copy.record(0), ledger.record(0));
  EXPECT_EQ(copy.record(1), ledger.record(1));
  EXPECT_EQ(copy.round_count(), ledger.round_count());
}

TEST(HistoryLedgerTest, RestoreClampsAndValidates) {
  HistoryLedger ledger(2, Cumulative());
  EXPECT_FALSE(ledger.ImportFrom(UpgradeRecordsOnly({{0.5}}, 1)).ok());
  GroupState short_sums = UpgradeRecordsOnly({{0.5, 0.5}}, 1);
  short_sums.agreement_sums.pop_back();
  EXPECT_FALSE(ledger.ImportFrom(short_sums).ok());

  // The upgrade keeps records verbatim and rebuilds the accumulators
  // from them clamped to [0,1]; the ledger clamps the records it
  // installs, so an out-of-range record never reaches a weight.
  const std::vector<double> out_of_range = {-0.5, 1.5};
  const GroupState upgraded = UpgradeRecordsOnly(out_of_range, 1);
  EXPECT_EQ(upgraded.records, out_of_range);
  EXPECT_EQ(upgraded.agreement_sums, (std::vector<double>{0.0, 1.0}));
  ASSERT_TRUE(ledger.ImportFrom(upgraded).ok());
  EXPECT_DOUBLE_EQ(ledger.record(0), 0.0);
  EXPECT_DOUBLE_EQ(ledger.record(1), 1.0);
  ASSERT_TRUE(ledger.Update(Agreements({1.0, 1.0}), Mask({1, 1})).ok());
  EXPECT_DOUBLE_EQ(ledger.record(0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(ledger.record(1), 1.0);

  // In-range records, -0.0 and NaN install bit-identically.
  GroupState exact = UpgradeRecordsOnly(
      {{-0.0, std::numeric_limits<double>::quiet_NaN()}}, 3);
  ASSERT_TRUE(ledger.ImportFrom(exact).ok());
  GroupState exported;
  ledger.ExportTo(exported);
  EXPECT_EQ(std::bit_cast<uint64_t>(exported.records[0]),
            std::bit_cast<uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<uint64_t>(exported.records[1]),
            std::bit_cast<uint64_t>(exact.records[1]));
}

TEST(HistoryLedgerTest, AllRecordsAreRespectsEpsilon) {
  HistoryLedger ledger(2, RewardPenalty(0.05, 0.3));
  EXPECT_TRUE(ledger.AllRecordsAre(1.0));
  EXPECT_FALSE(ledger.AllRecordsAre(0.0));
  EXPECT_TRUE(ledger.AllRecordsAre(0.999, 0.01));
}

}  // namespace
}  // namespace avoc::core
