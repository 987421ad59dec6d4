#include "sim/sensor.h"

#include <gtest/gtest.h>

#include "stats/running.h"

namespace avoc::sim {
namespace {

TEST(SensorModelTest, BiasShiftsReadings) {
  SensorParams params;
  params.bias = 100.0;
  SensorModel sensor(params, Rng(1));
  stats::RunningStats rs;
  for (size_t r = 0; r < 100; ++r) {
    auto reading = sensor.Sample(r, 1000.0);
    ASSERT_TRUE(reading.has_value());
    rs.Add(*reading);
  }
  EXPECT_DOUBLE_EQ(rs.mean(), 1100.0);  // no noise configured
  EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
}

TEST(SensorModelTest, NoiseHasConfiguredSpread) {
  SensorParams params;
  params.noise_stddev = 50.0;
  SensorModel sensor(params, Rng(2));
  stats::RunningStats rs;
  for (size_t r = 0; r < 20000; ++r) {
    rs.Add(*sensor.Sample(r, 500.0));
  }
  EXPECT_NEAR(rs.mean(), 500.0, 2.0);
  EXPECT_NEAR(rs.stddev(), 50.0, 2.0);
}

TEST(SensorModelTest, DriftAccumulatesLinearly) {
  SensorParams params;
  params.drift_per_round = 0.5;
  SensorModel sensor(params, Rng(3));
  EXPECT_DOUBLE_EQ(*sensor.Sample(0, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(*sensor.Sample(10, 100.0), 105.0);
  EXPECT_DOUBLE_EQ(*sensor.Sample(100, 100.0), 150.0);
}

TEST(SensorModelTest, DropoutProbabilityRespected) {
  SensorParams params;
  params.dropout_probability = 0.3;
  SensorModel sensor(params, Rng(4));
  size_t missing = 0;
  constexpr size_t kRounds = 20000;
  for (size_t r = 0; r < kRounds; ++r) {
    if (!sensor.Sample(r, 1.0).has_value()) ++missing;
  }
  EXPECT_NEAR(static_cast<double>(missing) / kRounds, 0.3, 0.02);
}

TEST(SensorModelTest, SpikesOccurAtConfiguredRate) {
  SensorParams params;
  params.spike_probability = 0.1;
  params.spike_magnitude = 1000.0;
  SensorModel sensor(params, Rng(5));
  size_t spiked = 0;
  constexpr size_t kRounds = 10000;
  for (size_t r = 0; r < kRounds; ++r) {
    const double v = *sensor.Sample(r, 0.0);
    if (std::abs(v) > 500.0) ++spiked;
  }
  EXPECT_NEAR(static_cast<double>(spiked) / kRounds, 0.1, 0.02);
}

TEST(SensorModelTest, StuckAtFreezesLastValue) {
  SensorParams params;
  params.noise_stddev = 1.0;
  params.stuck_from_round = 5;
  SensorModel sensor(params, Rng(6));
  double last_before_stuck = 0.0;
  for (size_t r = 0; r < 5; ++r) {
    last_before_stuck = *sensor.Sample(r, 100.0);
  }
  for (size_t r = 5; r < 10; ++r) {
    auto reading = sensor.Sample(r, 500.0);  // truth moved, sensor did not
    ASSERT_TRUE(reading.has_value());
    EXPECT_DOUBLE_EQ(*reading, last_before_stuck);
  }
}

TEST(SensorModelTest, DeterministicForSameSeed) {
  SensorParams params;
  params.noise_stddev = 10.0;
  params.dropout_probability = 0.2;
  params.spike_probability = 0.05;
  params.spike_magnitude = 100.0;
  SensorModel a(params, Rng(7));
  SensorModel b(params, Rng(7));
  for (size_t r = 0; r < 1000; ++r) {
    const auto ra = a.Sample(r, 50.0);
    const auto rb = b.Sample(r, 50.0);
    ASSERT_EQ(ra.has_value(), rb.has_value());
    if (ra.has_value()) {
      EXPECT_DOUBLE_EQ(*ra, *rb);
    }
  }
}

}  // namespace
}  // namespace avoc::sim
