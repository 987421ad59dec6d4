#include "cluster/meanshift.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace avoc::cluster {
namespace {

TEST(SquaredDistanceTest, KnownValues) {
  EXPECT_DOUBLE_EQ(SquaredDistance({0.0, 0.0}, {3.0, 4.0}), 25.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({1.0}, {1.0}), 0.0);
}

TEST(MeanShiftTest, RejectsBadArguments) {
  const std::vector<Point> empty;
  EXPECT_FALSE(MeanShift(empty).ok());
  const std::vector<Point> points = {{1.0}, {2.0}};
  MeanShiftOptions bad;
  bad.bandwidth = 0.0;
  EXPECT_FALSE(MeanShift(points, bad).ok());
  const std::vector<Point> ragged = {{1.0}, {2.0, 3.0}};
  EXPECT_FALSE(MeanShift(ragged).ok());
}

TEST(MeanShiftTest, SingleClusterConvergesToMean) {
  Rng rng(1);
  std::vector<Point> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back({rng.Gaussian(5.0, 0.2), rng.Gaussian(-3.0, 0.2)});
  }
  MeanShiftOptions options;
  options.bandwidth = 2.0;
  auto result = MeanShift(points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cluster_count(), 1u);
  EXPECT_NEAR(result->modes[0][0], 5.0, 0.15);
  EXPECT_NEAR(result->modes[0][1], -3.0, 0.15);
}

TEST(MeanShiftTest, SeparatesTwoModes) {
  Rng rng(2);
  std::vector<Point> points;
  for (int i = 0; i < 50; ++i) points.push_back({rng.Gaussian(0.0, 0.3)});
  for (int i = 0; i < 50; ++i) points.push_back({rng.Gaussian(10.0, 0.3)});
  MeanShiftOptions options;
  options.bandwidth = 1.0;
  auto result = MeanShift(points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cluster_count(), 2u);
  EXPECT_EQ(result->labels[0], result->labels[10]);
  EXPECT_NE(result->labels[0], result->labels[60]);
}

TEST(MeanShiftTest, FlatKernelWorks) {
  std::vector<Point> points = {{0.0}, {0.1}, {0.2}, {10.0}, {10.1}};
  MeanShiftOptions options;
  options.bandwidth = 1.0;
  options.kernel = Kernel::kFlat;
  auto result = MeanShift(points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cluster_count(), 2u);
}

TEST(MeanShiftTest, LabelsIndexModes) {
  std::vector<Point> points = {{0.0}, {20.0}, {0.1}};
  MeanShiftOptions options;
  options.bandwidth = 1.0;
  auto result = MeanShift(points, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->labels.size(), 3u);
  for (const size_t label : result->labels) {
    EXPECT_LT(label, result->modes.size());
  }
  EXPECT_EQ(result->labels[0], result->labels[2]);
  EXPECT_NE(result->labels[0], result->labels[1]);
}

TEST(MeanShiftTest, MergeThresholdControlsModeFusion) {
  std::vector<Point> points = {{0.0}, {1.0}};
  MeanShiftOptions narrow;
  narrow.bandwidth = 0.3;        // each point is its own mode
  narrow.merge_threshold = 0.1;
  auto separate = MeanShift(points, narrow);
  ASSERT_TRUE(separate.ok());
  EXPECT_EQ(separate->cluster_count(), 2u);

  MeanShiftOptions wide = narrow;
  wide.merge_threshold = 5.0;    // everything merges
  auto merged = MeanShift(points, wide);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->cluster_count(), 1u);
}

}  // namespace
}  // namespace avoc::cluster
