// The umbrella header must compile standalone and expose the whole public
// surface; this test is the one-include smoke path a new application hits.
#include "avoc.h"

#include <gtest/gtest.h>

namespace {

TEST(UmbrellaTest, VersionIsCoherent) {
  EXPECT_EQ(avoc::kVersionMajor, 1);
  const std::string expected = std::to_string(avoc::kVersionMajor) + "." +
                               std::to_string(avoc::kVersionMinor) + "." +
                               std::to_string(avoc::kVersionPatch);
  EXPECT_EQ(expected, avoc::kVersionString);
}

TEST(UmbrellaTest, EndToEndThroughTheUmbrellaOnly) {
  // Everything an application needs, via one include: parse a VDX spec,
  // build a voter, fuse a faulty round.
  auto spec = avoc::vdx::Spec::Parse(R"({
    "algorithm_name": "AVOC",
    "history": "HYBRID",
    "params": {"error": 0.05, "soft_threshold": 2},
    "collation": "MEAN_NEAREST_NEIGHBOR",
    "bootstrapping": true
  })");
  ASSERT_TRUE(spec.ok());
  auto voter = avoc::vdx::MakeVoter(*spec, 5);
  ASSERT_TRUE(voter.ok());
  auto result = voter->CastVote(
      avoc::core::Round{18400.0, 18520.0, 18470.0, 18390.0, 24800.0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_clustering);
  EXPECT_NEAR(*result->value, 18450.0, 80.0);
}

}  // namespace
