#include "runtime/group_manager.h"

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "vdx/factory.h"
#include "sink_rows.h"

namespace avoc::runtime {
namespace {

core::VotingEngine AverageEngine(size_t modules) {
  auto engine = core::MakeEngine(core::AlgorithmId::kAverage, modules);
  EXPECT_TRUE(engine.ok());
  return std::move(*engine);
}

TEST(GroupManagerTest, AddAndListGroups) {
  VoterGroupManager manager;
  ASSERT_TRUE(manager.AddGroup("stack-a", AverageEngine(3)).ok());
  ASSERT_TRUE(manager.AddGroup("stack-b", AverageEngine(3)).ok());
  EXPECT_EQ(manager.group_count(), 2u);
  EXPECT_TRUE(manager.HasGroup("stack-a"));
  EXPECT_FALSE(manager.HasGroup("stack-c"));
  EXPECT_EQ(manager.GroupNames(),
            (std::vector<std::string>{"stack-a", "stack-b"}));
}

TEST(GroupManagerTest, RejectsDuplicatesAndEmptyNames) {
  VoterGroupManager manager;
  ASSERT_TRUE(manager.AddGroup("g", AverageEngine(2)).ok());
  EXPECT_FALSE(manager.AddGroup("g", AverageEngine(2)).ok());
  EXPECT_FALSE(manager.AddGroup("", AverageEngine(2)).ok());
}

TEST(GroupManagerTest, RoutesReadingsToTheRightGroup) {
  VoterGroupManager manager;
  ASSERT_TRUE(manager.AddGroup("a", AverageEngine(2)).ok());
  ASSERT_TRUE(manager.AddGroup("b", AverageEngine(2)).ok());
  // Complete round 0 of group a; group b gets nothing.
  ASSERT_TRUE(manager.Submit("a", 0, 0, 10.0).ok());
  ASSERT_TRUE(manager.Submit("a", 1, 0, 20.0).ok());
  auto sink_a = manager.sink("a");
  auto sink_b = manager.sink("b");
  ASSERT_TRUE(sink_a.ok());
  ASSERT_TRUE(sink_b.ok());
  EXPECT_EQ((*sink_a)->output_count(), 1u);
  EXPECT_EQ((*sink_b)->output_count(), 0u);
  EXPECT_DOUBLE_EQ(*(*sink_a)->last_value(), 15.0);
}

TEST(GroupManagerTest, SubmitValidatesGroupAndModule) {
  VoterGroupManager manager;
  ASSERT_TRUE(manager.AddGroup("g", AverageEngine(2)).ok());
  EXPECT_FALSE(manager.Submit("ghost", 0, 0, 1.0).ok());
  EXPECT_FALSE(manager.Submit("g", 5, 0, 1.0).ok());
}

TEST(GroupManagerTest, CloseRoundFlushesPartialRounds) {
  VoterGroupManager manager;
  ASSERT_TRUE(manager.AddGroup("g", AverageEngine(3)).ok());
  ASSERT_TRUE(manager.Submit("g", 0, 0, 9.0).ok());
  ASSERT_TRUE(manager.Submit("g", 1, 0, 11.0).ok());
  ASSERT_TRUE(manager.CloseRound("g", 0).ok());
  auto sink = manager.sink("g");
  ASSERT_TRUE(sink.ok());
  ASSERT_EQ((*sink)->output_count(), 1u);
  const auto outputs = SinkRows(**sink);
  EXPECT_EQ(outputs[0].result.present_count, 2u);
  EXPECT_DOUBLE_EQ(*outputs[0].result.value, 10.0);
  EXPECT_FALSE(manager.CloseRound("ghost", 0).ok());
}

TEST(GroupManagerTest, CloseRoundAllAffectsEveryGroup) {
  VoterGroupManager manager;
  ASSERT_TRUE(manager.AddGroup("a", AverageEngine(2)).ok());
  ASSERT_TRUE(manager.AddGroup("b", AverageEngine(2)).ok());
  ASSERT_TRUE(manager.Submit("a", 0, 0, 5.0).ok());
  ASSERT_TRUE(manager.Submit("b", 0, 0, 7.0).ok());
  manager.CloseRoundAll(0);
  EXPECT_EQ((*manager.sink("a"))->output_count(), 1u);
  EXPECT_EQ((*manager.sink("b"))->output_count(), 1u);
}

TEST(GroupManagerTest, GroupsFromVdxSpecs) {
  VoterGroupManager manager;
  const vdx::Spec spec = vdx::ExportSpec(core::AlgorithmId::kAvoc);
  ASSERT_TRUE(manager.AddGroupFromSpec("shelf-1", spec, 5).ok());
  for (size_t m = 0; m < 5; ++m) {
    const double value = m == 4 ? 60.0 : 10.0 + 0.1 * static_cast<double>(m);
    ASSERT_TRUE(manager.Submit("shelf-1", m, 0, value).ok());
  }
  auto sink = manager.sink("shelf-1");
  ASSERT_TRUE(sink.ok());
  ASSERT_EQ((*sink)->output_count(), 1u);
  const auto outputs = SinkRows(**sink);
  EXPECT_TRUE(outputs[0].result.used_clustering);  // AVOC bootstrap fired
  EXPECT_NEAR(*outputs[0].result.value, 10.15, 0.3);
}

TEST(GroupManagerTest, SharedStorePersistsPerGroupKeys) {
  HistoryStore store;
  {
    VoterGroupManager manager(&store);
    ASSERT_TRUE(manager.AddGroup(
        "left", *core::MakeEngine(core::AlgorithmId::kHybrid, 3)).ok());
    ASSERT_TRUE(manager.AddGroup(
        "right", *core::MakeEngine(core::AlgorithmId::kHybrid, 3)).ok());
    // Module 2 of "left" misbehaves; "right" stays clean.
    for (size_t r = 0; r < 3; ++r) {
      ASSERT_TRUE(manager.Submit("left", 0, r, 10.0).ok());
      ASSERT_TRUE(manager.Submit("left", 1, r, 10.1).ok());
      ASSERT_TRUE(manager.Submit("left", 2, r, 90.0).ok());
      ASSERT_TRUE(manager.Submit("right", 0, r, 10.0).ok());
      ASSERT_TRUE(manager.Submit("right", 1, r, 10.1).ok());
      ASSERT_TRUE(manager.Submit("right", 2, r, 10.05).ok());
    }
  }
  auto left = store.Get("left");
  auto right = store.Get("right");
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  EXPECT_LT(left->records[2], 0.5);
  EXPECT_DOUBLE_EQ(right->records[2], 1.0);
  // A new manager restores the learned distrust.
  VoterGroupManager revived(&store);
  ASSERT_TRUE(revived.AddGroup(
      "left", *core::MakeEngine(core::AlgorithmId::kHybrid, 3)).ok());
  ASSERT_TRUE(revived.Submit("left", 0, 0, 10.0).ok());
  ASSERT_TRUE(revived.Submit("left", 1, 0, 10.1).ok());
  ASSERT_TRUE(revived.Submit("left", 2, 0, 10.05).ok());
  const auto outputs = SinkRows(**revived.sink("left"));
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_TRUE(outputs[0].result.eliminated[2]);
}

}  // namespace
}  // namespace avoc::runtime
