// Failure injection on the runtime's persistence and I/O paths: the
// voter must keep fusing when its datastore or filesystem misbehaves,
// and surface the failure through status instead of crashing or
// corrupting results.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/algorithms.h"
#include "data/csv.h"
#include "runtime/nodes.h"
#include "vdx/registry.h"
#include "test_temp_dir.h"
#include "sink_rows.h"

namespace avoc {
namespace {

/// Votes `readings` as round 0 through `voter` into `sink`.
void VoteOneRound(runtime::VoterNode& voter, runtime::SinkNode& sink,
                  core::Round readings) {
  auto table = data::RoundTable::WithModuleCount(readings.size());
  ASSERT_TRUE(table.AppendRound(std::move(readings)).ok());
  const std::vector<size_t> rounds = {0};
  voter.Vote(rounds, table, sink);
}

TEST(FailureInjectionTest, UnwritableStoreSurfacesButVotingContinues) {
  // A store rooted in a non-existent directory fails every flush.
  auto store = runtime::HistoryStore::Open(
      "/nonexistent-dir-for-avoc-test/history.json");
  ASSERT_TRUE(store.ok());  // opening a fresh (missing) file is fine

  runtime::VoterOptions options;
  options.group = "doomed";
  options.store = &*store;
  auto engine = core::MakeEngine(core::AlgorithmId::kAvoc, 3);
  ASSERT_TRUE(engine.ok());
  runtime::VoterNode voter(std::move(*engine), options);
  runtime::SinkNode sink;

  VoteOneRound(voter, sink, {10.0, 10.1, 9.9});
  const auto outputs = SinkRows(sink);
  // The vote itself succeeded and reached the sink...
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_NEAR(*outputs[0].result.value, 10.0, 0.2);
  // ...and the persistence failure is visible, not swallowed.
  EXPECT_FALSE(voter.last_status().ok());
  EXPECT_EQ(voter.last_status().code(), ErrorCode::kIoError);
}

TEST(FailureInjectionTest, CorruptHistoryFileRejectedAtOpen) {
  const auto dir =
      TestTempPath("failure_test");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "history.json").string();
  {
    std::ofstream out(path);
    out << "{ \"group\": { \"records\": \"not-an-array\" } }";
  }
  EXPECT_FALSE(runtime::HistoryStore::Open(path).ok());
  std::filesystem::remove_all(dir);
}

TEST(FailureInjectionTest, MismatchedSnapshotArityIsIgnoredOnRestore) {
  // A snapshot recorded for a 5-module group must not poison a 3-module
  // voter that reuses the group name.
  runtime::HistoryStore store;
  ASSERT_TRUE(store
                  .Put("renamed",
                       core::UpgradeRecordsOnly({{0.0, 0.0, 0.0, 0.0, 0.0}}, 99))
                  .ok());

  runtime::VoterOptions options;
  options.group = "renamed";
  options.store = &store;
  auto engine = core::MakeEngine(core::AlgorithmId::kHybrid, 3);
  ASSERT_TRUE(engine.ok());
  runtime::VoterNode voter(std::move(*engine), options);
  runtime::SinkNode sink;
  // Records must still be the fresh-set 1.0, not the stale zeros.
  VoteOneRound(voter, sink, {5.0, 5.0, 5.0});
  const auto outputs = SinkRows(sink);
  ASSERT_EQ(outputs.size(), 1u);
  for (const double h : outputs[0].result.history) {
    EXPECT_DOUBLE_EQ(h, 1.0);
  }
}

TEST(FailureInjectionTest, WriteCsvToUnwritablePathFails) {
  data::CsvTable table;
  table.header = {"a"};
  table.rows = {{"1"}};
  EXPECT_FALSE(
      data::WriteCsvFile("/nonexistent-dir-for-avoc-test/out.csv", table)
          .ok());
}

TEST(FailureInjectionTest, RegistryDirectoryWithBrokenSpecFailsLoud) {
  const auto dir =
      TestTempPath("failure_registry");
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir / "good.json");
    out << R"({"algorithm_name": "fine"})";
  }
  {
    std::ofstream out(dir / "broken.json");
    out << "{ definitely not json";
  }
  vdx::SpecRegistry registry;
  auto loaded = registry.LoadDirectory(dir.string());
  EXPECT_FALSE(loaded.ok());  // fail the whole load, not silently skip
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace avoc
