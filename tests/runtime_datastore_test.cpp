#include "runtime/datastore.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "test_temp_dir.h"

namespace avoc::runtime {
namespace {

/// A valid state from records and a round count (the records-only
/// upgrade fills the accumulators).
HistorySnapshot Snapshot(const std::vector<double>& records, size_t rounds) {
  return core::UpgradeRecordsOnly(records, rounds);
}

TEST(HistoryStoreTest, InMemoryPutGet) {
  HistoryStore store;
  ASSERT_TRUE(store.Put("g1", Snapshot({1.0, 0.5}, 10)).ok());
  auto snapshot = store.Get("g1");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->records, (std::vector<double>{1.0, 0.5}));
  EXPECT_EQ(snapshot->rounds, 10u);
}

TEST(HistoryStoreTest, GetMissingGroupFails) {
  HistoryStore store;
  EXPECT_FALSE(store.Get("absent").ok());
  EXPECT_EQ(store.Get("absent").status().code(), ErrorCode::kNotFound);
}

TEST(HistoryStoreTest, PutReplaces) {
  HistoryStore store;
  ASSERT_TRUE(store.Put("g", Snapshot({0.1}, 1)).ok());
  ASSERT_TRUE(store.Put("g", Snapshot({0.9}, 2)).ok());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_DOUBLE_EQ(store.Get("g")->records[0], 0.9);
}

TEST(HistoryStoreTest, EraseRemoves) {
  HistoryStore store;
  ASSERT_TRUE(store.Put("g", Snapshot({1.0}, 1)).ok());
  auto erased = store.Erase("g");
  ASSERT_TRUE(erased.ok());
  EXPECT_TRUE(*erased);
  auto again = store.Erase("g");
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
  EXPECT_FALSE(store.Get("g").ok());
}

TEST(HistoryStoreTest, GroupsSorted) {
  HistoryStore store;
  ASSERT_TRUE(store.Put("zeta", Snapshot({1.0}, 1)).ok());
  ASSERT_TRUE(store.Put("alpha", Snapshot({1.0}, 1)).ok());
  EXPECT_EQ(store.Groups(), (std::vector<std::string>{"alpha", "zeta"}));
}

class FileStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestTempPath("store_test");
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "history.json").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(FileStoreTest, PersistsAcrossReopen) {
  {
    auto store = HistoryStore::Open(path_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Put("shoebox", Snapshot({1.0, 0.25, 0.0}, 42)).ok());
  }
  auto reopened = HistoryStore::Open(path_);
  ASSERT_TRUE(reopened.ok());
  auto snapshot = reopened->Get("shoebox");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->records, (std::vector<double>{1.0, 0.25, 0.0}));
  EXPECT_EQ(snapshot->rounds, 42u);
}

TEST_F(FileStoreTest, OpenMissingFileYieldsEmptyStore) {
  auto store = HistoryStore::Open(path_);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->size(), 0u);
}

TEST_F(FileStoreTest, OpenRejectsCorruptFile) {
  {
    std::ofstream out(path_);
    out << "[1, 2, 3]";
  }
  EXPECT_FALSE(HistoryStore::Open(path_).ok());
  {
    std::ofstream out(path_, std::ios::trunc);
    out << "not json at all";
  }
  EXPECT_FALSE(HistoryStore::Open(path_).ok());
}

TEST_F(FileStoreTest, ERasepersists) {
  {
    auto store = HistoryStore::Open(path_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Put("a", Snapshot({1.0}, 1)).ok());
    ASSERT_TRUE(store->Put("b", Snapshot({0.5}, 2)).ok());
    auto erased = store->Erase("a");
    ASSERT_TRUE(erased.ok());
    EXPECT_TRUE(*erased);
  }
  auto reopened = HistoryStore::Open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(reopened->Get("a").ok());
  EXPECT_TRUE(reopened->Get("b").ok());
}

TEST_F(FileStoreTest, ErasePropagatesFlushFailure) {
  auto store = HistoryStore::Open(path_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("a", Snapshot({1.0}, 1)).ok());
  // Durable writes stage through "<path>.tmp"; a directory squatting on
  // that name makes the flush fail.  Erase used to swallow that error
  // and report success while the file still held the group.
  std::filesystem::create_directory(path_ + ".tmp");
  auto erased = store->Erase("a");
  EXPECT_FALSE(erased.ok());
  std::filesystem::remove_all(path_ + ".tmp");
  // The group is gone from the already-opened store either way; what
  // matters is that the caller learned persistence failed.
}

TEST_F(FileStoreTest, FlushSurvivesReopenAfterPut) {
  // Flush goes through storage::WriteFileDurable (write tmp, fsync,
  // rename, fsync parent dir) — verify the visible contract: the data is
  // on disk under the final name immediately after Put returns.
  auto store = HistoryStore::Open(path_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("durable", Snapshot({0.75}, 3)).ok());
  ASSERT_TRUE(std::filesystem::exists(path_));
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
  auto reopened = HistoryStore::Open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_NEAR(reopened->Get("durable")->records[0], 0.75, 1e-12);
  EXPECT_EQ(reopened->Get("durable")->rounds, 3u);
}

TEST_F(FileStoreTest, MultipleGroups) {
  auto store = HistoryStore::Open(path_);
  ASSERT_TRUE(store.ok());
  for (int g = 0; g < 10; ++g) {
    ASSERT_TRUE(store
                    ->Put("group" + std::to_string(g),
                          Snapshot({g * 0.1}, static_cast<size_t>(g)))
                    .ok());
  }
  auto reopened = HistoryStore::Open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->size(), 10u);
  EXPECT_NEAR(reopened->Get("group7")->records[0], 0.7, 1e-12);
}

}  // namespace
}  // namespace avoc::runtime
