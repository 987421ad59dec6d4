#include "storage/engine.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "storage/io.h"
#include "storage/wal.h"

namespace avoc::storage {
namespace {

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// A valid state from records and a round count (the records-only
/// upgrade fills the accumulators).
HistorySnapshot Snapshot(const std::vector<double>& records, size_t rounds) {
  return core::UpgradeRecordsOnly(records, rounds);
}

class StorageEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("avoc_engine_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  StorageEngineOptions Options() {
    StorageEngineOptions options;
    options.dir = dir_;
    return options;
  }

  std::string dir_;
};

TEST_F(StorageEngineTest, HistoryPutGetEraseRoundTrip) {
  auto engine = StorageEngine::Open(Options());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Put("shelf1", Snapshot({1.0, 0.5, 0.25}, 7)).ok());
  ASSERT_TRUE((*engine)->Put("shelf2", Snapshot({0.9}, 2)).ok());
  EXPECT_EQ((*engine)->size(), 2u);
  EXPECT_EQ((*engine)->Groups(),
            (std::vector<std::string>{"shelf1", "shelf2"}));
  auto got = (*engine)->Get("shelf1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->records, (std::vector<double>{1.0, 0.5, 0.25}));
  EXPECT_EQ(got->rounds, 7u);
  EXPECT_EQ((*engine)->Get("absent").status().code(), ErrorCode::kNotFound);
  auto erased = (*engine)->Erase("shelf1");
  ASSERT_TRUE(erased.ok());
  EXPECT_TRUE(*erased);
  auto again = (*engine)->Erase("shelf1");
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
  EXPECT_EQ((*engine)->size(), 1u);
}

TEST_F(StorageEngineTest, HistorySurvivesReopen) {
  {
    auto engine = StorageEngine::Open(Options());
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Put("g", Snapshot({0.75, 0.5}, 11)).ok());
    ASSERT_TRUE((*engine)->Erase("doomed").ok());
  }
  auto reopened = StorageEngine::Open(Options());
  ASSERT_TRUE(reopened.ok());
  auto got = (*reopened)->Get("g");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->records, (std::vector<double>{0.75, 0.5}));
  EXPECT_EQ(got->rounds, 11u);
}

TEST_F(StorageEngineTest, TraceAppendAndRangeQuery) {
  auto engine = StorageEngine::Open(Options());
  ASSERT_TRUE(engine.ok());
  std::vector<TracePoint> points;
  for (uint64_t round = 0; round < 100; ++round) {
    points.push_back(
        TracePoint{round, 20.0 + 0.01 * round, round % 7 != 0});
  }
  ASSERT_TRUE((*engine)->AppendTrace("g", points).ok());

  auto all = (*engine)->QueryTraceRange("g", 0, 99);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 100u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ((*all)[i].round, points[i].round);
    EXPECT_EQ((*all)[i].engaged, points[i].engaged);
    EXPECT_EQ(Bits((*all)[i].value), Bits(points[i].value));
  }

  auto window = (*engine)->QueryTraceRange("g", 10, 19);
  ASSERT_TRUE(window.ok());
  ASSERT_EQ(window->size(), 10u);
  EXPECT_EQ(window->front().round, 10u);
  EXPECT_EQ(window->back().round, 19u);

  auto empty = (*engine)->QueryTraceRange("unknown", 0, 99);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_F(StorageEngineTest, TraceSealsChunksAndStillAnswersExactly) {
  auto options = Options();
  options.chunk_max_points = 16;  // force many seals
  auto engine = StorageEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  std::vector<TracePoint> points;
  for (uint64_t round = 0; round < 333; ++round) {
    points.push_back(TracePoint{round, 1.0 + 0.5 * round, true});
  }
  // Append in uneven slices to exercise partial seals.
  size_t at = 0;
  for (size_t slice : {7u, 40u, 1u, 100u, 185u}) {
    ASSERT_TRUE(
        (*engine)
            ->AppendTrace("g", std::span(points).subspan(at, slice))
            .ok());
    at += slice;
  }
  EXPECT_GT((*engine)->stats().sealed_chunks, 10u);
  auto all = (*engine)->QueryTraceRange("g", 0, 1000);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(Bits((*all)[i].value), Bits(points[i].value)) << i;
  }
}

TEST_F(StorageEngineTest, TraceSurvivesReopenAcrossSealBoundary) {
  auto options = Options();
  options.chunk_max_points = 8;
  std::vector<TracePoint> points;
  for (uint64_t round = 0; round < 50; ++round) {
    points.push_back(TracePoint{round, 2.0 * round, round % 2 == 0});
  }
  {
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->AppendTrace("g", points).ok());
  }
  auto reopened = StorageEngine::Open(options);
  ASSERT_TRUE(reopened.ok());
  auto all = (*reopened)->QueryTraceRange("g", 0, 49);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ((*all)[i].round, points[i].round);
    EXPECT_EQ(Bits((*all)[i].value), Bits(points[i].value));
  }
}

// Before a crash the sealed chunks' seek marks come from SealChunk;
// after the reopen they are rebuilt by the load-time decode.  Either way
// every window answers the same points, bit for bit.
TEST_F(StorageEngineTest, RangeQueriesAnswerTheSameAfterCrashAndReopen) {
  auto options = Options();
  options.chunk_max_points = 1000;  // four segments per chunk
  std::vector<TracePoint> points;
  for (uint64_t i = 0; i < 3700; ++i) {
    // Mostly consecutive rounds, some closed late, one NaN payload.
    const uint64_t round = i % 97 == 13 ? i + 50 : i + 400;
    double value = 0.25 * static_cast<double>(i % 301) - 7.0;
    if (i == 2500) {
      const uint64_t nan_bits = 0x7FF8000000000DEF;
      std::memcpy(&value, &nan_bits, sizeof(value));
    }
    points.push_back(TracePoint{round, value, i % 11 != 0});
  }
  std::vector<std::pair<uint64_t, uint64_t>> windows{{0, UINT64_MAX}};
  for (uint64_t lo = 0; lo < 4200; lo += 173) {
    windows.emplace_back(lo, lo + 255);
    windows.emplace_back(lo, lo);
  }
  const auto query_all = [&](const StorageEngine& engine) {
    std::vector<std::vector<TracePoint>> answers;
    for (const auto& [lo, hi] : windows) {
      auto got = engine.QueryTraceRange("g", lo, hi);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      answers.push_back(got.ok() ? *got : std::vector<TracePoint>{});
    }
    return answers;
  };

  std::vector<std::vector<TracePoint>> before;
  {
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    for (size_t at = 0; at < points.size(); at += 250) {
      const size_t n = std::min<size_t>(250, points.size() - at);
      ASSERT_TRUE(
          (*engine)->AppendTrace("g", std::span(points).subspan(at, n)).ok());
    }
    ASSERT_EQ((*engine)->stats().sealed_chunks, 3u);
    before = query_all(**engine);
    (void)(*engine)->SimulateCrash();
  }
  auto reopened = StorageEngine::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ((*reopened)->stats().sealed_chunks, 3u);
  const std::vector<std::vector<TracePoint>> after = query_all(**reopened);

  ASSERT_EQ(before.size(), after.size());
  for (size_t w = 0; w < windows.size(); ++w) {
    const auto [lo, hi] = windows[w];
    SCOPED_TRACE(testing::Message() << "window [" << lo << ", " << hi << "]");
    std::vector<TracePoint> want;
    for (const TracePoint& point : points) {
      if (point.round >= lo && point.round <= hi) want.push_back(point);
    }
    ASSERT_EQ(before[w].size(), want.size());
    ASSERT_EQ(after[w].size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(before[w][i].round, want[i].round);
      EXPECT_EQ(after[w][i].round, want[i].round);
      EXPECT_EQ(after[w][i].engaged, want[i].engaged);
      EXPECT_EQ(Bits(before[w][i].value), Bits(want[i].value));
      EXPECT_EQ(Bits(after[w][i].value), Bits(want[i].value));
    }
  }
}

// Points [from, to) of a drifting trace, three rounds apart, every
// fifth one not engaged.
std::vector<TracePoint> DriftPoints(uint64_t from, uint64_t to) {
  std::vector<TracePoint> points;
  for (uint64_t i = from; i < to; ++i) {
    points.push_back(TracePoint{3 * i + 1, 0.5 * i, i % 5 != 0});
  }
  return points;
}

// Offsets of the entries of a chunks file holding group "g" only.
// Entry layout: magic, group name, base_index, count, first_round,
// last_round (u64 each), body length and CRC (u32 each), body.
std::vector<size_t> ChunkEntryOffsets(const std::string& chunks) {
  std::string prefix = "AVCK";
  AppendBytes(prefix, "g");
  std::vector<size_t> offsets;
  for (size_t pos = 0; pos < chunks.size();) {
    offsets.push_back(pos);
    ByteReader reader(
        std::string_view(chunks).substr(pos + prefix.size() + 32));
    auto body_len = reader.ReadU32();
    if (!body_len.ok()) break;
    pos += prefix.size() + 32 + 8 + *body_len;
  }
  return offsets;
}
constexpr size_t kEntryHeaderOffset = 4 + 4 + 1;  // magic, name length, "g"

// Compares every 30-round window of group "g" below `max_round` with
// `want`.  A window may instead fail with ParseError; returns how many
// did.
size_t CheckWindows(const StorageEngine& engine,
                    const std::vector<TracePoint>& want, uint64_t max_round) {
  size_t failed = 0;
  for (uint64_t lo = 0; lo < max_round; lo += 20) {
    const uint64_t hi = lo + 29;
    auto got = engine.QueryTraceRange("g", lo, hi);
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), ErrorCode::kParseError);
      ++failed;
      continue;
    }
    std::vector<TracePoint> expected;
    for (const TracePoint& point : want) {
      if (point.round >= lo && point.round <= hi) expected.push_back(point);
    }
    EXPECT_EQ(got->size(), expected.size()) << "window " << lo;
    if (got->size() != expected.size()) continue;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*got)[i].round, expected[i].round);
      EXPECT_EQ((*got)[i].engaged, expected[i].engaged);
      EXPECT_EQ(Bits((*got)[i].value), Bits(expected[i].value));
    }
  }
  return failed;
}

// The chunks file CRCs each entry's body but not its header.  A flipped
// header field must be caught: either reopen truncates the file (at that
// entry, or at the next when a raised base_index still fits below the
// snapshot's tail base) or a query over it fails with ParseError.
// Without compaction the WAL then restores every truncated point; after
// one the truncated chunks are lost, but nothing else may differ, and
// the store must keep sealing, reopening and compacting cleanly.
void CheckHeaderFlips(const std::string& dir, bool compacted) {
  StorageEngineOptions options;
  options.dir = dir;
  options.chunk_max_points = 16;
  const std::vector<TracePoint> points = DriftPoints(0, 100);  // 6 chunks
  {
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->AppendTrace("g", points).ok());
    ASSERT_EQ((*engine)->stats().sealed_chunks, 6u);
    if (compacted) {
      ASSERT_TRUE((*engine)->Compact().ok());
    }
  }
  const std::string pristine = dir + "_pristine";
  std::filesystem::remove_all(pristine);
  std::filesystem::copy(dir, pristine);
  auto chunks = ReadFileToString(dir + "/chunks");
  ASSERT_TRUE(chunks.ok());
  const std::vector<size_t> offsets = ChunkEntryOffsets(*chunks);
  ASSERT_EQ(offsets.size(), 6u);
  const std::vector<TracePoint> later = DriftPoints(100, 140);

  const char* const kFields[] = {"base_index", "count", "first_round",
                                 "last_round"};
  for (const size_t entry : {size_t{0}, size_t{2}, size_t{5}}) {
    for (size_t field = 0; field < 4; ++field) {
      for (const unsigned bit : {0u, 3u, 40u}) {
        SCOPED_TRACE(::testing::Message() << "entry " << entry << " "
                                          << kFields[field] << " bit " << bit);
        std::filesystem::remove_all(dir);
        std::filesystem::copy(pristine, dir);
        std::string mangled = *chunks;
        mangled[offsets[entry] + kEntryHeaderOffset + 8 * field + bit / 8] ^=
            static_cast<char>(1u << (bit % 8));
        ASSERT_TRUE(WriteFileDurable(dir + "/chunks", mangled).ok());

        std::vector<TracePoint> want;
        {
          auto engine = StorageEngine::Open(options);
          ASSERT_TRUE(engine.ok()) << engine.status().ToString();
          const StorageStats stats = (*engine)->stats();
          const size_t kept = compacted ? stats.sealed_chunks * 16 : 96;
          EXPECT_TRUE(kept == 96 || stats.recovered_truncated_tail);
          for (size_t i = 0; i < points.size(); ++i) {
            if (i < kept || i >= 96) want.push_back(points[i]);
          }
          const size_t failed = CheckWindows(**engine, want, 320);
          EXPECT_TRUE(stats.recovered_truncated_tail || failed > 0);
          if (failed > 0) continue;
          // 4 tail points + 40 more seal two chunks past the recovered run.
          ASSERT_TRUE((*engine)->AppendTrace("g", later).ok());
        }
        want.insert(want.end(), later.begin(), later.end());
        for (const bool compact : {false, true}) {
          auto engine = StorageEngine::Open(options);
          ASSERT_TRUE(engine.ok()) << engine.status().ToString();
          EXPECT_FALSE((*engine)->stats().recovered_truncated_tail);
          EXPECT_EQ(CheckWindows(**engine, want, 440), 0u);
          if (compact) {
            ASSERT_TRUE((*engine)->Compact().ok());
          }
        }
        auto engine = StorageEngine::Open(options);
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();
        EXPECT_FALSE((*engine)->stats().recovered_truncated_tail);
        EXPECT_EQ(CheckWindows(**engine, want, 440), 0u);
      }
    }
  }
  std::filesystem::remove_all(pristine);
}

TEST_F(StorageEngineTest, FlippedChunkHeaderFieldsNeverChangeAnswers) {
  CheckHeaderFlips(dir_, /*compacted=*/false);
}

TEST_F(StorageEngineTest, FlippedChunkHeaderFieldsAfterCompaction) {
  CheckHeaderFlips(dir_, /*compacted=*/true);
}

// A corrupt entry dropped after a compaction loses its points for good,
// since the compaction retired their WAL.  The tail that follows must be
// renumbered so that chunks sealed later still load at every reopen,
// before and after the next compaction.
TEST_F(StorageEngineTest, SealsAfterADroppedCompactedEntrySurviveReopen) {
  auto options = Options();
  options.chunk_max_points = 16;
  const std::vector<TracePoint> points = DriftPoints(0, 100);
  {
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->AppendTrace("g", points).ok());
    ASSERT_TRUE((*engine)->Compact().ok());
  }
  auto chunks = ReadFileToString(dir_ + "/chunks");
  ASSERT_TRUE(chunks.ok());
  const std::vector<size_t> offsets = ChunkEntryOffsets(*chunks);
  ASSERT_EQ(offsets.size(), 6u);
  (*chunks)[offsets[3] - 1] ^= 0x10;  // last body byte of entry 2
  ASSERT_TRUE(WriteFileDurable(dir_ + "/chunks", *chunks).ok());

  std::vector<TracePoint> want(points.begin(), points.begin() + 32);
  want.insert(want.end(), points.begin() + 96, points.end());
  const std::vector<TracePoint> later = DriftPoints(100, 140);
  {
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    EXPECT_TRUE((*engine)->stats().recovered_truncated_tail);
    EXPECT_EQ((*engine)->stats().sealed_chunks, 2u);
    EXPECT_EQ(CheckWindows(**engine, want, 320), 0u);
    ASSERT_TRUE((*engine)->AppendTrace("g", later).ok());
    EXPECT_EQ((*engine)->stats().sealed_chunks, 4u);
  }
  want.insert(want.end(), later.begin(), later.end());
  for (int reopen = 0; reopen < 3; ++reopen) {
    SCOPED_TRACE(::testing::Message() << "reopen " << reopen);
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    EXPECT_FALSE((*engine)->stats().recovered_truncated_tail);
    EXPECT_EQ((*engine)->stats().sealed_chunks, 4u);
    EXPECT_EQ(CheckWindows(**engine, want, 440), 0u);
    ASSERT_TRUE((*engine)->Compact().ok());
  }
}

// A sealed run may skip ahead below the snapshot's tail base: a store
// whose gap was never renumbered must still load every entry.
TEST_F(StorageEngineTest, SealedRunMaySkipAheadBelowTheSnapshotBase) {
  auto options = Options();
  options.chunk_max_points = 16;
  const std::vector<TracePoint> points = DriftPoints(0, 200);  // 12 chunks
  {
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->AppendTrace("g", points).ok());
    ASSERT_TRUE((*engine)->Compact().ok());
  }
  auto chunks = ReadFileToString(dir_ + "/chunks");
  ASSERT_TRUE(chunks.ok());
  const std::vector<size_t> offsets = ChunkEntryOffsets(*chunks);
  ASSERT_EQ(offsets.size(), 12u);
  std::string gapped = chunks->substr(0, offsets[5]);  // cut entries 5..9
  gapped.append(chunks->substr(offsets[10]));
  ASSERT_TRUE(WriteFileDurable(dir_ + "/chunks", gapped).ok());

  std::vector<TracePoint> want(points.begin(), points.begin() + 80);
  want.insert(want.end(), points.begin() + 160, points.end());
  for (int reopen = 0; reopen < 2; ++reopen) {
    SCOPED_TRACE(::testing::Message() << "reopen " << reopen);
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    EXPECT_FALSE((*engine)->stats().recovered_truncated_tail);
    EXPECT_EQ((*engine)->stats().sealed_chunks, 7u + reopen);
    EXPECT_EQ(CheckWindows(**engine, want, 640), 0u);
    if (reopen == 0) {
      const std::vector<TracePoint> later = DriftPoints(200, 220);
      ASSERT_TRUE((*engine)->AppendTrace("g", later).ok());
      want.insert(want.end(), later.begin(), later.end());
    }
  }
}

TEST_F(StorageEngineTest, CompactionRotatesWalAndKeepsState) {
  auto options = Options();
  options.chunk_max_points = 8;
  auto engine = StorageEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Put("g", Snapshot({0.5}, 3)).ok());
  std::vector<TracePoint> points;
  for (uint64_t round = 0; round < 20; ++round) {
    points.push_back(TracePoint{round, 1.0 + round, true});
  }
  ASSERT_TRUE((*engine)->AppendTrace("g", points).ok());
  const auto before = (*engine)->stats();
  ASSERT_TRUE((*engine)->Compact().ok());
  const auto after = (*engine)->stats();
  EXPECT_EQ(after.compactions, before.compactions + 1);
  EXPECT_GT(after.snapshot_seq, before.snapshot_seq);
  EXPECT_LT(after.wal_bytes, before.wal_bytes);

  // State is intact in memory and across a reopen of the compacted dir.
  EXPECT_TRUE((*engine)->Get("g").ok());
  auto reopened = StorageEngine::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Get("g")->rounds, 3u);
  auto all = (*reopened)->QueryTraceRange("g", 0, 19);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 20u);
}

TEST_F(StorageEngineTest, AutoCompactionTriggersOnWalGrowth) {
  auto options = Options();
  options.compact_wal_bytes = 4096;
  auto engine = StorageEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        (*engine)
            ->Put("g" + std::to_string(i % 10), Snapshot({0.1, 0.2, 0.3}, 1))
            .ok());
  }
  EXPECT_GT((*engine)->stats().compactions, 0u);
}

// An auto-compaction retires the WAL that holds the record which
// triggered it, so its snapshot must already hold that record: every
// put, erase and trace append survives a clean reopen.
TEST_F(StorageEngineTest, AutoCompactionKeepsTheRecordThatTriggeredIt) {
  auto options = Options();
  options.compact_wal_bytes = 1;  // every record compacts
  options.chunk_max_points = 8;
  const std::vector<TracePoint> points = DriftPoints(0, 30);
  {
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Put("g", Snapshot({0.5}, 1)).ok());
    ASSERT_TRUE((*engine)->Put("erased", Snapshot({0.25}, 1)).ok());
    for (size_t at = 0; at < points.size(); at += 3) {
      ASSERT_TRUE(
          (*engine)->AppendTrace("g", std::span(points).subspan(at, 3)).ok());
    }
    ASSERT_TRUE(*(*engine)->Erase("erased"));
    ASSERT_TRUE((*engine)->Put("g", Snapshot({0.75}, 2)).ok());
    EXPECT_GT((*engine)->stats().compactions, 10u);
  }
  auto reopened = StorageEngine::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Groups(), std::vector<std::string>{"g"});
  auto history = (*reopened)->Get("g");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->rounds, 2u);
  EXPECT_EQ(CheckWindows(**reopened, points, 3 * 30 + 1), 0u);
}

TEST_F(StorageEngineTest, MetricsRegisteredWhenRegistryProvided) {
  obs::Registry registry;
  auto options = Options();
  options.registry = &registry;
  auto engine = StorageEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Put("g", Snapshot({1.0}, 1)).ok());
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("avoc_storage_wal_records_total"), std::string::npos);
  EXPECT_NE(text.find("avoc_storage_fsyncs_total"), std::string::npos);
  EXPECT_NE(text.find("avoc_storage_groups"), std::string::npos);
}

TEST_F(StorageEngineTest, SyncEveryCommitByDefault) {
  auto engine = StorageEngine::Open(Options());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Put("g", Snapshot({1.0}, 1)).ok());
  const auto stats = (*engine)->stats();
  EXPECT_EQ(stats.wal_synced_bytes, stats.wal_bytes);
}

TEST_F(StorageEngineTest, SimulateCrashLosesNothingWhenEverySynced) {
  StorageEngine::CrashState crash;
  {
    auto engine = StorageEngine::Open(Options());
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Put("g", Snapshot({0.25}, 5)).ok());
    ASSERT_TRUE(
        (*engine)
            ->AppendTrace("g", std::vector<TracePoint>{{0, 1.5, true}})
            .ok());
    crash = (*engine)->SimulateCrash();
    // Dead engine rejects every call.
    EXPECT_FALSE((*engine)->Put("g", Snapshot({1.0}, 1)).ok());
    EXPECT_FALSE((*engine)->Get("g").ok());
  }
  EXPECT_EQ(crash.wal_synced_bytes, crash.wal_bytes);  // sync-every-commit
  auto reopened = StorageEngine::Open(Options());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Get("g")->rounds, 5u);
  auto trace = (*reopened)->QueryTraceRange("g", 0, 0);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace->size(), 1u);
  EXPECT_EQ(Bits(trace->front().value), Bits(1.5));
}

TEST_F(StorageEngineTest, SimulateCrashUnsyncedTailMayVanish) {
  auto options = Options();
  options.wal_sync_every_bytes = 1u << 20;  // nothing syncs on its own
  StorageEngine::CrashState crash;
  {
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Put("synced", Snapshot({1.0}, 1)).ok());
    ASSERT_TRUE((*engine)->Sync().ok());  // commit barrier
    ASSERT_TRUE((*engine)->Put("unsynced", Snapshot({2.0}, 2)).ok());
    crash = (*engine)->SimulateCrash();
  }
  ASSERT_LT(crash.wal_synced_bytes, crash.wal_bytes);
  // Model the worst crash: only the synced prefix reached the platter.
  std::filesystem::resize_file(crash.wal_path, crash.wal_synced_bytes);
  auto reopened = StorageEngine::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->Get("synced").ok());
  EXPECT_EQ((*reopened)->Get("unsynced").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(StorageEngineTest, CompressionRatioReportedOnSealedTraces) {
  auto options = Options();
  options.chunk_max_points = 64;
  auto engine = StorageEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  std::vector<TracePoint> points;
  for (uint64_t round = 0; round < 640; ++round) {
    points.push_back(TracePoint{round, 20.0, true});  // maximally steady
  }
  ASSERT_TRUE((*engine)->AppendTrace("g", points).ok());
  const auto stats = (*engine)->stats();
  ASSERT_GT(stats.sealed_chunks, 0u);
  EXPECT_GT(stats.compression_ratio(), 4.0);
}

// A seal appends its entry without an fsync; compaction syncs the
// chunks file, then writes its snapshot durably (file + directory).
// Every one of those fsyncs reaches stats().fsyncs.
TEST_F(StorageEngineTest, CompactionCountsEveryFsync) {
  auto options = Options();
  options.chunk_max_points = 8;
  auto engine = StorageEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  const uint64_t opened = (*engine)->stats().fsyncs;
  ASSERT_TRUE((*engine)->AppendTrace("g", DriftPoints(0, 20)).ok());
  const uint64_t appended = (*engine)->stats().fsyncs;
  EXPECT_EQ(appended - opened, 1u);  // the WAL record; the seals sync nothing

  ASSERT_TRUE((*engine)->Compact().ok());  // unsynced chunk bytes
  const uint64_t first = (*engine)->stats().fsyncs;
  EXPECT_EQ(first - appended, 3u);
  ASSERT_TRUE((*engine)->Compact().ok());  // nothing left to sync
  EXPECT_EQ((*engine)->stats().fsyncs - first, 2u);
}

// A crash loses the chunk entries sealed since the last sync; the WAL
// still holds their points, so reopening loses nothing.
TEST_F(StorageEngineTest, UnsyncedChunkEntriesComeBackFromTheWal) {
  auto options = Options();
  options.chunk_max_points = 8;
  const std::vector<TracePoint> points = DriftPoints(0, 30);
  StorageEngine::CrashState crash;
  {
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->AppendTrace("g", points).ok());
    ASSERT_EQ((*engine)->stats().sealed_chunks, 3u);
    crash = (*engine)->SimulateCrash();
  }
  EXPECT_EQ(crash.chunks_path, dir_ + "/chunks");
  EXPECT_EQ(crash.chunks_synced_bytes, 0u);
  EXPECT_GT(crash.chunks_bytes, 0u);
  std::filesystem::resize_file(crash.chunks_path, crash.chunks_synced_bytes);
  auto reopened = StorageEngine::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(CheckWindows(**reopened, points, 3 * 30 + 1), 0u);
}

// After a process crash the chunk entries sealed since the last sync
// may sit only in the page cache.  A reopened store must not take them
// for durable: its first compaction syncs them before its snapshot
// retires the WAL that also holds their points.
TEST_F(StorageEngineTest, ReopenedChunkBytesAreSyncedBeforeTheNextSnapshot) {
  auto options = Options();
  options.chunk_max_points = 8;
  {
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->AppendTrace("g", DriftPoints(0, 30)).ok());
    (void)(*engine)->SimulateCrash();  // the process dies, the disk stays
  }
  auto reopened = StorageEngine::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ((*reopened)->stats().sealed_chunks, 3u);
  const uint64_t before = (*reopened)->stats().fsyncs;
  ASSERT_TRUE((*reopened)->Compact().ok());
  EXPECT_EQ((*reopened)->stats().fsyncs - before, 3u);
  const StorageEngine::CrashState crash = (*reopened)->SimulateCrash();
  EXPECT_GT(crash.chunks_bytes, 0u);
  EXPECT_EQ(crash.chunks_synced_bytes, crash.chunks_bytes);
}

// Compaction retires the WAL that holds the sealed points, so it must
// sync the chunks file first: cutting that file to its synced size
// after a compaction loses nothing.
TEST_F(StorageEngineTest, CompactionSyncsTheChunksItsSnapshotDependsOn) {
  auto options = Options();
  options.chunk_max_points = 8;
  const std::vector<TracePoint> points = DriftPoints(0, 30);
  StorageEngine::CrashState crash;
  {
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->AppendTrace("g", points).ok());
    ASSERT_EQ((*engine)->stats().sealed_chunks, 3u);
    ASSERT_TRUE((*engine)->Compact().ok());
    crash = (*engine)->SimulateCrash();
  }
  EXPECT_EQ(crash.chunks_synced_bytes, crash.chunks_bytes);
  std::filesystem::resize_file(crash.chunks_path, crash.chunks_synced_bytes);
  auto reopened = StorageEngine::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().sealed_chunks, 3u);
  EXPECT_EQ(CheckWindows(**reopened, points, 3 * 30 + 1), 0u);
}

// Sync() is a commit barrier for both append-only files.
TEST_F(StorageEngineTest, SyncCoversTheChunksFile) {
  auto options = Options();
  options.chunk_max_points = 8;
  options.wal_sync_every_bytes = 1u << 20;
  auto engine = StorageEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->AppendTrace("g", DriftPoints(0, 20)).ok());
  ASSERT_TRUE((*engine)->Sync().ok());
  const StorageEngine::CrashState crash = (*engine)->SimulateCrash();
  EXPECT_EQ(crash.wal_synced_bytes, crash.wal_bytes);
  EXPECT_GT(crash.chunks_bytes, 0u);
  EXPECT_EQ(crash.chunks_synced_bytes, crash.chunks_bytes);
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    hex.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    hex.push_back(kDigits[static_cast<uint8_t>(c) & 0xF]);
  }
  return hex;
}

double FromBits(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// The chunks entry the golden calls below seal: "AVCK", group g,
// base_index 0, count 4, rounds 10..14, body length 46, body CRC, Gorilla
// body.  Format version 2 left the chunks file unchanged.
constexpr const char* kGoldenChunks =
    "4156434b" "01000000" "67" "0000000000000000" "0400000000000000"
    "0a00000000000000" "0e00000000000000" "2e000000" "5675d256"
    "000000000000000a7ff8000000000defc0b03ffff8000000000def2fff00000000"
    "00000c0a800000000000000080";

// A store the same calls wrote in format version 1, before the full group
// state was persisted: its WAL (HISTORY_PUT records hold records only)
// and the snapshot a compaction then wrote.
constexpr const char* kVersionOneWal =
    "36000000" "c7a9bfe1" "01" "01000000" "67" "0700000000000000"
    "0400000000000000" "000000000000f03f" "ef0d00000000f87f"
    "0000000000000080" "000000000000f07f"
    "26000000" "e16ca810" "01" "01000000" "68" "0200000000000000"
    "0200000000000000" "000000000000f0ff" "000000000000e03f"
    "06000000" "72c00382" "02" "01000000" "68"
    "49000000" "01d42caa" "03" "01000000" "67" "0000000000000000"
    "0300000000000000" "0a00000000000000" "ef0d00000000f87f" "01"
    "0b00000000000000" "0000000000000080" "00" "0c00000000000000"
    "000000000000f07f" "01"
    "38000000" "a40c9eeb" "03" "01000000" "67" "0300000000000000"
    "0200000000000000" "0e00000000000000" "000000000000f0ff" "01"
    "0f00000000000000" "000000000000f43f" "01";
constexpr const char* kVersionOneSnapshot =
    "4156534e" "01000000" "56cacf6e"
    "0100000000000000" "01000000" "67" "0700000000000000"
    "0400000000000000" "000000000000f03f" "ef0d00000000f87f"
    "0000000000000080" "000000000000f07f"
    "0100000000000000" "01000000" "67" "0400000000000000"
    "0100000000000000" "0f00000000000000" "000000000000f43f" "01";

std::string Unhex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

// Pins the on-disk bytes of every file kind: the WAL's three written
// record types, one chunks entry and a snapshot, over NaN payloads, both
// infinities, -0.0 and points that were not engaged.
TEST_F(StorageEngineTest, GoldenBytesOfWalChunksAndSnapshot) {
  auto options = Options();
  options.chunk_max_points = 4;
  options.compact_wal_bytes = 0;
  const double nan = FromBits(0x7FF8000000000DEFull);
  const double inf = std::numeric_limits<double>::infinity();
  HistorySnapshot g = Snapshot({1.0, nan, -0.0, inf}, 7);
  g.agreement_sums = {7.0, nan, -0.0, -inf};
  g.observations = {7, 0, 3, UINT64_MAX};
  g.last_output = -0.0;
  g.round_index = 9;
  auto engine = StorageEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Put("g", g).ok());
  ASSERT_TRUE((*engine)->Put("h", Snapshot({-inf, 0.5}, 2)).ok());
  ASSERT_TRUE(*(*engine)->Erase("h"));
  ASSERT_TRUE((*engine)
                  ->AppendTrace("g", std::vector<TracePoint>{{10, nan, true},
                                                             {11, -0.0, false},
                                                             {12, inf, true}})
                  .ok());
  ASSERT_TRUE((*engine)
                  ->AppendTrace("g", std::vector<TracePoint>{{14, -inf, true},
                                                             {15, 1.25, true}})
                  .ok());
  ASSERT_EQ((*engine)->stats().sealed_chunks, 1u);

  auto wal = ReadFileToString(dir_ + "/wal-000001");
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(Hex(*wal),
      // STATE_PUT g: rounds 7, records 1.0, NaN(0xDEF), -0.0, +inf
      "87000000" "77ff5fec" "04" "01000000" "67" "0700000000000000"
      "0400000000000000" "000000000000f03f" "ef0d00000000f87f"
      "0000000000000080" "000000000000f07f"
      // agreement sums 7.0, NaN(0xDEF), -0.0, -inf
      "0000000000001c40" "ef0d00000000f87f" "0000000000000080"
      "000000000000f0ff"
      // observations 7, 0, 3, 2^64-1; last output -0.0; round_index 9
      "0700000000000000" "0000000000000000" "0300000000000000"
      "ffffffffffffffff" "01" "0000000000000080" "0900000000000000"
      // STATE_PUT h: rounds 2, records -inf, 0.5, sums 0, 0.5,
      // observations 2, 2, no last output, round_index 0
      "57000000" "6fc05720" "04" "01000000" "68" "0200000000000000"
      "0200000000000000" "000000000000f0ff" "000000000000e03f"
      "0000000000000000" "000000000000e03f" "0200000000000000"
      "0200000000000000" "00" "0000000000000000" "0000000000000000"
      // HISTORY_ERASE h
      "06000000" "72c00382" "02" "01000000" "68"
      // TRACE_APPEND g from index 0: (10, NaN, 1) (11, -0.0, 0) (12, +inf, 1)
      "49000000" "01d42caa" "03" "01000000" "67" "0000000000000000"
      "0300000000000000" "0a00000000000000" "ef0d00000000f87f" "01"
      "0b00000000000000" "0000000000000080" "00" "0c00000000000000"
      "000000000000f07f" "01"
      // TRACE_APPEND g from index 3: (14, -inf, 1) (15, 1.25, 1)
      "38000000" "a40c9eeb" "03" "01000000" "67" "0300000000000000"
      "0200000000000000" "0e00000000000000" "000000000000f0ff" "01"
      "0f00000000000000" "000000000000f43f" "01");
  auto chunks = ReadFileToString(dir_ + "/chunks");
  ASSERT_TRUE(chunks.ok());
  EXPECT_EQ(Hex(*chunks), kGoldenChunks);

  ASSERT_TRUE((*engine)->Compact().ok());
  auto snapshot = ReadFileToString(dir_ + "/snap-000002");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(Hex(*snapshot),
      // "AVSN", version 2, body CRC
      "4156534e" "02000000" "80856a03"
      // one history: g and its state, as in the STATE_PUT record
      "0100000000000000" "01000000" "67" "0700000000000000"
      "0400000000000000" "000000000000f03f" "ef0d00000000f87f"
      "0000000000000080" "000000000000f07f" "0000000000001c40"
      "ef0d00000000f87f" "0000000000000080" "000000000000f0ff"
      "0700000000000000" "0000000000000000" "0300000000000000"
      "ffffffffffffffff" "01" "0000000000000080" "0900000000000000"
      // one trace tail: g, tail_base 4, one point (15, 1.25, 1)
      "0100000000000000" "01000000" "67" "0400000000000000"
      "0100000000000000" "0f00000000000000" "000000000000f43f" "01");
  auto rotated = ReadFileToString(dir_ + "/wal-000002");
  ASSERT_TRUE(rotated.ok());
  EXPECT_TRUE(rotated->empty());
}

// A store written in format version 1 opens, its Get answers records
// and rounds bit-identically to what was written (the rest of the state
// is the records-only upgrade), its traces answer unchanged, and it takes
// version-2 records on top.  Once from the WAL alone, once from the
// compacted snapshot, which must not be skipped as corrupt.
TEST_F(StorageEngineTest, VersionOneStoreOpensAndAnswersIdentically) {
  const double nan = FromBits(0x7FF8000000000DEFull);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> records = {1.0, nan, -0.0, inf};
  const HistorySnapshot upgraded = core::UpgradeRecordsOnly(records, 7);
  for (const bool compacted : {false, true}) {
    SCOPED_TRACE(compacted ? "snapshot" : "wal");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    auto write = [&](const std::string& name, std::string_view hex) {
      ASSERT_TRUE(WriteFileDurable(dir_ + "/" + name, Unhex(hex)).ok());
    };
    write("chunks", kGoldenChunks);
    if (compacted) {
      write("snap-000002", kVersionOneSnapshot);
      write("wal-000002", "");
    } else {
      write("wal-000001", kVersionOneWal);
    }
    auto options = Options();
    options.chunk_max_points = 4;
    options.compact_wal_bytes = 0;
    {
      auto engine = StorageEngine::Open(options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_FALSE((*engine)->stats().recovered_truncated_tail);
      EXPECT_EQ((*engine)->stats().snapshot_seq, compacted ? 2u : 1u);
      EXPECT_EQ((*engine)->Groups(), std::vector<std::string>{"g"});
      auto got = (*engine)->Get("g");
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->rounds, 7u);
      ASSERT_EQ(got->records.size(), records.size());
      ASSERT_EQ(got->agreement_sums.size(), records.size());
      for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(Bits(got->records[i]), Bits(records[i])) << i;
        EXPECT_EQ(Bits(got->agreement_sums[i]),
                  Bits(upgraded.agreement_sums[i]))
            << i;
      }
      EXPECT_EQ(got->observations, upgraded.observations);
      EXPECT_FALSE(got->last_output.has_value());
      EXPECT_EQ(got->round_index, 0u);
      auto trace = (*engine)->QueryTraceRange("g", 0, 100);
      ASSERT_TRUE(trace.ok());
      ASSERT_EQ(trace->size(), 5u);
      EXPECT_EQ(Bits((*trace)[0].value), Bits(nan));
      EXPECT_EQ(Bits((*trace)[4].value), Bits(1.25));

      HistorySnapshot next = *got;
      next.rounds = 8;
      next.last_output = 0.5;
      ASSERT_TRUE((*engine)->Put("g", next).ok());
    }
    auto reopened = StorageEngine::Open(options);
    ASSERT_TRUE(reopened.ok());
    auto got = (*reopened)->Get("g");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->rounds, 8u);
    EXPECT_EQ(got->last_output, std::optional<double>(0.5));
    EXPECT_EQ(Bits(got->records[1]), Bits(nan));
  }
}

// A TRACE_APPEND whose base_index lies past the group's next index
// cannot be placed without renumbering its points.  Replay stops there
// as at a torn tail: the record and everything after it are dropped, the
// log is cut, and the next append continues the applied prefix.
class WalReplayGapTest : public StorageEngineTest {};

std::string TraceAppendPayload(uint64_t base_index,
                               std::span<const TracePoint> points) {
  std::string payload;
  AppendBytes(payload, "g");
  AppendU64(payload, base_index);
  AppendU64(payload, points.size());
  for (const TracePoint& point : points) {
    AppendU64(payload, point.round);
    AppendF64(payload, point.value);
    AppendU8(payload, point.engaged ? 1 : 0);
  }
  return payload;
}

TEST_F(WalReplayGapTest, GapStopsReplayLikeATornTail) {
  std::filesystem::create_directories(dir_);
  const std::string wal_path = dir_ + "/wal-000001";
  const std::vector<TracePoint> first = {{0, 1.0, true}, {1, 2.0, true}};
  const std::vector<TracePoint> gap = {{9, 9.0, true}};
  uint64_t applied_bytes = 0;
  {
    auto writer = WalWriter::Open(wal_path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer
                    ->Append(WalRecordType::kTraceAppend,
                             TraceAppendPayload(0, first))
                    .ok());
    applied_bytes = writer->bytes();
    // Next index is 2; this record claims index 5.
    ASSERT_TRUE(writer
                    ->Append(WalRecordType::kTraceAppend,
                             TraceAppendPayload(5, gap))
                    .ok());
    // A later record the replay must not apply either.
    std::string put;
    AppendBytes(put, "late");
    AppendU64(put, 1);  // rounds
    AppendU64(put, 1);  // one record
    AppendF64(put, 0.5);
    ASSERT_TRUE(writer->Append(WalRecordType::kHistoryPut, put).ok());
  }
  auto options = Options();
  options.compact_wal_bytes = 0;
  {
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_TRUE((*engine)->stats().recovered_truncated_tail);
    auto trace = (*engine)->QueryTraceRange("g", 0, 100);
    ASSERT_TRUE(trace.ok());
    ASSERT_EQ(trace->size(), 2u);
    EXPECT_EQ((*trace)[1].round, 1u);
    EXPECT_FALSE((*engine)->Get("late").ok());
    EXPECT_EQ((*engine)->stats().wal_bytes, applied_bytes);
    ASSERT_TRUE((*engine)
                    ->AppendTrace("g", std::vector<TracePoint>{{2, 3.0, true}})
                    .ok());
  }
  auto reopened = StorageEngine::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->stats().recovered_truncated_tail);
  auto trace = (*reopened)->QueryTraceRange("g", 0, 100);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace->size(), 3u);
  EXPECT_EQ((*trace)[2].round, 2u);
  EXPECT_EQ((*trace)[2].value, 3.0);
}

TEST_F(StorageEngineTest, OpenRejectsEmptyDir) {
  StorageEngineOptions options;
  EXPECT_FALSE(StorageEngine::Open(options).ok());
}

}  // namespace
}  // namespace avoc::storage
