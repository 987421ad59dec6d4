// Seeded corruption soak for the storage engine's decoders.
//
// Every seed builds a small but real store (history puts, trace appends
// across seal boundaries, sometimes a compaction), then mangles one
// on-disk file — truncation, bit flips, or garbage — and reopens.  The
// contract under test is "recovers or fails cleanly": Open may drop the
// corrupted suffix (that is what the CRC framing is for) or return an
// error, but it must never crash, hang, or trip ASan/UBSan.  The chunk
// decoder additionally gets raw fuzz bytes, since a flipped chunk body
// reaches BitReader directly.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "storage/chunk.h"
#include "storage/engine.h"
#include "storage/io.h"
#include "util/rng.h"

namespace avoc::storage {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& tag) {
  return (fs::temp_directory_path() /
          ("avoc_corruption_soak_" + std::to_string(::getpid()) + "_" + tag))
      .string();
}

/// Builds a store with enough variety that every file kind exists.
void Populate(StorageEngine& engine, avoc::Rng& rng) {
  const size_t groups = 1 + rng.UniformInt(4);
  for (size_t g = 0; g < groups; ++g) {
    const std::string name = "g" + std::to_string(g);
    std::vector<double> records;
    const size_t modules = 1 + rng.UniformInt(6);
    for (size_t m = 0; m < modules; ++m) {
      records.push_back(rng.NextDouble());
    }
    HistorySnapshot snapshot =
        core::UpgradeRecordsOnly(records, rng.UniformInt(100));
    snapshot.last_output = rng.NextDouble();
    snapshot.round_index = snapshot.rounds + rng.UniformInt(4);
    ASSERT_TRUE(engine.Put(name, snapshot).ok());

    std::vector<TracePoint> points;
    const size_t n = 1 + rng.UniformInt(60);
    for (size_t i = 0; i < n; ++i) {
      points.push_back(TracePoint{i, rng.NextDouble() * 40.0,
                                  rng.UniformInt(8) != 0});
    }
    ASSERT_TRUE(engine.AppendTrace(name, points).ok());
  }
  if (rng.UniformInt(3) == 0) {
    ASSERT_TRUE(engine.Compact().ok());
  }
}

void CorruptFile(const fs::path& path, avoc::Rng& rng) {
  auto contents = ReadFileToString(path.string());
  ASSERT_TRUE(contents.ok());
  std::string bytes = *std::move(contents);
  switch (rng.UniformInt(4)) {
    case 0:  // truncate somewhere
      bytes.resize(rng.UniformInt(bytes.size() + 1));
      break;
    case 1: {  // flip 1-8 bits
      if (bytes.empty()) return;
      const size_t flips = 1 + rng.UniformInt(8);
      for (size_t i = 0; i < flips; ++i) {
        bytes[rng.UniformInt(bytes.size())] ^=
            static_cast<char>(1u << rng.UniformInt(8));
      }
      break;
    }
    case 2: {  // overwrite a window with garbage
      if (bytes.empty()) return;
      const size_t at = rng.UniformInt(bytes.size());
      const size_t len = 1 + rng.UniformInt(32);
      for (size_t i = at; i < bytes.size() && i < at + len; ++i) {
        bytes[i] = static_cast<char>(rng());
      }
      break;
    }
    default: {  // append garbage (torn write past the real tail)
      const size_t len = 1 + rng.UniformInt(64);
      for (size_t i = 0; i < len; ++i) {
        bytes.push_back(static_cast<char>(rng()));
      }
      break;
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(StorageCorruptionSoakTest, ReopenAfterCorruptionRecoversOrFailsCleanly) {
  size_t recovered = 0;
  size_t rejected = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    avoc::Rng rng(0xC0FFEE ^ (seed * 0x9E3779B97F4A7C15ull));
    const std::string dir = TempDir("reopen");
    fs::remove_all(dir);

    StorageEngineOptions options;
    options.dir = dir;
    options.chunk_max_points = 4 + rng.UniformInt(16);
    {
      auto engine = StorageEngine::Open(options);
      ASSERT_TRUE(engine.ok()) << "seed " << seed;
      Populate(**engine, rng);
    }

    // Pick one store file and mangle it.
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
    ASSERT_FALSE(files.empty()) << "seed " << seed;
    CorruptFile(files[rng.UniformInt(files.size())], rng);

    auto reopened = StorageEngine::Open(options);
    if (reopened.ok()) {
      ++recovered;
      // Whatever survived must still answer queries without faulting.
      for (const std::string& group : (*reopened)->Groups()) {
        EXPECT_TRUE((*reopened)->Get(group).ok()) << "seed " << seed;
      }
      // Corruption can drop any single group entirely, so the query may
      // answer NotFound — it must simply not fault.
      (void)(*reopened)->QueryTraceRange("g0", 0, 1000);
    } else {
      ++rejected;
    }
    fs::remove_all(dir);
  }
  // CRC framing means most single-file corruption is survivable; a
  // mangled snapshot body can legitimately reject the open.  Both
  // outcomes are fine — crashing is not — but if nothing ever recovers
  // the framing itself is broken.
  EXPECT_GT(recovered, 100u) << "recovered=" << recovered
                             << " rejected=" << rejected;
}

TEST(StorageCorruptionSoakTest, ChunkDecoderSurvivesFuzzBytes) {
  avoc::Rng rng(0xFADED);
  std::vector<TracePoint> decoded;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string bytes;
    const size_t len = rng.UniformInt(200);
    bytes.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng()));
    }
    SealedChunk chunk;
    chunk.count = rng.UniformInt(300);
    chunk.body = std::move(bytes);
    // Must return (ok or error), never fault.
    (void)DecodeChunk(chunk, &decoded);
  }
}

TEST(StorageCorruptionSoakTest, ChunkDecoderSurvivesMutatedValidBodies) {
  avoc::Rng rng(0xBEAD);
  std::vector<TracePoint> decoded;
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<TracePoint> points;
    // Up to four segments, so range decodes seek through marks into a
    // mutated body.
    const size_t n = 1 + rng.UniformInt(4 * kChunkSegmentPoints);
    uint64_t round = 0;
    for (size_t i = 0; i < n; ++i) {
      round += rng.UniformInt(3);
      points.push_back(
          TracePoint{round, rng.NextDouble() * 100.0, rng.UniformInt(4) != 0});
    }
    SealedChunk chunk = SealChunk(0, points);
    std::string& body = chunk.body;
    const size_t flips = 1 + rng.UniformInt(4);
    for (size_t i = 0; i < flips && !body.empty(); ++i) {
      body[rng.UniformInt(body.size())] ^=
          static_cast<char>(1u << rng.UniformInt(8));
    }
    // A flipped body may still decode (the flip can land in a value's
    // meaningful bits) or fail; either way it must stay in bounds, and
    // a decode that succeeds holds exactly the header's count.
    if (DecodeChunk(chunk, &decoded).ok()) {
      EXPECT_EQ(decoded.size(), points.size());
    }
    // The seek path keeps the marks SealChunk recorded for the intact
    // body: a range decode fails with ParseError or returns only
    // in-window points.
    for (int w = 0; w < 4; ++w) {
      const uint64_t lo = rng.UniformInt(round + 2);
      const uint64_t hi = lo + rng.UniformInt(300);
      decoded.clear();
      const Status status = DecodeChunkRange(chunk, lo, hi, &decoded);
      if (!status.ok()) {
        EXPECT_EQ(status.code(), ErrorCode::kParseError);
        continue;
      }
      for (const TracePoint& point : decoded) {
        EXPECT_GE(point.round, lo);
        EXPECT_LE(point.round, hi);
      }
    }
  }
}

}  // namespace
}  // namespace avoc::storage
