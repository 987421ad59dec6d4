#include "storage/wal.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "storage/io.h"
#include "util/rng.h"

namespace avoc::storage {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("avoc_wal_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "wal-000001").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(WalTest, AppendAndReadBack) {
  {
    auto writer = WalWriter::Open(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(WalRecordType::kHistoryPut, "alpha").ok());
    ASSERT_TRUE(writer->Append(WalRecordType::kHistoryErase, "beta").ok());
    ASSERT_TRUE(writer->Append(WalRecordType::kTraceAppend, "").ok());
    EXPECT_EQ(writer->records(), 3u);
  }
  auto replay = ReadWal(path_);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay->truncated_tail);
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->records[0].type, WalRecordType::kHistoryPut);
  EXPECT_EQ(replay->records[0].payload, "alpha");
  EXPECT_EQ(replay->records[1].type, WalRecordType::kHistoryErase);
  EXPECT_EQ(replay->records[1].payload, "beta");
  EXPECT_EQ(replay->records[2].type, WalRecordType::kTraceAppend);
  EXPECT_TRUE(replay->records[2].payload.empty());
}

TEST_F(WalTest, MissingFileReplaysEmpty) {
  auto replay = ReadWal((dir_ / "absent").string());
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->records.empty());
  EXPECT_EQ(replay->valid_bytes, 0u);
  EXPECT_FALSE(replay->truncated_tail);
}

TEST_F(WalTest, SyncEveryCommitByDefault) {
  auto writer = WalWriter::Open(path_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(WalRecordType::kHistoryPut, "p").ok());
  EXPECT_EQ(writer->synced_bytes(), writer->bytes());
  EXPECT_GE(writer->fsyncs(), 1u);
}

TEST_F(WalTest, BatchedSyncPolicyDefersFsync) {
  WalWriterOptions options;
  options.sync_every_bytes = 1u << 20;
  auto writer = WalWriter::Open(path_, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(WalRecordType::kHistoryPut, "p").ok());
  EXPECT_LT(writer->synced_bytes(), writer->bytes());
  ASSERT_TRUE(writer->Sync().ok());
  EXPECT_EQ(writer->synced_bytes(), writer->bytes());
}

TEST_F(WalTest, TornTailIsTruncatedNotFatal) {
  {
    auto writer = WalWriter::Open(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(WalRecordType::kHistoryPut, "keep-me").ok());
    ASSERT_TRUE(writer->Append(WalRecordType::kHistoryPut, "torn").ok());
  }
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 3);  // tear the last record
  auto replay = ReadWal(path_);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->truncated_tail);
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].payload, "keep-me");
  EXPECT_LT(replay->valid_bytes, full);
}

TEST_F(WalTest, CorruptCrcStopsReplayAtValidPrefix) {
  {
    auto writer = WalWriter::Open(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(WalRecordType::kHistoryPut, "one").ok());
    ASSERT_TRUE(writer->Append(WalRecordType::kHistoryPut, "two").ok());
    ASSERT_TRUE(writer->Append(WalRecordType::kHistoryPut, "three").ok());
  }
  // Flip a byte inside the second record's body.
  auto read = ReadFileToString(path_);
  ASSERT_TRUE(read.ok());
  std::string bytes = *std::move(read);
  const size_t first_len = 8 + 1 + 3;  // header + type + "one"
  bytes[first_len + 8 + 1] ^= 0x40;
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto replay = ReadWal(path_);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->truncated_tail);
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].payload, "one");
  EXPECT_EQ(replay->valid_bytes, first_len);
}

TEST_F(WalTest, OversizedLengthRejectedAsCorruption) {
  {
    std::ofstream out(path_, std::ios::binary);
    std::string header;
    AppendU32(header, 0xFFFFFFFFu);  // body_len far past kMaxRecordBytes
    AppendU32(header, 0);
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
  }
  auto replay = ReadWal(path_);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->truncated_tail);
  EXPECT_TRUE(replay->records.empty());
  EXPECT_EQ(replay->valid_bytes, 0u);
}

TEST_F(WalTest, AppendAfterReopenContinuesFile) {
  {
    auto writer = WalWriter::Open(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(WalRecordType::kHistoryPut, "first").ok());
  }
  {
    auto writer = WalWriter::Open(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(WalRecordType::kHistoryPut, "second").ok());
  }
  auto replay = ReadWal(path_);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->records[0].payload, "first");
  EXPECT_EQ(replay->records[1].payload, "second");
}

TEST(IoTest, Crc32MatchesKnownVector) {
  // IEEE CRC-32 of "123456789" — the standard check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

TEST(IoTest, Crc32Chains) {
  const std::string data = "history-aware data fusion";
  const uint32_t whole = Crc32(data);
  const uint32_t chained =
      Crc32(data.substr(8), Crc32(data.substr(0, 8)));
  EXPECT_EQ(whole, chained);
  // Every split point, including the empty prefix and suffix.
  for (size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(Crc32(data.substr(split), Crc32(data.substr(0, split))), whole)
        << "split " << split;
  }
  EXPECT_EQ(Crc32("", 0x12345678u), 0x12345678u);
}

// One table lookup per byte: the definition the faster Crc32 must match.
uint32_t BytewiseCrc32(std::string_view bytes, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(IoTest, Crc32MatchesBytewiseReferenceAtEveryAlignment) {
  Rng rng(20);
  std::string buffer(4096 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.UniformInt(256));
  for (int trial = 0; trial < 64; ++trial) {
    const size_t length =
        trial < 9 ? static_cast<size_t>(trial) : rng.UniformInt(4097);
    const uint32_t seed = static_cast<uint32_t>(rng.UniformInt(1ull << 32));
    for (size_t start = 0; start < 8; ++start) {
      const std::string_view bytes =
          std::string_view(buffer).substr(start, length);
      ASSERT_EQ(Crc32(bytes), BytewiseCrc32(bytes, 0))
          << "length " << length << " start " << start;
      ASSERT_EQ(Crc32(bytes, seed), BytewiseCrc32(bytes, seed))
          << "length " << length << " start " << start;
    }
  }
}

TEST(IoTest, ByteRoundTrip) {
  std::string buffer;
  AppendU8(buffer, 0xAB);
  AppendU32(buffer, 0xDEADBEEFu);
  AppendU64(buffer, 0x0123456789ABCDEFull);
  AppendF64(buffer, -0.0);
  AppendBytes(buffer, "payload");
  ByteReader reader(buffer);
  EXPECT_EQ(*reader.ReadU8(), 0xABu);
  EXPECT_EQ(*reader.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*reader.ReadU64(), 0x0123456789ABCDEFull);
  auto value = reader.ReadF64();
  ASSERT_TRUE(value.ok());
  EXPECT_TRUE(std::signbit(*value));
  EXPECT_EQ(*reader.ReadBytes(), "payload");
  EXPECT_TRUE(reader.ExpectEnd().ok());
  EXPECT_FALSE(reader.ReadU8().ok());
}

}  // namespace
}  // namespace avoc::storage
