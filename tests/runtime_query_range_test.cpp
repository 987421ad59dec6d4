// QUERY_RANGE / HISTORY_GET wire verbs end to end.
//
// The acceptance bar for the storage seam is bit-identity: a range query
// answered from the persisted trace (StorageEngine) must match the
// in-memory BatchTrace hex-float for hex-float, both on a single-node
// server and through the sharded server's per-group routing.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "runtime/remote.h"
#include "runtime/resilient.h"
#include "runtime/sharded_remote.h"
#include "runtime/sim_net.h"
#include "storage/engine.h"

namespace avoc::runtime {
namespace {

constexpr uint16_t kPort = 7;

std::string HexFloat(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::vector<BatchReading> MakeRound(uint64_t round, double base) {
  std::vector<BatchReading> readings;
  for (uint64_t m = 0; m < 3; ++m) {
    readings.push_back(
        BatchReading{m, round, base + 0.125 * static_cast<double>(m)});
  }
  return readings;
}

/// The sink's in-memory trace as RangePoints, restricted to [lo, hi].
std::vector<RangePoint> SinkRange(const SinkNode& sink, uint64_t lo,
                                  uint64_t hi) {
  std::vector<RangePoint> points;
  sink.WithTrace(
      [&](const core::BatchTrace& trace, const std::vector<size_t>& rounds) {
        for (size_t i = 0; i < rounds.size(); ++i) {
          const uint64_t round = rounds[i];
          if (round < lo || round > hi) continue;
          const auto value = trace.output(i);
          points.push_back(RangePoint{round, value.value_or(0.0),
                                      value.has_value() ? uint8_t{1}
                                                        : uint8_t{0}});
        }
      });
  return points;
}

void ExpectBitIdentical(std::span<const RangePoint> want,
                        std::span<const RangePoint> got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].round, got[i].round) << "point " << i;
    EXPECT_EQ(want[i].engaged, got[i].engaged) << "point " << i;
    EXPECT_EQ(HexFloat(want[i].value), HexFloat(got[i].value)) << "point " << i;
    EXPECT_EQ(Bits(want[i].value), Bits(got[i].value)) << "point " << i;
  }
}

class QueryRangeTest : public ::testing::Test {
 protected:
  void Start(bool with_trace_store,
             RemoteServerOptions server_options = RemoteServerOptions{}) {
    if (with_trace_store) {
      dir_ = (std::filesystem::temp_directory_path() /
              ("avoc_query_range_" + std::to_string(::getpid())))
                 .string();
      std::filesystem::remove_all(dir_);
      storage::StorageEngineOptions options;
      options.dir = dir_;
      options.chunk_max_points = 4;  // force seals mid-test
      auto engine = storage::StorageEngine::Open(options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      store_ = std::move(*engine);
    }
    world_ = std::make_unique<SimWorld>(97);
    manager_ = std::make_unique<VoterGroupManager>(store_.get(), &registry_,
                                                   store_.get());
    ASSERT_TRUE(manager_
                    ->AddGroup("lights",
                               *core::MakeEngine(core::AlgorithmId::kAvoc, 3))
                    .ok());
    auto listener = world_->Listen(kPort);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    auto server = RemoteVoterServer::StartOnReactor(
        manager_.get(), server_options, std::move(*listener),
        world_->reactor(), /*spawn_loop_thread=*/false);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  RemoteVoterClient MustClient() {
    auto transport = world_->Connect(kPort);
    EXPECT_TRUE(transport.ok());
    auto client = RemoteVoterClient::FromTransport(std::move(*transport));
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  void SubmitRounds(RemoteVoterClient& client, size_t rounds) {
    for (uint64_t r = 0; r < rounds; ++r) {
      auto accepted =
          client.SubmitBatch("lights", MakeRound(r, 20.0 + 0.01 * r));
      ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    }
  }

  obs::Registry registry_;
  std::string dir_;
  std::unique_ptr<storage::StorageEngine> store_;
  std::unique_ptr<SimWorld> world_;
  std::unique_ptr<VoterGroupManager> manager_;
  std::unique_ptr<RemoteVoterServer> server_;
};

TEST_F(QueryRangeTest, RangeFromStorageEngineIsBitIdenticalToSink) {
  Start(/*with_trace_store=*/true);
  RemoteVoterClient client = MustClient();
  SubmitRounds(client, 25);  // crosses several 4-point seal boundaries
  auto sink = manager_->sink("lights");
  ASSERT_TRUE(sink.ok());
  auto got = client.QueryRange("lights", 0, 24);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitIdentical(SinkRange(**sink, 0, 24), *got);
  EXPECT_EQ(got->size(), 25u);
}

TEST_F(QueryRangeTest, RangeWithoutTraceStoreServedFromSinkMemory) {
  Start(/*with_trace_store=*/false);
  RemoteVoterClient client = MustClient();
  SubmitRounds(client, 10);
  auto sink = manager_->sink("lights");
  ASSERT_TRUE(sink.ok());
  auto got = client.QueryRange("lights", 0, 9);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitIdentical(SinkRange(**sink, 0, 9), *got);
}

TEST_F(QueryRangeTest, SubrangesAreInclusiveBothEnds) {
  Start(/*with_trace_store=*/true);
  RemoteVoterClient client = MustClient();
  SubmitRounds(client, 20);
  auto got = client.QueryRange("lights", 5, 12);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 8u);
  EXPECT_EQ(got->front().round, 5u);
  EXPECT_EQ(got->back().round, 12u);
  auto single = client.QueryRange("lights", 7, 7);
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(single->size(), 1u);
  EXPECT_EQ(single->front().round, 7u);
  auto past_end = client.QueryRange("lights", 100, 200);
  ASSERT_TRUE(past_end.ok());
  EXPECT_TRUE(past_end->empty());
}

TEST_F(QueryRangeTest, InvalidRangeAndUnknownGroupAreErrors) {
  Start(/*with_trace_store=*/true);
  RemoteVoterClient client = MustClient();
  SubmitRounds(client, 3);
  EXPECT_FALSE(client.QueryRange("lights", 9, 2).ok());
  EXPECT_FALSE(client.QueryRange("no-such-group", 0, 9).ok());
}

// A reply over the frame limit would make the client's frame decoder
// reject it and poison the connection.  The server answers with an
// OutOfRange ERR naming the point count instead, and a narrower window
// then succeeds on the same connection.
TEST_F(QueryRangeTest, ReplyOverFrameLimitIsOutOfRangeError) {
  RemoteServerOptions options;
  options.max_frame_bytes = 256;  // 40 points need about 400 bytes
  Start(/*with_trace_store=*/true, options);
  RemoteVoterClient client = MustClient();
  SubmitRounds(client, 40);
  auto too_wide = client.QueryRange("lights", 0, 39);
  ASSERT_FALSE(too_wide.ok());
  const std::string& reason = too_wide.status().message();
  EXPECT_NE(reason.find("out_of_range"), std::string::npos) << reason;
  EXPECT_NE(reason.find("40 points"), std::string::npos) << reason;

  auto narrow = client.QueryRange("lights", 10, 19);
  ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
  auto sink = manager_->sink("lights");
  ASSERT_TRUE(sink.ok());
  ExpectBitIdentical(SinkRange(**sink, 10, 19), *narrow);
}

TEST_F(QueryRangeTest, HistoryGetMatchesLiveLedger) {
  Start(/*with_trace_store=*/true);
  RemoteVoterClient client = MustClient();
  SubmitRounds(client, 12);
  auto voter = manager_->voter("lights");
  ASSERT_TRUE(voter.ok());
  const core::HistoryLedger& ledger = (*voter)->engine().history();
  auto got = client.HistoryGet("lights");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->rounds, ledger.round_count());
  ASSERT_EQ(got->records.size(), ledger.records().size());
  for (size_t i = 0; i < got->records.size(); ++i) {
    EXPECT_EQ(Bits(got->records[i]), Bits(ledger.records()[i])) << i;
  }
  EXPECT_FALSE(client.HistoryGet("no-such-group").ok());
}

TEST_F(QueryRangeTest, ResilientClientWrapsBothVerbs) {
  Start(/*with_trace_store=*/true);
  {
    RemoteVoterClient feeder = MustClient();
    SubmitRounds(feeder, 8);
  }
  RetryPolicy policy;
  policy.request_timeout_ms = 1000;
  ResilientVoterClient client([this] { return world_->Connect(kPort); },
                              world_.get(), "edge-qr", policy, 1, &registry_);
  auto range = client.QueryRange("lights", 2, 5);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(range->size(), 4u);
  auto sink = manager_->sink("lights");
  ASSERT_TRUE(sink.ok());
  ExpectBitIdentical(SinkRange(**sink, 2, 5), *range);
  auto history = client.HistoryGet("lights");
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  EXPECT_EQ(history->rounds, 8u);
  EXPECT_EQ(history->records.size(), 3u);
}

TEST_F(QueryRangeTest, RangeSurvivesStoreReopen) {
  Start(/*with_trace_store=*/true);
  std::vector<RangePoint> want;
  {
    RemoteVoterClient client = MustClient();
    SubmitRounds(client, 15);
    auto sink = manager_->sink("lights");
    ASSERT_TRUE(sink.ok());
    want = SinkRange(**sink, 0, 14);
  }
  server_->Stop();
  server_ = nullptr;
  manager_ = nullptr;
  store_ = nullptr;  // graceful close syncs the WAL

  storage::StorageEngineOptions options;
  options.dir = dir_;
  options.chunk_max_points = 4;
  auto reopened = storage::StorageEngine::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto stored = (*reopened)->QueryTraceRange("lights", 0, 14);
  ASSERT_TRUE(stored.ok());
  ASSERT_EQ(stored->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*stored)[i].round, want[i].round);
    EXPECT_EQ((*stored)[i].engaged ? 1 : 0, want[i].engaged);
    EXPECT_EQ(HexFloat((*stored)[i].value), HexFloat(want[i].value)) << i;
  }
}

// --- sharded -----------------------------------------------------------------

class ShardedQueryRangeTest : public ::testing::Test {
 protected:
  void Start(size_t shards, const std::vector<std::string>& groups) {
    dir_ = (std::filesystem::temp_directory_path() /
            ("avoc_sharded_query_range_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    storage::StorageEngineOptions store_options;
    store_options.dir = dir_;
    store_options.chunk_max_points = 4;
    auto engine = storage::StorageEngine::Open(store_options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    store_ = std::move(*engine);

    world_ = std::make_unique<SimWorld>(4242);
    auto listener = world_->Listen(kPort);
    ASSERT_TRUE(listener.ok());
    std::vector<std::shared_ptr<Reactor>> reactors;
    reactors.push_back(world_->reactor());
    for (size_t s = 1; s < shards; ++s) {
      reactors.push_back(world_->NewReactor());
    }
    ShardedServerOptions server_options;
    server_options.shards = shards;
    auto server = ShardedVoterServer::StartOnReactors(
        server_options, std::move(*listener), std::move(reactors),
        /*spawn_loop_threads=*/false, store_.get(), &registry_, store_.get());
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
    for (const std::string& g : groups) {
      ASSERT_TRUE(
          server_->AddGroup(g, *core::MakeEngine(core::AlgorithmId::kAvoc, 3))
              .ok());
    }
    ASSERT_TRUE(server_->Serve().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  RemoteVoterClient MustClient() {
    auto transport = world_->Connect(kPort);
    EXPECT_TRUE(transport.ok());
    auto client = RemoteVoterClient::FromTransport(std::move(*transport));
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  obs::Registry registry_;
  std::string dir_;
  std::unique_ptr<storage::StorageEngine> store_;
  std::unique_ptr<SimWorld> world_;
  std::unique_ptr<ShardedVoterServer> server_;
};

// Group names that spread across 3 shards (same set the sharded remote
// test pins via the router golden test).
const std::vector<std::string> kGroups = {"group-0", "group-1", "group-2",
                                          "group-3", "group-7", "sensor",
                                          "humidity", "co2"};

TEST_F(ShardedQueryRangeTest, RangeIsBitIdenticalThroughShardRouting) {
  Start(3, kGroups);
  RemoteVoterClient client = MustClient();
  // Distinct per-group workloads so cross-shard mixups cannot cancel out.
  for (size_t g = 0; g < kGroups.size(); ++g) {
    for (uint64_t r = 0; r < 9; ++r) {
      auto accepted = client.SubmitBatch(
          kGroups[g], MakeRound(r, 10.0 + 3.0 * static_cast<double>(g)));
      ASSERT_TRUE(accepted.ok()) << kGroups[g] << " round " << r;
    }
  }
  for (const std::string& group : kGroups) {
    const size_t shard = server_->shard_of(group);
    auto sink = server_->manager(shard).sink(group);
    ASSERT_TRUE(sink.ok()) << group;
    auto got = client.QueryRange(group, 0, 8);
    ASSERT_TRUE(got.ok()) << group << ": " << got.status().ToString();
    EXPECT_EQ(got->size(), 9u) << group;
    ExpectBitIdentical(SinkRange(**sink, 0, 8), *got);
  }
}

TEST_F(ShardedQueryRangeTest, HistoryGetAnswersFromOwningShard) {
  Start(3, kGroups);
  RemoteVoterClient client = MustClient();
  for (const std::string& group : kGroups) {
    for (uint64_t r = 0; r < 5; ++r) {
      ASSERT_TRUE(client.SubmitBatch(group, MakeRound(r, 15.0)).ok());
    }
  }
  for (const std::string& group : kGroups) {
    const size_t shard = server_->shard_of(group);
    auto voter = server_->manager(shard).voter(group);
    ASSERT_TRUE(voter.ok()) << group;
    const core::HistoryLedger& ledger = (*voter)->engine().history();
    auto got = client.HistoryGet(group);
    ASSERT_TRUE(got.ok()) << group << ": " << got.status().ToString();
    EXPECT_EQ(got->rounds, ledger.round_count()) << group;
    ASSERT_EQ(got->records.size(), ledger.records().size()) << group;
    for (size_t i = 0; i < got->records.size(); ++i) {
      EXPECT_EQ(Bits(got->records[i]), Bits(ledger.records()[i]))
          << group << " record " << i;
    }
  }
}

}  // namespace
}  // namespace avoc::runtime
