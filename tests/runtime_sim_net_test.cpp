#include "runtime/sim_net.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "runtime/framing.h"
#include "runtime/remote.h"
#include "util/strings.h"

namespace avoc::runtime {
namespace {

constexpr uint16_t kPort = 7;

std::unique_ptr<Transport> MustConnect(SimWorld& world, uint16_t port) {
  auto transport = world.Connect(port);
  EXPECT_TRUE(transport.ok()) << transport.status().ToString();
  return std::move(*transport);
}

TEST(SimWorldTest, VirtualClockAdvancesOnlyWhenDriven) {
  SimWorld world(1);
  EXPECT_EQ(world.NowMs(), 0u);
  world.RunFor(250);
  EXPECT_EQ(world.NowMs(), 250u);
  world.SleepMs(50);
  EXPECT_EQ(world.NowMs(), 300u);
}

TEST(SimWorldTest, LoopbackRoundTripWithLatency) {
  SimWorld::Options options;
  options.fault_plan.min_delay_ms = 5;
  options.fault_plan.max_delay_ms = 5;
  SimWorld world(7, options);
  auto listener = world.Listen(kPort);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  std::unique_ptr<Transport> client = MustConnect(world, kPort);
  world.RunFor(5);
  auto accepted = (*listener)->TryAcceptTransport();
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();

  const uint64_t sent_at = world.NowMs();
  ASSERT_TRUE(client->SendLine("hello sim").ok());
  auto line = (*accepted)->ReceiveLine();  // blocks in virtual time
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(*line, "hello sim");
  EXPECT_GE(world.NowMs(), sent_at + 5);  // paid the simulated latency

  ASSERT_TRUE((*accepted)->SendLine("right back").ok());
  auto reply = client->ReceiveLine();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, "right back");
}

TEST(SimWorldTest, SegmentationReassemblesExactly) {
  SimWorld::Options options;
  options.fault_plan.max_segment_bytes = 3;
  options.fault_plan.min_delay_ms = 1;
  options.fault_plan.max_delay_ms = 9;
  SimWorld world(42, options);
  auto listener = world.Listen(kPort);
  ASSERT_TRUE(listener.ok());
  std::unique_ptr<Transport> client = MustConnect(world, kPort);
  world.RunFor(5);
  auto accepted = (*listener)->TryAcceptTransport();
  ASSERT_TRUE(accepted.ok());

  const std::string payload(100, 'x');
  ASSERT_TRUE(client->SendLine(payload + "end").ok());
  auto line = (*accepted)->ReceiveLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(*line, payload + "end");  // FIFO + no loss despite 35 segments
}

TEST(SimWorldTest, ResetFailsBothSides) {
  SimWorld world(3);
  auto listener = world.Listen(kPort);
  ASSERT_TRUE(listener.ok());
  std::unique_ptr<Transport> client = MustConnect(world, kPort);
  world.RunFor(5);
  auto accepted = (*listener)->TryAcceptTransport();
  ASSERT_TRUE(accepted.ok());

  world.ResetAllConnections();
  EXPECT_FALSE(client->SendLine("after reset").ok());
  auto line = (*accepted)->ReceiveLine();
  EXPECT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), ErrorCode::kIoError);
}

TEST(SimWorldTest, BlackholedDirectionTimesOutTheReader) {
  SimWorld::Options options;
  options.fault_plan.blackhole_c2s.push_back(FaultWindow{0, 1000});
  SimWorld world(4, options);
  auto listener = world.Listen(kPort);
  ASSERT_TRUE(listener.ok());
  std::unique_ptr<Transport> client = MustConnect(world, kPort);
  world.RunFor(5);
  auto accepted = (*listener)->TryAcceptTransport();
  ASSERT_TRUE(accepted.ok());
  ASSERT_TRUE((*accepted)->SetReceiveTimeoutMs(50).ok());

  ASSERT_TRUE(client->SendLine("into the void").ok());  // silently dropped
  const uint64_t before = world.NowMs();
  auto line = (*accepted)->ReceiveLine();
  EXPECT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), ErrorCode::kIoError);
  EXPECT_GE(world.NowMs(), before + 50);  // waited out the virtual timeout
}

TEST(SimWorldTest, ConnectFailsDuringPartitionAndRecoversAfter) {
  SimWorld::Options options;
  options.fault_plan.partitions.push_back(FaultWindow{0, 100});
  SimWorld world(5, options);
  auto listener = world.Listen(kPort);
  ASSERT_TRUE(listener.ok());

  auto during = world.Connect(kPort);
  EXPECT_FALSE(during.ok());
  world.RunFor(150);
  auto after = world.Connect(kPort);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST(SimWorldTest, EofAfterPeerCloseDrainsPendingBytesFirst) {
  SimWorld world(6);
  auto listener = world.Listen(kPort);
  ASSERT_TRUE(listener.ok());
  std::unique_ptr<Transport> client = MustConnect(world, kPort);
  world.RunFor(5);
  auto accepted = (*listener)->TryAcceptTransport();
  ASSERT_TRUE(accepted.ok());

  ASSERT_TRUE(client->SendAll("last words").ok());
  client->Close();
  world.RunFor(10);
  char buffer[64];
  auto got = (*accepted)->ReceiveSome(buffer, sizeof buffer);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(std::string(buffer, *got), "last words");
  auto eof = (*accepted)->ReceiveSome(buffer, sizeof buffer);
  EXPECT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), ErrorCode::kNotFound);  // orderly EOF
}

// Same seed => bit-identical event trace; that is the property every
// chaos test stands on.
TEST(SimWorldTest, IdenticalSeedsReplayIdenticalTraces) {
  auto run = [](uint64_t seed) {
    SimWorld::Options options;
    options.fault_plan = FaultPlan::Chaos(seed, 2000);
    SimWorld world(seed, options);
    auto listener = world.Listen(kPort);
    EXPECT_TRUE(listener.ok());
    auto client = world.Connect(kPort);
    if (client.ok()) {
      world.RunFor(5);
      auto accepted = (*listener)->TryAcceptTransport();
      (void)(*client)->SendLine("payload one");
      if (accepted.ok()) (void)(*accepted)->ReceiveLine();
    }
    world.RunFor(2500);
    return world.TraceText();
  };
  const std::string first = run(99);
  const std::string second = run(99);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
  EXPECT_NE(run(100), first);  // and the seed actually matters
}

TEST(FaultPlanTest, ChaosSchedulesHealWithinHorizon) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const FaultPlan plan = FaultPlan::Chaos(seed, 3000);
    EXPECT_LE(plan.HealedAfterMs(), 3000u) << "seed " << seed;
    EXPECT_FALSE(plan.CorruptsStream()) << "seed " << seed;
  }
}

// --- the real server over the simulated network ------------------------------

class SimServerTest : public ::testing::Test {
 protected:
  void StartWorld(uint64_t seed, SimWorld::Options options = {},
                  RemoteServerOptions server_options = {}) {
    world_ = std::make_unique<SimWorld>(seed, options);
    manager_ = std::make_unique<VoterGroupManager>(nullptr, &registry_);
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
  }

  RemoteVoterClient MustClient() {
    auto client =
        RemoteVoterClient::FromTransport(MustConnect(*world_, kPort));
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  obs::Registry registry_;
  std::unique_ptr<SimWorld> world_;
  std::unique_ptr<VoterGroupManager> manager_;
  std::unique_ptr<RemoteVoterServer> server_;
};

TEST_F(SimServerTest, BinarySubmitBatchReachesSinkSingleThreaded) {
  StartWorld(11);
  RemoteVoterClient client = MustClient();
  std::vector<BatchReading> readings;
  for (uint64_t m = 0; m < 3; ++m) readings.push_back({m, 0, 20.0 + m});
  auto accepted = client.SubmitBatch("lights", readings);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(*accepted, 3u);
  auto sink = manager_->sink("lights");
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ((*sink)->output_count(), 1u);
  auto value = client.Query("lights");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
}

TEST_F(SimServerTest, LegacyLineProtocolWorksOverSim) {
  StartWorld(12);
  std::unique_ptr<Transport> line = MustConnect(*world_, kPort);
  for (int m = 0; m < 3; ++m) {
    ASSERT_TRUE(line->SendLine(StrFormat("SUBMIT lights %d 0 %d", m, 20 + m))
                    .ok());
    auto reply = line->ReceiveLine();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, "OK");
  }
  ASSERT_TRUE(line->SendLine("QUERY lights").ok());
  auto reply = line->ReceiveLine();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto sink = manager_->sink("lights");
  ASSERT_TRUE(sink.ok());
  const auto value = (*sink)->last_value();
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*reply, StrFormat("VALUE %.17g", *value));
  EXPECT_NEAR(*value, 21.0, 1.5);
}

TEST_F(SimServerTest, DuplicateSeqIsAnsweredFromDedupCache) {
  StartWorld(13);
  RemoteVoterClient client = MustClient();
  std::vector<BatchReading> readings;
  for (uint64_t m = 0; m < 3; ++m) readings.push_back({m, 0, 20.0 + m});

  auto first = client.SubmitBatchSeq("client-a", 1, "lights", readings);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, 3u);
  auto sink = manager_->sink("lights");
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ((*sink)->output_count(), 1u);

  // The retry after a "lost reply": same identity, same seq.
  auto replay = client.SubmitBatchSeq("client-a", 1, "lights", readings);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(*replay, 3u);                       // original ack replayed
  EXPECT_EQ((*sink)->output_count(), 1u);       // NOT double-ingested
  EXPECT_EQ(server_->dedup_replays(), 1u);
  EXPECT_EQ(registry_.GetCounter("avoc_remote_dedup_replays_total").Value(),
            1u);

  // A fresh sequence number ingests normally again.
  for (auto& r : readings) r.round = 1;
  auto second = client.SubmitBatchSeq("client-a", 2, "lights", readings);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*sink)->output_count(), 2u);
  EXPECT_EQ(server_->dedup_replays(), 1u);
}

TEST_F(SimServerTest, IdleTimeoutFiresOnVirtualClock) {
  RemoteServerOptions server_options;
  server_options.idle_timeout_ms = 50;
  StartWorld(14, {}, server_options);
  RemoteVoterClient client = MustClient();
  ASSERT_TRUE(client.Ping().ok());

  world_->RunFor(500);  // idle well past the timeout, in virtual time only
  EXPECT_FALSE(client.Ping().ok());  // server dropped us via its timer wheel
}

// The server's partial-write path: a response much larger than the pipe
// capacity must drain through repeated WouldBlock/write-ready cycles.
TEST_F(SimServerTest, LargeResponseDrainsThroughTinyPipe) {
  SimWorld::Options options;
  options.pipe_capacity_bytes = 256;
  StartWorld(15, options);
  RemoteVoterClient client = MustClient();
  std::vector<BatchReading> readings;
  for (uint64_t m = 0; m < 3; ++m) readings.push_back({m, 0, 20.0 + m});
  ASSERT_TRUE(client.SubmitBatch("lights", readings).ok());

  auto metrics = client.Metrics();  // Prometheus text >> 256 bytes
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GT(metrics->size(), options.pipe_capacity_bytes);
  EXPECT_NE(metrics->find("avoc_remote_frames_in_total"), std::string::npos);
}

}  // namespace
}  // namespace avoc::runtime
