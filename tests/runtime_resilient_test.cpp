#include "runtime/resilient.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "runtime/remote.h"
#include "runtime/sim_net.h"

namespace avoc::runtime {
namespace {

constexpr uint16_t kPort = 7;

class ResilientClientTest : public ::testing::Test {
 protected:
  void StartWorld(uint64_t seed, SimWorld::Options options = {}) {
    // A test may restart the world: the previous server runs on the old
    // world's reactor and manager, so it has to go before they do.
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    world_ = std::make_unique<SimWorld>(seed, options);
    manager_ = std::make_unique<VoterGroupManager>(nullptr, &registry_);
    ASSERT_TRUE(manager_
                    ->AddGroup("lights",
                               *core::MakeEngine(core::AlgorithmId::kAvoc, 3))
                    .ok());
    auto listener = world_->Listen(kPort);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    auto server = RemoteVoterServer::StartOnReactor(
        manager_.get(), RemoteServerOptions{}, std::move(*listener),
        world_->reactor(), /*spawn_loop_thread=*/false);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  RetryPolicy FastPolicy() {
    RetryPolicy policy;
    policy.initial_backoff_ms = 5;
    policy.max_backoff_ms = 50;
    policy.request_timeout_ms = 100;
    policy.deadline_ms = 60 * 1000;
    return policy;
  }

  ResilientVoterClient MakeClient(RetryPolicy policy, uint64_t seed = 1) {
    return ResilientVoterClient(
        [this] { return world_->Connect(kPort); }, world_.get(), "edge-1",
        policy, seed, &registry_);
  }

  std::vector<BatchReading> Round(uint64_t round) {
    std::vector<BatchReading> readings;
    for (uint64_t m = 0; m < 3; ++m) {
      readings.push_back({m, round, 20.0 + static_cast<double>(m)});
    }
    return readings;
  }

  obs::Registry registry_;
  std::unique_ptr<SimWorld> world_;
  std::unique_ptr<VoterGroupManager> manager_;
  std::unique_ptr<RemoteVoterServer> server_;
};

TEST_F(ResilientClientTest, HealthyPathSubmitsWithoutRetries) {
  StartWorld(21);
  ResilientVoterClient client = MakeClient(FastPolicy());
  for (uint64_t r = 0; r < 4; ++r) {
    auto accepted = client.SubmitBatch("lights", Round(r));
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    EXPECT_EQ(*accepted, 3u);
  }
  EXPECT_EQ(client.connects(), 1u);
  EXPECT_EQ(client.retry_attempts(), 0u);
  auto sink = manager_->sink("lights");
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ((*sink)->output_count(), 4u);
}

TEST_F(ResilientClientTest, ReconnectsAfterConnectionReset) {
  StartWorld(22);
  ResilientVoterClient client = MakeClient(FastPolicy());
  ASSERT_TRUE(client.SubmitBatch("lights", Round(0)).ok());

  world_->ResetAllConnections();
  auto accepted = client.SubmitBatch("lights", Round(1));
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(client.reconnects(), 1u);
  EXPECT_GE(client.retry_attempts(), 1u);
  EXPECT_EQ(registry_.GetCounter("avoc_client_reconnects_total").Value(), 1u);
  auto sink = manager_->sink("lights");
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ((*sink)->output_count(), 2u);
}

// The exactly-once core: the reply (not the request) is lost, so the
// server already ingested the batch.  The retry must be answered from the
// dedup cache, leaving one sink output per round.
TEST_F(ResilientClientTest, LostReplyIsRetriedExactlyOnce) {
  SimWorld::Options options;
  options.fault_plan.blackhole_s2c.push_back(FaultWindow{0, 400});
  StartWorld(23, options);
  ResilientVoterClient client = MakeClient(FastPolicy());

  auto accepted = client.SubmitBatch("lights", Round(0));
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(*accepted, 3u);
  EXPECT_GE(client.request_timeouts(), 1u);  // replies vanished for 400ms
  EXPECT_GE(server_->dedup_replays() + client.reconnects(), 1u);
  auto sink = manager_->sink("lights");
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ((*sink)->output_count(), 1u);  // ingested exactly once
  EXPECT_GT(world_->NowMs(), 400u);        // had to outlive the blackhole
}

TEST_F(ResilientClientTest, SubmitsAcrossAPartitionAfterItHeals) {
  SimWorld::Options options;
  options.fault_plan.partitions.push_back(FaultWindow{10, 300});
  StartWorld(24, options);
  ResilientVoterClient client = MakeClient(FastPolicy());

  world_->RunFor(20);  // land inside the partition
  auto accepted = client.SubmitBatch("lights", Round(0));
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_GE(world_->NowMs(), 300u);  // could only succeed after the heal
  EXPECT_GE(client.connect_failures(), 1u);
  auto sink = manager_->sink("lights");
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ((*sink)->output_count(), 1u);
}

TEST_F(ResilientClientTest, GivesUpAfterMaxAttempts) {
  StartWorld(25);
  RetryPolicy policy = FastPolicy();
  policy.max_attempts = 3;
  // Dial a port nobody listens on.
  ResilientVoterClient client(
      [this] { return world_->Connect(kPort + 1); }, world_.get(), "edge-1",
      policy, 1, &registry_);
  auto accepted = client.SubmitBatch("lights", Round(0));
  EXPECT_FALSE(accepted.ok());
  EXPECT_EQ(client.connect_failures(), 3u);
  EXPECT_GE(client.giveups(), 1u);
  EXPECT_GE(registry_.GetCounter("avoc_remote_retry_giveups_total").Value(),
            1u);
}

TEST_F(ResilientClientTest, ApplicationErrorsAreNotRetried) {
  StartWorld(26);
  ResilientVoterClient client = MakeClient(FastPolicy());
  auto accepted = client.SubmitBatch("no-such-group", Round(0));
  EXPECT_FALSE(accepted.ok());
  EXPECT_EQ(client.retry_attempts(), 0u);  // server answered; not a fault

  auto missing = client.Query("no-such-group");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(client.retry_attempts(), 0u);
}

TEST_F(ResilientClientTest, BackoffScheduleIsSeedDeterministic) {
  auto giveup_time = [this](uint64_t seed) {
    StartWorld(27);
    RetryPolicy policy = FastPolicy();
    policy.max_attempts = 5;
    ResilientVoterClient client(
        [this] { return world_->Connect(kPort + 1); }, world_.get(), "edge-1",
        policy, seed, nullptr);
    (void)client.Ping();
    return world_->NowMs();  // sum of the jittered backoffs
  };
  const uint64_t first = giveup_time(1234);
  const uint64_t second = giveup_time(1234);
  EXPECT_EQ(first, second);
  EXPECT_GT(first, 0u);
  EXPECT_NE(giveup_time(4321), first);  // jitter stream follows the seed
}

TEST_F(ResilientClientTest, SequenceNumbersAreAssignedOncePerCall) {
  StartWorld(28);
  ResilientVoterClient client = MakeClient(FastPolicy());
  EXPECT_EQ(client.next_seq(), 1u);
  ASSERT_TRUE(client.SubmitBatch("lights", Round(0)).ok());
  EXPECT_EQ(client.next_seq(), 2u);
  world_->ResetAllConnections();
  ASSERT_TRUE(client.SubmitBatch("lights", Round(1)).ok());
  EXPECT_EQ(client.next_seq(), 3u);  // retries never burned extra numbers
}

}  // namespace
}  // namespace avoc::runtime
