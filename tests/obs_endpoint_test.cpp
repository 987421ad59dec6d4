#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "runtime/remote.h"

namespace avoc::runtime {
namespace {

class ObsEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(manager_
                    .AddGroup("lights",
                              *core::MakeEngine(core::AlgorithmId::kAvoc, 3))
                    .ok());
    auto server = RemoteVoterServer::Start(&manager_, 0);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  void TearDown() override { server_->Stop(); }

  RemoteVoterClient MustConnect() {
    auto client =
        RemoteVoterClient::ConnectBinary("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  /// Submits one full round and waits until the group's sink fused it.
  void RunOneRound(RemoteVoterClient& client) {
    ASSERT_TRUE(client.Submit("lights", 0, 0, 100.0).ok());
    ASSERT_TRUE(client.Submit("lights", 1, 0, 101.0).ok());
    ASSERT_TRUE(client.Submit("lights", 2, 0, 99.5).ok());
    auto sink = manager_.sink("lights");
    ASSERT_TRUE(sink.ok());
    for (int i = 0; i < 200 && (*sink)->output_count() < 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE((*sink)->output_count(), 1u);
  }

  obs::Registry registry_;
  VoterGroupManager manager_{nullptr, &registry_};
  std::unique_ptr<RemoteVoterServer> server_;
};

TEST_F(ObsEndpointTest, MetricsScrapeReturnsGroupCounters) {
  RemoteVoterClient client = MustConnect();
  RunOneRound(client);
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_FALSE(metrics->empty());
  // The per-group round counter made it through the live scrape
  // (GroupRunner observers flush every round).
  EXPECT_NE(metrics->find("avoc_rounds_total{group=\"lights\"} 1"),
            std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("avoc_hub_readings_total{group=\"lights\"} 3"),
            std::string::npos)
      << *metrics;
}

TEST_F(ObsEndpointTest, MetricsScrapeReflectsRegistryState) {
  registry_.GetCounter("avoc_custom_marker_total").Add(7);
  RemoteVoterClient client = MustConnect();
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("avoc_custom_marker_total 7"), std::string::npos);
}

TEST_F(ObsEndpointTest, HealthListsGroupsWithStatus) {
  RemoteVoterClient client = MustConnect();
  RunOneRound(client);
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  ASSERT_EQ(health->size(), 1u);
  const std::string& line = (*health)[0];
  EXPECT_NE(line.find("GROUP lights"), std::string::npos) << line;
  EXPECT_NE(line.find("modules=3"), std::string::npos) << line;
  EXPECT_NE(line.find("outputs=1"), std::string::npos) << line;
  EXPECT_NE(line.find("status=ok"), std::string::npos) << line;
}

TEST_F(ObsEndpointTest, RawMetricsResponseIsEndTerminated) {
  auto raw = TcpConnection::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SendLine("METRICS").ok());
  std::vector<std::string> lines;
  for (int i = 0; i < 10000; ++i) {
    auto line = raw->ReceiveLine();
    ASSERT_TRUE(line.ok());
    if (*line == "END") break;
    lines.push_back(std::move(*line));
  }
  EXPECT_FALSE(lines.empty());
}

TEST_F(ObsEndpointTest, MetricsWithoutRegistryIsAnError) {
  VoterGroupManager bare_manager;  // no registry wired
  ASSERT_TRUE(bare_manager
                  .AddGroup("lights",
                            *core::MakeEngine(core::AlgorithmId::kAvoc, 3))
                  .ok());
  auto bare_server = RemoteVoterServer::Start(&bare_manager, 0);
  ASSERT_TRUE(bare_server.ok());
  auto raw = TcpConnection::Connect("127.0.0.1", (*bare_server)->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SendLine("METRICS").ok());
  auto metrics = raw->ReceiveLine();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(*metrics,
            "ERR failed_precondition: metrics disabled (no registry)");
  // HEALTH still works without a registry.
  ASSERT_TRUE(raw->SendLine("HEALTH").ok());
  std::vector<std::string> health;
  for (int i = 0; i < 3; ++i) {
    auto line = raw->ReceiveLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    health.push_back(*line);
  }
  EXPECT_EQ(health, (std::vector<std::string>{
                        "HEALTH 1",
                        "GROUP lights modules=3 outputs=0 open=0 status=ok",
                        "END"}));
  (*bare_server)->Stop();
}

}  // namespace
}  // namespace avoc::runtime
