#include "runtime/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/algorithms.h"
#include "sink_rows.h"

namespace avoc::runtime {
namespace {

core::VotingEngine AverageEngine(size_t modules) {
  auto engine = core::MakeEngine(core::AlgorithmId::kAverage, modules);
  EXPECT_TRUE(engine.ok());
  return std::move(*engine);
}

std::vector<Generator> ConstantSamplers(size_t count,
                                                    double base) {
  std::vector<Generator> samplers;
  for (size_t m = 0; m < count; ++m) {
    samplers.push_back([base, m](size_t) {
      return std::optional<double>(base + static_cast<double>(m));
    });
  }
  return samplers;
}

ServiceOptions FastOptions() {
  ServiceOptions options;
  options.round_period = std::chrono::milliseconds(10);
  options.round_timeout = std::chrono::milliseconds(5);
  return options;
}

TEST(VoterServiceTest, CreateValidates) {
  EXPECT_FALSE(
      VoterService::Create(ConstantSamplers(2, 0.0), AverageEngine(3)).ok());
  EXPECT_FALSE(VoterService::Create({}, AverageEngine(1)).ok());
  ServiceOptions bad;
  bad.round_period = std::chrono::milliseconds(0);
  EXPECT_FALSE(
      VoterService::Create(ConstantSamplers(2, 0.0), AverageEngine(2), bad)
          .ok());
}

TEST(VoterServiceTest, ProducesRoundsWhileRunning) {
  auto service = VoterService::Create(ConstantSamplers(3, 10.0),
                                      AverageEngine(3), FastOptions());
  ASSERT_TRUE(service.ok());
  (*service)->Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  (*service)->Stop();
  const size_t rounds = (*service)->rounds_completed();
  EXPECT_GE(rounds, 5u);
  ASSERT_TRUE((*service)->sink().last_value().has_value());
  EXPECT_DOUBLE_EQ(*(*service)->sink().last_value(), 11.0);  // mean of 10,11,12
}

TEST(VoterServiceTest, StartStopIdempotent) {
  auto service = VoterService::Create(ConstantSamplers(2, 1.0),
                                      AverageEngine(2), FastOptions());
  ASSERT_TRUE(service.ok());
  (*service)->Start();
  (*service)->Start();  // no-op
  EXPECT_TRUE((*service)->running());
  (*service)->Stop();
  (*service)->Stop();  // no-op
  EXPECT_FALSE((*service)->running());
}

TEST(VoterServiceTest, StartAfterStopRestartsCleanly) {
  auto service = VoterService::Create(ConstantSamplers(3, 10.0),
                                      AverageEngine(3), FastOptions());
  ASSERT_TRUE(service.ok());
  EXPECT_TRUE((*service)->Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  (*service)->Stop();
  const size_t first_run = (*service)->rounds_opened();
  EXPECT_GE(first_run, 1u);
  // Restart is well-defined: a new scheduler picks up where the previous
  // run stopped, continuing the round numbering.
  EXPECT_TRUE((*service)->Start().ok());
  EXPECT_TRUE((*service)->running());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  (*service)->Stop();
  EXPECT_FALSE((*service)->running());
  EXPECT_GT((*service)->rounds_opened(), first_run);
  // Both runs fed the same sink; nothing was lost across the restart.
  EXPECT_EQ((*service)->rounds_completed(), (*service)->rounds_opened());
}

TEST(VoterServiceTest, StopDrainsInFlightRound) {
  auto service = VoterService::Create(ConstantSamplers(3, 10.0),
                                      AverageEngine(3), FastOptions());
  ASSERT_TRUE(service.ok());
  EXPECT_TRUE((*service)->Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  (*service)->Stop();
  // The round that was open when Stop() was called must have been flushed
  // through voter and sink before Stop() returned: every opened round has
  // a sink record, including the last one.
  EXPECT_GE((*service)->rounds_opened(), 1u);
  EXPECT_EQ((*service)->rounds_completed(), (*service)->rounds_opened());
  const auto outputs = SinkRows((*service)->sink());
  ASSERT_FALSE(outputs.empty());
  EXPECT_EQ(outputs.back().round, (*service)->rounds_opened() - 1);
}

TEST(VoterServiceTest, StopOnDestruction) {
  auto service = VoterService::Create(ConstantSamplers(2, 1.0),
                                      AverageEngine(2), FastOptions());
  ASSERT_TRUE(service.ok());
  (*service)->Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service->reset();  // destructor must join cleanly
  SUCCEED();
}

TEST(VoterServiceTest, SlowSensorsBecomeMissingValues) {
  std::vector<Generator> samplers = ConstantSamplers(2, 5.0);
  // A sensor that always overruns the round timeout.
  samplers.push_back([](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return std::optional<double>(9999.0);
  });
  auto engine = core::MakeEngine(core::AlgorithmId::kAverage, 3);
  ASSERT_TRUE(engine.ok());
  auto service =
      VoterService::Create(std::move(samplers), std::move(*engine),
                           FastOptions());
  ASSERT_TRUE(service.ok());
  (*service)->Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  (*service)->Stop();
  const auto outputs = SinkRows((*service)->sink());
  ASSERT_GE(outputs.size(), 2u);
  // The slow sensor never makes it into a round; the fused value is the
  // mean of the two fast ones (5, 6), never dragged to 9999.
  for (const auto& output : outputs) {
    if (!output.result.value.has_value()) continue;
    EXPECT_NEAR(*output.result.value, 5.5, 0.01);
    EXPECT_LE(output.result.present_count, 2u);
  }
}

TEST(VoterServiceTest, PersistsThroughStore) {
  HistoryStore store;
  ServiceOptions options = FastOptions();
  options.store = &store;
  options.group = "svc";
  auto engine = core::MakeEngine(core::AlgorithmId::kHybrid, 3);
  ASSERT_TRUE(engine.ok());
  auto service = VoterService::Create(ConstantSamplers(3, 10.0),
                                      std::move(*engine), options);
  ASSERT_TRUE(service.ok());
  (*service)->Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  (*service)->Stop();
  auto snapshot = store.Get("svc");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_GE(snapshot->rounds, 1u);
  EXPECT_EQ(snapshot->records.size(), 3u);
}

}  // namespace
}  // namespace avoc::runtime
