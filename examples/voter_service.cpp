// Live middleware demo — the "shoe-box demonstrator" (Fig. 2) analogue.
//
// Five synthetic light sensors sample on worker threads at 8 Hz; the hub
// closes rounds on a timer; the voter (AVOC, persisted to a JSON history
// datastore) fuses; the sink plays the LCD display, printing input,
// weights and results, exactly the fields the demonstrator shows.
//
// Usage:
//   voter_service [--seconds N] [--store PATH] [--faulty-sensor IDX]
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/algorithms.h"
#include "runtime/service.h"
#include "sim/sensor.h"
#include "util/cli.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  auto cli_result = avoc::CommandLine::Parse(argc - 1, argv + 1);
  if (!cli_result.ok()) {
    std::fprintf(stderr, "%s\n", cli_result.status().ToString().c_str());
    return 1;
  }
  const avoc::CommandLine& cli = *cli_result;
  const int seconds = static_cast<int>(cli.GetInt("seconds", 3));
  const std::string store_path = cli.GetString("store", "");
  const int64_t faulty = cli.GetInt("faulty-sensor", 4);

  constexpr size_t kSensors = 5;
  avoc::Rng master(2026);

  // Synthetic sensors around an 18.5 klx sunlight level; one optionally
  // reads +6 klx high, the §7 fault.
  std::vector<avoc::runtime::Generator> samplers;
  for (size_t m = 0; m < kSensors; ++m) {
    avoc::sim::SensorParams params;
    params.bias = -400.0 + 200.0 * static_cast<double>(m);
    if (static_cast<int64_t>(m) == faulty) params.bias += 6000.0;
    params.noise_stddev = 60.0;
    auto sensor = std::make_shared<avoc::sim::SensorModel>(params,
                                                           master.Fork());
    samplers.push_back([sensor](size_t round) {
      return sensor->Sample(round, 18500.0);
    });
  }

  auto engine =
      avoc::core::MakeEngine(avoc::core::AlgorithmId::kAvoc, kSensors);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }

  avoc::runtime::HistoryStore memory_store;
  avoc::runtime::HistoryStore* store = &memory_store;
  avoc::runtime::HistoryStore file_store;
  if (!store_path.empty()) {
    auto opened = avoc::runtime::HistoryStore::Open(store_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    file_store = std::move(*opened);
    store = &file_store;
  }

  avoc::runtime::ServiceOptions options;
  options.round_period = std::chrono::milliseconds(125);  // 8 samples/s
  options.round_timeout = std::chrono::milliseconds(60);
  options.store = store;
  options.group = "shoebox";

  auto service = avoc::runtime::VoterService::Create(std::move(samplers),
                                                     std::move(*engine),
                                                     std::move(options));
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }

  std::printf("voter service running for %d s (sensor %lld is faulty)...\n",
              seconds, static_cast<long long>(faulty));
  (*service)->Start();
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  (*service)->Stop();

  (*service)->sink().WithTrace([](const avoc::core::BatchTrace& trace,
                                  const std::vector<size_t>& rounds) {
    std::printf("rounds completed: %zu\n", rounds.size());
    for (size_t i = 0; i < rounds.size(); ++i) {
      const auto value = trace.output(i);
      if (!value.has_value()) continue;
      std::printf("round %3zu  output %.0f lux  weights:", rounds[i], *value);
      for (const double w : trace.weights(i)) std::printf(" %.2f", w);
      std::printf("%s\n", trace.used_clustering(i) ? "  [clustered]" : "");
    }
    if (!rounds.empty()) {
      std::printf("final records:");
      for (const double h : trace.history(rounds.size() - 1)) {
        std::printf(" %.2f", h);
      }
      std::printf("\n");
    }
  });
  return 0;
}
