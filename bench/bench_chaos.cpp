// Deterministic-simulation throughput: how fast the chaos harness burns
// through seeded fault schedules.
//
// The value of DST is iteration speed — a schedule that would take
// minutes of wall time against real sockets (backoffs, partitions,
// timeouts) runs in microseconds because time is virtual.  This bench
// quantifies that: it sweeps N seeds through the same workload the ctest
// chaos suite uses (real RemoteVoterServer on the simulated reactor,
// ResilientVoterClient dialing through FaultPlan::Chaos) and reports
//   schedules/s        full faulty runs per wall-clock second
//   virtual-x          simulated milliseconds per wall millisecond
//   submits/s          batches ingested per second across the sweep
// plus a fault-free baseline so the fault-machinery overhead is visible.
// A convergence cross-check fails the run if any faulty sink trace
// diverges from its fault-free twin.
// Flags: --seeds N --rounds R --modules M --repeat K --json PATH
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "runtime/remote.h"
#include "runtime/resilient.h"
#include "runtime/sim_net.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using avoc::Rng;
using avoc::runtime::BatchReading;
using avoc::runtime::FaultPlan;
using avoc::runtime::RemoteServerOptions;
using avoc::runtime::RemoteVoterServer;
using avoc::runtime::ResilientVoterClient;
using avoc::runtime::RetryPolicy;
using avoc::runtime::SimWorld;
using avoc::runtime::VoterGroupManager;

constexpr uint16_t kPort = 7;
constexpr uint64_t kHorizonMs = 4000;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<std::vector<BatchReading>> WorkloadFor(uint64_t seed,
                                                   size_t rounds,
                                                   size_t modules) {
  Rng values(seed ^ 0xDA7A5EEDull);
  std::vector<std::vector<BatchReading>> batches;
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<BatchReading> batch;
    for (uint64_t m = 0; m < modules; ++m) {
      batch.push_back(BatchReading{m, r, 20.0 + values.Gaussian(0.0, 2.0)});
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::string SinkTrace(const VoterGroupManager& manager) {
  auto sink = manager.sink("bench");
  if (!sink.ok()) return "<no sink>";
  std::string trace;
  (*sink)->WithTrace([&trace](const avoc::core::BatchTrace& rows,
                              const std::vector<size_t>& rounds) {
    for (size_t i = 0; i < rounds.size(); ++i) {
      trace += avoc::StrFormat("%zu %d %a\n", rounds[i],
                               static_cast<int>(rows.outcome(i)),
                               rows.output(i).value_or(-0.0));
    }
  });
  return trace;
}

struct SimRun {
  bool ok = false;
  uint64_t virtual_ms = 0;
  std::string sink_trace;
};

SimRun RunOne(uint64_t seed, bool with_faults, size_t rounds,
              size_t modules) {
  SimWorld::Options options;
  options.record_trace = false;  // measure the engine, not the logger
  if (with_faults) options.fault_plan = FaultPlan::Chaos(seed, kHorizonMs);
  SimWorld world(seed, options);
  VoterGroupManager manager(nullptr, nullptr);
  auto engine = avoc::core::MakeEngine(avoc::core::AlgorithmId::kAvoc, modules);
  if (!engine.ok() || !manager.AddGroup("bench", *std::move(engine)).ok()) {
    return {};
  }
  auto listener = world.Listen(kPort);
  if (!listener.ok()) return {};
  auto server = RemoteVoterServer::StartOnReactor(
      &manager, RemoteServerOptions{}, std::move(*listener), world.reactor(),
      /*spawn_loop_thread=*/false);
  if (!server.ok()) return {};

  RetryPolicy policy;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 200;
  policy.request_timeout_ms = 150;
  policy.deadline_ms = 10 * kHorizonMs;
  ResilientVoterClient client([&world] { return world.Connect(kPort); },
                              &world, "bench-client", policy,
                              seed ^ 0xBACC0FFull, nullptr);
  SimRun run;
  for (const auto& batch : WorkloadFor(seed, rounds, modules)) {
    auto accepted = client.SubmitBatch("bench", batch);
    if (!accepted.ok() || *accepted != batch.size()) {
      (*server)->Stop();
      return {};
    }
  }
  run.ok = true;
  run.virtual_ms = world.NowMs();
  run.sink_trace = SinkTrace(manager);
  (*server)->Stop();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  auto cli = avoc::CommandLine::Parse(argc - 1, argv + 1);
  if (!cli.ok()) return 1;
  const size_t seeds = static_cast<size_t>(cli->GetInt("seeds", 200));
  const size_t rounds = static_cast<size_t>(cli->GetInt("rounds", 8));
  const size_t modules = static_cast<size_t>(cli->GetInt("modules", 3));
  const size_t repeat =
      std::max<size_t>(1, static_cast<size_t>(cli->GetInt("repeat", 3)));
  const std::string json_path = cli->GetString("json", "BENCH_chaos.json");

  std::printf("=== DST chaos sweep: %zu seeds x %zu rounds x %zu modules, "
              "best of %zu ===\n",
              seeds, rounds, modules, repeat);

  struct Mode {
    const char* name;
    bool with_faults;
    double seconds = 0.0;
    uint64_t virtual_ms = 0;
  };
  Mode faulty{"chaos", true};
  Mode clean{"fault-free", false};
  for (Mode* mode : {&faulty, &clean}) {
    for (size_t it = 0; it < repeat; ++it) {
      uint64_t virtual_ms = 0;
      const auto start = std::chrono::steady_clock::now();
      for (uint64_t seed = 1000; seed < 1000 + seeds; ++seed) {
        const SimRun run = RunOne(seed, mode->with_faults, rounds, modules);
        if (!run.ok) {
          std::fprintf(stderr, "%s seed %llu failed\n", mode->name,
                       static_cast<unsigned long long>(seed));
          return 1;
        }
        virtual_ms += run.virtual_ms;
      }
      const double seconds = SecondsSince(start);
      if (it == 0 || seconds < mode->seconds) {
        mode->seconds = seconds;
        mode->virtual_ms = virtual_ms;
      }
    }
  }

  // Convergence cross-check on a handful of seeds (the full check is the
  // ctest suite's job; here it guards against benching a broken build).
  for (uint64_t seed = 1000; seed < 1008; ++seed) {
    const SimRun with = RunOne(seed, true, rounds, modules);
    const SimRun without = RunOne(seed, false, rounds, modules);
    if (!with.ok || with.sink_trace != without.sink_trace) {
      std::fprintf(stderr, "seed %llu did not converge\n",
                   static_cast<unsigned long long>(seed));
      return 1;
    }
  }

  std::printf("%-12s, %10s, %12s, %10s, %12s\n", "mode", "seconds",
              "schedules/s", "virtual-x", "submits/s");
  for (const Mode* mode : {&faulty, &clean}) {
    const double schedules_per_sec = static_cast<double>(seeds) / mode->seconds;
    const double virtual_x =
        static_cast<double>(mode->virtual_ms) / (mode->seconds * 1000.0);
    const double submits_per_sec =
        static_cast<double>(seeds * rounds) / mode->seconds;
    std::printf("%-12s, %10.3f, %12.0f, %10.0f, %12.0f\n", mode->name,
                mode->seconds, schedules_per_sec, virtual_x, submits_per_sec);
  }

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"seeds\": %zu,\n  \"rounds\": %zu,\n"
                 "  \"modules\": %zu,\n  \"chaos_seconds\": %.6f,\n"
                 "  \"chaos_virtual_ms\": %llu,\n"
                 "  \"fault_free_seconds\": %.6f,\n"
                 "  \"fault_free_virtual_ms\": %llu\n}\n",
                 seeds, rounds, modules, faulty.seconds,
                 static_cast<unsigned long long>(faulty.virtual_ms),
                 clean.seconds,
                 static_cast<unsigned long long>(clean.virtual_ms));
    std::fclose(json);
  }
  return 0;
}
