// Sharded remote runtime throughput: thread-per-core scaling.
//
// The workload is G groups x R rounds x M modules, driven by one binary
// client connection per group (the common IoT shape: one device feeds
// one group).  Against a ShardedVoterServer every connection migrates to
// the shard owning its group on the first SUBMIT_BATCH and is strictly
// shard-local afterwards, so shards add up instead of contending.
//
// Modes over the identical workload:
//   single-reactor    the unsharded RemoteVoterServer (baseline: one
//                     epoll loop multiplexing every connection)
//   sharded-N         ShardedVoterServer at N ∈ {1, 2, 4, all-cores}
//
// Every sharded run's per-group sink traces must be BIT-IDENTICAL to the
// single-shard run's (and the sink must have fused every round) or the
// bench exits non-zero — throughput numbers from a wrong answer are
// worthless.  Writes BENCH_sharded_remote.json; the JSON carries the
// machine's core count because the >5x all-cores target only means
// anything with >5 usable cores.
// Flags: --groups G --rounds R --modules M --batch B --depth D
//        --repeat K --json PATH
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "runtime/remote.h"
#include "runtime/sharded_remote.h"
#include "util/cli.h"
#include "util/strings.h"

namespace {

using avoc::runtime::BatchReading;
using avoc::runtime::RemoteVoterClient;
using avoc::runtime::RemoteVoterServer;
using avoc::runtime::ShardedServerOptions;
using avoc::runtime::ShardedVoterServer;
using avoc::runtime::SinkNode;
using avoc::runtime::VoterGroupManager;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string GroupName(size_t i) { return "device-" + std::to_string(i); }

std::vector<BatchReading> MakeReadings(size_t rounds, size_t modules,
                                       size_t group) {
  std::vector<BatchReading> readings;
  readings.reserve(rounds * modules);
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t m = 0; m < modules; ++m) {
      readings.push_back(BatchReading{
          m, r,
          20.0 + static_cast<double>(m) +
              0.01 * static_cast<double>((r + group) % 7)});
    }
  }
  return readings;
}

/// Bit-exact rendering of one sink's fused outputs (hex floats).
std::string SinkTrace(const SinkNode& sink) {
  std::string trace;
  sink.WithTrace([&trace](const avoc::core::BatchTrace& rows,
                          const std::vector<size_t>& rounds) {
    for (size_t i = 0; i < rounds.size(); ++i) {
      trace += avoc::StrFormat("%zu %d %a\n", rounds[i],
                               static_cast<int>(rows.outcome(i)),
                               rows.output(i).value_or(-0.0));
    }
  });
  return trace;
}

/// One client thread: pipelined SUBMIT_BATCH of this group's readings.
bool DriveGroup(uint16_t port, const std::string& group,
                std::span<const BatchReading> readings, size_t batch,
                size_t depth) {
  auto client = RemoteVoterClient::ConnectBinary("127.0.0.1", port);
  if (!client.ok()) return false;
  size_t offset = 0;
  while (offset < readings.size()) {
    const size_t n = std::min(batch, readings.size() - offset);
    if (!client->PipelineSubmitBatch(group, readings.subspan(offset, n))
             .ok()) {
      return false;
    }
    offset += n;
    while (client->pending_replies() >= depth) {
      if (!client->AwaitSubmitBatch().ok()) return false;
    }
  }
  while (client->pending_replies() > 0) {
    if (!client->AwaitSubmitBatch().ok()) return false;
  }
  return true;
}

struct RunOutcome {
  bool ok = false;
  double seconds = 0.0;
  std::vector<std::string> traces;  ///< per group, bit-exact
};

/// Drives all groups concurrently against `port`, one thread per group.
double DriveAll(uint16_t port,
                const std::vector<std::vector<BatchReading>>& workloads,
                size_t batch, size_t depth) {
  std::atomic<bool> failed{false};
  std::vector<std::thread> drivers;
  const auto start = std::chrono::steady_clock::now();
  for (size_t g = 0; g < workloads.size(); ++g) {
    drivers.emplace_back([&, g] {
      if (!DriveGroup(port, GroupName(g), workloads[g], batch, depth)) {
        failed.store(true);
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  const double seconds = SecondsSince(start);
  return failed.load() ? -1.0 : seconds;
}

RunOutcome RunSharded(size_t shards,
                      const std::vector<std::vector<BatchReading>>& workloads,
                      size_t rounds, size_t modules, size_t batch,
                      size_t depth) {
  RunOutcome outcome;
  ShardedServerOptions options;
  options.shards = shards;
  avoc::obs::Registry registry;
  auto server = ShardedVoterServer::Start(options, nullptr, &registry);
  if (!server.ok()) {
    std::fprintf(stderr, "sharded server: %s\n",
                 server.status().ToString().c_str());
    return outcome;
  }
  for (size_t g = 0; g < workloads.size(); ++g) {
    auto engine = avoc::core::MakeEngine(avoc::core::AlgorithmId::kAvoc,
                                         modules);
    if (!engine.ok() ||
        !(*server)->AddGroup(GroupName(g), *std::move(engine)).ok()) {
      return outcome;
    }
  }
  if (!(*server)->Serve().ok()) return outcome;

  outcome.seconds = DriveAll((*server)->port(), workloads, batch, depth);
  if (outcome.seconds < 0.0) return outcome;
  for (size_t g = 0; g < workloads.size(); ++g) {
    auto sink = (*server)->sink(GroupName(g));
    if (!sink.ok() || (*sink)->output_count() != rounds) {
      std::fprintf(stderr, "shards=%zu: group %zu fused %zu/%zu rounds\n",
                   shards, g, sink.ok() ? (*sink)->output_count() : 0, rounds);
      return outcome;
    }
    outcome.traces.push_back(SinkTrace(**sink));
  }
  (*server)->Stop();
  outcome.ok = true;
  return outcome;
}

RunOutcome RunSingleReactor(
    const std::vector<std::vector<BatchReading>>& workloads, size_t rounds,
    size_t modules, size_t batch, size_t depth) {
  RunOutcome outcome;
  VoterGroupManager manager;
  for (size_t g = 0; g < workloads.size(); ++g) {
    auto engine = avoc::core::MakeEngine(avoc::core::AlgorithmId::kAvoc,
                                         modules);
    if (!engine.ok() ||
        !manager.AddGroup(GroupName(g), *std::move(engine)).ok()) {
      return outcome;
    }
  }
  auto server = RemoteVoterServer::Start(&manager, 0);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    return outcome;
  }
  outcome.seconds = DriveAll((*server)->port(), workloads, batch, depth);
  if (outcome.seconds < 0.0) return outcome;
  for (size_t g = 0; g < workloads.size(); ++g) {
    auto sink = manager.sink(GroupName(g));
    if (!sink.ok() || (*sink)->output_count() != rounds) {
      std::fprintf(stderr, "single-reactor: group %zu fused %zu/%zu rounds\n",
                   g, sink.ok() ? (*sink)->output_count() : 0, rounds);
      return outcome;
    }
    outcome.traces.push_back(SinkTrace(**sink));
  }
  (*server)->Stop();
  outcome.ok = true;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  auto cli = avoc::CommandLine::Parse(argc - 1, argv + 1);
  if (!cli.ok()) return 1;
  const size_t groups =
      std::max<size_t>(1, static_cast<size_t>(cli->GetInt("groups", 8)));
  const size_t rounds = static_cast<size_t>(cli->GetInt("rounds", 1500));
  const size_t modules = static_cast<size_t>(cli->GetInt("modules", 3));
  const size_t batch =
      std::max<size_t>(1, static_cast<size_t>(cli->GetInt("batch", 512)));
  const size_t depth =
      std::max<size_t>(1, static_cast<size_t>(cli->GetInt("depth", 8)));
  const size_t repeat =
      std::max<size_t>(1, static_cast<size_t>(cli->GetInt("repeat", 3)));
  const std::string json_path =
      cli->GetString("json", "BENCH_sharded_remote.json");

  const size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());
  std::vector<size_t> shard_counts = {1, 2, 4, cores};
  std::sort(shard_counts.begin(), shard_counts.end());
  shard_counts.erase(std::unique(shard_counts.begin(), shard_counts.end()),
                     shard_counts.end());

  std::vector<std::vector<BatchReading>> workloads;
  for (size_t g = 0; g < groups; ++g) {
    workloads.push_back(MakeReadings(rounds, modules, g));
  }
  const double total_readings =
      static_cast<double>(groups * rounds * modules);
  const double total_rounds = static_cast<double>(groups * rounds);

  std::printf("=== sharded remote throughput: %zu groups x %zu rounds x %zu "
              "modules, %zu cores, best of %zu ===\n",
              groups, rounds, modules, cores, repeat);

  // Baseline: the unsharded single-reactor server.
  double baseline_seconds = 0.0;
  std::vector<std::string> reference_traces;
  for (size_t it = 0; it < repeat; ++it) {
    const RunOutcome run =
        RunSingleReactor(workloads, rounds, modules, batch, depth);
    if (!run.ok) return 1;
    if (it == 0 || run.seconds < baseline_seconds) {
      baseline_seconds = run.seconds;
    }
    reference_traces = run.traces;
  }
  std::printf("%-16s, %10.3f s, %12.0f readings/s, %10.0f rounds/s\n",
              "single-reactor", baseline_seconds,
              total_readings / baseline_seconds,
              total_rounds / baseline_seconds);

  struct ShardResult {
    size_t shards = 0;
    double seconds = 0.0;
    bool traces_match = true;
  };
  std::vector<ShardResult> results;
  for (size_t shards : shard_counts) {
    ShardResult result;
    result.shards = shards;
    for (size_t it = 0; it < repeat; ++it) {
      const RunOutcome run =
          RunSharded(shards, workloads, rounds, modules, batch, depth);
      if (!run.ok) return 1;
      if (run.traces != reference_traces) {
        std::fprintf(stderr,
                     "FATAL: shards=%zu sink traces differ from the "
                     "single-reactor run\n",
                     shards);
        return 1;
      }
      if (it == 0 || run.seconds < result.seconds) {
        result.seconds = run.seconds;
      }
    }
    std::printf("%-16s, %10.3f s, %12.0f readings/s, %10.0f rounds/s, "
                "%.2fx vs single-reactor\n",
                ("sharded-" + std::to_string(shards)).c_str(), result.seconds,
                total_readings / result.seconds, total_rounds / result.seconds,
                baseline_seconds / result.seconds);
    results.push_back(result);
  }

  const double all_cores_speedup =
      baseline_seconds / results.back().seconds;
  std::printf("\nall-cores (%zu shards) vs single-reactor: %.2fx "
              "(target >5x needs >5 cores; this machine has %zu)\n",
              results.back().shards, all_cores_speedup, cores);

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"sharded_remote\",\n"
                 "  \"cores\": %zu,\n"
                 "  \"groups\": %zu,\n"
                 "  \"rounds_per_group\": %zu,\n"
                 "  \"modules\": %zu,\n"
                 "  \"batch\": %zu,\n"
                 "  \"depth\": %zu,\n"
                 "  \"repeat\": %zu,\n"
                 "  \"target_speedup_all_cores\": 5.0,\n"
                 "  \"speedup_all_cores_vs_single_reactor\": %.3f,\n"
                 "  \"baseline\": {\"mode\": \"single-reactor\", "
                 "\"seconds\": %.6f, \"readings_per_sec\": %.1f, "
                 "\"rounds_per_sec\": %.1f},\n"
                 "  \"results\": [\n",
                 cores, groups, rounds, modules, batch, depth, repeat,
                 all_cores_speedup, baseline_seconds,
                 total_readings / baseline_seconds,
                 total_rounds / baseline_seconds);
    for (size_t i = 0; i < results.size(); ++i) {
      const ShardResult& r = results[i];
      std::fprintf(json,
                   "    {\"shards\": %zu, \"seconds\": %.6f, "
                   "\"readings_per_sec\": %.1f, \"rounds_per_sec\": %.1f, "
                   "\"speedup_vs_single_reactor\": %.3f, "
                   "\"sink_traces_match_single_shard\": true}%s\n",
                   r.shards, r.seconds, total_readings / r.seconds,
                   total_rounds / r.seconds, baseline_seconds / r.seconds,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
