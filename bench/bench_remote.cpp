// Remote SUBMIT throughput: legacy line protocol vs binary frames.
//
// The line protocol costs one request/response round trip — and one text
// parse — per reading; the binary protocol ships hundreds of readings per
// SUBMIT_BATCH frame and the server votes completed rounds in one
// columnar engine pass.  Three modes over the identical loopback
// workload (R rounds x M modules into one AVOC group):
//   legacy-line       one raw SUBMIT line + OK line per reading
//   binary-batched    SUBMIT_BATCH frames of --batch readings, one
//                     round trip per frame
//   binary-pipelined  same frames, --depth of them in flight
// Each mode runs against a fresh server so history and round numbers
// match exactly; a sink cross-check fails the run if any mode lost
// rounds.  Writes BENCH_remote.json next to the stdout report.
// Flags: --rounds R --modules M --batch B --depth D --repeat K --json PATH
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "runtime/framing.h"
#include "runtime/remote.h"
#include "util/cli.h"
#include "util/strings.h"

namespace {

using avoc::runtime::BatchReading;
using avoc::runtime::RemoteVoterClient;
using avoc::runtime::RemoteVoterServer;
using avoc::runtime::TcpConnection;
using avoc::runtime::VoterGroupManager;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct ModeResult {
  const char* mode;
  double seconds = 0.0;  ///< best of the repeats
  double readings_per_sec = 0.0;
};

/// One server + one AVOC group, torn down per run so every mode sees the
/// same virgin history.
struct Fixture {
  VoterGroupManager manager;
  std::unique_ptr<RemoteVoterServer> server;

  static std::unique_ptr<Fixture> Create(size_t modules) {
    auto fixture = std::make_unique<Fixture>();
    auto engine =
        avoc::core::MakeEngine(avoc::core::AlgorithmId::kAvoc, modules);
    if (!engine.ok()) return nullptr;
    if (!fixture->manager.AddGroup("bench", *std::move(engine)).ok()) {
      return nullptr;
    }
    auto server = RemoteVoterServer::Start(&fixture->manager, 0);
    if (!server.ok()) {
      std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
      return nullptr;
    }
    fixture->server = std::move(*server);
    return fixture;
  }

  bool SinkSawEveryRound(size_t rounds) const {
    auto sink = manager.sink("bench");
    if (!sink.ok()) return false;
    if ((*sink)->output_count() != rounds) {
      std::fprintf(stderr, "sink saw %zu rounds, expected %zu\n",
                   (*sink)->output_count(), rounds);
      return false;
    }
    return true;
  }
};

std::vector<BatchReading> MakeReadings(size_t rounds, size_t modules) {
  std::vector<BatchReading> readings;
  readings.reserve(rounds * modules);
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t m = 0; m < modules; ++m) {
      readings.push_back(BatchReading{
          m, r, 20.0 + static_cast<double>(m) + 0.01 * static_cast<double>(r % 7)});
    }
  }
  return readings;
}

/// -1.0 on failure; otherwise elapsed seconds for the submit phase.
double RunLegacy(uint16_t port, std::span<const BatchReading> readings) {
  auto connection = TcpConnection::Connect("127.0.0.1", port);
  if (!connection.ok()) return -1.0;
  const auto start = std::chrono::steady_clock::now();
  for (const BatchReading& reading : readings) {
    const std::string line = avoc::StrFormat(
        "SUBMIT bench %llu %llu %.17g",
        static_cast<unsigned long long>(reading.module),
        static_cast<unsigned long long>(reading.round), reading.value);
    if (!connection->SendLine(line).ok()) return -1.0;
    auto reply = connection->ReceiveLine();
    if (!reply.ok() || *reply != "OK") return -1.0;
  }
  return SecondsSince(start);
}

double RunBatched(uint16_t port, std::span<const BatchReading> readings,
                  size_t batch, size_t depth) {
  auto client = RemoteVoterClient::ConnectBinary("127.0.0.1", port);
  if (!client.ok()) return -1.0;
  const auto start = std::chrono::steady_clock::now();
  size_t offset = 0;
  while (offset < readings.size()) {
    const size_t n = std::min(batch, readings.size() - offset);
    if (!client->PipelineSubmitBatch("bench", readings.subspan(offset, n))
             .ok()) {
      return -1.0;
    }
    offset += n;
    while (client->pending_replies() >= depth) {
      if (!client->AwaitSubmitBatch().ok()) return -1.0;
    }
  }
  while (client->pending_replies() > 0) {
    if (!client->AwaitSubmitBatch().ok()) return -1.0;
  }
  return SecondsSince(start);
}

}  // namespace

int main(int argc, char** argv) {
  auto cli = avoc::CommandLine::Parse(argc - 1, argv + 1);
  if (!cli.ok()) return 1;
  const size_t rounds = static_cast<size_t>(cli->GetInt("rounds", 2000));
  const size_t modules = static_cast<size_t>(cli->GetInt("modules", 3));
  const size_t batch = std::max<size_t>(
      1, static_cast<size_t>(cli->GetInt("batch", 512)));
  const size_t depth =
      std::max<size_t>(1, static_cast<size_t>(cli->GetInt("depth", 8)));
  const size_t repeat =
      std::max<size_t>(1, static_cast<size_t>(cli->GetInt("repeat", 3)));
  const std::string json_path = cli->GetString("json", "BENCH_remote.json");

  const std::vector<BatchReading> readings = MakeReadings(rounds, modules);
  const double total = static_cast<double>(readings.size());

  std::printf("=== remote SUBMIT throughput: %zu rounds x %zu modules over "
              "loopback, best of %zu ===\n",
              rounds, modules, repeat);

  ModeResult legacy{"legacy-line"};
  ModeResult batched{"binary-batched"};
  ModeResult pipelined{"binary-pipelined"};
  struct Job {
    ModeResult* result;
    size_t batch;
    size_t depth;  ///< 0 = legacy line protocol
  };
  const Job jobs[] = {{&legacy, 0, 0},
                      {&batched, batch, 1},
                      {&pipelined, batch, depth}};
  for (const Job& job : jobs) {
    for (size_t it = 0; it < repeat; ++it) {
      auto fixture = Fixture::Create(modules);
      if (fixture == nullptr) return 1;
      const uint16_t port = fixture->server->port();
      const double seconds =
          job.depth == 0 ? RunLegacy(port, readings)
                         : RunBatched(port, readings, job.batch, job.depth);
      if (seconds < 0.0) {
        std::fprintf(stderr, "%s run failed\n", job.result->mode);
        return 1;
      }
      // Replies are synchronous with dispatch, so the sink total is exact
      // by the time the last one arrived.
      if (!fixture->SinkSawEveryRound(rounds)) return 1;
      fixture->server->Stop();
      if (it == 0 || seconds < job.result->seconds) {
        job.result->seconds = seconds;
      }
    }
  }

  ModeResult* modes[] = {&legacy, &batched, &pipelined};
  std::printf("%-18s, %10s, %14s\n", "mode", "seconds", "readings/s");
  for (ModeResult* m : modes) {
    m->readings_per_sec = total / m->seconds;
    std::printf("%-18s, %10.3f, %14.0f\n", m->mode, m->seconds,
                m->readings_per_sec);
  }
  const double speedup_batched = legacy.seconds / batched.seconds;
  const double speedup_pipelined = legacy.seconds / pipelined.seconds;
  std::printf(
      "\nbatched vs legacy: %.1fx; pipelined (depth %zu) vs legacy: %.1fx\n",
      speedup_batched, depth, speedup_pipelined);

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"remote\",\n"
                 "  \"rounds\": %zu,\n"
                 "  \"modules\": %zu,\n"
                 "  \"readings\": %zu,\n"
                 "  \"batch\": %zu,\n"
                 "  \"depth\": %zu,\n"
                 "  \"repeat\": %zu,\n"
                 "  \"speedup_batched_vs_legacy\": %.3f,\n"
                 "  \"speedup_pipelined_vs_legacy\": %.3f,\n"
                 "  \"results\": [\n",
                 rounds, modules, readings.size(), batch, depth, repeat,
                 speedup_batched, speedup_pipelined);
    for (size_t i = 0; i < 3; ++i) {
      std::fprintf(json,
                   "    {\"mode\": \"%s\", \"seconds\": %.6f, "
                   "\"readings_per_sec\": %.1f}%s\n",
                   modes[i]->mode, modes[i]->seconds,
                   modes[i]->readings_per_sec, i + 1 < 3 ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
