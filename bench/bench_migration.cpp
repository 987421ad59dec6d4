// Live group-migration handoff latency on the real-TCP cluster.
//
// A 2-node VoterCluster serves one voter group while a driver thread
// submits reading rounds through a ResilientVoterClient in cluster mode
// (node directory + MOVED following + SUBMIT_BATCH_SEQ exactly-once).
// The main thread bounces the group between the nodes K times under
// that live load and measures each handoff end to end: from the
// operator's Migrate() call to the commit callback — quiesce, history
// snapshot export, transfer, import, placement flip.
//
// Correctness gates (the bench exits non-zero on violation):
//   * rounds lost must be 0: every submitted round fuses exactly once,
//     so the final sink output count equals the submitted round count;
//   * every migration must commit (typed failures fail the bench);
//   * the client must actually have chased MOVED redirects.
//
// Writes BENCH_migration.json with handoff p50/p99 and the gates.
// Flags: --migrations K --rounds-per-phase R --modules M --json PATH
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "runtime/cluster.h"
#include "runtime/resilient.h"
#include "runtime/transport.h"
#include "util/cli.h"

namespace {

using avoc::IoError;
using avoc::Result;
using avoc::Status;
using avoc::runtime::BatchReading;
using avoc::runtime::ResilientVoterClient;
using avoc::runtime::RetryPolicy;
using avoc::runtime::SystemClock;
using avoc::runtime::Transport;
using avoc::runtime::VoterCluster;

constexpr const char* kGroup = "device-0";

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const size_t index = std::min(
      sorted.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted.size())));
  return sorted[index];
}

}  // namespace

int main(int argc, char** argv) {
  auto cli = avoc::CommandLine::Parse(argc - 1, argv + 1);
  if (!cli.ok()) return 1;
  const size_t migrations =
      std::max<size_t>(1, static_cast<size_t>(cli->GetInt("migrations", 40)));
  const size_t rounds_per_phase = std::max<size_t>(
      1, static_cast<size_t>(cli->GetInt("rounds-per-phase", 40)));
  const size_t modules =
      std::max<size_t>(1, static_cast<size_t>(cli->GetInt("modules", 3)));
  const std::string json_path = cli->GetString("json", "BENCH_migration.json");

  avoc::obs::Registry registry;
  VoterCluster::Options options;
  options.nodes = 2;
  auto cluster = VoterCluster::Start(options, &registry);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster: %s\n", cluster.status().ToString().c_str());
    return 1;
  }
  const Status added = (*cluster)->AddGroup(kGroup, [modules] {
    return avoc::core::MakeEngine(avoc::core::AlgorithmId::kAvoc, modules);
  });
  if (!added.ok()) {
    std::fprintf(stderr, "add group: %s\n", added.ToString().c_str());
    return 1;
  }

  // Driver: one resilient cluster-mode client submitting rounds for the
  // whole run.  Each migration phase carries live traffic on both sides
  // of the handoff.
  const size_t total_rounds = (migrations + 1) * rounds_per_phase;
  std::atomic<size_t> submitted{0};
  std::atomic<bool> driver_failed{false};
  VoterCluster* nodes = cluster->get();
  std::thread driver([&] {
    RetryPolicy policy;
    policy.initial_backoff_ms = 1;
    policy.max_backoff_ms = 50;
    policy.request_timeout_ms = 2000;
    policy.deadline_ms = 60 * 1000;
    ResilientVoterClient client(
        []() -> Result<std::unique_ptr<Transport>> {
          return IoError("node directory only");
        },
        SystemClock::Instance(), "bench-migration", policy, /*seed=*/1,
        &registry);
    client.UseNodeDirectory(
        [nodes](size_t node) { return nodes->DialNode(node); },
        /*node_count=*/2);
    for (size_t r = 0; r < total_rounds; ++r) {
      std::vector<BatchReading> batch;
      for (size_t m = 0; m < modules; ++m) {
        batch.push_back(BatchReading{
            m, r, 20.0 + static_cast<double>(m) + 0.01 * (r % 7)});
      }
      auto accepted = client.SubmitBatch(kGroup, batch);
      if (!accepted.ok() || *accepted != batch.size()) {
        std::fprintf(stderr, "round %zu: %s\n", r,
                     accepted.ok() ? "short accept"
                                   : accepted.status().ToString().c_str());
        driver_failed.store(true);
        return;
      }
      submitted.fetch_add(1);
    }
    std::printf("driver: %zu rounds, %zu reconnects, %zu MOVED followed\n",
                total_rounds, client.reconnects(),
                client.redirects_followed());
    if (client.redirects_followed() == 0) {
      std::fprintf(stderr, "FATAL: no MOVED redirect was ever followed\n");
      driver_failed.store(true);
    }
  });

  // Operator: bounce the group after every phase of live rounds.
  std::vector<double> handoff_ms;
  size_t failed_migrations = 0;
  for (size_t k = 0; k < migrations && !driver_failed.load(); ++k) {
    const size_t phase_target = (k + 1) * rounds_per_phase;
    while (submitted.load() < phase_target && !driver_failed.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const size_t owner = (*cluster)->OwnerOf(kGroup);
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    Status outcome = Status::Ok();
    const auto start = std::chrono::steady_clock::now();
    (*cluster)->Migrate(kGroup, 1 - owner, [&](Status status) {
      std::lock_guard<std::mutex> lock(mutex);
      outcome = std::move(status);
      done = true;
      cv.notify_one();
    });
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return done; });
    }
    const double ms = MillisSince(start);
    if (!outcome.ok()) {
      std::fprintf(stderr, "migration %zu: %s\n", k,
                   outcome.ToString().c_str());
      ++failed_migrations;
      continue;
    }
    handoff_ms.push_back(ms);
  }

  driver.join();
  const size_t fused = [&]() -> size_t {
    auto sink = (*cluster)->sink(kGroup);
    return sink.ok() ? (*sink)->output_count() : 0;
  }();
  (*cluster)->Stop();

  const size_t rounds_lost = total_rounds > fused ? total_rounds - fused : 0;
  const size_t rounds_doubled = fused > total_rounds ? fused - total_rounds : 0;
  const double p50 = Quantile(handoff_ms, 0.50);
  const double p99 = Quantile(handoff_ms, 0.99);
  std::printf(
      "=== migration handoff under live load: %zu migrations, %zu rounds ===\n"
      "handoff p50 %.3f ms, p99 %.3f ms, committed %zu/%zu\n"
      "rounds fused %zu/%zu (lost %zu, doubled %zu)\n",
      migrations, total_rounds, p50, p99, handoff_ms.size(), migrations,
      fused, total_rounds, rounds_lost, rounds_doubled);

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"migration\",\n"
                 "  \"nodes\": 2,\n"
                 "  \"migrations\": %zu,\n"
                 "  \"migrations_committed\": %zu,\n"
                 "  \"rounds_submitted\": %zu,\n"
                 "  \"rounds_fused\": %zu,\n"
                 "  \"rounds_lost\": %zu,\n"
                 "  \"rounds_doubled\": %zu,\n"
                 "  \"handoff_ms_p50\": %.3f,\n"
                 "  \"handoff_ms_p99\": %.3f\n"
                 "}\n",
                 migrations, handoff_ms.size(), total_rounds, fused,
                 rounds_lost, rounds_doubled, p50, p99);
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (driver_failed.load() || failed_migrations != 0 || rounds_lost != 0 ||
      rounds_doubled != 0) {
    std::fprintf(stderr, "FATAL: migration bench violated a gate\n");
    return 1;
  }
  return 0;
}
