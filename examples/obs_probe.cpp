// Observability smoke probe: starts an instrumented voter service,
// submits a few rounds over TCP, scrapes METRICS and HEALTH, and exits
// non-zero unless the scrape contains live per-group telemetry.  CI runs
// this as the end-to-end check that the metrics pipeline (engine observer
// -> registry -> introspection endpoint) is wired.
#include <cstdio>
#include <string>
#include <thread>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "runtime/remote.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  auto cli = avoc::CommandLine::Parse(argc - 1, argv + 1);
  if (!cli.ok()) return 1;
  const size_t rounds = static_cast<size_t>(cli->GetInt("rounds", 5));
  const size_t modules = static_cast<size_t>(cli->GetInt("modules", 3));

  avoc::obs::Registry registry;
  avoc::runtime::VoterGroupManager manager(nullptr, &registry);
  auto engine = avoc::core::MakeEngine(avoc::core::AlgorithmId::kAvoc,
                                       modules);
  if (!engine.ok() || !manager.AddGroup("probe", std::move(*engine)).ok()) {
    std::fprintf(stderr, "obs_probe: failed to set up the group\n");
    return 1;
  }
  auto server = avoc::runtime::RemoteVoterServer::Start(&manager, 0);
  if (!server.ok()) {
    std::fprintf(stderr, "obs_probe: server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  auto client = avoc::runtime::RemoteVoterClient::ConnectBinary(
      "127.0.0.1", (*server)->port());
  if (!client.ok()) {
    std::fprintf(stderr, "obs_probe: connect: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t m = 0; m < modules; ++m) {
      const double value = 20.0 + 0.1 * static_cast<double>(m);
      if (!client->Submit("probe", m, r, value).ok()) {
        std::fprintf(stderr, "obs_probe: submit failed\n");
        return 1;
      }
    }
  }
  // Rounds fuse asynchronously on the group's pipeline thread.
  auto sink = manager.sink("probe");
  if (!sink.ok()) return 1;
  for (int i = 0; i < 400 && (*sink)->output_count() < rounds; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if ((*sink)->output_count() < rounds) {
    std::fprintf(stderr, "obs_probe: only %zu/%zu rounds fused\n",
                 (*sink)->output_count(), rounds);
    return 1;
  }

  auto metrics = client->Metrics();
  if (!metrics.ok() || metrics->empty()) {
    std::fprintf(stderr, "obs_probe: metrics scrape failed\n");
    return 1;
  }
  const std::string expected =
      "avoc_rounds_total{group=\"probe\"} " + std::to_string(rounds);
  if (metrics->find(expected) == std::string::npos) {
    std::fprintf(stderr, "obs_probe: scrape missing '%s':\n%s",
                 expected.c_str(), metrics->c_str());
    return 1;
  }
  auto health = client->Health();
  if (!health.ok() || health->empty() ||
      (*health)[0].find("status=ok") == std::string::npos) {
    std::fprintf(stderr, "obs_probe: health check failed\n");
    return 1;
  }

  std::printf("obs_probe: OK — %zu rounds fused, %zu metrics exposed\n",
              rounds, registry.metric_count());
  std::printf("%s", metrics->c_str());
  (*server)->Stop();
  return 0;
}
