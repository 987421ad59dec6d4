// Networked edge voter service — the paper's closing vision ("field test a
// voter service prototype") end to end over TCP.
//
// The process starts a RemoteVoterServer hosting two voter groups defined
// by VDX, then plays three roles against it from client connections:
// sensor feeders streaming readings (one of them faulty), a round closer,
// and a dashboard polling the fused values.
//
// Usage: edge_service [--rounds N] [--port P]
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/algorithms.h"
#include "runtime/remote.h"
#include "util/cli.h"
#include "util/rng.h"
#include "vdx/factory.h"

int main(int argc, char** argv) {
  auto cli = avoc::CommandLine::Parse(argc - 1, argv + 1);
  if (!cli.ok()) {
    std::fprintf(stderr, "%s\n", cli.status().ToString().c_str());
    return 1;
  }
  const size_t rounds = static_cast<size_t>(cli->GetInt("rounds", 25));
  const uint16_t port = static_cast<uint16_t>(cli->GetInt("port", 0));

  // The service hosts two groups, instantiated from VDX definitions.
  avoc::runtime::VoterGroupManager manager;
  const avoc::vdx::Spec avoc_spec =
      avoc::vdx::ExportSpec(avoc::core::AlgorithmId::kAvoc);
  auto st = manager.AddGroupFromSpec("hall-lights", avoc_spec, 5);
  if (st.ok()) st = manager.AddGroupFromSpec("lab-lights", avoc_spec, 5);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  auto server = avoc::runtime::RemoteVoterServer::Start(&manager, port);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  std::printf("voter service listening on 127.0.0.1:%u\n", (*server)->port());

  // Five sensor feeders per group, each on its own TCP connection; sensor
  // 4 of hall-lights reads +6 klx high.
  std::vector<std::thread> feeders;
  for (const char* group : {"hall-lights", "lab-lights"}) {
    for (size_t m = 0; m < 5; ++m) {
      feeders.emplace_back([&, group, m] {
        auto client = avoc::runtime::RemoteVoterClient::ConnectBinary(
            "127.0.0.1", (*server)->port());
        if (!client.ok()) return;
        avoc::Rng rng(1000 + m * 7 +
                      (std::string(group) == "hall-lights" ? 0 : 100));
        for (size_t r = 0; r < rounds; ++r) {
          double value = 18500.0 + rng.Gaussian(0.0, 60.0);
          if (std::string(group) == "hall-lights" && m == 4) value += 6000.0;
          (void)client->Submit(group, m, r, value);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    }
  }
  for (std::thread& feeder : feeders) feeder.join();

  // Dashboard: poll the fused values over the wire.
  auto dashboard = avoc::runtime::RemoteVoterClient::ConnectBinary(
      "127.0.0.1", (*server)->port());
  if (!dashboard.ok()) {
    std::fprintf(stderr, "%s\n", dashboard.status().ToString().c_str());
    return 1;
  }
  auto groups = dashboard->Groups();
  if (groups.ok()) {
    std::printf("groups:");
    for (const std::string& name : *groups) std::printf(" %s", name.c_str());
    std::printf("\n");
  }
  for (const char* group : {"hall-lights", "lab-lights"}) {
    auto value = dashboard->Query(group);
    if (value.ok()) {
      std::printf("%-12s fused output %.0f lux\n", group, *value);
    } else {
      std::printf("%-12s %s\n", group, value.status().ToString().c_str());
    }
  }
  std::printf("requests served: %zu\n", (*server)->requests_served());

  // The faulty sensor never polluted the hall-lights output:
  auto hall = dashboard->Query("hall-lights");
  if (hall.ok() && *hall < 19500.0) {
    std::printf("faulty sensor suppressed: output stayed in the healthy "
                "band.\n");
  }
  (*server)->Stop();
  return 0;
}
