// Smart-shelf example — the paper's §1 motivation: "In smart shopping
// scenarios with networked shelf labels, the degree of redundancy rises
// significantly to dozens of proximity sensors."
//
// A shelf carries 24 proximity sensors measuring the distance to the
// nearest shopper (cm).  Several sensors are unreliable (dirty lenses:
// noisy; mis-mounted: biased; flaky wiring: dropouts).  The
// VoterGroupManager runs one AVOC voter per shelf; the fused distance
// drives the "shopper nearby" decision for the shelf's e-ink label.
//
// Usage: smart_shelf [--rounds N] [--seed S] [--sensors N]
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "core/algorithms.h"
#include "runtime/group_manager.h"
#include "stats/running.h"
#include "util/cli.h"
#include "util/rng.h"
#include "vdx/factory.h"

int main(int argc, char** argv) {
  auto cli = avoc::CommandLine::Parse(argc - 1, argv + 1);
  if (!cli.ok()) {
    std::fprintf(stderr, "%s\n", cli.status().ToString().c_str());
    return 1;
  }
  const size_t rounds = static_cast<size_t>(cli->GetInt("rounds", 120));
  const size_t sensors = static_cast<size_t>(cli->GetInt("sensors", 24));
  avoc::Rng rng(static_cast<uint64_t>(cli->GetInt("seed", 99)));

  // One AVOC voter per shelf, defined by VDX like any application would.
  avoc::core::PresetParams preset;
  preset.scale = avoc::core::ThresholdScale::kAbsolute;
  preset.error = 15.0;  // agree within 15 cm
  preset.quorum_fraction = 0.5;
  const avoc::vdx::Spec spec =
      avoc::vdx::ExportSpec(avoc::core::AlgorithmId::kAvoc, preset);

  avoc::runtime::VoterGroupManager shelves;
  for (const char* shelf : {"shelf-dairy", "shelf-snacks"}) {
    auto st = shelves.AddGroupFromSpec(shelf, spec, sensors);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Sensor pathology assignment: indices 0-2 biased, 3-5 extra noisy,
  // 6-7 flaky (drop 40% of readings).  The rest are healthy.
  auto sample = [&](size_t m, double truth) -> std::optional<double> {
    double value = truth;
    double noise = 4.0;
    if (m < 3) value += 60.0;          // mis-mounted: reads 60 cm far
    if (m >= 3 && m < 6) noise = 25.0; // dirty lens
    if (m >= 6 && m < 8 && rng.Bernoulli(0.4)) return std::nullopt;
    return value + rng.Gaussian(0.0, noise);
  };

  // A shopper approaches the dairy shelf, lingers, and leaves; nobody
  // visits the snacks shelf (distance stays at the aisle width).
  auto dairy_truth = [&](size_t r) {
    const double t = static_cast<double>(r);
    if (t < 40) return 300.0 - 6.0 * t;           // approach
    if (t < 80) return 60.0;                      // browsing
    return 60.0 + 6.0 * (t - 80.0);               // leaving
  };

  size_t nearby_rounds_fused = 0;
  size_t nearby_rounds_truth = 0;
  avoc::stats::RunningStats error;
  for (size_t r = 0; r < rounds; ++r) {
    const double truth_dairy = dairy_truth(r);
    for (size_t m = 0; m < sensors; ++m) {
      if (const auto v = sample(m, truth_dairy)) {
        (void)shelves.Submit("shelf-dairy", m, r, *v);
      }
      if (const auto v = sample(m, 350.0)) {
        (void)shelves.Submit("shelf-snacks", m, r, *v);
      }
    }
    shelves.CloseRoundAll(r);

    std::optional<double> fused;
    (*shelves.sink("shelf-dairy"))
        ->WithTrace([&fused](const avoc::core::BatchTrace& trace,
                             const std::vector<size_t>& rounds) {
          if (!rounds.empty()) fused = trace.output(rounds.size() - 1);
        });
    if (fused.has_value()) {
      error.Add(std::abs(*fused - truth_dairy));
      if (*fused < 100.0) ++nearby_rounds_fused;
    }
    if (truth_dairy < 100.0) ++nearby_rounds_truth;
  }

  std::printf("smart shelf: %zu sensors x %zu rounds per shelf\n", sensors,
              rounds);
  std::printf("dairy shelf: fused-distance mean error %.1f cm\n",
              error.mean());
  std::printf("'shopper nearby' rounds: truth %zu, fused decision %zu\n",
              nearby_rounds_truth, nearby_rounds_fused);

  (*shelves.sink("shelf-snacks"))
      ->WithTrace([](const avoc::core::BatchTrace& trace,
                     const std::vector<size_t>& rounds) {
        size_t false_alarms = 0;
        for (size_t i = 0; i < rounds.size(); ++i) {
          const auto value = trace.output(i);
          if (value.has_value() && *value < 100.0) ++false_alarms;
        }
        std::printf("snacks shelf: %zu false 'nearby' alarms in %zu rounds\n",
                    false_alarms, rounds.size());
      });

  // Show the learned reliability map of the dairy shelf.
  (*shelves.sink("shelf-dairy"))
      ->WithTrace([](const avoc::core::BatchTrace& trace,
                     const std::vector<size_t>& rounds) {
        if (rounds.empty()) return;
        std::printf("\nlearned sensor records (dairy):");
        const auto history = trace.history(rounds.size() - 1);
        for (size_t m = 0; m < history.size(); ++m) {
          if (m % 8 == 0) std::printf("\n  ");
          std::printf("s%02zu=%.2f ", m, history[m]);
        }
        std::printf(
            "\n(mis-mounted sensors 0-2 end with the lowest records)\n");
      });
  return 0;
}
