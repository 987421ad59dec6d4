// Quickstart: fuse redundant sensor readings with a VDX-defined voter.
//
// Demonstrates the intended integration path in ~40 lines: parse a VDX
// document (the paper's Listing 1), build a voter from it, feed rounds,
// read fused outputs and per-module reliability records.
#include <cstdio>

#include "core/engine.h"
#include "vdx/factory.h"
#include "vdx/spec.h"

int main() {
  // The AVOC definition of Listing 1 (trailing comma and all).
  static const char kListing1[] = R"({
    "algorithm_name": "AVOC",
    "quorum": "UNTIL",
    "quorum_percentage": 100,
    "exclusion": "NONE",
    "exclusion_threshold": 0,
    "history": "HYBRID",
    "params": {
      "error": 0.05,
      "soft_threshold": 2
    },
    "collation": "MEAN_NEAREST_NEIGHBOR",
    "bootstrapping": true,
  })";

  auto spec = avoc::vdx::Spec::Parse(kListing1);
  if (!spec.ok()) {
    std::fprintf(stderr, "VDX parse failed: %s\n",
                 spec.status().ToString().c_str());
    return 1;
  }
  auto voter = avoc::vdx::MakeVoter(*spec, /*modules=*/5);
  if (!voter.ok()) {
    std::fprintf(stderr, "voter build failed: %s\n",
                 voter.status().ToString().c_str());
    return 1;
  }

  // Five redundant light sensors; the last one is broken.
  const avoc::core::Round rounds[] = {
      {18400, 18520, 18470, 18390, 24800},
      {18410, 18530, 18480, 18400, 24790},
      {18430, 18510, 18500, 18410, 24810},
  };

  for (const auto& round : rounds) {
    auto result = voter->CastVote(round);
    if (!result.ok()) {
      std::fprintf(stderr, "vote failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("output %.0f lux (clustering=%s)  records:", *result->value,
                result->used_clustering ? "yes" : "no");
    for (const double h : result->history) std::printf(" %.2f", h);
    std::printf("\n");
  }
  // The faulty sensor was excluded from the very first round by the
  // clustering bootstrap, and its reliability record is already sinking.
  return 0;
}
