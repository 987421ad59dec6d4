// End-to-end UC-2 through the multi-group middleware: both beacon stacks
// run as named voter groups inside one VoterGroupManager, fed from the
// asynchronous-stream resampler, and the fused outputs drive the
// proximity decision — the full "voter service on an edge node" picture.
#include <gtest/gtest.h>

#include <cmath>

#include "core/algorithms.h"
#include "core/batch.h"
#include "data/stream.h"
#include "runtime/group_manager.h"
#include "sim/ble.h"
#include "stats/ambiguity.h"
#include "vdx/factory.h"
#include "sink_rows.h"

namespace avoc {
namespace {

core::PresetParams BlePreset() {
  core::PresetParams params;
  params.scale = core::ThresholdScale::kAbsolute;
  params.error = 6.0;
  params.quorum_fraction = 0.2;
  return params;
}

TEST(GroupsIntegrationTest, TwoStacksThroughTheManager) {
  const auto dataset = sim::BleScenario().Generate();
  const vdx::Spec spec =
      vdx::ExportSpec(core::AlgorithmId::kAvoc, BlePreset());

  runtime::VoterGroupManager manager;
  ASSERT_TRUE(manager.AddGroupFromSpec("stack-a", spec, 9).ok());
  ASSERT_TRUE(manager.AddGroupFromSpec("stack-b", spec, 9).ok());

  for (size_t r = 0; r < dataset.stack_a.round_count(); ++r) {
    for (size_t m = 0; m < 9; ++m) {
      if (dataset.stack_a.At(r, m).has_value()) {
        ASSERT_TRUE(
            manager.Submit("stack-a", m, r, *dataset.stack_a.At(r, m)).ok());
      }
      if (dataset.stack_b.At(r, m).has_value()) {
        ASSERT_TRUE(
            manager.Submit("stack-b", m, r, *dataset.stack_b.At(r, m)).ok());
      }
    }
    manager.CloseRoundAll(r);
  }

  const auto outputs_a = SinkRows(**manager.sink("stack-a"));
  const auto outputs_b = SinkRows(**manager.sink("stack-b"));
  ASSERT_EQ(outputs_a.size(), 297u);
  ASSERT_EQ(outputs_b.size(), 297u);

  // Middleware path must equal the direct batch path bit-for-bit.
  auto direct =
      core::RunAlgorithm(core::AlgorithmId::kAvoc, dataset.stack_a,
                         BlePreset());
  ASSERT_TRUE(direct.ok());
  for (size_t r = 0; r < 297; ++r) {
    const auto direct_output = direct->output(r);
    ASSERT_EQ(outputs_a[r].result.value.has_value(),
              direct_output.has_value());
    if (direct_output.has_value()) {
      EXPECT_DOUBLE_EQ(*outputs_a[r].result.value, *direct_output);
    }
  }

  // Proximity decision: start near A, end near B.
  auto fused = [](const std::vector<runtime::SinkRow>& outputs,
                  size_t r) {
    return outputs[r].result.value;
  };
  size_t early_a_wins = 0;
  size_t late_b_wins = 0;
  for (size_t r = 0; r < 50; ++r) {
    if (fused(outputs_a, r).has_value() && fused(outputs_b, r).has_value() &&
        *fused(outputs_a, r) > *fused(outputs_b, r)) {
      ++early_a_wins;
    }
    const size_t rl = 296 - r;
    if (fused(outputs_a, rl).has_value() &&
        fused(outputs_b, rl).has_value() &&
        *fused(outputs_b, rl) > *fused(outputs_a, rl)) {
      ++late_b_wins;
    }
  }
  EXPECT_GT(early_a_wins, 40u);
  EXPECT_GT(late_b_wins, 40u);
}

TEST(GroupsIntegrationTest, AsynchronousStreamsFeedTheVoter) {
  // Simulate 5 sensors reporting asynchronously with jitter and loss,
  // resample into rounds, and fuse: the fused series must track the
  // ground-truth ramp despite one sensor being completely wrong.
  Rng rng(77);
  std::vector<data::SampleStream> streams;
  for (size_t m = 0; m < 5; ++m) {
    streams.emplace_back("s" + std::to_string(m));
  }
  auto truth = [](double t) { return 100.0 + 5.0 * t; };
  for (size_t m = 0; m < 5; ++m) {
    double t = rng.Uniform(0.0, 0.3);
    while (t < 30.0) {
      if (!rng.Bernoulli(0.15)) {  // 15% packet loss
        double value = truth(t) + rng.Gaussian(0.0, 1.0);
        if (m == 4) value += 500.0;  // broken sensor
        streams[m].Push(t, value);
      }
      t += rng.Uniform(0.7, 1.3);  // ~1 Hz with jitter
    }
  }
  data::ResampleOptions options;
  options.period = 1.0;
  options.start = 0.0;
  options.rounds = 30;
  options.method = data::ResampleMethod::kNearest;
  auto table = data::ResampleToRounds(streams, options);
  ASSERT_TRUE(table.ok());

  core::PresetParams preset;
  preset.scale = core::ThresholdScale::kAbsolute;
  preset.error = 10.0;
  preset.quorum_fraction = 0.4;
  auto batch = core::RunAlgorithm(core::AlgorithmId::kAvoc, *table, preset);
  ASSERT_TRUE(batch.ok());
  size_t good_rounds = 0;
  for (size_t r = 0; r < 30; ++r) {
    const auto output = batch->output(r);
    if (!output.has_value()) continue;
    // Resampling tolerates up to one period of skew: compare loosely.
    if (std::abs(*output - truth(static_cast<double>(r))) < 15.0) {
      ++good_rounds;
    }
  }
  EXPECT_GT(good_rounds, 25u);
}

}  // namespace
}  // namespace avoc
