#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace avoc::obs {
namespace {

TEST(ObsMetricsTest, CounterStartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(ObsMetricsTest, CounterConcurrentWritersLoseNothing) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(ObsMetricsTest, GaugeSetAndAdd) {
  Gauge gauge;
  gauge.Set(3.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 2.5);
}

TEST(ObsMetricsTest, HistogramExactBucketsBelowEight) {
  for (uint64_t v = 0; v < LatencyHistogram::kLinearBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), v);
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(v), v);
  }
}

TEST(ObsMetricsTest, HistogramBucketBoundsBracketTheirValues) {
  // Every value must land in a bucket whose [lower, next-lower) range
  // contains it, and bucket indices must be monotone in the value.
  uint64_t previous_index = 0;
  for (uint64_t v = 0; v < (1u << 20); v = v < 64 ? v + 1 : v + v / 3) {
    const size_t index = LatencyHistogram::BucketIndex(v);
    ASSERT_LT(index, LatencyHistogram::kBucketCount);
    EXPECT_LE(LatencyHistogram::BucketLowerBound(index), v);
    EXPECT_LT(v, LatencyHistogram::BucketLowerBound(index + 1));
    EXPECT_GE(index, previous_index);
    previous_index = index;
  }
}

TEST(ObsMetricsTest, HistogramSubBucketWidthBoundsQuantileError) {
  // Above the linear range each octave splits into kSubBuckets buckets,
  // so a bucket's width is at most 1/kSubBuckets of its lower bound —
  // the documented 12.5% relative error bound (half-width 1/8).
  for (size_t index = LatencyHistogram::kLinearBuckets + 1;
       index + 1 < LatencyHistogram::kBucketCount; ++index) {
    const uint64_t low = LatencyHistogram::BucketLowerBound(index);
    const uint64_t high = LatencyHistogram::BucketLowerBound(index + 1);
    EXPECT_LE(high - low, low / LatencyHistogram::kSubBuckets + 1)
        << "bucket " << index;
  }
}

TEST(ObsMetricsTest, HistogramHugeValuesClampIntoLastBucket) {
  const uint64_t huge = ~uint64_t{0};
  EXPECT_EQ(LatencyHistogram::BucketIndex(huge),
            LatencyHistogram::kBucketCount - 1);
  LatencyHistogram histogram;
  histogram.Record(huge);
  EXPECT_EQ(histogram.count(), 1u);
}

TEST(ObsMetricsTest, HistogramQuantilesApproximateTheData) {
  LatencyHistogram histogram;
  // 1000 samples at 1000ns, 50 at 10000ns: p50 ~ 1000, p99 ~ 10000.
  for (int i = 0; i < 1000; ++i) histogram.Record(1000);
  for (int i = 0; i < 50; ++i) histogram.Record(10000);
  const LatencySnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 1050u);
  EXPECT_NEAR(snapshot.p50(), 1000.0, 1000.0 * 0.125);
  EXPECT_NEAR(snapshot.p99(), 10000.0, 10000.0 * 0.125);
  EXPECT_NEAR(snapshot.Mean(), (1000.0 * 1000 + 50 * 10000) / 1050, 1.0);
}

TEST(ObsMetricsTest, SnapshotMergeAddsBucketwise) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 10; ++i) a.Record(100);
  for (int i = 0; i < 30; ++i) b.Record(100000);
  LatencySnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.count, 40u);
  EXPECT_EQ(merged.sum, 10u * 100 + 30u * 100000);
  EXPECT_NEAR(merged.Quantile(0.1), 100.0, 100.0 * 0.125);
  EXPECT_NEAR(merged.Quantile(0.9), 100000.0, 100000.0 * 0.125);
}

TEST(ObsMetricsTest, SnapshotUnderConcurrentWritersStaysConsistent) {
  // TSan target: snapshots race with writers by design; every snapshot
  // must still be internally consistent (bucket sum == count snapshot
  // modulo in-flight records) and the final state exact.
  LatencyHistogram histogram;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&histogram, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        histogram.Record(100 + static_cast<uint64_t>(t));
      }
    });
  }
  uint64_t snapshots_taken = 0;
  while (!done.load(std::memory_order_relaxed)) {
    const LatencySnapshot snapshot = histogram.Snapshot();
    uint64_t bucket_sum = 0;
    for (const uint64_t c : snapshot.counts) bucket_sum += c;
    // A Record bumps its bin before the count, and Snapshot copies bins
    // before the count: the count may run ahead of the bins by however
    // many records landed mid-copy, but the bins can only run ahead of
    // the count by one in-flight Record per writer.
    EXPECT_LE(bucket_sum, snapshot.count + kThreads);
    EXPECT_LE(snapshot.count, kThreads * kPerThread);
    if (++snapshots_taken >= 50) done.store(true, std::memory_order_relaxed);
  }
  for (std::thread& w : writers) w.join();
  const LatencySnapshot final_snapshot = histogram.Snapshot();
  EXPECT_EQ(final_snapshot.count, kThreads * kPerThread);
}

TEST(ObsMetricsTest, LabeledNameFormatsPrometheusStyle) {
  EXPECT_EQ(LabeledName("avoc_rounds_total", {{"group", "g0"}}),
            "avoc_rounds_total{group=\"g0\"}");
  EXPECT_EQ(LabeledName("avoc_stage_latency_ns",
                        {{"shard", "s1"}, {"stage", "quorum"}}),
            "avoc_stage_latency_ns{shard=\"s1\",stage=\"quorum\"}");
}

TEST(ObsMetricsTest, RegistryReturnsStableSharedInstances) {
  Registry registry;
  Counter& first = registry.GetCounter("avoc_test_total");
  first.Add(5);
  Counter& second = registry.GetCounter("avoc_test_total");
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.Value(), 5u);
  EXPECT_EQ(registry.metric_count(), 1u);
}

TEST(ObsMetricsTest, RegistryAggregatesLabeledFamilies) {
  Registry registry;
  const auto rounds = [](std::string_view group) {
    return LabeledName("avoc_rounds_total", {{"group", group}});
  };
  registry.GetCounter(rounds("a")).Add(3);
  registry.GetCounter(rounds("b")).Add(4);
  registry.GetCounter("avoc_rounds_total_unrelated").Add(100);
  EXPECT_EQ(registry.SumCounters("avoc_rounds_total"), 7u);

  registry.GetHistogram(LabeledName("avoc_lat_ns", {{"shard", "s0"}}))
      .Record(10);
  registry.GetHistogram(LabeledName("avoc_lat_ns", {{"shard", "s1"}}))
      .Record(20);
  EXPECT_EQ(registry.MergeHistograms("avoc_lat_ns").count, 2u);
}

TEST(ObsMetricsTest, RenderPrometheusEmitsAllKinds) {
  Registry registry;
  registry.GetCounter(LabeledName("avoc_rounds_total", {{"group", "g"}}))
      .Add(2);
  registry.GetGauge("avoc_queue_depth").Set(7.0);
  registry.GetHistogram("avoc_lat_ns").Record(1000);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("avoc_rounds_total{group=\"g\"} 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("avoc_queue_depth 7"), std::string::npos) << text;
  EXPECT_NE(text.find("avoc_lat_ns_count 1"), std::string::npos) << text;
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(ObsMetricsTest, RegistryConcurrentGetAndWrite) {
  // Creation takes the registry mutex; concurrent callers for the same
  // name must converge on one object and lose no increments.
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry.GetCounter("avoc_contended_total").Increment();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(registry.GetCounter("avoc_contended_total").Value(),
            static_cast<uint64_t>(kThreads) * 1000u);
}

TEST(ObsMetricsTest, EscapeLabelValueHandlesHostileBytes) {
  EXPECT_EQ(EscapeLabelValue("plain-group"), "plain-group");
  EXPECT_EQ(EscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapeLabelValue("back\\slash"), "back\\\\slash");
  EXPECT_EQ(EscapeLabelValue("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(EscapeLabelValue(""), "");
}

// Regression: group names come off the wire.  A group id built from
// quotes, backslashes, and newlines must render as ONE well-formed
// Prometheus line — no forged metrics, no broken exposition.
TEST(ObsMetricsTest, RenderPrometheusSurvivesHostileGroupId) {
  Registry registry;
  const std::string hostile = "g\"} 999\nforged_total 1 #\\";
  registry.GetCounter(LabeledName("avoc_rounds_total", {{"group", hostile}}))
      .Add(2);
  const std::string text = registry.RenderPrometheus();
  // The hostile id renders escaped inside the label value...
  EXPECT_NE(
      text.find("avoc_rounds_total{group=\"g\\\"} 999\\nforged_total 1 #\\\\\"}"
                " 2"),
      std::string::npos)
      << text;
  // ...and no line of the exposition is the forged metric.
  EXPECT_EQ(text.find("\nforged_total"), std::string::npos) << text;
  for (size_t at = 0, eol; at < text.size(); at = eol + 1) {
    eol = text.find('\n', at);
    ASSERT_NE(eol, std::string::npos);  // exposition ends with newline
    const std::string line = text.substr(at, eol - at);
    EXPECT_EQ(line.rfind("avoc_", 0), 0u) << "forged line: " << line;
  }
}

TEST(ObsMetricsTest, BothLabeledNameOverloadsEscapeValues) {
  EXPECT_EQ(LabeledName("f", {{"k", "a\"b"}}), "f{k=\"a\\\"b\"}");
  EXPECT_EQ(LabeledName("f", {{"k1", "a\nb"}, {"k2", "c\\d"}}),
            "f{k1=\"a\\nb\",k2=\"c\\\\d\"}");
  EXPECT_EQ(LabeledName("f", {}), "f");  // no labels: the bare family
}

TEST(ObsMetricsTest, ExemplarLinksHistogramToTrace) {
  LatencyHistogram histogram;
  histogram.Record(100);  // untraced: no exemplar yet
  EXPECT_EQ(histogram.exemplar_trace_id(), 0u);
  histogram.RecordWithExemplar(2000, 0xabcdef);
  histogram.RecordWithExemplar(3000, 0);  // untraced keeps the previous one
  const LatencySnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 3u);
  EXPECT_EQ(snapshot.exemplar_trace_id, 0xabcdefu);
  EXPECT_EQ(snapshot.exemplar_nanos, 2000u);
}

TEST(ObsMetricsTest, RenderPrometheusEmitsExemplarOnlyWhenTraced) {
  Registry registry;
  registry.GetHistogram("avoc_plain_ns").Record(500);
  registry.GetHistogram("avoc_traced_ns").RecordWithExemplar(500, 0x2a);
  const std::string text = registry.RenderPrometheus();
  EXPECT_EQ(text.find("avoc_plain_ns_exemplar"), std::string::npos) << text;
  EXPECT_NE(
      text.find(
          "avoc_traced_ns_exemplar{trace_id=\"000000000000002a\"} 500"),
      std::string::npos)
      << text;
}

TEST(ObsMetricsTest, SnapshotMergeCarriesExemplars) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.RecordWithExemplar(100, 0x1);
  b.RecordWithExemplar(200, 0x2);
  LatencySnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.count, 2u);
  EXPECT_EQ(merged.exemplar_trace_id, 0x2u);  // other's exemplar wins
  LatencySnapshot empty;
  empty.Merge(a.Snapshot());
  EXPECT_EQ(empty.exemplar_trace_id, 0x1u);

  LatencyHistogram untraced;
  untraced.Record(300);
  LatencySnapshot keep = a.Snapshot();
  keep.Merge(untraced.Snapshot());
  EXPECT_EQ(keep.exemplar_trace_id, 0x1u);  // untraced merge keeps ours
}

// TSan target: snapshot + merge + render while writers (including
// exemplar writers) hammer the same histograms.  Snapshots may straddle
// in-flight records but must stay internally sane.
TEST(ObsMetricsTest, SnapshotAndMergeConcurrentWithRecording) {
  Registry registry;
  LatencyHistogram& h0 =
      registry.GetHistogram(LabeledName("avoc_busy_ns", {{"shard", "s0"}}));
  LatencyHistogram& h1 =
      registry.GetHistogram(LabeledName("avoc_busy_ns", {{"shard", "s1"}}));
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&h0, &h1, t] {
      LatencyHistogram& mine = t % 2 == 0 ? h0 : h1;
      for (uint64_t i = 1; i <= kPerWriter; ++i) {
        mine.RecordWithExemplar(i, /*trace_id=*/i | 0x100);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      LatencySnapshot merged = registry.MergeHistograms("avoc_busy_ns");
      uint64_t bucket_total = 0;
      for (const uint64_t c : merged.counts) bucket_total += c;
      // `count` is the sum of the buckets, so a snapshot taken during
      // concurrent Records agrees with itself and never invents samples
      // beyond the writers' ceiling.
      ASSERT_EQ(merged.count, bucket_total);
      ASSERT_LE(bucket_total, kWriters * kPerWriter);
      (void)registry.RenderPrometheus();
    }
  });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  const LatencySnapshot final_merge = registry.MergeHistograms("avoc_busy_ns");
  EXPECT_EQ(final_merge.count, kWriters * kPerWriter);
  EXPECT_NE(final_merge.exemplar_trace_id, 0u);
}

}  // namespace
}  // namespace avoc::obs
