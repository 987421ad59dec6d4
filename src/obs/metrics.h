// Lock-free runtime metrics: the voter telemetry substrate.
//
// The batch result path (core/vote_sink.h) made the hot loop
// allocation-free; this layer keeps it *observation*-free too.  Every
// primitive here is wait-free on the write side once created:
//
//   * Counter          — monotonic count, sharded across cache-line-padded
//                        per-thread slots so concurrent writers never
//                        contend on one line; Value() sums the shards.
//   * Gauge            — one relaxed atomic double (queue depth, lag).
//   * LatencyHistogram — fixed log-linear buckets of atomic bins; the
//                        count is the sum of the bins.
//                        Snapshots are plain structs that merge, so
//                        per-shard histograms aggregate into one p50/p95/p99.
//   * Registry         — names -> metric objects.  Creation takes a mutex
//                        (cold path, done at wiring time); the returned
//                        references are stable for the registry's lifetime
//                        and writing through them never locks.
//
// Everything is off by default: nothing in core/ or runtime/ touches a
// registry unless one is handed in through the layer's options.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace avoc::obs {

/// Shards per Counter.  Threads hash onto slots; 16 covers the worker
/// pools in use while keeping an idle Counter at one KiB.
inline constexpr size_t kCounterShards = 16;

/// Stable per-thread shard index in [0, kCounterShards).
size_t ThreadShard();

/// Monotonic counter, sharded per thread slot.  Add is wait-free and
/// allocation-free; Value sums the slots (readers may observe a value
/// mid-round, which is fine for monitoring).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n) {
    cells_[ThreadShard()].value.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Cell& cell : cells_) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  std::array<Cell, kCounterShards> cells_;
};

/// Last-writer-wins instantaneous value (queue depth, lag, flags).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A mergeable, point-in-time copy of a LatencyHistogram.  Plain data:
/// merge per-shard snapshots, then read quantiles off the union.
struct LatencySnapshot {
  std::vector<uint64_t> counts;  ///< one entry per histogram bucket
  uint64_t count = 0;            ///< total recorded values (sum of counts)
  uint64_t sum = 0;              ///< sum of recorded nanoseconds
  uint64_t exemplar_trace_id = 0;  ///< last exemplar (0 = none)
  uint64_t exemplar_nanos = 0;     ///< latency of that exemplar

  /// Adds `other` bucket-wise.  An empty snapshot adopts other's shape.
  void Merge(const LatencySnapshot& other);

  /// Approximate q-quantile in nanoseconds (bucket midpoint); 0 when
  /// empty.  q is clamped to [0, 1].
  double Quantile(double q) const;

  double p50() const { return Quantile(0.50); }
  double p95() const { return Quantile(0.95); }
  double p99() const { return Quantile(0.99); }
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed-bucket concurrent latency histogram over nanoseconds.
///
/// Buckets are log-linear: values below 8 ns get exact buckets, then four
/// sub-buckets per power of two up to ~9 minutes (larger values clamp into
/// the last bucket).  Relative quantile error is therefore bounded by
/// 12.5%.  Record is wait-free (one bin add and one relaxed sum add).
class LatencyHistogram {
 public:
  static constexpr size_t kLinearBuckets = 8;  ///< exact 0..7 ns
  static constexpr size_t kSubBuckets = 4;     ///< per octave above that
  static constexpr size_t kOctaves = 37;       ///< octaves 3..39 (~9.2 min)
  static constexpr size_t kBucketCount = kLinearBuckets + kOctaves * kSubBuckets;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Bucket index of a nanosecond value (total order, clamped at the top).
  static size_t BucketIndex(uint64_t nanos);

  /// Inclusive lower bound of bucket `index`;
  /// BucketLowerBound(kBucketCount) is the clamp threshold.
  static uint64_t BucketLowerBound(size_t index);

  void Record(uint64_t nanos) {
    bins_[BucketIndex(nanos)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(nanos, std::memory_order_relaxed);
  }

  /// Record plus a histogram exemplar: the trace id of the request that
  /// produced this sample, linking aggregate latency back to a concrete
  /// flight-recorder trace (obs/trace.h).  Last writer wins; id 0 means
  /// "untraced" and leaves the previous exemplar in place.
  void RecordWithExemplar(uint64_t nanos, uint64_t trace_id) {
    Record(nanos);
    if (trace_id != 0) {
      exemplar_trace_id_.store(trace_id, std::memory_order_relaxed);
      exemplar_nanos_.store(nanos, std::memory_order_relaxed);
    }
  }

  /// Sum of the buckets: there is no separate total to drift from them.
  uint64_t count() const;
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t exemplar_trace_id() const {
    return exemplar_trace_id_.load(std::memory_order_relaxed);
  }

  /// Copies the bins.  Concurrent Records may straddle the copy; the
  /// snapshot is still a valid histogram of a subset/superset boundary at
  /// most one in-flight Record wide per writer.
  LatencySnapshot Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, kBucketCount> bins_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> exemplar_trace_id_{0};
  std::atomic<uint64_t> exemplar_nanos_{0};
};

/// Escapes a label value for the Prometheus text format: `\` -> `\\`,
/// `"` -> `\"`, newline -> `\n`.  Group names come off the wire, so they
/// are attacker-shaped, not code-chosen.
std::string EscapeLabelValue(std::string_view value);

/// One `key="value"` label of a metric name.  Keys are code-chosen tokens.
using Label = std::pair<std::string_view, std::string_view>;

/// `family{k1="v1",k2="v2",...}` — the Prometheus-style name under which
/// labeled metrics register, labels in the given order (an empty list
/// yields the bare family).  Values are escaped with EscapeLabelValue, so
/// hostile group ids render as valid text.
std::string LabeledName(std::string_view family,
                        const std::vector<Label>& labels);

/// Named metric store.  GetX returns the existing metric when the name is
/// already registered (same kind), so independent wiring sites share one
/// object per name.  References stay valid for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  LatencyHistogram& GetHistogram(const std::string& name);

  size_t metric_count() const;

  /// Sum of every counter whose name is `family` exactly or
  /// `family{...}` — the aggregated view across labeled instances.
  uint64_t SumCounters(std::string_view family) const;

  /// Bucket-wise merge of every histogram in the family (same matching
  /// rule as SumCounters) — aggregated percentiles across shards.
  LatencySnapshot MergeHistograms(std::string_view family) const;

  /// Prometheus-style text exposition: counters and gauges as plain
  /// samples, histograms as quantile/_count/_sum summaries.  Lines end in
  /// '\n'; metric families are emitted in name order.
  std::string RenderPrometheus() const;

  /// Process-wide default instance for code without explicit wiring.
  static Registry& Default();

 private:
  template <typename T>
  static T& GetOrCreate(std::mutex& mutex,
                        std::map<std::string, std::unique_ptr<T>>& metrics,
                        const std::string& name);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace avoc::obs
