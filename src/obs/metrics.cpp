#include "obs/metrics.h"

#include <algorithm>
#include <bit>

#include "util/strings.h"

namespace avoc::obs {

size_t ThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

// --- LatencyHistogram -------------------------------------------------------
//
// Bucket layout: [0..7] are exact one-nanosecond buckets.  From octave 3
// (values in [8, 16)) upward each octave splits into kSubBuckets equal
// ranges, so bucket width is value/4 and quantile error stays under 12.5%.

size_t LatencyHistogram::BucketIndex(uint64_t nanos) {
  if (nanos < kLinearBuckets) return static_cast<size_t>(nanos);
  const size_t octave = static_cast<size_t>(std::bit_width(nanos)) - 1;
  const size_t capped = std::min(octave, size_t{3 + kOctaves - 1});
  const size_t sub =
      octave == capped
          ? static_cast<size_t>((nanos >> (capped - 2)) & (kSubBuckets - 1))
          : kSubBuckets - 1;  // beyond range: clamp into the last bucket
  return kLinearBuckets + (capped - 3) * kSubBuckets + sub;
}

uint64_t LatencyHistogram::BucketLowerBound(size_t index) {
  if (index < kLinearBuckets) return index;
  const size_t k = index - kLinearBuckets;
  const size_t octave = 3 + k / kSubBuckets;
  const size_t sub = k % kSubBuckets;
  return (uint64_t{1} << octave) +
         static_cast<uint64_t>(sub) * (uint64_t{1} << (octave - 2));
}

uint64_t LatencyHistogram::count() const {
  uint64_t total = 0;
  for (const auto& bin : bins_) total += bin.load(std::memory_order_relaxed);
  return total;
}

LatencySnapshot LatencyHistogram::Snapshot() const {
  LatencySnapshot snapshot;
  snapshot.counts.resize(kBucketCount);
  for (size_t i = 0; i < kBucketCount; ++i) {
    snapshot.counts[i] = bins_[i].load(std::memory_order_relaxed);
    snapshot.count += snapshot.counts[i];
  }
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  snapshot.exemplar_trace_id =
      exemplar_trace_id_.load(std::memory_order_relaxed);
  snapshot.exemplar_nanos = exemplar_nanos_.load(std::memory_order_relaxed);
  return snapshot;
}

void LatencySnapshot::Merge(const LatencySnapshot& other) {
  if (counts.empty()) {
    counts.resize(other.counts.size());
  }
  const size_t n = std::min(counts.size(), other.counts.size());
  for (size_t i = 0; i < n; ++i) {
    counts[i] += other.counts[i];
  }
  count += other.count;
  sum += other.sum;
  if (other.exemplar_trace_id != 0) {
    exemplar_trace_id = other.exemplar_trace_id;
    exemplar_nanos = other.exemplar_nanos;
  }
}

double LatencySnapshot::Quantile(double q) const {
  if (count == 0 || counts.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile among `count` ordered samples (nearest-rank).
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(count) + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      const uint64_t lo = LatencyHistogram::BucketLowerBound(i);
      const uint64_t hi = LatencyHistogram::BucketLowerBound(i + 1);
      return 0.5 * static_cast<double>(lo + hi);
    }
  }
  return static_cast<double>(
      LatencyHistogram::BucketLowerBound(counts.size()));
}

// --- Registry ---------------------------------------------------------------

std::string EscapeLabelValue(std::string_view value) {
  std::string escaped;
  escaped.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': escaped += "\\\\"; break;
      case '"': escaped += "\\\""; break;
      case '\n': escaped += "\\n"; break;
      default: escaped.push_back(c);
    }
  }
  return escaped;
}

// Escaping happens here, at registration, so every render/sum/merge path
// inherits it and a registry never holds an unescaped name.
std::string LabeledName(std::string_view family,
                        const std::vector<Label>& labels) {
  std::string name(family);
  for (size_t i = 0; i < labels.size(); ++i) {
    name += i == 0 ? '{' : ',';
    name += labels[i].first;
    name += "=\"";
    name += EscapeLabelValue(labels[i].second);
    name += '"';
  }
  if (!labels.empty()) name += '}';
  return name;
}

namespace {

/// True when `name` is `family` itself or a labeled instance of it.
bool InFamily(std::string_view name, std::string_view family) {
  if (!name.starts_with(family)) return false;
  return name.size() == family.size() || name[family.size()] == '{';
}

/// Splits "fam{a=\"b\"}" into its family and "a=\"b\"" label body (empty
/// body when the name carries no labels).
std::pair<std::string_view, std::string_view> SplitLabels(
    std::string_view name) {
  const size_t brace = name.find('{');
  if (brace == std::string_view::npos) return {name, {}};
  std::string_view body = name.substr(brace + 1);
  if (!body.empty() && body.back() == '}') body.remove_suffix(1);
  return {name.substr(0, brace), body};
}

/// "fam" + suffix + labels, e.g. SuffixedName("f{a=\"b\"}", "_count")
/// -> "f_count{a=\"b\"}".
std::string SuffixedName(std::string_view name, std::string_view suffix,
                         std::string_view extra_label = {}) {
  const auto [family, body] = SplitLabels(name);
  std::string out(family);
  out += suffix;
  if (!body.empty() || !extra_label.empty()) {
    out += '{';
    out += body;
    if (!body.empty() && !extra_label.empty()) out += ',';
    out += extra_label;
    out += '}';
  }
  return out;
}

}  // namespace

template <typename T>
T& Registry::GetOrCreate(std::mutex& mutex,
                         std::map<std::string, std::unique_ptr<T>>& metrics,
                         const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex);
  std::unique_ptr<T>& slot = metrics[name];
  if (slot == nullptr) slot = std::make_unique<T>();
  return *slot;
}

Counter& Registry::GetCounter(const std::string& name) {
  return GetOrCreate(mutex_, counters_, name);
}

Gauge& Registry::GetGauge(const std::string& name) {
  return GetOrCreate(mutex_, gauges_, name);
}

LatencyHistogram& Registry::GetHistogram(const std::string& name) {
  return GetOrCreate(mutex_, histograms_, name);
}

size_t Registry::metric_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

uint64_t Registry::SumCounters(std::string_view family) const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t sum = 0;
  for (const auto& [name, counter] : counters_) {
    if (InFamily(name, family)) sum += counter->Value();
  }
  return sum;
}

LatencySnapshot Registry::MergeHistograms(std::string_view family) const {
  std::lock_guard<std::mutex> lock(mutex_);
  LatencySnapshot merged;
  for (const auto& [name, histogram] : histograms_) {
    if (InFamily(name, family)) merged.Merge(histogram->Snapshot());
  }
  return merged;
}

std::string Registry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += StrFormat("%s %llu\n", name.c_str(),
                     static_cast<unsigned long long>(counter->Value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    out += StrFormat("%s %.17g\n", name.c_str(), gauge->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    const LatencySnapshot snapshot = histogram->Snapshot();
    const struct {
      const char* label;
      double q;
    } quantiles[] = {{"quantile=\"0.5\"", 0.50},
                     {"quantile=\"0.95\"", 0.95},
                     {"quantile=\"0.99\"", 0.99}};
    for (const auto& quantile : quantiles) {
      out += StrFormat("%s %.0f\n",
                       SuffixedName(name, "", quantile.label).c_str(),
                       snapshot.Quantile(quantile.q));
    }
    out += StrFormat("%s %llu\n", SuffixedName(name, "_count").c_str(),
                     static_cast<unsigned long long>(snapshot.count));
    out += StrFormat("%s %llu\n", SuffixedName(name, "_sum").c_str(),
                     static_cast<unsigned long long>(snapshot.sum));
    if (snapshot.exemplar_trace_id != 0) {
      // Exemplar: the trace id of a recent sample, so a latency spike in
      // this family links to a TRACE_DUMP span tree.  Untraced
      // histograms render exactly as before.
      const std::string label = StrFormat(
          "trace_id=\"%016llx\"",
          static_cast<unsigned long long>(snapshot.exemplar_trace_id));
      out += StrFormat("%s %llu\n",
                       SuffixedName(name, "_exemplar", label).c_str(),
                       static_cast<unsigned long long>(snapshot.exemplar_nanos));
    }
  }
  return out;
}

Registry& Registry::Default() {
  static Registry* instance = new Registry();
  return *instance;
}

}  // namespace avoc::obs
