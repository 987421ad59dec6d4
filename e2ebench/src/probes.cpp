#include "probes.h"

#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace e2e {
namespace {

/// Opens a storage-kind span under the calling thread's current span.
obs::ScopedSpan StoreSpan(obs::Tracer* tracer, std::string_view name) {
  obs::SpanContext parent;
  if (tracer != nullptr) {
    if (const obs::CurrentSpan current = obs::CurrentTraceSpan();
        current.tracer == tracer) {
      parent = current.context;
    }
  }
  return obs::ScopedSpan(tracer, obs::SpanKind::kStorage, name, parent);
}

bool NameIs(const obs::SpanRecord& r, std::string_view name) {
  return std::string_view(r.name, strnlen(r.name, sizeof(r.name))) == name;
}

double DurationUs(const obs::SpanRecord& r) {
  return static_cast<double>(r.end_ns - r.start_ns) / 1000.0;
}

}  // namespace

void TimedBackend::Note(std::vector<double> Samples::*field,
                        double us) const {
  std::lock_guard<std::mutex> lock(mutex_);
  (samples_.*field).push_back(us);
}

avoc::Status TimedBackend::Put(const std::string& group,
                               const storage::HistorySnapshot& snapshot) {
  const auto start = Clock::now();
  avoc::Status status;
  {
    obs::ScopedSpan span = StoreSpan(tracer_, "bench.store.put");
    status = history_->Put(group, snapshot);
  }
  Note(&Samples::put_us, Micros(start, Clock::now()));
  return status;
}

avoc::Result<storage::HistorySnapshot> TimedBackend::Get(
    const std::string& group) const {
  const auto start = Clock::now();
  auto result = [&] {
    obs::ScopedSpan span = StoreSpan(tracer_, "bench.store.get");
    return history_->Get(group);
  }();
  Note(&Samples::get_us, Micros(start, Clock::now()));
  return result;
}

avoc::Result<bool> TimedBackend::Erase(const std::string& group) {
  return history_->Erase(group);
}

std::vector<std::string> TimedBackend::Groups() const {
  return history_->Groups();
}

size_t TimedBackend::size() const { return history_->size(); }

avoc::Status TimedBackend::AppendTrace(
    const std::string& group, std::span<const storage::TracePoint> points) {
  const auto start = Clock::now();
  avoc::Status status;
  {
    obs::ScopedSpan span = StoreSpan(tracer_, "bench.store.append_trace");
    status = trace_->AppendTrace(group, points);
  }
  Note(&Samples::append_us, Micros(start, Clock::now()));
  return status;
}

avoc::Result<std::vector<storage::TracePoint>> TimedBackend::QueryTraceRange(
    const std::string& group, uint64_t lo_round, uint64_t hi_round) const {
  const auto start = Clock::now();
  auto result = [&] {
    obs::ScopedSpan span = StoreSpan(tracer_, "bench.store.query_range");
    return trace_->QueryTraceRange(group, lo_round, hi_round);
  }();
  Note(&Samples::query_us, Micros(start, Clock::now()));
  return result;
}

TimedBackend::Samples TimedBackend::TakeSamples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

void StageTotals::Add(const StageTotals& other) {
  sampled += other.sampled;
  round_ns += other.round_ns;
  agreement_ns += other.agreement_ns;
  exclusion_ns += other.exclusion_ns;
  collation_ns += other.collation_ns;
  other_ns += other.other_ns;
}

void SampledStageObserver::OnRoundBegin(size_t /*round_index*/,
                                        const core::VoteContext& /*ctx*/) {
  timing_ = true;
  begin_ = prev_ = Clock::now();
}

void SampledStageObserver::OnStageDone(std::string_view stage,
                                       const core::VoteContext& /*ctx*/) {
  if (!timing_) return;
  const auto now = Clock::now();
  const double ns =
      std::chrono::duration<double, std::nano>(now - prev_).count();
  prev_ = now;
  if (stage == "agreement") {
    totals_.agreement_ns += ns;
  } else if (stage == "exclusion") {
    totals_.exclusion_ns += ns;
  } else if (stage == "collation") {
    totals_.collation_ns += ns;
  } else {
    totals_.other_ns += ns;
  }
}

void SampledStageObserver::OnRoundCommitted(
    size_t /*round_index*/, const core::RoundColumns& /*columns*/,
    const core::RoundScalars& /*scalars*/) {
  if (timing_) {
    // Commit (sink column writes) lands in "other", as in bench_scale.
    const auto now = Clock::now();
    using Nanos = std::chrono::duration<double, std::nano>;
    totals_.other_ns += Nanos(now - prev_).count();
    totals_.round_ns += Nanos(now - begin_).count();
    ++totals_.sampled;
    timing_ = false;
  }
  ++committed_;
  stage_hooks_enabled_ = committed_ % sample_every_ == 0;
}

std::vector<FrameSpans> AnalyzeSpans(
    const std::vector<obs::SpanRecord>& records) {
  std::vector<FrameSpans> out;
  struct BatchInfo {
    const obs::SpanRecord* span = nullptr;
    double store_us = 0.0;
    int puts = 0;
    int appends = 0;
  };
  std::unordered_map<uint64_t, BatchInfo> batches;  // by span id
  for (const obs::SpanRecord& r : records) {
    if (NameIs(r, "engine.batch")) batches[r.span_id].span = &r;
  }
  for (const obs::SpanRecord& r : records) {
    const bool put = NameIs(r, "bench.store.put");
    const bool append = NameIs(r, "bench.store.append_trace");
    if (!put && !append) continue;
    auto it = batches.find(r.parent_id);
    if (it == batches.end()) continue;
    it->second.store_us += DurationUs(r);
    it->second.puts += put ? 1 : 0;
    it->second.appends += append ? 1 : 0;
  }
  std::unordered_map<uint64_t, const BatchInfo*> batch_by_parent;
  for (const auto& [id, info] : batches) {
    if (info.span != nullptr && info.puts == 1 && info.appends == 1) {
      batch_by_parent[info.span->parent_id] = &info;
    }
  }
  for (const obs::SpanRecord& r : records) {
    if (!NameIs(r, "server.submit_batch_seq") &&
        !NameIs(r, "server.submit_batch")) {
      continue;
    }
    auto it = batch_by_parent.find(r.span_id);
    if (it == batch_by_parent.end()) continue;
    const BatchInfo& batch = *it->second;
    FrameSpans frame;
    frame.trace_id = r.trace_id;
    frame.verb_us = DurationUs(r);
    frame.batch_us = DurationUs(*batch.span);
    frame.store_us = batch.store_us;
    if (const char* p = std::strstr(batch.span->detail, "rounds=")) {
      frame.rounds = static_cast<double>(std::strtoull(p + 7, nullptr, 10));
    }
    out.push_back(frame);
  }
  return out;
}

}  // namespace e2e
