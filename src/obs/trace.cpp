#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>

namespace avoc::obs {
namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t RoundUpPow2(size_t v) {
  size_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

uint64_t SplitMix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Ring selection mirrors the metrics registry's sharding: a cheap
/// thread-local round-robin assignment, so per-core server threads land
/// on distinct rings without coordination.
size_t ThreadRing(size_t ring_count) {
  static std::atomic<size_t> next{0};
  thread_local const size_t assigned =
      next.fetch_add(1, std::memory_order_relaxed);
  return assigned % ring_count;
}

struct SpanStackEntry {
  Tracer* tracer = nullptr;
  SpanContext context;
};

/// Fixed-depth per-thread span stack.  Depth 16 covers the deepest real
/// nesting (client submit -> attempt -> server -> engine -> storage is
/// five); overflow simply leaves deeper spans un-parented.
struct SpanStack {
  SpanStackEntry entries[16];
  size_t depth = 0;
};

SpanStack& ThreadSpanStack() {
  thread_local SpanStack stack;
  return stack;
}

thread_local uint64_t g_last_trace_id = 0;

}  // namespace

std::string_view SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClient: return "client";
    case SpanKind::kServer: return "server";
    case SpanKind::kEngine: return "engine";
    case SpanKind::kStorage: return "storage";
    case SpanKind::kEvent: return "event";
    case SpanKind::kInvalid: break;
  }
  return "invalid";
}

void CopyToken(char* dst, size_t capacity, std::string_view s) {
  const size_t n = std::min(capacity - 1, s.size());
  // An empty view may carry a null data(); memcpy from null is undefined
  // even for zero bytes.
  if (n > 0) std::memcpy(dst, s.data(), n);
  std::memset(dst + n, 0, capacity - n);
  // The dump format is line-oriented: a newline smuggled in via an error
  // message must not be able to forge or corrupt records.
  for (size_t i = 0; i < n; ++i) {
    if (dst[i] == '\n' || dst[i] == '\r') dst[i] = ' ';
  }
}

TraceRing::TraceRing(size_t capacity)
    : mask_(RoundUpPow2(std::max<size_t>(capacity, 2)) - 1),
      slots_(new Slot[mask_ + 1]) {}

bool TraceRing::Record(const SpanRecord& record) {
  uint64_t words[kSpanRecordWords];
  std::memcpy(words, &record, sizeof(record));

  const size_t index =
      head_.fetch_add(1, std::memory_order_relaxed) & mask_;
  Slot& slot = slots_[index];
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0 ||
      !slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
    // Another writer owns this slot (wrap-around under heavy load).
    // Dropping beats blocking: the recorder must never stall a shard.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  for (size_t w = 0; w < kSpanRecordWords; ++w) {
    slot.words[w].store(words[w], std::memory_order_relaxed);
  }
  slot.seq.store(seq + 2, std::memory_order_release);
  return true;
}

void TraceRing::Snapshot(std::vector<SpanRecord>* out) const {
  uint64_t words[kSpanRecordWords];
  for (size_t i = 0; i <= mask_; ++i) {
    const Slot& slot = slots_[i];
    const uint64_t before = slot.seq.load(std::memory_order_acquire);
    if (before == 0 || (before & 1) != 0) continue;  // empty or mid-write
    for (size_t w = 0; w < kSpanRecordWords; ++w) {
      words[w] = slot.words[w].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;  // torn
    SpanRecord record;
    std::memcpy(&record, words, sizeof(record));
    out->push_back(record);
  }
}

Tracer::Tracer(TracerOptions options)
    : now_ns_(options.now_ns ? std::move(options.now_ns) : SteadyNowNs) {
  const size_t rings = std::max<size_t>(options.ring_count, 1);
  rings_.reserve(rings);
  for (size_t i = 0; i < rings; ++i) {
    rings_.push_back(std::make_unique<TraceRing>(options.ring_capacity));
  }
}

uint64_t Tracer::DeriveTraceId(std::string_view client_id, uint64_t seq) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the identity
  for (const char c : client_id) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  const uint64_t id = SplitMix64(h ^ SplitMix64(seq));
  return id != 0 ? id : 1;
}

void Tracer::Record(const SpanRecord& record) {
  if (!enabled()) return;
  rings_[ThreadRing(rings_.size())]->Record(record);
}

void Tracer::Event(std::string_view name, std::string_view detail) {
  if (!enabled()) return;
  SpanRecord record;
  const CurrentSpan current = CurrentTraceSpan();
  if (current.tracer == this && current.context.valid()) {
    record.trace_id = current.context.trace_id;
    record.parent_id = current.context.span_id;
  }
  record.span_id = NextSpanId();
  record.start_ns = now_ns_();
  record.end_ns = record.start_ns;
  record.kind = static_cast<uint8_t>(SpanKind::kEvent);
  CopyToken(record.name, sizeof(record.name), name);
  CopyToken(record.detail, sizeof(record.detail), detail);
  Record(record);
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::vector<SpanRecord> records;
  for (const auto& ring : rings_) ring->Snapshot(&records);
  return records;
}

std::string FormatSpanLine(const SpanRecord& record) {
  char buffer[320];
  const int n = std::snprintf(
      buffer, sizeof(buffer),
      "trace=%016llx span=%016llx parent=%016llx kind=%s start=%llu "
      "end=%llu name=%s detail=%s",
      static_cast<unsigned long long>(record.trace_id),
      static_cast<unsigned long long>(record.span_id),
      static_cast<unsigned long long>(record.parent_id),
      SpanKindName(static_cast<SpanKind>(record.kind)).data(),
      static_cast<unsigned long long>(record.start_ns),
      static_cast<unsigned long long>(record.end_ns), record.name,
      record.detail);
  return std::string(buffer, n > 0 ? static_cast<size_t>(n) : 0);
}

std::string Tracer::DumpText() const {
  std::vector<SpanRecord> records = Snapshot();
  // Ring index and snapshot order are scheduling accidents; (start, span
  // id) is total because span ids are unique, so equal histories dump as
  // equal bytes — the determinism the chaos sweeps assert on.
  std::sort(records.begin(), records.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.span_id < b.span_id;
            });
  std::string out = "AVOC-TRACE v1\n";
  for (const SpanRecord& record : records) {
    out += FormatSpanLine(record);
    out.push_back('\n');
  }
  return out;
}

uint64_t Tracer::dropped() const {
  uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->dropped();
  return total;
}

CurrentSpan CurrentTraceSpan() {
  const SpanStack& stack = ThreadSpanStack();
  if (stack.depth == 0) return {};
  const SpanStackEntry& top = stack.entries[stack.depth - 1];
  return {top.tracer, top.context};
}

uint64_t ConsumeLastTraceId() {
  const uint64_t id = g_last_trace_id;
  g_last_trace_id = 0;
  return id;
}

ScopedSpan::ScopedSpan(Tracer* tracer, SpanKind kind, std::string_view name,
                       const SpanContext& parent, std::string_view detail)
    : tracer_(tracer) {
  // A muted tracer nulls out the span entirely so the destructor and
  // SetDetail stay no-ops too.
  if (tracer_ == nullptr || !tracer_->enabled()) {
    tracer_ = nullptr;
    return;
  }
  record_.span_id = tracer_->NextSpanId();
  if (parent.valid()) {
    record_.trace_id = parent.trace_id;
    record_.parent_id = parent.span_id;
  } else {
    // Locally rooted: the flight recorder covers every request, context
    // or not.  The span id doubles as the trace id (both unique).
    record_.trace_id = record_.span_id;
    record_.parent_id = 0;
  }
  record_.kind = static_cast<uint8_t>(kind);
  CopyToken(record_.name, sizeof(record_.name), name);
  CopyToken(record_.detail, sizeof(record_.detail), detail);
  record_.start_ns = tracer_->now_ns();

  SpanStack& stack = ThreadSpanStack();
  if (stack.depth < std::size(stack.entries)) {
    stack.entries[stack.depth++] = {tracer_, context()};
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  record_.end_ns = tracer_->now_ns();
  tracer_->Record(record_);
  SpanStack& stack = ThreadSpanStack();
  if (stack.depth > 0 &&
      stack.entries[stack.depth - 1].context.span_id == record_.span_id) {
    --stack.depth;
  }
  g_last_trace_id = record_.trace_id;
}

SpanContext ScopedSpan::context() const {
  if (tracer_ == nullptr) return {};
  SpanContext context;
  context.trace_id = record_.trace_id;
  context.span_id = record_.span_id;
  context.flags = 1;  // propagated spans are by definition sampled
  return context;
}

void ScopedSpan::SetDetail(std::string_view detail) {
  if (tracer_ == nullptr) return;
  CopyToken(record_.detail, sizeof(record_.detail), detail);
}

void ScopedSpan::SetDetailF(const char* format, ...) {
  if (tracer_ == nullptr) return;
  va_list args;
  va_start(args, format);
  const int n =
      std::vsnprintf(record_.detail, sizeof(record_.detail), format, args);
  va_end(args);
  const size_t len =
      n < 0 ? 0
            : std::min(static_cast<size_t>(n), sizeof(record_.detail) - 1);
  // Same line-discipline as CopyToken: the dump format is line-oriented,
  // so newlines from formatted arguments must not forge records.
  for (size_t i = 0; i < len; ++i) {
    if (record_.detail[i] == '\n' || record_.detail[i] == '\r') {
      record_.detail[i] = ' ';
    }
  }
  // NUL-pad the tail so a shorter detail never leaks bytes from a longer
  // one written earlier through the raw ring words.
  std::memset(record_.detail + len, 0, sizeof(record_.detail) - len);
}

}  // namespace avoc::obs
