// Tracer / flight-recorder unit tests: ring seqlock semantics, id
// determinism, span-stack parenting, canonical dump stability, and the
// Chrome trace_event export.  The concurrency cases are the TSan targets
// for the lock-free ring (snapshot while recording must be data-race
// free by construction, not by luck).
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "obs/trace_export.h"

namespace avoc::obs {
namespace {

/// Deterministic clock seam: every call advances 1us of virtual time.
TracerOptions TickingOptions(uint64_t* tick) {
  TracerOptions options;
  options.ring_count = 1;
  options.ring_capacity = 256;
  options.now_ns = [tick] { return *tick += 1000; };
  return options;
}

SpanRecord MakeRecord(uint64_t span_id, std::string_view name) {
  SpanRecord record;
  record.trace_id = 0xabc;
  record.span_id = span_id;
  record.start_ns = span_id * 10;
  record.end_ns = span_id * 10 + 5;
  record.kind = static_cast<uint8_t>(SpanKind::kServer);
  CopyToken(record.name, sizeof(record.name), name);
  return record;
}

TEST(ObsTraceTest, RingRecordsAndSnapshots) {
  TraceRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 1; i <= 3; ++i) {
    EXPECT_TRUE(ring.Record(MakeRecord(i, "span")));
  }
  std::vector<SpanRecord> out;
  ring.Snapshot(&out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(ObsTraceTest, RingIsAWindowNotAQueue) {
  TraceRing ring(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    ring.Record(MakeRecord(i, "span"));
  }
  std::vector<SpanRecord> out;
  ring.Snapshot(&out);
  // Full ring: exactly capacity live records, and they are the newest.
  ASSERT_EQ(out.size(), 4u);
  for (const SpanRecord& record : out) {
    EXPECT_GE(record.span_id, 7u);
    EXPECT_LE(record.span_id, 10u);
  }
}

TEST(ObsTraceTest, RingCapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1).capacity(), 2u);
  EXPECT_EQ(TraceRing(3).capacity(), 4u);
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
  EXPECT_EQ(TraceRing(64).capacity(), 64u);
}

TEST(ObsTraceTest, DeriveTraceIdIsDeterministicAndNeverZero) {
  const uint64_t a = Tracer::DeriveTraceId("client-a", 7);
  EXPECT_EQ(a, Tracer::DeriveTraceId("client-a", 7));
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, Tracer::DeriveTraceId("client-a", 8));
  EXPECT_NE(a, Tracer::DeriveTraceId("client-b", 7));
  // Retries reuse the sequence number, so they MUST map to the same id.
  EXPECT_EQ(Tracer::DeriveTraceId("c", 0), Tracer::DeriveTraceId("c", 0));
}

TEST(ObsTraceTest, ScopedSpanParentsNestAndPopInOrder) {
  uint64_t tick = 0;
  Tracer tracer(TickingOptions(&tick));
  EXPECT_EQ(CurrentTraceSpan().tracer, nullptr);
  {
    ScopedSpan outer(&tracer, SpanKind::kClient, "outer", SpanContext{});
    const SpanContext outer_context = outer.context();
    EXPECT_TRUE(outer_context.valid());
    // Locally rooted: the span id doubles as the trace id.
    EXPECT_EQ(outer_context.trace_id, outer_context.span_id);
    EXPECT_EQ(CurrentTraceSpan().context.span_id, outer_context.span_id);
    {
      ScopedSpan inner(&tracer, SpanKind::kEngine, "inner", outer.context());
      EXPECT_EQ(inner.context().trace_id, outer_context.trace_id);
      EXPECT_EQ(CurrentTraceSpan().context.span_id, inner.context().span_id);
    }
    EXPECT_EQ(CurrentTraceSpan().context.span_id, outer_context.span_id);
  }
  EXPECT_EQ(CurrentTraceSpan().tracer, nullptr);

  const std::vector<SpanRecord> records = tracer.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  const SpanRecord& inner =
      std::string_view(records[0].name) == "inner" ? records[0] : records[1];
  const SpanRecord& outer =
      std::string_view(records[0].name) == "inner" ? records[1] : records[0];
  EXPECT_EQ(inner.parent_id, outer.span_id);
  EXPECT_EQ(inner.trace_id, outer.trace_id);
  EXPECT_GE(inner.end_ns, inner.start_ns);
}

TEST(ObsTraceTest, NullTracerSpanIsInert) {
  ScopedSpan span(nullptr, SpanKind::kClient, "noop", SpanContext{});
  EXPECT_FALSE(span.active());
  EXPECT_FALSE(span.context().valid());
  EXPECT_EQ(CurrentTraceSpan().tracer, nullptr);
  span.SetDetail("ignored");
}

TEST(ObsTraceTest, EventParentsUnderCurrentSpan) {
  uint64_t tick = 0;
  Tracer tracer(TickingOptions(&tick));
  {
    ScopedSpan span(&tracer, SpanKind::kServer, "request", SpanContext{});
    tracer.Event("wal.fsync", "bytes=128");
  }
  tracer.Event("orphan");

  bool saw_parented = false;
  bool saw_orphan = false;
  for (const SpanRecord& record : tracer.Snapshot()) {
    if (std::string_view(record.name) == "wal.fsync") {
      saw_parented = true;
      EXPECT_NE(record.parent_id, 0u);
      EXPECT_NE(record.trace_id, 0u);
      EXPECT_EQ(record.start_ns, record.end_ns);  // point event
      EXPECT_EQ(std::string_view(record.detail), "bytes=128");
    } else if (std::string_view(record.name) == "orphan") {
      saw_orphan = true;
      EXPECT_EQ(record.trace_id, 0u);  // no current span: untraced
    }
  }
  EXPECT_TRUE(saw_parented);
  EXPECT_TRUE(saw_orphan);
}

TEST(ObsTraceTest, ConsumeLastTraceIdIsOneShot) {
  uint64_t tick = 0;
  Tracer tracer(TickingOptions(&tick));
  (void)ConsumeLastTraceId();  // clear residue from other tests
  uint64_t trace_id = 0;
  {
    ScopedSpan span(&tracer, SpanKind::kServer, "request", SpanContext{});
    trace_id = span.context().trace_id;
  }
  EXPECT_EQ(ConsumeLastTraceId(), trace_id);
  EXPECT_EQ(ConsumeLastTraceId(), 0u);  // consumed
}

TEST(ObsTraceTest, NameAndDetailTruncateSafely) {
  uint64_t tick = 0;
  Tracer tracer(TickingOptions(&tick));
  const std::string long_name(100, 'n');
  const std::string long_detail(200, 'd');
  {
    ScopedSpan span(&tracer, SpanKind::kClient, long_name, SpanContext{},
                    long_detail);
  }
  const std::vector<SpanRecord> records = tracer.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::string_view(records[0].name), std::string(30, 'n'));
  EXPECT_EQ(std::string_view(records[0].detail), std::string(79, 'd'));
}

TEST(ObsTraceTest, EmptyDetailRecordsAnEmptyField) {
  uint64_t tick = 0;
  Tracer tracer(TickingOptions(&tick));
  {
    // The default detail is an empty view whose data() may be null; the
    // copy must not hand that pointer to memcpy (UBSan checks this).
    ScopedSpan span(&tracer, SpanKind::kEngine, "engine.batch", SpanContext{});
  }
  const std::vector<SpanRecord> records = tracer.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::string_view(records[0].name), "engine.batch");
  EXPECT_EQ(std::string_view(records[0].detail), "");

  char field[8];
  std::memset(field, 'x', sizeof(field));
  CopyToken(field, sizeof(field), std::string_view());
  for (const char c : field) EXPECT_EQ(c, '\0');
}

TEST(ObsTraceTest, DumpTextIsByteIdenticalForEqualHistories) {
  auto run = [] {
    uint64_t tick = 0;
    Tracer tracer(TickingOptions(&tick));
    SpanContext parent;
    parent.trace_id = Tracer::DeriveTraceId("client", 1);
    parent.flags = 1;
    {
      ScopedSpan root(&tracer, SpanKind::kClient, "client.submit_batch",
                      parent, "group=g seq=1");
      ScopedSpan attempt(&tracer, SpanKind::kClient, "client.attempt",
                         root.context());
      tracer.Event("client.backoff", "attempt=0 sleep_ms=5");
    }
    return tracer.DumpText();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.substr(0, 14), "AVOC-TRACE v1\n");
  EXPECT_NE(first.find("name=client.submit_batch"), std::string::npos);
  EXPECT_NE(first.find("name=client.backoff"), std::string::npos);
}

TEST(ObsTraceTest, DumpTextSortsByStartThenSpanId) {
  uint64_t tick = 0;
  TracerOptions options = TickingOptions(&tick);
  options.ring_count = 2;  // records land across rings; sort must fix order
  Tracer tracer(options);
  SpanRecord late = MakeRecord(1, "late");
  late.start_ns = 500;
  SpanRecord early = MakeRecord(2, "early");
  early.start_ns = 100;
  tracer.Record(late);
  tracer.Record(early);
  const std::string dump = tracer.DumpText();
  EXPECT_LT(dump.find("name=early"), dump.find("name=late"));
}

TEST(ObsTraceTest, ChromeExportRoundTrips) {
  uint64_t tick = 0;
  Tracer tracer(TickingOptions(&tick));
  {
    ScopedSpan span(&tracer, SpanKind::kServer, "server.submit_batch_seq",
                    SpanContext{}, "group=g route=local");
    tracer.Event("wal.fsync");
  }
  const Result<std::string> json = TraceDumpToChromeJson(tracer.DumpText());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json->find("\"name\":\"server.submit_batch_seq\""),
            std::string::npos);
  EXPECT_NE(json->find("\"ph\":\"X\""), std::string::npos);   // complete span
  EXPECT_NE(json->find("\"ph\":\"i\""), std::string::npos);   // instant event
  EXPECT_NE(json->find("\"detail\":\"group=g route=local\""),
            std::string::npos);
}

TEST(ObsTraceTest, ChromeExportEscapesHostileDetail) {
  std::string dump = "AVOC-TRACE v1\n";
  SpanRecord record = MakeRecord(1, "span");
  // Newlines are flattened by CopyToken (they would forge dump lines);
  // quotes, backslashes, and tabs must survive into escaped JSON.
  CopyToken(record.detail, sizeof(record.detail), "say \"hi\"\\\n\tdone");
  EXPECT_EQ(std::string_view(record.detail), "say \"hi\"\\ \tdone");
  dump += FormatSpanLine(record);
  dump.push_back('\n');
  const Result<std::string> json = TraceDumpToChromeJson(dump);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("say \\\"hi\\\"\\\\ \\tdone"), std::string::npos);
}

TEST(ObsTraceTest, ChromeExportRejectsMalformedDumps) {
  EXPECT_FALSE(TraceDumpToChromeJson("").ok());
  EXPECT_FALSE(TraceDumpToChromeJson("NOT-A-TRACE\n").ok());
  EXPECT_FALSE(
      TraceDumpToChromeJson("AVOC-TRACE v1\ntrace=zz nonsense\n").ok());
}

TEST(ObsTraceTest, EmptyDumpExportsEmptyEventArray) {
  const Result<std::string> json = TraceDumpToChromeJson("AVOC-TRACE v1\n");
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"traceEvents\":[]"), std::string::npos);
}

// TSan target: hammer one ring from several writers while a reader
// snapshots continuously.  The seqlock must yield only whole records —
// every snapshotted record is one a writer actually published.
TEST(ObsTraceTest, ConcurrentRecordAndSnapshotIsTornFree) {
  TraceRing ring(64);
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 5000;

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        // Self-checking payload: every word derived from span_id, so a
        // torn read is detectable below.
        SpanRecord record;
        const uint64_t id = (static_cast<uint64_t>(w) << 32) | i;
        record.trace_id = id * 3;
        record.span_id = id;
        record.parent_id = id * 7;
        record.start_ns = id * 11;
        record.end_ns = id * 11 + 1;
        record.kind = static_cast<uint8_t>(SpanKind::kServer);
        ring.Record(record);
      }
    });
  }

  uint64_t snapshots = 0;
  uint64_t seen = 0;
  std::thread reader([&] {
    std::vector<SpanRecord> out;
    // One more pass after the writers finished, so the checks below see
    // a snapshot however the threads were scheduled.
    for (bool last = false; !last;) {
      last = stop.load(std::memory_order_acquire);
      out.clear();
      ring.Snapshot(&out);
      ++snapshots;
      for (const SpanRecord& record : out) {
        const uint64_t id = record.span_id;
        ASSERT_EQ(record.trace_id, id * 3);
        ASSERT_EQ(record.parent_id, id * 7);
        ASSERT_EQ(record.start_ns, id * 11);
        ASSERT_EQ(record.end_ns, id * 11 + 1);
        ++seen;
      }
    }
  });

  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(snapshots, 0u);
  EXPECT_GT(seen, 0u);
  // Conservation: every record was either published or counted dropped.
  std::vector<SpanRecord> final_snapshot;
  ring.Snapshot(&final_snapshot);
  EXPECT_LE(final_snapshot.size(), ring.capacity());
}

// TSan target for the facade: concurrent spans + events through the
// Tracer (thread-local stacks, shared span-id counter, multiple rings).
TEST(ObsTraceTest, ConcurrentScopedSpansAreDataRaceFree) {
  TracerOptions options;
  options.ring_count = 2;
  options.ring_capacity = 128;
  Tracer tracer(options);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < 1000; ++i) {
        ScopedSpan outer(&tracer, SpanKind::kServer, "outer", SpanContext{});
        ScopedSpan inner(&tracer, SpanKind::kEngine, "inner", outer.context());
        tracer.Event("tick");
        (void)ConsumeLastTraceId();
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread dumper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)tracer.DumpText();
    }
  });
  for (std::thread& thread : threads) thread.join();
  stop.store(true, std::memory_order_release);
  dumper.join();
  // Unique span ids: the counter never handed the same id out twice.
  EXPECT_GE(tracer.dropped() + tracer.Snapshot().size(), 1u);
}

}  // namespace
}  // namespace avoc::obs
