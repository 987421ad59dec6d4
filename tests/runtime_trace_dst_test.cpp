// Deterministic-simulation test for end-to-end distributed tracing.
//
// A 3-shard ShardedVoterServer runs on SimReactors with one shared
// Tracer whose clock is the SimWorld virtual clock, backed by a real
// StorageEngine (so WAL appends land in the trace).  A scripted
// server->client blackhole swallows exactly one SUBMIT_BATCH_SEQ reply,
// forcing the resilient client through a timeout, a reconnect, and a
// dedup-replayed resend — all while the frame's trailing trace-context
// field carries the client's trace id across the cross-shard forward
// hop.  The assertions parse the TRACE_DUMP payload (fetched over the
// wire) and check the span TREE, not just span presence:
//
//   client.submit_batch (root, parent=0)
//     ├─ client.attempt #1 (resend=no outcome=transport_error)
//     │    └─ server.submit_batch_seq (route=forwarded dedup=miss)
//     │         └─ engine.batch
//     │              └─ wal.append (storage)
//     │                   └─ wal.fsync (storage, fsync per commit)
//     ├─ client.backoff (event)
//     └─ client.attempt #2 (resend=yes outcome=ok)
//          └─ server.submit_batch_seq (dedup=replay)
//
// Determinism: the same seed must produce a byte-identical TRACE_DUMP
// (same span ids, same virtual timestamps, same sort order) — the
// flake-guard lane in CI re-runs this to catch nondeterminism.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "runtime/resilient.h"
#include "runtime/sharded_remote.h"
#include "runtime/sim_net.h"
#include "storage/engine.h"
#include "util/strings.h"

namespace avoc::runtime {
namespace {

constexpr uint16_t kPort = 7;
constexpr size_t kModules = 3;
constexpr char kClientId[] = "trace-dst-client";

// Owned by shards 2, 1, 0 of a 3-shard server (pinned by the GroupRouter
// golden test): submitting group-0 first pins the connection to shard 2,
// so the later group-1 submit must take the cross-shard forward hop.
const char* kGroupNames[] = {"group-0", "group-1", "group-2"};

/// One full round-0 batch for a group: all modules report, so the round
/// closes (engine executes, history persists, the sink appends trace
/// points) inside the submit that delivered it.
std::vector<BatchReading> RoundBatch(size_t group_index) {
  std::vector<BatchReading> batch;
  for (uint64_t m = 0; m < kModules; ++m) {
    batch.push_back(BatchReading{
        m, 0, 20.0 + static_cast<double>(group_index) +
                  0.25 * static_cast<double>(m)});
  }
  return batch;
}

struct TraceRun {
  bool ok = false;
  std::string failure;
  std::string dump;         ///< TRACE_DUMP payload fetched over the wire
  std::string local_dump;   ///< Tracer::DumpText() at the same instant
  std::string world_trace;  ///< SimWorld event trace (determinism diff)
  size_t forwarded = 0;
  size_t dedup_replays = 0;
  uint64_t dropped = 0;
};

/// Runs the scripted-fault scenario once.  Everything that can vary is a
/// function of `seed`; `dir` isolates the storage engine's files.
TraceRun RunScenario(uint64_t seed, const std::string& dir) {
  TraceRun run;
  auto fail = [&run](std::string why) {
    run.failure = std::move(why);
    return run;
  };

  SimWorld::Options world_options;
  // Server->client bytes vanish during [40ms, 200ms): the reply to the
  // submit issued at t>=60 is swallowed, the 150ms receive timeout fires
  // at t>=210 (after the heal), and the resend goes through cleanly.
  world_options.fault_plan.blackhole_s2c = {{40, 200}};
  SimWorld world(seed, world_options);

  obs::TracerOptions tracer_options;
  tracer_options.ring_count = 1;      // single-threaded sim: one ring
  tracer_options.ring_capacity = 4096;  // large enough to never overwrite
  tracer_options.now_ns = [&world] { return world.NowMs() * 1'000'000ull; };
  obs::Tracer tracer(tracer_options);

  obs::Registry registry;
  storage::StorageEngineOptions engine_options;
  engine_options.dir = dir;
  engine_options.tracer = &tracer;
  auto store = storage::StorageEngine::Open(engine_options);
  if (!store.ok()) return fail("storage open: " + store.status().ToString());

  auto listener = world.Listen(kPort);
  if (!listener.ok()) return fail("listen failed");
  std::vector<std::shared_ptr<Reactor>> reactors;
  reactors.push_back(world.reactor());
  reactors.push_back(world.NewReactor());
  reactors.push_back(world.NewReactor());
  ShardedServerOptions server_options;
  server_options.shards = 3;
  server_options.base.tracer = &tracer;
  auto server = ShardedVoterServer::StartOnReactors(
      server_options, std::move(*listener), std::move(reactors),
      /*spawn_loop_threads=*/false, store->get(), &registry, store->get());
  if (!server.ok()) return fail("server start: " + server.status().ToString());
  for (const char* group : kGroupNames) {
    if (!(*server)
             ->AddGroup(group,
                        *core::MakeEngine(core::AlgorithmId::kAvoc, kModules))
             .ok()) {
      return fail("add group failed");
    }
  }
  if (!(*server)->Serve().ok()) return fail("serve failed");

  RetryPolicy policy;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 50;
  policy.request_timeout_ms = 150;
  policy.deadline_ms = 60 * 1000;
  policy.trace_sample_every = 1;  // trace every submit
  ResilientVoterClient client([&world] { return world.Connect(kPort); },
                              &world, kClientId, policy, seed ^ 0xBACC0FFull,
                              &registry, &tracer);

  // seq 0: pins (migrates) the connection to group-0's owner, shard 2,
  // well before the blackhole window opens.
  auto accepted = client.SubmitBatch(kGroupNames[0], RoundBatch(0));
  if (!accepted.ok() || *accepted != kModules) return fail("seq 0 failed");
  if (world.NowMs() >= 40) return fail("seq 0 ran into the fault window");

  // seq 1: issued inside the window.  The request crosses the forward
  // hop to shard 1 and executes; the reply is blackholed, so the client
  // times out, reconnects, and resends the same sequence number.
  if (world.NowMs() < 60) world.RunFor(60 - world.NowMs());
  accepted = client.SubmitBatch(kGroupNames[1], RoundBatch(1));
  if (!accepted.ok() || *accepted != kModules) return fail("seq 1 failed");

  // seq 2: after the heal, through whatever shard the reconnected
  // connection pinned to — one more cross-shard hop.
  accepted = client.SubmitBatch(kGroupNames[2], RoundBatch(2));
  if (!accepted.ok() || *accepted != kModules) return fail("seq 2 failed");

  if (client.reconnects() < 1) return fail("fault did not force a reconnect");

  // Fetch the flight recorder over the wire: the TRACE_DUMP verb on a
  // fresh connection must return exactly the tracer's canonical dump.
  run.local_dump = tracer.DumpText();
  auto transport = world.Connect(kPort);
  if (!transport.ok()) return fail("dump connect failed");
  auto dump_client = RemoteVoterClient::FromTransport(std::move(*transport));
  if (!dump_client.ok()) return fail("dump client failed");
  if (!dump_client->SetRequestTimeoutMs(1000).ok()) {
    return fail("dump timeout set failed");
  }
  auto dump = dump_client->TraceDump();
  if (!dump.ok()) return fail("TRACE_DUMP failed: " + dump.status().ToString());
  run.dump = *dump;

  run.world_trace = world.TraceText();
  run.forwarded = (*server)->forwarded_requests();
  run.dedup_replays = (*server)->dedup_replays();
  run.dropped = tracer.dropped();
  run.ok = true;
  (*server)->Stop();
  return run;
}

struct ParsedSpan {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  std::string kind;
  std::string name;
  std::string detail;
};

/// Parses the canonical dump format back into records (asserting on the
/// header); the inverse of Tracer::DumpText for the fields tests need.
std::vector<ParsedSpan> ParseDump(const std::string& dump) {
  std::vector<ParsedSpan> spans;
  size_t cursor = dump.find('\n');
  EXPECT_EQ(dump.substr(0, cursor), "AVOC-TRACE v1");
  if (cursor == std::string::npos) return spans;
  ++cursor;
  while (cursor < dump.size()) {
    size_t eol = dump.find('\n', cursor);
    if (eol == std::string::npos) eol = dump.size();
    const std::string_view line(dump.data() + cursor, eol - cursor);
    cursor = eol + 1;
    if (line.empty()) continue;
    ParsedSpan span;
    unsigned long long trace = 0, id = 0, parent = 0, start = 0, end = 0;
    char kind[16] = {};
    char name[32] = {};
    const int matched = std::sscanf(
        std::string(line).c_str(),
        "trace=%llx span=%llx parent=%llx kind=%15s start=%llu end=%llu "
        "name=%31s",
        &trace, &id, &parent, kind, &start, &end, name);
    EXPECT_EQ(matched, 7) << "unparseable dump line: " << line;
    span.trace_id = trace;
    span.span_id = id;
    span.parent_id = parent;
    span.kind = kind;
    span.name = name;
    const size_t detail_at = line.find(" detail=");
    if (detail_at != std::string_view::npos) {
      span.detail = std::string(line.substr(detail_at + 8));
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

bool Contains(const std::string& haystack, std::string_view needle) {
  return haystack.find(needle) != std::string::npos;
}

std::string TempDir(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("avoc_trace_dst_") + std::to_string(::getpid()) + "_" +
           tag))
      .string();
}

class TraceDstTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_a_ = TempDir("a");
    dir_b_ = TempDir("b");
    std::filesystem::remove_all(dir_a_);
    std::filesystem::remove_all(dir_b_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_a_);
    std::filesystem::remove_all(dir_b_);
  }

  static uint64_t Seed() {
    if (const char* forced = std::getenv("AVOC_CHAOS_SEED")) {
      return static_cast<uint64_t>(std::strtoull(forced, nullptr, 10));
    }
    return 42;
  }

  std::string dir_a_;
  std::string dir_b_;
};

TEST_F(TraceDstTest, SpanTreeFollowsRetriedSubmitAcrossForwardAndWal) {
  const TraceRun run = RunScenario(Seed(), dir_a_);
  ASSERT_TRUE(run.ok) << run.failure;
  EXPECT_EQ(run.dropped, 0u) << "flight recorder overwrote mid-test";
  EXPECT_GE(run.forwarded, 1u);
  EXPECT_GE(run.dedup_replays, 1u);
  // The wire verb returns the tracer's canonical dump, byte for byte.
  EXPECT_EQ(run.dump, run.local_dump);

  const std::vector<ParsedSpan> spans = ParseDump(run.dump);
  ASSERT_FALSE(spans.empty());

  // Everything about the retried submit hangs off ONE derived trace id.
  // Sequence numbers start at 1, so the group-1 submit (the second one)
  // is seq 2.
  const uint64_t trace_id = obs::Tracer::DeriveTraceId(kClientId, 2);
  std::vector<const ParsedSpan*> in_trace;
  for (const ParsedSpan& span : spans) {
    if (span.trace_id == trace_id) in_trace.push_back(&span);
  }

  // Root: the logical submit, parentless.
  const ParsedSpan* root = nullptr;
  for (const ParsedSpan* span : in_trace) {
    if (span->name == "client.submit_batch") {
      EXPECT_EQ(root, nullptr) << "duplicate root";
      root = span;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(root->kind, "client");
  EXPECT_TRUE(Contains(root->detail, "group=group-1"));
  EXPECT_TRUE(Contains(root->detail, "seq=2"));

  // Attempts: the timed-out original and the successful resend, both
  // children of the root.
  const ParsedSpan* first_attempt = nullptr;
  const ParsedSpan* resend_attempt = nullptr;
  for (const ParsedSpan* span : in_trace) {
    if (span->name != "client.attempt") continue;
    EXPECT_EQ(span->parent_id, root->span_id);
    if (Contains(span->detail, "resend=no")) first_attempt = span;
    if (Contains(span->detail, "resend=yes")) resend_attempt = span;
  }
  ASSERT_NE(first_attempt, nullptr);
  ASSERT_NE(resend_attempt, nullptr);
  EXPECT_TRUE(Contains(first_attempt->detail, "outcome=transport_error"));
  EXPECT_TRUE(Contains(resend_attempt->detail, "outcome=ok"));

  // Server execution: the original request executed via the cross-shard
  // forward (miss), the resend was answered from the dedup cache
  // (replay) — each parented under ITS attempt, joined by the wire
  // trace-context field.
  const ParsedSpan* miss = nullptr;
  const ParsedSpan* replay = nullptr;
  for (const ParsedSpan* span : in_trace) {
    if (span->name != "server.submit_batch_seq") continue;
    if (Contains(span->detail, "dedup=miss")) miss = span;
    if (Contains(span->detail, "dedup=replay")) replay = span;
  }
  ASSERT_NE(miss, nullptr);
  ASSERT_NE(replay, nullptr);
  EXPECT_EQ(miss->parent_id, first_attempt->span_id);
  EXPECT_EQ(replay->parent_id, resend_attempt->span_id);
  EXPECT_TRUE(Contains(miss->detail, "route=forwarded"));
  EXPECT_TRUE(Contains(miss->detail, "group=group-1"));

  // Engine execution under the miss (the replay never re-executes).
  const ParsedSpan* engine = nullptr;
  for (const ParsedSpan* span : in_trace) {
    if (span->name == "engine.batch") {
      EXPECT_EQ(engine, nullptr) << "replay must not re-execute the engine";
      engine = span;
    }
  }
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->parent_id, miss->span_id);
  EXPECT_EQ(engine->kind, "engine");
  EXPECT_TRUE(Contains(engine->detail, "rounds=1"));

  // Storage: the history/trace WAL appends for the closed round, under
  // the engine span on the same trace.
  size_t wal_appends = 0;
  std::vector<uint64_t> wal_append_ids;
  for (const ParsedSpan* span : in_trace) {
    if (span->name != "wal.append") continue;
    ++wal_appends;
    wal_append_ids.push_back(span->span_id);
    EXPECT_EQ(span->kind, "storage");
    EXPECT_EQ(span->parent_id, engine->span_id);
  }
  EXPECT_GE(wal_appends, 1u);

  // Under fsync per commit each append's fsync is a timed storage span
  // inside it.
  size_t wal_fsyncs = 0;
  for (const ParsedSpan* span : in_trace) {
    if (span->name != "wal.fsync") continue;
    ++wal_fsyncs;
    EXPECT_EQ(span->kind, "storage");
    EXPECT_NE(std::find(wal_append_ids.begin(), wal_append_ids.end(),
                        span->parent_id),
              wal_append_ids.end());
  }
  EXPECT_EQ(wal_fsyncs, wal_appends);

  // The backoff between the attempts is on the trace as a point event.
  bool saw_backoff = false;
  for (const ParsedSpan* span : in_trace) {
    if (span->name == "client.backoff") {
      saw_backoff = true;
      EXPECT_EQ(span->parent_id, root->span_id);
      EXPECT_TRUE(Contains(span->detail, "sleep_ms="));
    }
  }
  EXPECT_TRUE(saw_backoff);

  // Flight-recorder breadcrumbs from the run as a whole: the migration
  // that pinned the connection and the forward hop itself.
  EXPECT_TRUE(Contains(run.dump, "name=shard.migrate"));
  EXPECT_TRUE(Contains(run.dump, "name=shard.forward"));

  // The dump drops straight into chrome://tracing.
  const Result<std::string> json = obs::TraceDumpToChromeJson(run.dump);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_TRUE(Contains(*json, "\"traceEvents\""));
}

TEST_F(TraceDstTest, SameSeedProducesByteIdenticalTraceDump) {
  const TraceRun first = RunScenario(Seed(), dir_a_);
  const TraceRun second = RunScenario(Seed(), dir_b_);
  ASSERT_TRUE(first.ok) << first.failure;
  ASSERT_TRUE(second.ok) << second.failure;
  EXPECT_FALSE(first.dump.empty());
  // Same seed, same virtual clock, same counter-derived ids: the dump —
  // fetched over the wire both times — is identical byte for byte.
  EXPECT_EQ(first.dump, second.dump);
  EXPECT_EQ(first.world_trace, second.world_trace);
  EXPECT_EQ(first.forwarded, second.forwarded);
  EXPECT_EQ(first.dedup_replays, second.dedup_replays);
}

TEST_F(TraceDstTest, UntracedServerStillAnswersAndRejectsTraceDump) {
  // No tracer anywhere: the optional wire field is absent, the server
  // runs spanless, and TRACE_DUMP reports FailedPrecondition instead of
  // crashing or hanging.
  SimWorld world(Seed());
  obs::Registry registry;
  auto listener = world.Listen(kPort);
  ASSERT_TRUE(listener.ok());
  std::vector<std::shared_ptr<Reactor>> reactors{world.reactor()};
  ShardedServerOptions server_options;
  server_options.shards = 1;
  auto server = ShardedVoterServer::StartOnReactors(
      server_options, std::move(*listener), std::move(reactors),
      /*spawn_loop_threads=*/false, /*store=*/nullptr, &registry);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)
                  ->AddGroup("group-0", *core::MakeEngine(
                                            core::AlgorithmId::kAvoc, kModules))
                  .ok());
  ASSERT_TRUE((*server)->Serve().ok());

  RetryPolicy policy;
  policy.request_timeout_ms = 500;
  ResilientVoterClient client([&world] { return world.Connect(kPort); },
                              &world, "untraced", policy, 1, &registry,
                              /*tracer=*/nullptr);
  auto accepted = client.SubmitBatch("group-0", RoundBatch(0));
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(*accepted, kModules);

  auto transport = world.Connect(kPort);
  ASSERT_TRUE(transport.ok());
  auto dump_client = RemoteVoterClient::FromTransport(std::move(*transport));
  ASSERT_TRUE(dump_client.ok());
  ASSERT_TRUE(dump_client->SetRequestTimeoutMs(500).ok());
  const auto dump = dump_client->TraceDump();
  EXPECT_FALSE(dump.ok());
  EXPECT_EQ(dump.status().code(), ErrorCode::kFailedPrecondition);
  (*server)->Stop();
}

}  // namespace
}  // namespace avoc::runtime
