// Latency micro-benchmarks (google-benchmark) for §7's implementation
// notes: "the system can execute a history-aware voting round in 1
// millisecond and a stateless vote in 50 microseconds (datastore reads and
// writes being the bottleneck)".
//
// The absolute numbers here are far smaller (C++ on a workstation vs
// Python 3.9 on constrained hardware); what must reproduce is the *shape*:
// stateless << history-aware << history-aware + datastore persistence.
// Besides the google-benchmark suite, main() first runs a percentile pass:
// per algorithm/width it times individual CastVote rounds with the
// telemetry clock path (obs::LatencyHistogram) and writes the p50/p95/p99
// tail to BENCH_latency.json — mean-only numbers hide exactly the tail a
// soft real-time voter cares about.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/batch.h"
#include "core/engine.h"
#include "data/round_table.h"
#include "obs/metrics.h"
#include "runtime/datastore.h"
#include "runtime/framing.h"
#include "runtime/nodes.h"
#include "storage/chunk.h"
#include "storage/engine.h"
#include "storage/io.h"
#include "util/rng.h"

namespace {

using avoc::core::AlgorithmId;

std::vector<double> MakeRound(size_t modules, avoc::Rng& rng) {
  std::vector<double> round;
  round.reserve(modules);
  for (size_t m = 0; m < modules; ++m) {
    round.push_back(18500.0 + rng.Gaussian(0.0, 60.0));
  }
  // One outlier keeps the agreement/elimination paths busy.
  round.back() += 6000.0;
  return round;
}

avoc::core::Round ToRound(const std::vector<double>& values) {
  return avoc::core::Round(values.begin(), values.end());
}

void BM_StatelessVote(benchmark::State& state) {
  const size_t modules = static_cast<size_t>(state.range(0));
  avoc::Rng rng(1);
  const std::vector<double> round = MakeRound(modules, rng);
  for (auto _ : state) {
    auto result = avoc::core::StatelessVote(round);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StatelessVote)->Arg(5)->Arg(9)->Arg(32);

void BM_HistoryAwareRound(benchmark::State& state) {
  const size_t modules = static_cast<size_t>(state.range(0));
  const AlgorithmId id = static_cast<AlgorithmId>(state.range(1));
  auto engine = avoc::core::MakeEngine(id, modules);
  if (!engine.ok()) {
    state.SkipWithError("engine creation failed");
    return;
  }
  avoc::Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    const avoc::core::Round round = ToRound(MakeRound(modules, rng));
    state.ResumeTiming();
    auto result = engine->CastVote(round);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HistoryAwareRound)
    ->ArgsProduct({{5, 9, 32},
                   {static_cast<long>(AlgorithmId::kStandard),
                    static_cast<long>(AlgorithmId::kModuleElimination),
                    static_cast<long>(AlgorithmId::kSoftDynamicThreshold),
                    static_cast<long>(AlgorithmId::kHybrid),
                    static_cast<long>(AlgorithmId::kAvoc)}});

void BM_ClusteringOnlyRound(benchmark::State& state) {
  const size_t modules = static_cast<size_t>(state.range(0));
  auto engine =
      avoc::core::MakeEngine(AlgorithmId::kClusteringOnly, modules);
  if (!engine.ok()) {
    state.SkipWithError("engine creation failed");
    return;
  }
  avoc::Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    const avoc::core::Round round = ToRound(MakeRound(modules, rng));
    state.ResumeTiming();
    auto result = engine->CastVote(round);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ClusteringOnlyRound)->Arg(5)->Arg(9)->Arg(32);

// History-aware round including the in-memory datastore round-trip the
// paper identifies as the bottleneck.
void BM_HistoryAwareRoundWithMemoryStore(benchmark::State& state) {
  const size_t modules = static_cast<size_t>(state.range(0));
  auto engine = avoc::core::MakeEngine(AlgorithmId::kAvoc, modules);
  if (!engine.ok()) {
    state.SkipWithError("engine creation failed");
    return;
  }
  avoc::runtime::HistoryStore store;
  avoc::runtime::HistorySnapshot out;
  avoc::Rng rng(4);
  for (auto _ : state) {
    state.PauseTiming();
    const avoc::core::Round round = ToRound(MakeRound(modules, rng));
    state.ResumeTiming();
    // Read-modify-write against the store, as the voter service does.
    auto snapshot = store.Get("group");
    if (snapshot.ok()) (void)engine->RestoreState(*snapshot);
    auto result = engine->CastVote(round);
    benchmark::DoNotOptimize(result);
    engine->ExportState(out);
    (void)store.Put("group", out);
  }
}
BENCHMARK(BM_HistoryAwareRoundWithMemoryStore)->Arg(5)->Arg(9);

// ... and with the JSON file-backed store: this is the configuration that
// mirrors the paper's "datastore reads and writes being the bottleneck".
void BM_HistoryAwareRoundWithFileStore(benchmark::State& state) {
  const size_t modules = static_cast<size_t>(state.range(0));
  auto engine = avoc::core::MakeEngine(AlgorithmId::kAvoc, modules);
  if (!engine.ok()) {
    state.SkipWithError("engine creation failed");
    return;
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "avoc_bench_store.json")
          .string();
  std::filesystem::remove(path);
  auto store = avoc::runtime::HistoryStore::Open(path);
  if (!store.ok()) {
    state.SkipWithError("store open failed");
    return;
  }
  avoc::runtime::HistorySnapshot out;
  avoc::Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    const avoc::core::Round round = ToRound(MakeRound(modules, rng));
    state.ResumeTiming();
    auto snapshot = store->Get("group");
    if (snapshot.ok()) (void)engine->RestoreState(*snapshot);
    auto result = engine->CastVote(round);
    benchmark::DoNotOptimize(result);
    engine->ExportState(out);
    (void)store->Put("group", out);
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_HistoryAwareRoundWithFileStore)->Arg(5)->Arg(9);

// A vote trace shaped like a long-running group's: consecutive rounds,
// a slowly drifting fused value, every tenth round not engaged.
std::vector<avoc::storage::TracePoint> MakeTrace(size_t points) {
  avoc::Rng rng(5);
  std::vector<avoc::storage::TracePoint> trace;
  trace.reserve(points);
  double value = 18500.0;
  for (size_t i = 0; i < points; ++i) {
    value += rng.Gaussian(0.0, 0.5);
    const bool engaged = i % 10 != 9;
    trace.push_back({1000 + i, engaged ? value : 0.0, engaged});
  }
  return trace;
}

// Gorilla chunk codec, per point: the seal cost a group pays every
// `chunk_max_points` appends, and the whole-chunk decode every sealed
// entry gets once when the store opens.
void BM_ChunkEncode(benchmark::State& state) {
  const auto trace = MakeTrace(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::string body = avoc::storage::EncodeChunk(trace);
    benchmark::DoNotOptimize(body);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChunkEncode)->Arg(512)->Arg(8192);

void BM_ChunkDecode(benchmark::State& state) {
  const avoc::storage::SealedChunk chunk = avoc::storage::SealChunk(
      0, MakeTrace(static_cast<size_t>(state.range(0))));
  std::vector<avoc::storage::TracePoint> decoded;
  for (auto _ : state) {
    const avoc::Status status = avoc::storage::DecodeChunk(chunk, &decoded);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChunkDecode)->Arg(512)->Arg(8192);

// QUERY_RANGE's shape: a 256-round window over an 8192-point chunk, at
// the chunk's start (one segment), across the mark in its middle (two
// segments) and at its end (one segment).  The argument is the window's
// first point; items are the points returned.
void BM_ChunkQueryRange(benchmark::State& state) {
  constexpr size_t kPoints = 8192;
  constexpr uint64_t kWindow = 256;
  const auto trace = MakeTrace(kPoints);
  const avoc::storage::SealedChunk chunk =
      avoc::storage::SealChunk(0, trace);
  const uint64_t lo = trace[static_cast<size_t>(state.range(0))].round;
  std::vector<avoc::storage::TracePoint> decoded;
  for (auto _ : state) {
    decoded.clear();
    const avoc::Status status =
        avoc::storage::DecodeChunkRange(chunk, lo, lo + kWindow - 1, &decoded);
    if (!status.ok() || decoded.size() != kWindow) {
      state.SkipWithError("range decode failed or returned a short window");
      return;
    }
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kWindow));
}
BENCHMARK(BM_ChunkQueryRange)->Arg(0)->Arg(3968)->Arg(7936);

// The storage engine's request path, one call per engine pass, at the
// batch_wide (16 modules x 32 rounds) and iot_mixed (5 x 1) shapes:
// Put writes the pass's `modules`-record history ledger, AppendTrace
// its `rounds` trace points.  The store runs as e2ebench's gated
// workloads do (fsync per MiB of WAL) with 8192-point chunks, and
// compacts every 8 MiB of WAL, so a long run cannot grow one tail
// without bound.  Items are calls (Put) or points (AppendTrace).
class BenchStore {
 public:
  BenchStore()
      : dir_((std::filesystem::temp_directory_path() /
              ("avoc_bench_latency_store_" + std::to_string(::getpid())))
                 .string()) {
    std::filesystem::remove_all(dir_);
    avoc::storage::StorageEngineOptions options;
    options.dir = dir_;
    options.wal_sync_every_bytes = 1u << 20;
    options.chunk_max_points = 8192;
    options.compact_wal_bytes = 8u << 20;
    auto engine = avoc::storage::StorageEngine::Open(options);
    if (engine.ok()) engine_ = std::move(*engine);
  }
  ~BenchStore() {
    engine_.reset();
    std::filesystem::remove_all(dir_);
  }
  avoc::storage::StorageEngine* get() const { return engine_.get(); }

 private:
  std::string dir_;
  std::unique_ptr<avoc::storage::StorageEngine> engine_;
};

void BM_StoragePut(benchmark::State& state) {
  const size_t modules = static_cast<size_t>(state.range(0));
  const size_t rounds = static_cast<size_t>(state.range(1));
  BenchStore store;
  if (store.get() == nullptr) {
    state.SkipWithError("store open failed");
    return;
  }
  avoc::Rng rng(5);
  std::vector<double> records;
  for (size_t m = 0; m < modules; ++m) {
    records.push_back(rng.Uniform(0.0, 1.0));
  }
  avoc::storage::HistorySnapshot ledger =
      avoc::core::UpgradeRecordsOnly(records, 0);
  for (auto _ : state) {
    ledger.rounds += rounds;
    const avoc::Status status = store.get()->Put("group-00", ledger);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StoragePut)->Args({16, 32})->Args({5, 1});

void BM_StorageAppendTrace(benchmark::State& state) {
  const size_t rounds = static_cast<size_t>(state.range(1));
  BenchStore store;
  if (store.get() == nullptr) {
    state.SkipWithError("store open failed");
    return;
  }
  std::vector<avoc::storage::TracePoint> points = MakeTrace(rounds);
  for (auto _ : state) {
    const avoc::Status status = store.get()->AppendTrace("group-00", points);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    for (auto& point : points) point.round += rounds;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(1));
}
BENCHMARK(BM_StorageAppendTrace)->Args({16, 32})->Args({5, 1});

// The checksum every WAL record, chunk entry, snapshot and migration
// blob carries, over a small record and a page-sized body.  Items are
// bytes.
void BM_Crc32(benchmark::State& state) {
  avoc::Rng rng(5);
  std::string bytes(static_cast<size_t>(state.range(0)), '\0');
  for (char& c : bytes) c = static_cast<char>(rng.UniformInt(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(avoc::storage::Crc32(bytes));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096);

// The per-frame group path around the engine, one layer each, at the
// batch_wide frame shape (16 modules x 32 rounds) and the one-round
// iot_mixed shape (5 x 1).  Arguments are modules, rounds per frame;
// items are readings (encode, decode, hub) or sink rows.
std::vector<avoc::runtime::ReadingMessage> MakeFrame(size_t modules,
                                                     size_t rounds,
                                                     uint64_t first_round) {
  avoc::Rng rng(5);
  std::vector<avoc::runtime::ReadingMessage> frame;
  frame.reserve(modules * rounds);
  for (uint64_t r = first_round; r < first_round + rounds; ++r) {
    for (uint64_t m = 0; m < modules; ++m) {
      frame.push_back({m, r, 18500.0 + rng.Gaussian(0.0, 60.0)});
    }
  }
  return frame;
}

int64_t FrameItems(const benchmark::State& state) {
  return static_cast<int64_t>(state.iterations()) * state.range(0) *
         state.range(1);
}

void BM_SubmitBatchEncode(benchmark::State& state) {
  const auto frame = MakeFrame(static_cast<size_t>(state.range(0)),
                               static_cast<size_t>(state.range(1)), 100000);
  for (auto _ : state) {
    std::string payload = avoc::runtime::EncodeSubmitBatch("group-00", frame);
    benchmark::DoNotOptimize(payload);
  }
  state.SetItemsProcessed(FrameItems(state));
}
BENCHMARK(BM_SubmitBatchEncode)->Args({16, 32})->Args({5, 1});

void BM_SubmitBatchDecode(benchmark::State& state) {
  const std::string payload = avoc::runtime::EncodeSubmitBatch(
      "group-00", MakeFrame(static_cast<size_t>(state.range(0)),
                            static_cast<size_t>(state.range(1)), 100000));
  std::string group;
  std::vector<avoc::runtime::BatchReading> readings;
  for (auto _ : state) {
    const avoc::Status status =
        avoc::runtime::DecodeSubmitBatch(payload, &group, &readings);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(readings.data());
  }
  state.SetItemsProcessed(FrameItems(state));
}
BENCHMARK(BM_SubmitBatchDecode)->Args({16, 32})->Args({5, 1});

// Hub assembly of complete frames into the closed-round table: every
// frame's rounds close, so the hub's closed set grows by one run's end
// and its row pool is reused frame after frame.
void BM_HubIngest(benchmark::State& state) {
  const size_t modules = static_cast<size_t>(state.range(0));
  const size_t rounds = static_cast<size_t>(state.range(1));
  auto frame = MakeFrame(modules, rounds, 0);
  avoc::runtime::HubNode hub(modules);
  std::vector<size_t> closed;
  avoc::data::RoundTable table =
      avoc::data::RoundTable::WithModuleCount(modules);
  for (auto _ : state) {
    closed.clear();
    table.Clear();
    const auto stats = hub.IngestBatch(frame, closed, table);
    if (stats.rounds_closed != rounds) {
      state.SkipWithError("a frame did not close all of its rounds");
      return;
    }
    benchmark::DoNotOptimize(table.value_block().data());
    benchmark::ClobberMemory();
    for (auto& reading : frame) reading.round += rounds;
  }
  state.SetItemsProcessed(FrameItems(state));
}
BENCHMARK(BM_HubIngest)->Args({16, 32})->Args({5, 1});

// Sink append of one voted frame's trace rows (no trace store).  The
// sink is replaced, untimed, once the next append would take it past
// `sink_rows` rows, to bound memory.
void SinkAppendBench(benchmark::State& state, size_t sink_rows) {
  const size_t modules = static_cast<size_t>(state.range(0));
  const size_t rounds = static_cast<size_t>(state.range(1));
  avoc::data::RoundTable table =
      avoc::data::RoundTable::WithModuleCount(modules);
  std::vector<size_t> round_numbers;
  avoc::Rng rng(9);
  for (size_t r = 0; r < rounds; ++r) {
    (void)table.AppendRound(MakeRound(modules, rng));
    round_numbers.push_back(r);
  }
  auto engine = avoc::core::MakeEngine(AlgorithmId::kAvoc, modules);
  avoc::core::BatchTrace trace;
  if (!engine.ok() || !avoc::core::RunOverTable(*engine, table, trace).ok()) {
    state.SkipWithError("could not vote the frame");
    return;
  }
  auto sink = std::make_unique<avoc::runtime::SinkNode>();
  for (auto _ : state) {
    if (sink->output_count() + rounds > sink_rows) {
      state.PauseTiming();
      sink = std::make_unique<avoc::runtime::SinkNode>();
      state.ResumeTiming();
    }
    sink->Append(round_numbers, trace.view());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(1));
}

// A young sink: replaced every 512 rows, so its columns stay warm.
void BM_SinkAppend(benchmark::State& state) { SinkAppendBench(state, 1 << 9); }
BENCHMARK(BM_SinkAppend)->Args({16, 32})->Args({5, 1});

// A long-lived sink: one sink takes 8 windows of rows, as a group that
// runs for hours does, so the appends pay whatever growth its columns
// need.
void BM_SinkAppendLongLived(benchmark::State& state) {
  SinkAppendBench(state, 8 * avoc::core::kSinkDetailRows);
}
BENCHMARK(BM_SinkAppendLongLived)->Args({16, 32});

// One percentile-pass config: an algorithm preset at a round width.
struct PercentileConfig {
  const char* name;
  AlgorithmId id;
  size_t modules;
};

constexpr size_t kPercentileWarmup = 2000;
constexpr size_t kPercentileRounds = 20000;

/// Times kPercentileRounds individual rounds per config and writes their
/// p50/p95/p99/mean to `path`; returns false on setup failure.
bool RunPercentilePass(const std::string& path) {
  const PercentileConfig configs[] = {
      {"standard", AlgorithmId::kStandard, 5},
      {"standard", AlgorithmId::kStandard, 9},
      {"me", AlgorithmId::kModuleElimination, 5},
      {"me", AlgorithmId::kModuleElimination, 9},
      {"avoc", AlgorithmId::kAvoc, 5},
      {"avoc", AlgorithmId::kAvoc, 9},
  };
  std::FILE* json = std::fopen(path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"latency\",\n"
               "  \"rounds_per_config\": %zu,\n"
               "  \"results\": [\n",
               kPercentileRounds);
  std::printf("%-10s %8s %12s %12s %12s %12s\n", "algorithm", "modules",
              "p50_ns", "p95_ns", "p99_ns", "mean_ns");
  const size_t config_count = sizeof(configs) / sizeof(configs[0]);
  for (size_t c = 0; c < config_count; ++c) {
    const PercentileConfig& config = configs[c];
    auto engine = avoc::core::MakeEngine(config.id, config.modules);
    if (!engine.ok()) {
      std::fprintf(stderr, "engine %s/%zu: %s\n", config.name, config.modules,
                   engine.status().ToString().c_str());
      std::fclose(json);
      return false;
    }
    avoc::Rng rng(11 + c);
    avoc::obs::LatencyHistogram histogram;
    for (size_t r = 0; r < kPercentileWarmup + kPercentileRounds; ++r) {
      const avoc::core::Round round = ToRound(MakeRound(config.modules, rng));
      const auto start = std::chrono::steady_clock::now();
      auto result = engine->CastVote(round);
      const auto stop = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(result);
      if (r >= kPercentileWarmup) {
        histogram.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
                .count()));
      }
    }
    const avoc::obs::LatencySnapshot snapshot = histogram.Snapshot();
    std::printf("%-10s %8zu %12.0f %12.0f %12.0f %12.1f\n", config.name,
                config.modules, snapshot.p50(), snapshot.p95(), snapshot.p99(),
                snapshot.Mean());
    std::fprintf(json,
                 "    {\"algorithm\": \"%s\", \"modules\": %zu, "
                 "\"p50_ns\": %.1f, \"p95_ns\": %.1f, \"p99_ns\": %.1f, "
                 "\"mean_ns\": %.1f}%s\n",
                 config.name, config.modules, snapshot.p50(), snapshot.p95(),
                 snapshot.p99(), snapshot.Mean(),
                 c + 1 < config_count ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!RunPercentilePass("BENCH_latency.json")) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
