// Storage engine vs legacy JSON store: history put throughput at fleet
// scale, read-back latency, crash-recovery time, and trace compression.
//
// The legacy HistoryStore rewrites its whole JSON document durably on
// every Put, so a 1000-group deployment pays O(groups) serialization per
// group update — the workload the WAL was built to replace with one
// appended record.  Modes over the identical workload (G groups x K
// update sweeps, M modules each):
//
//   json-store      runtime::HistoryStore::Open (durable JSON rewrite)
//   storage-engine  storage::StorageEngine (WAL append, fsync every
//                   commit — the same durability point)
//
// Then: Get() sweeps over both, a timed reopen (WAL replay + snapshot
// load) of the engine directory, and the Gorilla compression ratio on a
// 50k-point sine+noise vote trace.  Writes BENCH_storage.json.
// Flags: --groups G --sweeps K --modules M --trace-points N --json PATH
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "runtime/datastore.h"
#include "storage/engine.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;

using avoc::runtime::HistoryStore;
using avoc::storage::HistorySnapshot;
using avoc::storage::StorageEngine;
using avoc::storage::StorageEngineOptions;
using avoc::storage::TracePoint;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string GroupName(size_t g) { return "group" + std::to_string(g); }

HistorySnapshot SnapshotFor(size_t g, size_t sweep, size_t modules) {
  std::vector<double> records;
  records.reserve(modules);
  for (size_t m = 0; m < modules; ++m) {
    records.push_back(1.0 / (1.0 + 0.01 * static_cast<double>(g + m + sweep)));
  }
  return avoc::core::UpgradeRecordsOnly(records, sweep + 1);
}

/// Puts every group `sweeps` times through `backend`; seconds, or -1.
double RunPuts(avoc::storage::HistoryBackend& backend, size_t groups,
               size_t sweeps, size_t modules) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t sweep = 0; sweep < sweeps; ++sweep) {
    for (size_t g = 0; g < groups; ++g) {
      if (!backend.Put(GroupName(g), SnapshotFor(g, sweep, modules)).ok()) {
        return -1.0;
      }
    }
  }
  return SecondsSince(start);
}

double RunGets(const avoc::storage::HistoryBackend& backend, size_t groups,
               size_t repeats) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t it = 0; it < repeats; ++it) {
    for (size_t g = 0; g < groups; ++g) {
      auto snapshot = backend.Get(GroupName(g));
      if (!snapshot.ok() || snapshot->records.empty()) return -1.0;
    }
  }
  return SecondsSince(start);
}

}  // namespace

int main(int argc, char** argv) {
  auto cli = avoc::CommandLine::Parse(argc - 1, argv + 1);
  if (!cli.ok()) return 1;
  const size_t groups = static_cast<size_t>(cli->GetInt("groups", 1000));
  const size_t sweeps = static_cast<size_t>(cli->GetInt("sweeps", 3));
  const size_t modules = static_cast<size_t>(cli->GetInt("modules", 4));
  const size_t trace_points =
      static_cast<size_t>(cli->GetInt("trace-points", 50000));
  const std::string json_path = cli->GetString("json", "BENCH_storage.json");

  const fs::path root =
      fs::temp_directory_path() / "avoc_bench_storage";
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string json_store_path = (root / "history.json").string();
  const std::string engine_dir = (root / "engine").string();

  std::printf("=== history persistence: %zu groups x %zu sweeps x %zu "
              "modules ===\n",
              groups, sweeps, modules);

  // --- legacy JSON store ------------------------------------------------------
  double json_put_seconds = -1.0;
  double json_get_seconds = -1.0;
  {
    auto store = HistoryStore::Open(json_store_path);
    if (!store.ok()) return 1;
    json_put_seconds = RunPuts(*store, groups, sweeps, modules);
    if (json_put_seconds < 0.0) {
      std::fprintf(stderr, "json puts failed\n");
      return 1;
    }
    json_get_seconds = RunGets(*store, groups, 10);
  }

  // --- storage engine ---------------------------------------------------------
  double engine_put_seconds = -1.0;
  double engine_get_seconds = -1.0;
  double recovery_seconds = 0.0;
  uint64_t engine_fsyncs = 0;
  {
    StorageEngineOptions options;
    options.dir = engine_dir;
    auto engine = StorageEngine::Open(options);
    if (!engine.ok()) return 1;
    engine_put_seconds = RunPuts(**engine, groups, sweeps, modules);
    if (engine_put_seconds < 0.0) {
      std::fprintf(stderr, "engine puts failed\n");
      return 1;
    }
    engine_get_seconds = RunGets(**engine, groups, 10);
    engine_fsyncs = (*engine)->stats().fsyncs;
  }
  {
    // Timed cold reopen: snapshot load + WAL replay over the full state.
    const auto start = std::chrono::steady_clock::now();
    StorageEngineOptions options;
    options.dir = engine_dir;
    auto engine = StorageEngine::Open(options);
    if (!engine.ok() || (*engine)->size() != groups) {
      std::fprintf(stderr, "engine reopen failed\n");
      return 1;
    }
    recovery_seconds = SecondsSince(start);
  }

  const double total_puts = static_cast<double>(groups * sweeps);
  const double put_speedup = json_put_seconds / engine_put_seconds;
  std::printf("%-16s, %10s, %12s\n", "store", "put s", "puts/s");
  std::printf("%-16s, %10.3f, %12.0f\n", "json-store", json_put_seconds,
              total_puts / json_put_seconds);
  std::printf("%-16s, %10.3f, %12.0f\n", "storage-engine", engine_put_seconds,
              total_puts / engine_put_seconds);
  std::printf("put speedup: %.1fx (target >= 10x); engine fsyncs: %llu; "
              "cold reopen: %.3fs\n",
              put_speedup, static_cast<unsigned long long>(engine_fsyncs),
              recovery_seconds);

  // --- trace compression ------------------------------------------------------
  double compression_ratio = 0.0;
  {
    StorageEngineOptions options;
    options.dir = (root / "trace").string();
    options.chunk_max_points = 512;
    auto engine = StorageEngine::Open(options);
    if (!engine.ok()) return 1;
    avoc::Rng rng(20260808);
    std::vector<TracePoint> points;
    points.reserve(trace_points);
    for (size_t i = 0; i < trace_points; ++i) {
      const double angle = 0.002 * static_cast<double>(i);
      const double value =
          20.0 + 5.0 * std::sin(angle) + rng.Gaussian(0.0, 0.02);
      points.push_back(TracePoint{i, value, i % 97 != 0});
    }
    // Append in server-sized slices so chunks seal as they would live.
    for (size_t at = 0; at < points.size(); at += 257) {
      const size_t n = std::min<size_t>(257, points.size() - at);
      if (!(*engine)
               ->AppendTrace("trace",
                             std::span(points).subspan(at, n))
               .ok()) {
        return 1;
      }
    }
    const auto stats = (*engine)->stats();
    compression_ratio = stats.compression_ratio();
    std::printf("trace: %zu points, %llu sealed chunks, %.2fx compression "
                "(%llu -> %llu bytes)\n",
                trace_points,
                static_cast<unsigned long long>(stats.sealed_chunks),
                compression_ratio,
                static_cast<unsigned long long>(stats.chunk_raw_bytes),
                static_cast<unsigned long long>(stats.chunk_compressed_bytes));
  }

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"storage\",\n"
                 "  \"groups\": %zu,\n"
                 "  \"sweeps\": %zu,\n"
                 "  \"modules\": %zu,\n"
                 "  \"json_put_seconds\": %.6f,\n"
                 "  \"engine_put_seconds\": %.6f,\n"
                 "  \"put_speedup\": %.3f,\n"
                 "  \"json_get_seconds\": %.6f,\n"
                 "  \"engine_get_seconds\": %.6f,\n"
                 "  \"engine_fsyncs\": %llu,\n"
                 "  \"recovery_seconds\": %.6f,\n"
                 "  \"trace_points\": %zu,\n"
                 "  \"compression_ratio\": %.3f\n"
                 "}\n",
                 groups, sweeps, modules, json_put_seconds, engine_put_seconds,
                 put_speedup, json_get_seconds, engine_get_seconds,
                 static_cast<unsigned long long>(engine_fsyncs),
                 recovery_seconds, trace_points, compression_ratio);
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());
  }
  fs::remove_all(root);
  if (put_speedup < 10.0) {
    std::fprintf(stderr,
                 "WARNING: put speedup %.1fx below the 10x target\n",
                 put_speedup);
  }
  return 0;
}
