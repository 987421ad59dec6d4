// Sharded multi-group throughput (the smart-shopping motivation: one
// voter group per shelf, hundreds of shelves per store).
//
// Four modes over the identical per-group workload:
//   legacy               one VotingEngine::CastVote(Round) call per round
//                        (a VoteResult allocated per round), single thread
//   columnar             group-major SoA block (MultiGroupTrace), single
//                        thread, trace reused across repeats
//   columnar-instrumented columnar with a live obs::Registry and
//                        per-group MetricsObservers attached — the
//                        telemetry-overhead probe (<3% target)
//   columnar-parallel    same block sharded across the worker pool
// Cross-checks that all four produce bit-identical fused outputs, then
// writes machine-readable BENCH_multi_group.json next to the stdout
// report.  Flags: --groups N --modules M --rounds R --threads T
// --repeat K --seed S --json PATH
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/batch.h"
#include "obs/metrics.h"
#include "runtime/multi_group.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

std::vector<avoc::data::RoundTable> MakeTables(size_t groups, size_t modules,
                                               size_t rounds, uint64_t seed) {
  std::vector<avoc::data::RoundTable> tables;
  tables.reserve(groups);
  for (size_t g = 0; g < groups; ++g) {
    avoc::Rng rng(seed + g);
    avoc::data::RoundTable table =
        avoc::data::RoundTable::WithModuleCount(modules);
    for (size_t r = 0; r < rounds; ++r) {
      std::vector<double> row(modules);
      for (size_t m = 0; m < modules; ++m) {
        // One drifting module per group keeps the history machinery busy.
        const double bias = (m == 0) ? 2.0 : 0.0;
        row[m] = 20.0 + bias + rng.Gaussian(0.0, 0.2);
      }
      (void)table.AppendRound(row);
    }
    tables.push_back(std::move(table));
  }
  return tables;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct ModeResult {
  const char* mode;
  const char* allocation;
  size_t threads = 1;
  double seconds = 0.0;  ///< best of the repeats
  double rounds_per_sec = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  auto cli = avoc::CommandLine::Parse(argc - 1, argv + 1);
  if (!cli.ok()) return 1;
  const size_t groups = static_cast<size_t>(cli->GetInt("groups", 64));
  const size_t modules = static_cast<size_t>(cli->GetInt("modules", 5));
  const size_t rounds = static_cast<size_t>(cli->GetInt("rounds", 2000));
  const size_t threads = static_cast<size_t>(cli->GetInt("threads", 0));
  const size_t repeat =
      std::max<size_t>(1, static_cast<size_t>(cli->GetInt("repeat", 3)));
  const uint64_t seed = static_cast<uint64_t>(cli->GetInt("seed", 7));
  const size_t sample_every =
      static_cast<size_t>(cli->GetInt("sample", 256));
  const std::string json_path =
      cli->GetString("json", "BENCH_multi_group.json");

  auto config_engine = avoc::core::MakeEngine(avoc::core::AlgorithmId::kAvoc,
                                              modules);
  if (!config_engine.ok()) {
    std::fprintf(stderr, "engine: %s\n",
                 config_engine.status().ToString().c_str());
    return 1;
  }
  const auto config = config_engine->config();
  const auto tables = MakeTables(groups, modules, rounds, seed);
  const double total_rounds = static_cast<double>(groups * rounds);

  std::printf("=== sharded multi-group batch: %zu groups x %zu modules x "
              "%zu rounds (AVOC), best of %zu ===\n",
              groups, modules, rounds, repeat);

  // --- legacy: per-round VoteResult allocations, fresh engines ------------
  ModeResult legacy{"legacy", "per-round", 1};
  using Outputs = std::vector<std::optional<double>>;
  std::vector<Outputs> legacy_results;
  for (size_t it = 0; it < repeat; ++it) {
    std::vector<Outputs> results(groups);
    const auto start = std::chrono::steady_clock::now();
    for (size_t g = 0; g < groups; ++g) {
      auto engine = avoc::core::VotingEngine::Create(modules, config);
      if (!engine.ok()) return 1;
      results[g].reserve(rounds);
      for (size_t r = 0; r < rounds; ++r) {
        auto result = engine->CastVote(tables[g].MaterializeRound(r));
        if (!result.ok()) {
          std::fprintf(stderr, "legacy: %s\n",
                       result.status().ToString().c_str());
          return 1;
        }
        results[g].push_back(result->value);
      }
    }
    const double seconds = SecondsSince(start);
    if (it == 0 || seconds < legacy.seconds) legacy.seconds = seconds;
    if (it == 0) legacy_results = std::move(results);
  }

  // --- columnar: group-major trace, reused across repeats -----------------
  avoc::runtime::MultiGroupOptions options;
  options.threads = threads;
  auto sequential =
      avoc::runtime::MultiGroupEngine::Create(groups, modules, config);
  auto parallel = avoc::runtime::MultiGroupEngine::Create(groups, modules,
                                                          config, options);
  if (!sequential.ok() || !parallel.ok()) {
    const auto& status =
        sequential.ok() ? parallel.status() : sequential.status();
    std::fprintf(stderr, "multi-group setup failed: %s\n",
                 status.message().c_str());
    return 1;
  }

  // --- columnar bare vs columnar + telemetry, interleaved -----------------
  // The two modes alternate inside one loop so the <3%-overhead comparison
  // sees the same machine conditions; best-of per mode then cancels the
  // shared noise floor instead of measuring drift between two blocks.
  avoc::obs::Registry registry;
  avoc::runtime::MultiGroupOptions instr_options;
  instr_options.registry = &registry;
  instr_options.metrics_sample_every = sample_every;
  auto instrumented = avoc::runtime::MultiGroupEngine::Create(
      groups, modules, config, instr_options);
  if (!instrumented.ok()) {
    std::fprintf(stderr, "instrumented setup failed: %s\n",
                 instrumented.status().message().c_str());
    return 1;
  }
  ModeResult columnar{"columnar", "columnar", 1};
  ModeResult instr{"columnar-instrumented", "columnar", 1};
  avoc::runtime::MultiGroupTrace seq_trace;
  avoc::runtime::MultiGroupTrace instr_trace;
  std::vector<double> pair_ratio;  ///< instrumented/bare per iteration
  pair_ratio.reserve(repeat);
  for (size_t it = 0; it < repeat; ++it) {
    sequential->ResetAll();
    auto start = std::chrono::steady_clock::now();
    auto status = sequential->RunBatchSequential(tables, seq_trace);
    const double bare_seconds = SecondsSince(start);
    if (!status.ok()) {
      std::fprintf(stderr, "sequential: %s\n", status.ToString().c_str());
      return 1;
    }
    if (it == 0 || bare_seconds < columnar.seconds) {
      columnar.seconds = bare_seconds;
    }

    instrumented->ResetAll();
    start = std::chrono::steady_clock::now();
    status = instrumented->RunBatchSequential(tables, instr_trace);
    const double instr_seconds = SecondsSince(start);
    if (!status.ok()) {
      std::fprintf(stderr, "instrumented: %s\n", status.ToString().c_str());
      return 1;
    }
    if (it == 0 || instr_seconds < instr.seconds) {
      instr.seconds = instr_seconds;
    }
    pair_ratio.push_back(instr_seconds / bare_seconds);
  }
  // The overhead statistic is the median of the per-iteration ratios:
  // each back-to-back pair shares its machine conditions, and the median
  // discards iterations where a noise spike hit one side of a pair.
  std::nth_element(pair_ratio.begin(),
                   pair_ratio.begin() + pair_ratio.size() / 2,
                   pair_ratio.end());
  const double median_ratio = pair_ratio[pair_ratio.size() / 2];
  const avoc::runtime::MultiGroupStats stats = instrumented->Stats();

  const size_t workers = avoc::util::ThreadPool(threads).thread_count();
  ModeResult par{"columnar-parallel", "columnar", workers};
  avoc::runtime::MultiGroupTrace par_trace;
  for (size_t it = 0; it < repeat; ++it) {
    parallel->ResetAll();
    const auto start = std::chrono::steady_clock::now();
    const auto status = parallel->RunBatch(tables, par_trace);
    const double seconds = SecondsSince(start);
    if (!status.ok()) {
      std::fprintf(stderr, "parallel: %s\n", status.ToString().c_str());
      return 1;
    }
    if (it == 0 || seconds < par.seconds) par.seconds = seconds;
  }

  // Cross-check: neither the columnar layout nor sharding may change a
  // single fused value relative to the legacy path.
  size_t mismatches = 0;
  for (size_t g = 0; g < groups; ++g) {
    const avoc::core::TraceView seq_view = seq_trace.group(g);
    const avoc::core::TraceView par_view = par_trace.group(g);
    const avoc::core::TraceView instr_view = instr_trace.group(g);
    for (size_t r = 0; r < rounds; ++r) {
      const auto& legacy_output = legacy_results[g][r];
      if (seq_view.output(r) != legacy_output ||
          par_view.output(r) != legacy_output ||
          instr_view.output(r) != legacy_output) {
        ++mismatches;
      }
    }
  }
  // Telemetry sanity: the registry must have seen every round of every
  // repeat, or the "overhead" number measured a broken observer.
  const uint64_t expected_rounds =
      static_cast<uint64_t>(groups) * rounds * repeat;
  if (stats.rounds != expected_rounds) {
    std::fprintf(stderr, "telemetry: %llu rounds counted, expected %llu\n",
                 static_cast<unsigned long long>(stats.rounds),
                 static_cast<unsigned long long>(expected_rounds));
    return 1;
  }

  std::vector<ModeResult*> modes = {&legacy, &columnar, &instr, &par};
  std::printf("%-18s, %12s, %8s, %10s, %14s\n", "mode", "allocation",
              "threads", "seconds", "rounds/s");
  for (ModeResult* m : modes) {
    m->rounds_per_sec = total_rounds / m->seconds;
    std::printf("%-18s, %12s, %8zu, %10.3f, %14.0f\n", m->mode, m->allocation,
                m->threads, m->seconds, m->rounds_per_sec);
  }
  const double overhead_pct = (median_ratio - 1.0) * 100.0;
  std::printf(
      "\ncolumnar vs legacy: %.2fx; parallel vs columnar: %.2fx on %zu "
      "workers; output mismatches: %zu\n",
      legacy.seconds / columnar.seconds, columnar.seconds / par.seconds,
      workers, mismatches);
  std::printf(
      "telemetry overhead: %.2f%% (median of %zu paired runs; best bare "
      "%.3fs, best instrumented %.3fs); "
      "round p50/p95/p99: %.0f/%.0f/%.0f ns over %llu samples\n",
      overhead_pct, pair_ratio.size(), columnar.seconds, instr.seconds,
      stats.round_latency.p50(),
      stats.round_latency.p95(), stats.round_latency.p99(),
      static_cast<unsigned long long>(stats.round_latency.count));

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"multi_group\",\n"
                 "  \"groups\": %zu,\n"
                 "  \"modules\": %zu,\n"
                 "  \"rounds_per_group\": %zu,\n"
                 "  \"repeat\": %zu,\n"
                 "  \"workers\": %zu,\n"
                 "  \"mismatches\": %zu,\n"
                 "  \"speedup_columnar_vs_legacy\": %.3f,\n"
                 "  \"speedup_parallel_vs_columnar\": %.3f,\n"
                 "  \"instrumented_overhead_pct\": %.3f,\n"
                 "  \"instrumented_round_p50_ns\": %.1f,\n"
                 "  \"instrumented_round_p99_ns\": %.1f,\n"
                 "  \"results\": [\n",
                 groups, modules, rounds, repeat, workers, mismatches,
                 legacy.seconds / columnar.seconds,
                 columnar.seconds / par.seconds, overhead_pct,
                 stats.round_latency.p50(), stats.round_latency.p99());
    for (size_t i = 0; i < modes.size(); ++i) {
      std::fprintf(json,
                   "    {\"mode\": \"%s\", \"allocation\": \"%s\", "
                   "\"threads\": %zu, \"seconds\": %.6f, "
                   "\"rounds_per_sec\": %.1f}%s\n",
                   modes[i]->mode, modes[i]->allocation, modes[i]->threads,
                   modes[i]->seconds, modes[i]->rounds_per_sec,
                   i + 1 < modes.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (mismatches != 0) return 1;
  return 0;
}
