// e2e_bench: the end-to-end voter benchmark.
//
//   e2e_bench --workload iot_fsync|iot_mixed|batch_wide --seed N
//             --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//             [--commit SHA] [--corrupt-reference]
//
// Prints the shape, a stamp, the input digest and notes, then as its
// last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1.  Exits 1 when any output was wrong or any
// operation failed.  --corrupt-reference flips one reference value, so
// a run that still passes would prove the checker blind.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, e2e::RunOptions* options,
               std::string* commit) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--smoke") {
      options->smoke = true;
    } else if (arg == "--corrupt-reference") {
      options->corrupt_reference = true;
    } else if (arg == "--workload") {
      if (!value(&options->workload)) return false;
    } else if (arg == "--work-dir") {
      if (!value(&options->work_dir)) return false;
    } else if (arg == "--commit") {
      if (!value(commit)) return false;
    } else if (arg == "--seed") {
      if (!value(&v)) return false;
      options->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      if (!value(&v)) return false;
      options->seconds = std::strtod(v.c_str(), nullptr);
      if (!(options->seconds >= 0.0 && options->seconds <= 600.0)) return false;
    } else if (arg == "--trace") {
      if (!value(&v) || (v != "0" && v != "1")) return false;
      options->trace = v == "1";
    } else {
      std::fprintf(stderr, "e2e_bench: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return !options->workload.empty();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions options;
  std::string commit = "unknown";
  if (!ParseArgs(argc, argv, &options, &commit)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload iot_fsync|iot_mixed|batch_wide "
                 "--seed N --seconds S --trace 0|1 [--smoke]\n");
    return 2;
  }
  e2e::Shape shape;
  if (!e2e::LookupShape(options.workload, options.smoke, &shape)) {
    std::fprintf(stderr, "e2e_bench: unknown workload %s\n",
                 options.workload.c_str());
    return 2;
  }
  if (options.smoke) options.seconds = 0.0;

  e2e::Inputs inputs = e2e::GenerateInputs(shape, options.seed);
  if (options.corrupt_reference) inputs.groups[0].ref_bits[0] ^= 1;

  const char* sync = shape.wal_sync_every_bytes == 0 ? "fsync-per-commit"
                                                     : "byte-budget";
  std::printf(
      "{\"stamp\": {\"commit\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"nproc\": %u, \"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"sync\": \"%s\", \"wal_sync_every_bytes\": %zu, "
      "\"compact_wal_bytes\": %zu, \"chunk_max_points\": %zu, "
      "\"groups\": %zu, \"modules\": %zu, "
      "\"rounds_per_frame\": %zu, \"frames_per_group_per_trial\": %zu, "
      "\"writer_connections\": %zu, \"reader_queries_per_trial\": %zu, "
      "\"post_queries\": %zu, \"shards\": %zu, \"pipeline_depth\": %zu, "
      "\"input_digest\": \"%016llx\"}}\n",
      JsonString(commit).c_str(), JsonString(E2E_COMPILER).c_str(),
      JsonString(E2E_BUILD_TYPE).c_str(), std::thread::hardware_concurrency(),
      JsonString(shape.name).c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
      sync, shape.wal_sync_every_bytes, shape.compact_wal_bytes,
      shape.chunk_max_points, shape.groups, shape.modules,
      shape.rounds_per_frame, shape.frames_per_group,
      shape.writer_connections, shape.reader_queries, shape.post_queries,
      shape.shards, shape.pipeline_depth,
      static_cast<unsigned long long>(inputs.digest));
  std::fflush(stdout);

  const e2e::RunResult result = e2e::RunWorkload(shape, inputs, options);
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const auto& [name, metric] : result.metrics) {
    std::printf("# %-32s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string metrics;
  for (const auto& [name, metric] : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    char value[64];
    // JSON has no NaN or infinity; an empty sample set reads as 0.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    metrics += JsonString(name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
