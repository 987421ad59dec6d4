// End-to-end voter benchmark: shared declarations.
//
// One run drives one workload over real loopback TCP into the real
// RemoteVoterServer / ShardedVoterServer, with a real StorageEngine as
// both HistoryBackend and TraceBackend.  A run is a sequence of trials;
// each trial opens a fresh store, registers the groups, starts the
// server, connects the clients (timed as set-up), pushes a fixed,
// seed-generated amount of work through closed-loop clients (timed),
// then checks every output against an in-process core::RunOverTable
// reference and reopens the store to check durability.
//
// Untraced trials give the end-to-end metrics.  With --trace 1 the run
// alternates untraced and traced trials; traced trials wrap the storage
// seams in timing decorators, attach a sampled StageObserver to every
// group engine and pass an obs::Tracer to the server, so the per-layer
// numbers come from the spans the runtime already emits plus the
// benchmark's own probes.  Nothing in src/ is instrumented for this.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "data/round_table.h"
#include "runtime/framing.h"

namespace e2e {

namespace data = avoc::data;
namespace runtime = avoc::runtime;

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// IEEE-754 bits of `v`: outputs are compared bit for bit.
inline uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The fixed shape of one workload.
struct Shape {
  std::string name;
  size_t groups = 0;
  size_t modules = 0;
  size_t rounds_per_frame = 1;
  /// Frames each group receives per trial (the trial's fixed work).
  size_t frames_per_group = 0;
  size_t writer_connections = 0;
  /// QUERY_RANGE / HISTORY_GET requests per trial from a concurrent
  /// reader connection during the timed phase (0 = no reader).  The
  /// reader spreads them evenly over the writers' progress, so every
  /// trial does the same reads.
  size_t reader_queries = 0;
  /// QUERY_RANGE / HISTORY_GET requests issued after the timed phase on
  /// an idle server (0 = none).
  size_t post_queries = 0;
  /// 0 = single-reactor RemoteVoterServer; otherwise a
  /// ShardedVoterServer with this many shards.
  size_t shards = 0;
  /// 1 = ResilientVoterClient closed loop (SUBMIT_BATCH_SEQ); more =
  /// pipelined RemoteVoterClient at this depth (SUBMIT_BATCH).
  size_t pipeline_depth = 1;
  /// StorageEngineOptions::wal_sync_every_bytes (0 = fsync per commit).
  size_t wal_sync_every_bytes = 0;
  size_t compact_wal_bytes = 8u << 20;
  size_t chunk_max_points = 512;
  /// QUERY_RANGE window length in rounds.
  size_t query_window = 256;
  /// Stage-observer sampling: time every Nth round.
  size_t stage_sample_every = 1;
  /// Minimum trials per run.
  size_t min_trials = 3;
};

/// The shape of `name` (full or smoke size); false if unknown.
bool LookupShape(const std::string& name, bool smoke, Shape* shape);

/// One group's generated input and its in-process reference.
struct GroupInput {
  std::string name;
  data::RoundTable table;
  /// frames[f] = the readings of rounds [f*rpf, (f+1)*rpf).
  std::vector<std::vector<runtime::BatchReading>> frames;
  /// Reference fused output per round: IEEE-754 bits (0 when the round
  /// produced no output) and whether it produced one.
  std::vector<uint64_t> ref_bits;
  std::vector<uint8_t> ref_engaged;
  /// Reference history ledger after f frames (f = 0..frames): the
  /// records and the ledger's round count.
  std::vector<std::vector<double>> ref_ledger;
  std::vector<size_t> ref_ledger_rounds;
};

struct Inputs {
  std::vector<GroupInput> groups;
  uint64_t digest = 0;  ///< FNV-1a over shape and every reading's bits
  size_t total_frames() const;
};

/// Generates the workload's inputs from `seed` and computes the
/// reference.  IoT shapes: sim::LightScenario per group plus a biased
/// and a spiking module (sim/fault); wide shape: bench_scale-style
/// tables (20 % of modules faulty).  On a sharded shape group g is named
/// so that shard g % shards owns it.
Inputs GenerateInputs(const Shape& shape, uint64_t seed);

/// Value and unit of one reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Nearest-rank percentile (q in [0,1]) of `samples` (sorted in place).
double Percentile(std::vector<double>& samples, double q);
double Median(std::vector<double> samples);

/// Starts a new peak-memory window: hands freed heap back to the
/// kernel, resets the process's VmHWM to its VmRSS (/proc/self/
/// clear_refs "5") and returns that VmRSS in MiB; negative if the
/// reset failed.
double ResetPeakRssMb();
/// Process peak resident set (VmHWM) since the last reset, in MiB.
double PeakRssMb();
/// Process CPU time (user + system) in microseconds.
double ProcessCpuUs();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool corrupt_reference = false;
  std::string work_dir = ".bench_build/e2e-work";
};

/// Outcome of one run, ready to print.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricMap metrics;
  /// Human-readable lines (shape, sample counts, attribution table).
  std::vector<std::string> notes;
};

RunResult RunWorkload(const Shape& shape, const Inputs& inputs,
                      const RunOptions& options);

}  // namespace e2e
