// Workload shapes, seeded input generation and the in-process reference.
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>

#include "bench.h"
#include "core/algorithms.h"
#include "core/batch.h"
#include "runtime/group_router.h"
#include "sim/fault.h"
#include "sim/light.h"
#include "util/rng.h"
#include "util/strings.h"

namespace e2e {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

void Fnv(uint64_t& h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

/// Per-group seed: the run seed mixed with the group index.
uint64_t GroupSeed(uint64_t seed, size_t group) {
  avoc::SplitMix64 mix(seed * 0x9E3779B97F4A7C15ull + group + 1);
  return mix.Next();
}

/// UC-1 light readings for one group: LightScenario plus one biased
/// module for the whole capture and one module with random spikes.
data::RoundTable LightTable(size_t group, size_t modules, size_t rounds,
                            uint64_t seed) {
  avoc::sim::LightScenarioParams params;
  params.seed = seed;
  params.sensor_count = modules;
  params.rounds = rounds;
  params.faulty_module = group % modules;
  params.fault_offset = 1500.0 + 250.0 * static_cast<double>(group % 4);
  data::RoundTable table = avoc::sim::LightScenario(params).MakeFaultyTable();
  avoc::Rng rng(seed ^ 0x5bd1e995ull);
  const size_t spiking = (group + 2) % modules;
  for (size_t r = 0; r < rounds; ++r) {
    if (rng.Bernoulli(0.05)) {
      const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
      (void)avoc::sim::InjectSpike(table, spiking, r,
                                   sign * rng.Uniform(3000.0, 9000.0));
    }
  }
  return table;
}

/// bench_scale-style table: 20 % of modules (at least one) carry a +25 %
/// bias, every module has a small calibration offset and noise.
data::RoundTable WideTable(size_t modules, size_t rounds, uint64_t seed) {
  constexpr double kTruth = 1000.0;
  avoc::Rng rng(seed);
  data::RoundTable table = data::RoundTable::WithModuleCount(modules);
  const size_t faulty = std::max<size_t>(1, modules / 5);
  std::vector<double> biases(modules);
  for (size_t m = 0; m < modules; ++m) {
    biases[m] = rng.Gaussian(0.0, kTruth * 0.01);
    if (m >= modules - faulty) biases[m] += kTruth * 0.25;
  }
  std::vector<double> row(modules);
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t m = 0; m < modules; ++m) {
      row[m] = kTruth + biases[m] + rng.Gaussian(0.0, kTruth * 0.005);
    }
    (void)table.AppendRound(row);
  }
  return table;
}

}  // namespace

bool LookupShape(const std::string& name, bool smoke, Shape* shape) {
  Shape s;
  s.name = name;
  if (name == "iot_fsync") {
    s.groups = 32;
    s.modules = 5;
    s.writer_connections = 4;
    s.frames_per_group = smoke ? 4 : 64;
    s.post_queries = smoke ? 16 : 512;
    s.wal_sync_every_bytes = 0;
  } else if (name == "iot_mixed") {
    s.groups = 24;
    s.modules = 5;
    s.writer_connections = 3;
    s.reader_queries = smoke ? 16 : 8857;
    s.frames_per_group = smoke ? 40 : 1024;
    s.wal_sync_every_bytes = 1u << 20;
    s.compact_wal_bytes = 1u << 20;
    s.chunk_max_points = smoke ? 16 : 512;
    s.query_window = smoke ? 8 : 256;
    s.stage_sample_every = 8;
  } else if (name == "batch_wide") {
    s.groups = 4;
    s.modules = 16;
    s.rounds_per_frame = 32;
    s.writer_connections = 2;
    s.shards = 2;
    s.pipeline_depth = 8;
    s.frames_per_group = smoke ? 8 : 512;
    s.post_queries = smoke ? 16 : 128;
    s.wal_sync_every_bytes = 1u << 20;
    // Every chunk seal fsyncs.  At the store's default 512 points a
    // group seals every 16 frames of this shape, and the run follows the
    // disk instead of the engine; 8192 still seals twice per group per
    // trial, so queries span sealed chunks and the open tail.
    s.chunk_max_points = smoke ? 64 : 8192;
    s.stage_sample_every = 16;
  } else {
    return false;
  }
  if (smoke) s.min_trials = 1;
  *shape = s;
  return true;
}

size_t Inputs::total_frames() const {
  size_t n = 0;
  for (const GroupInput& g : groups) n += g.frames.size();
  return n;
}

Inputs GenerateInputs(const Shape& shape, uint64_t seed) {
  Inputs inputs;
  const size_t rpf = shape.rounds_per_frame;
  const size_t rounds = shape.frames_per_group * rpf;
  uint64_t digest = kFnvOffset;
  Fnv(digest, shape.groups);
  Fnv(digest, shape.modules);
  Fnv(digest, rpf);
  Fnv(digest, rounds);
  const avoc::runtime::GroupRouter router(shape.shards);
  size_t next_name = 0;
  for (size_t g = 0; g < shape.groups; ++g) {
    GroupInput in;
    // The first unused name "g<k>" that the owning shard hashes to.
    for (;; ++next_name) {
      in.name = avoc::StrFormat("g%zu", next_name);
      if (shape.shards == 0 ||
          router.ShardFor(in.name) == g % shape.shards) {
        ++next_name;
        break;
      }
    }
    const uint64_t group_seed = GroupSeed(seed, g);
    in.table = shape.rounds_per_frame == 1
                   ? LightTable(g, shape.modules, rounds, group_seed)
                   : WideTable(shape.modules, rounds, group_seed);
    in.frames.resize(shape.frames_per_group);
    for (size_t f = 0; f < shape.frames_per_group; ++f) {
      auto& frame = in.frames[f];
      frame.reserve(rpf * shape.modules);
      for (size_t r = f * rpf; r < (f + 1) * rpf; ++r) {
        const auto view = in.table.View(r);
        for (size_t m = 0; m < shape.modules; ++m) {
          // Every reading is present: a round closes when its last
          // module arrives, so no operation depends on a timeout.
          frame.push_back(runtime::BatchReading{m, r, view.values[m]});
          Fnv(digest, Bits(view.values[m]));
        }
      }
    }

    // Reference: the same engine the server runs, fed the same frames
    // through core::RunOverTable, one frame-sized table at a time (the
    // hub hands the voter exactly these tables).
    auto engine = avoc::core::MakeEngine(avoc::core::AlgorithmId::kAvoc,
                                         shape.modules);
    avoc::core::BatchTrace trace;
    trace.Reset(shape.modules);
    const auto ledger = [&] {
      const auto records = engine->history().records();
      return std::vector<double>(records.begin(), records.end());
    };
    in.ref_ledger.push_back(ledger());
    in.ref_ledger_rounds.push_back(engine->history().round_count());
    for (size_t f = 0; f < shape.frames_per_group; ++f) {
      auto slice = in.table.Slice(f * rpf, (f + 1) * rpf);
      (void)avoc::core::RunOverTable(*engine, *slice, trace);
      in.ref_ledger.push_back(ledger());
      in.ref_ledger_rounds.push_back(engine->history().round_count());
    }
    in.ref_bits.resize(rounds);
    in.ref_engaged.resize(rounds);
    for (size_t r = 0; r < rounds && r < trace.round_count(); ++r) {
      const auto out = trace.output(r);
      in.ref_engaged[r] = out.has_value() ? 1 : 0;
      in.ref_bits[r] = out.has_value() ? Bits(*out) : 0;
    }
    inputs.groups.push_back(std::move(in));
  }
  inputs.digest = digest;
  return inputs;
}

double Percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size());
  size_t index = static_cast<size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // ceil
  index = std::clamp<size_t>(index, 1, samples.size());
  return samples[index - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

/// One "Vm...:" line of /proc/self/status, in MiB (0 if absent).
double StatusMb(std::string_view field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      std::istringstream fields(line.substr(field.size()));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double ResetPeakRssMb() {
  malloc_trim(0);
  const int fd = open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
  if (fd < 0) return -1.0;
  const bool reset = write(fd, "5", 1) == 1;
  close(fd);
  return reset ? StatusMb("VmRSS:") : -1.0;
}

double PeakRssMb() { return StatusMb("VmHWM:"); }

double ProcessCpuUs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

}  // namespace e2e
