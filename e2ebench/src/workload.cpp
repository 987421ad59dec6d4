// One workload run: trials of set-up, closed-loop load, checks and
// durability reopen, summarized into end-to-end or per-layer metrics.
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "core/algorithms.h"
#include "obs/metrics.h"
#include "probes.h"
#include "runtime/group_manager.h"
#include "runtime/remote.h"
#include "runtime/resilient.h"
#include "runtime/sharded_remote.h"
#include "runtime/tcp.h"
#include "storage/engine.h"
#include "util/rng.h"
#include "util/strings.h"

namespace e2e {
namespace {

using avoc::runtime::RemoteVoterClient;
using avoc::runtime::RemoteVoterServer;
using avoc::runtime::ResilientVoterClient;
using avoc::runtime::ShardedVoterServer;
using avoc::runtime::VoterGroupManager;

/// Counts operations and keeps the first few failure reasons.
class Tally {
 public:
  void Attempt(uint64_t n = 1) { attempted_.fetch_add(n); }
  void Fail(const std::string& why) {
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    if (reasons_.size() < 8) reasons_.push_back(why);
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> reasons() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return reasons_;
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> reasons_;
};

/// A QUERY_RANGE reply for [lo, hi] must hold exactly the rounds
/// lo, lo+1, ... up to what was stored when the server answered, which
/// lies between what had been acknowledged before the request
/// (`acked_before`) and the group's total (`acked_max`), each row
/// bit-identical to the reference.
bool CheckRange(const GroupInput& in, uint64_t lo, uint64_t hi,
                size_t acked_before, size_t acked_max,
                const std::vector<runtime::RangePoint>& points,
                std::string* why) {
  const auto covered = [&](size_t stored) -> size_t {
    if (stored <= lo) return 0;
    return static_cast<size_t>(std::min<uint64_t>(hi, stored - 1) - lo + 1);
  };
  if (points.size() < covered(acked_before) ||
      points.size() > covered(acked_max)) {
    *why = avoc::StrFormat("QUERY_RANGE %s [%llu,%llu]: %zu points, want "
                           "%zu..%zu",
                           in.name.c_str(), (unsigned long long)lo,
                           (unsigned long long)hi, points.size(),
                           covered(acked_before), covered(acked_max));
    return false;
  }
  for (size_t i = 0; i < points.size(); ++i) {
    const runtime::RangePoint& p = points[i];
    const uint64_t round = lo + i;
    const bool engaged = in.ref_engaged[round] != 0;
    if (p.round != round || (p.engaged != 0) != engaged ||
        (engaged && Bits(p.value) != in.ref_bits[round])) {
      double want = 0.0;
      std::memcpy(&want, &in.ref_bits[round], sizeof(want));
      *why = avoc::StrFormat(
          "QUERY_RANGE %s round %llu: got (%llu, %a, %u), want %a%s",
          in.name.c_str(), (unsigned long long)round,
          (unsigned long long)p.round, p.value, unsigned{p.engaged}, want,
          engaged ? "" : " (not engaged)");
      return false;
    }
  }
  return true;
}

/// A HISTORY_GET reply must equal the reference ledger after some whole
/// number of frames between the acknowledged ones and the total.
bool CheckHistory(const GroupInput& in, size_t rpf, size_t acked_before,
                  size_t acked_max, uint64_t rounds,
                  const std::vector<double>& records, std::string* why) {
  for (size_t f = acked_before / rpf; f <= acked_max / rpf; ++f) {
    if (in.ref_ledger_rounds[f] != rounds) continue;
    const auto& want = in.ref_ledger[f];
    if (want.size() == records.size() &&
        std::memcmp(want.data(), records.data(),
                    want.size() * sizeof(double)) == 0) {
      return true;
    }
  }
  *why = avoc::StrFormat("HISTORY_GET %s: ledger at %llu rounds matches no "
                         "reference state in frames %zu..%zu",
                         in.name.c_str(), (unsigned long long)rounds,
                         acked_before / rpf, acked_max / rpf);
  return false;
}

/// Everything one trial measured.
struct Trial {
  bool traced = false;
  double setup_s = 0.0;
  double elapsed_s = 0.0;
  double cpu_us = 0.0;
  double rounds = 0.0;
  double frames = 0.0;
  double reopen_ms = 0.0;
  /// Peak resident memory the trial added above its start, in MiB.
  double rss_mb = 0.0;
  std::vector<double> submit_us;
  std::vector<double> query_us;

  // Public counters.
  double retries = 0.0;
  double timeouts = 0.0;
  double backpressure = 0.0;
  double dedup_replays = 0.0;
  double forwarded = 0.0;
  double migrations = 0.0;
  double sink_rows = 0.0;
  avoc::storage::StorageStats store_before;
  avoc::storage::StorageStats store_after;
  double wal_bytes = 0.0;

  // Traced trials only.
  std::vector<FrameSpans> traced_frames;
  std::vector<std::pair<uint64_t, double>> latency_by_trace;
  TimedBackend::Samples store_samples;   ///< whole trial
  double store_busy_us = 0.0;             ///< timed phase only
  StageTotals stages;                     ///< summed over groups
  double spans_dropped = 0.0;
  double backpressure_events_seen = 0.0;  ///< from the flight recorder
};

/// Which groups writer `w` feeds.  Single reactor: a contiguous block.
/// Sharded: one group its shard owns (sent first, which pins the
/// connection there) and one the other shard owns (forwarded).
std::vector<size_t> WriterGroups(const Shape& shape, size_t w) {
  if (shape.shards == 0) {
    const size_t per = shape.groups / shape.writer_connections;
    std::vector<size_t> groups;
    for (size_t g = w * per; g < (w + 1) * per; ++g) groups.push_back(g);
    return groups;
  }
  return {w, shape.shards + (w + 1) % shape.shards};
}

avoc::storage::StorageEngineOptions StoreOptions(const Shape& shape,
                                                 const std::string& dir) {
  avoc::storage::StorageEngineOptions options;
  options.dir = dir;
  options.wal_sync_every_bytes = shape.wal_sync_every_bytes;
  options.chunk_max_points = shape.chunk_max_points;
  options.compact_wal_bytes = shape.compact_wal_bytes;
  return options;
}

class TrialRunner {
 public:
  TrialRunner(const Shape& shape, const Inputs& inputs,
              const RunOptions& options, Tally& tally)
      : shape_(shape), inputs_(inputs), options_(options), tally_(tally) {}

  Trial Run(bool traced, size_t index);

 private:
  avoc::Status Setup(Trial& trial, bool traced, const std::string& dir);
  void TimedPhase(Trial& trial);
  void WriterResilient(size_t w, std::vector<double>& latencies,
                       std::vector<std::pair<uint64_t, double>>& by_trace);
  void WriterPipelined(size_t w, std::vector<double>& latencies);
  void Reader(std::vector<double>& latencies);
  void Acknowledge(size_t g);
  void PostQueries(Trial& trial);
  void QueryOnce(size_t op, size_t g, avoc::Rng& rng, size_t acked_before,
                 std::vector<double>& latencies);
  void CheckSinks();
  void StopServing();
  void Teardown(Trial& trial, const std::string& dir);
  const avoc::runtime::SinkNode* Sink(const std::string& group) const;

  const Shape& shape_;
  const Inputs& inputs_;
  const RunOptions& options_;
  Tally& tally_;

  // Per-trial state, declared so that destruction runs clients, servers,
  // managers and observers, the store, and last the tracer and registry
  // every other object records into.
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<avoc::storage::StorageEngine> store_;
  std::unique_ptr<TimedBackend> timed_;
  std::vector<std::unique_ptr<SampledStageObserver>> observers_;
  std::unique_ptr<VoterGroupManager> manager_;
  std::unique_ptr<RemoteVoterServer> server_;
  std::unique_ptr<ShardedVoterServer> sharded_;
  std::vector<std::unique_ptr<ResilientVoterClient>> resilient_;
  std::unique_ptr<ResilientVoterClient> reader_;
  std::vector<std::unique_ptr<RemoteVoterClient>> pipelined_;
  std::unique_ptr<std::atomic<size_t>[]> acked_;  ///< rounds per group
  std::atomic<size_t> acked_total_{0};            ///< rounds, all groups
  // The reader sleeps until the writers have acknowledged
  // `reader_waits_for_` rounds in all, or are done.
  std::mutex pace_mutex_;
  std::condition_variable pace_;
  std::atomic<size_t> reader_waits_for_{SIZE_MAX};
  std::atomic<bool> writers_done_{false};
  uint64_t seed_ = 0;
};

avoc::Status TrialRunner::Setup(Trial& trial, bool traced,
                                const std::string& dir) {
  trial.traced = traced;
  if (traced) {
    obs::TracerOptions tracer_options;
    tracer_options.ring_count = 4;
    tracer_options.ring_capacity = 1u << 16;
    tracer_ = std::make_unique<obs::Tracer>(tracer_options);
    registry_ = std::make_unique<obs::Registry>();
  }
  auto store_options = StoreOptions(shape_, dir);
  store_options.registry = registry_.get();
  store_options.tracer = tracer_.get();
  auto store = avoc::storage::StorageEngine::Open(store_options);
  if (!store.ok()) return store.status();
  store_ = std::move(*store);

  avoc::storage::HistoryBackend* history = store_.get();
  avoc::storage::TraceBackend* traces = store_.get();
  if (traced) {
    timed_ = std::make_unique<TimedBackend>(store_.get(), store_.get(),
                                            tracer_.get());
    history = timed_.get();
    traces = timed_.get();
  }
  // Every group runs the paper's history-aware preset, as the reference
  // does; traced trials time it through a per-engine observer.
  const auto add_groups = [&](auto& server) -> avoc::Status {
    for (const GroupInput& in : inputs_.groups) {
      auto engine = avoc::core::MakeEngine(avoc::core::AlgorithmId::kAvoc,
                                           shape_.modules);
      if (!engine.ok()) return engine.status();
      if (traced) {
        observers_.push_back(std::make_unique<SampledStageObserver>(
            shape_.stage_sample_every));
        engine->set_observer(observers_.back().get());
      }
      AVOC_RETURN_IF_ERROR(server.AddGroup(in.name, std::move(*engine)));
    }
    return avoc::Status::Ok();
  };

  uint16_t port = 0;
  if (shape_.shards == 0) {
    // No registry for the groups: with one, every group runner installs
    // its own MetricsObserver on the engine in place of the bench's.
    manager_ = std::make_unique<VoterGroupManager>(history, nullptr, traces,
                                                   tracer_.get());
    AVOC_RETURN_IF_ERROR(add_groups(*manager_));
    avoc::runtime::RemoteServerOptions server_options;
    server_options.tracer = tracer_.get();
    auto server =
        RemoteVoterServer::StartWithOptions(manager_.get(), server_options);
    if (!server.ok()) return server.status();
    server_ = std::move(*server);
    port = server_->port();
  } else {
    avoc::runtime::ShardedServerOptions server_options;
    server_options.shards = shape_.shards;
    server_options.base.tracer = tracer_.get();
    auto server =
        ShardedVoterServer::Start(server_options, history, nullptr, traces);
    if (!server.ok()) return server.status();
    sharded_ = std::move(*server);
    AVOC_RETURN_IF_ERROR(add_groups(*sharded_));
    AVOC_RETURN_IF_ERROR(sharded_->Serve());
    port = sharded_->port();
  }

  if (shape_.pipeline_depth <= 1) {
    avoc::runtime::RetryPolicy policy;
    // fsync stalls on a shared disk can exceed the default second; a
    // spurious retry would only be answered from the dedup cache, but
    // it would count as wasted work.
    policy.request_timeout_ms = 10000;
    auto factory = [port]()
        -> avoc::Result<std::unique_ptr<avoc::runtime::Transport>> {
      auto connection =
          avoc::runtime::TcpConnection::Connect("127.0.0.1", port);
      if (!connection.ok()) return connection.status();
      return std::unique_ptr<avoc::runtime::Transport>(
          new avoc::runtime::TcpConnection(std::move(*connection)));
    };
    // Ping dials the connection, so set-up includes the connects.
    const auto connect = [&](const std::string& id, uint64_t seed)
        -> avoc::Result<std::unique_ptr<ResilientVoterClient>> {
      auto client = std::make_unique<ResilientVoterClient>(
          factory, avoc::runtime::SystemClock::Instance(), id, policy, seed,
          nullptr, tracer_.get());
      AVOC_RETURN_IF_ERROR(client->Ping());
      return client;
    };
    for (size_t w = 0; w < shape_.writer_connections; ++w) {
      AVOC_ASSIGN_OR_RETURN(auto client,
                            connect(avoc::StrFormat("w%zu", w), seed_ + w));
      resilient_.push_back(std::move(client));
    }
    if (shape_.reader_queries != 0) {
      AVOC_ASSIGN_OR_RETURN(reader_, connect("r0", seed_ + 99));
    }
  } else {
    for (size_t w = 0; w < shape_.writer_connections; ++w) {
      auto client = RemoteVoterClient::ConnectBinary("127.0.0.1", port);
      if (!client.ok()) return client.status();
      AVOC_RETURN_IF_ERROR(client->SetRequestTimeoutMs(30000));
      AVOC_RETURN_IF_ERROR(client->Ping());
      pipelined_.push_back(
          std::make_unique<RemoteVoterClient>(std::move(*client)));
    }
  }
  return avoc::Status::Ok();
}

void TrialRunner::WriterResilient(
    size_t w, std::vector<double>& latencies,
    std::vector<std::pair<uint64_t, double>>& by_trace) {
  ResilientVoterClient& client = *resilient_[w];
  const std::vector<size_t> groups = WriterGroups(shape_, w);
  for (size_t f = 0; f < shape_.frames_per_group; ++f) {
    for (const size_t g : groups) {
      const GroupInput& in = inputs_.groups[g];
      const auto& frame = in.frames[f];
      const uint64_t seq = client.next_seq();
      tally_.Attempt();
      const auto start = Clock::now();
      auto accepted = client.SubmitBatch(in.name, frame);
      const double us = Micros(start, Clock::now());
      if (!accepted.ok() || *accepted != frame.size()) {
        tally_.Fail(avoc::StrFormat(
            "SUBMIT_BATCH_SEQ %s frame %zu: %s", in.name.c_str(), f,
            accepted.ok() ? "short accept"
                          : accepted.status().ToString().c_str()));
        continue;
      }
      Acknowledge(g);
      latencies.push_back(us);
      if (tracer_ != nullptr) {
        by_trace.emplace_back(
            obs::Tracer::DeriveTraceId(client.client_id(), seq), us);
      }
    }
  }
}

void TrialRunner::WriterPipelined(size_t w, std::vector<double>& latencies) {
  RemoteVoterClient& client = *pipelined_[w];
  const std::vector<size_t> groups = WriterGroups(shape_, w);
  struct InFlight {
    size_t group;
    size_t frame;
    Clock::time_point sent;
  };
  std::deque<InFlight> inflight;
  bool broken = false;
  auto await_one = [&] {
    const InFlight head = inflight.front();
    inflight.pop_front();
    auto accepted = client.AwaitSubmitBatch();
    const double us = Micros(head.sent, Clock::now());
    const GroupInput& in = inputs_.groups[head.group];
    if (!accepted.ok() || *accepted != in.frames[head.frame].size()) {
      tally_.Fail(avoc::StrFormat(
          "SUBMIT_BATCH %s frame %zu: %s", in.name.c_str(), head.frame,
          accepted.ok() ? "short accept"
                        : accepted.status().ToString().c_str()));
      broken = broken || !accepted.ok();
      return;
    }
    Acknowledge(head.group);
    latencies.push_back(us);
  };
  const size_t ops = shape_.frames_per_group * groups.size();
  for (size_t i = 0; i < ops && !broken; ++i) {
    const size_t g = groups[i % groups.size()];
    const size_t f = i / groups.size();
    while (inflight.size() >= shape_.pipeline_depth && !broken) await_one();
    if (broken) break;
    tally_.Attempt();
    const GroupInput& in = inputs_.groups[g];
    const auto sent = Clock::now();
    const avoc::Status queued =
        client.PipelineSubmitBatch(in.name, in.frames[f]);
    if (!queued.ok()) {
      tally_.Fail("SUBMIT_BATCH send: " + queued.ToString());
      broken = true;
      break;
    }
    inflight.push_back({g, f, sent});
  }
  while (!inflight.empty() && !broken) await_one();
  for (const InFlight& lost : inflight) {
    tally_.Fail(avoc::StrFormat("SUBMIT_BATCH %s frame %zu: no reply",
                                inputs_.groups[lost.group].name.c_str(),
                                lost.frame));
  }
}

void TrialRunner::QueryOnce(size_t op, size_t g, avoc::Rng& rng,
                            size_t acked_before,
                            std::vector<double>& latencies) {
  const GroupInput& in = inputs_.groups[g];
  const size_t total = in.ref_bits.size();
  // Reads go over the reader connection, else the first writer's, else
  // (sharded) the connection pinned to the group's own shard.
  const auto query = [&](auto&& call) {
    if (reader_ != nullptr) return call(*reader_);
    if (!resilient_.empty()) return call(*resilient_[0]);
    return call(*pipelined_[g % pipelined_.size()]);
  };
  std::string why;
  bool ok = false;
  tally_.Attempt();
  if (op % 2 == 0) {
    // A window anywhere in what is acknowledged: sealed chunks, the
    // open tail, or both.  Only these are timed, so the latency figure
    // describes one kind of request.
    const uint64_t lo = rng.UniformInt(std::max<size_t>(acked_before, 1));
    const uint64_t hi = lo + shape_.query_window - 1;
    const auto start = Clock::now();
    auto points = query([&](auto& client) {
      return client.QueryRange(in.name, lo, hi);
    });
    const double us = Micros(start, Clock::now());
    if (!points.ok()) {
      why = "QUERY_RANGE " + in.name + ": " + points.status().ToString();
    } else {
      ok = CheckRange(in, lo, hi, acked_before, total, *points, &why);
      latencies.push_back(us);
    }
  } else {
    auto history =
        query([&](auto& client) { return client.HistoryGet(in.name); });
    if (!history.ok()) {
      why = "HISTORY_GET " + in.name + ": " + history.status().ToString();
    } else {
      ok = CheckHistory(in, shape_.rounds_per_frame, acked_before, total,
                        history->rounds, history->records, &why);
    }
  }
  if (!ok) tally_.Fail(why);
}

void TrialRunner::Acknowledge(size_t g) {
  const size_t rounds = shape_.rounds_per_frame;
  acked_[g].fetch_add(rounds);
  if (acked_total_.fetch_add(rounds) + rounds >= reader_waits_for_.load()) {
    std::lock_guard<std::mutex> lock(pace_mutex_);
    pace_.notify_one();
  }
}

void TrialRunner::Reader(std::vector<double>& latencies) {
  avoc::Rng rng(seed_ ^ 0x7265616465ull);
  const size_t total =
      inputs_.groups.size() * shape_.frames_per_group * shape_.rounds_per_frame;
  for (size_t op = 0; op < shape_.reader_queries; ++op) {
    // Request `op` is due once the writers are op/Q of the way through,
    // so every trial reads the same amount, spread over the whole phase;
    // a reader that falls behind sends back to back.
    const size_t due = op * total / shape_.reader_queries;
    {
      std::unique_lock<std::mutex> lock(pace_mutex_);
      reader_waits_for_.store(due);
      pace_.wait(lock, [&] {
        return acked_total_.load() >= due || writers_done_.load();
      });
      reader_waits_for_.store(SIZE_MAX);
    }
    const size_t g = rng.UniformInt(inputs_.groups.size());
    QueryOnce(op, g, rng, acked_[g].load(), latencies);
  }
}

void TrialRunner::PostQueries(Trial& trial) {
  avoc::Rng rng(seed_ ^ 0x706f7374ull);
  for (size_t op = 0; op < shape_.post_queries; ++op) {
    const size_t g = rng.UniformInt(inputs_.groups.size());
    QueryOnce(op, g, rng, acked_[g].load(), trial.query_us);
  }
}

void TrialRunner::TimedPhase(Trial& trial) {
  const size_t writers = shape_.writer_connections;
  std::vector<std::vector<double>> latencies(writers);
  std::vector<std::vector<std::pair<uint64_t, double>>> by_trace(writers);
  // One finish time per writer, then the reader's.
  std::vector<Clock::time_point> finished(writers + 1);
  std::vector<double> reader_latencies;
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  auto wait_go = [&] {
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
  };
  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      wait_go();
      if (shape_.pipeline_depth <= 1) {
        WriterResilient(w, latencies[w], by_trace[w]);
      } else {
        WriterPipelined(w, latencies[w]);
      }
      finished[w] = Clock::now();
    });
  }
  std::thread reader;
  if (reader_ != nullptr) {
    reader = std::thread([&] {
      wait_go();
      Reader(reader_latencies);
      finished[writers] = Clock::now();
    });
  }
  const size_t expected = writers + (reader_ != nullptr ? 1 : 0);
  while (ready.load() < expected) std::this_thread::yield();
  const double cpu_start = ProcessCpuUs();
  const auto start = Clock::now();
  go.store(true);
  for (std::thread& t : threads) t.join();
  {
    std::lock_guard<std::mutex> lock(pace_mutex_);
    writers_done_.store(true);
  }
  pace_.notify_one();
  if (reader.joinable()) {
    reader.join();
  } else {
    finished[writers] = start;
  }
  const double cpu_end = ProcessCpuUs();
  // The trial's work is every writer's frames and the reader's requests.
  trial.elapsed_s =
      Seconds(start, *std::max_element(finished.begin(), finished.end()));
  trial.cpu_us = cpu_end - cpu_start;
  for (size_t w = 0; w < writers; ++w) {
    trial.submit_us.insert(trial.submit_us.end(), latencies[w].begin(),
                           latencies[w].end());
    trial.latency_by_trace.insert(trial.latency_by_trace.end(),
                                  by_trace[w].begin(), by_trace[w].end());
  }
  trial.query_us = std::move(reader_latencies);
  trial.frames = static_cast<double>(trial.submit_us.size());
  for (size_t g = 0; g < inputs_.groups.size(); ++g) {
    trial.rounds += static_cast<double>(acked_[g].load());
  }
}

const avoc::runtime::SinkNode* TrialRunner::Sink(
    const std::string& group) const {
  auto sink = sharded_ != nullptr ? sharded_->sink(group)
                                  : manager_->sink(group);
  return sink.ok() ? *sink : nullptr;
}

void TrialRunner::CheckSinks() {
  for (size_t g = 0; g < inputs_.groups.size(); ++g) {
    const GroupInput& in = inputs_.groups[g];
    const size_t acked = acked_[g].load();
    tally_.Attempt();
    const avoc::runtime::SinkNode* sink = Sink(in.name);
    std::string why;
    if (sink == nullptr) {
      why = "no sink for " + in.name;
    } else {
      sink->WithTrace([&](const avoc::core::BatchTrace& trace,
                          const std::vector<size_t>& rounds) {
        if (rounds.size() != acked) {
          why = avoc::StrFormat("sink %s holds %zu rows, %zu acknowledged",
                                in.name.c_str(), rounds.size(), acked);
          return;
        }
        for (size_t i = 0; i < rounds.size(); ++i) {
          const auto out = trace.output(i);
          const bool engaged = in.ref_engaged[i] != 0;
          if (rounds[i] != i || out.has_value() != engaged ||
              (engaged && Bits(*out) != in.ref_bits[i])) {
            double want = 0.0;
            std::memcpy(&want, &in.ref_bits[i], sizeof(want));
            why = avoc::StrFormat("sink %s row %zu: round %zu value %a, "
                                  "reference %a%s",
                                  in.name.c_str(), i, rounds[i],
                                  out.value_or(0.0), want,
                                  engaged ? "" : " (none)");
            return;
          }
        }
      });
    }
    if (!why.empty()) tally_.Fail(why);
  }
}

void TrialRunner::StopServing() {
  // Connections first, then the servers (joining their loops), so no
  // thread touches the store once it goes away.
  resilient_.clear();
  reader_.reset();
  pipelined_.clear();
  if (server_ != nullptr) server_->Stop();
  if (sharded_ != nullptr) sharded_->Stop();
  server_.reset();
  sharded_.reset();
  manager_.reset();
  observers_.clear();
}

/// Every acknowledged round of one group must be in the reopened store:
/// the history ledger at that many frames and each trace row, bit-exact.
std::string CheckDurable(const avoc::storage::StorageEngine& store,
                         const GroupInput& in, size_t acked, size_t rpf) {
  const size_t frames = acked / rpf;
  auto history = store.Get(in.name);
  if (!history.ok()) {
    return "reopened history " + in.name + ": " + history.status().ToString();
  }
  if (history->rounds != in.ref_ledger_rounds[frames] ||
      history->records != in.ref_ledger[frames]) {
    return avoc::StrFormat("reopened history %s: %zu rounds, want %zu",
                           in.name.c_str(), history->rounds,
                           in.ref_ledger_rounds[frames]);
  }
  auto points = store.QueryTraceRange(in.name, 0, UINT64_MAX);
  if (!points.ok()) {
    return "reopened trace " + in.name + ": " + points.status().ToString();
  }
  std::vector<runtime::RangePoint> range;
  range.reserve(points->size());
  for (const auto& p : *points) {
    range.push_back({p.round, p.value, static_cast<uint8_t>(p.engaged)});
  }
  std::string why;
  if (!CheckRange(in, 0, acked == 0 ? 0 : acked - 1, acked, acked, range,
                  &why)) {
    return "reopened trace: " + why;
  }
  return {};
}

void TrialRunner::Teardown(Trial& trial, const std::string& dir) {
  StopServing();
  // Power loss: only the fsynced WAL prefix survives.  Under fsync per
  // commit every acknowledged frame was synced before its reply; under a
  // byte budget the commit barrier a deployment issues before trusting
  // its acknowledgements (Sync) makes the same hold.  Either way all of
  // it must come back.
  if (shape_.wal_sync_every_bytes != 0) {
    const avoc::Status synced = store_->Sync();
    if (!synced.ok()) tally_.Fail("sync: " + synced.ToString());
  }
  const auto crash = store_->SimulateCrash();
  store_.reset();
  timed_.reset();
  std::error_code error;
  std::filesystem::resize_file(crash.wal_path, crash.wal_synced_bytes, error);
  if (error) tally_.Fail("truncate WAL: " + error.message());

  const auto start = Clock::now();
  auto reopened = avoc::storage::StorageEngine::Open(StoreOptions(shape_, dir));
  trial.reopen_ms = Seconds(start, Clock::now()) * 1e3;
  tally_.Attempt();
  if (!reopened.ok()) {
    tally_.Fail("reopen: " + reopened.status().ToString());
  } else {
    for (size_t g = 0; g < inputs_.groups.size(); ++g) {
      tally_.Attempt();
      const std::string why = CheckDurable(**reopened, inputs_.groups[g],
                                           acked_[g].load(),
                                           shape_.rounds_per_frame);
      if (!why.empty()) tally_.Fail(why);
    }
    reopened->reset();
  }
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

Trial TrialRunner::Run(bool traced, size_t index) {
  Trial trial;
  seed_ = options_.seed * 1000003ull + index;
  acked_ = std::make_unique<std::atomic<size_t>[]>(inputs_.groups.size());
  acked_total_.store(0);
  reader_waits_for_.store(SIZE_MAX);
  writers_done_.store(false);
  const std::string dir = avoc::StrFormat(
      "%s/trial-%ld-%zu", options_.work_dir.c_str(),
      static_cast<long>(getpid()), index);
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  std::filesystem::create_directories(options_.work_dir, ignored);

  // The trial's memory is what it adds to the process's resident set,
  // so the inputs and earlier trials' results do not count.
  tally_.Attempt();
  const double rss_start = ResetPeakRssMb();
  if (rss_start < 0.0) {
    tally_.Fail("reset peak RSS via /proc/self/clear_refs");
  }

  const auto setup_start = Clock::now();
  const avoc::Status setup = Setup(trial, traced, dir);
  trial.setup_s = Seconds(setup_start, Clock::now());
  tally_.Attempt();
  if (!setup.ok()) {
    tally_.Fail("setup: " + setup.ToString());
    StopServing();
    store_.reset();
    timed_.reset();
    tracer_.reset();
    registry_.reset();
    std::filesystem::remove_all(dir, ignored);
    return trial;
  }
  trial.store_before = store_->stats();
  const double wal_bytes_before =
      registry_ != nullptr
          ? static_cast<double>(
                registry_->GetCounter("avoc_storage_wal_bytes_total").Value())
          : 0.0;

  TimedPhase(trial);

  trial.store_after = store_->stats();
  if (registry_ != nullptr) {
    trial.wal_bytes =
        static_cast<double>(
            registry_->GetCounter("avoc_storage_wal_bytes_total").Value()) -
        wal_bytes_before;
  }
  if (timed_ != nullptr) {
    const TimedBackend::Samples during = timed_->TakeSamples();
    for (const auto* v :
         {&during.put_us, &during.append_us, &during.query_us}) {
      for (double us : *v) trial.store_busy_us += us;
    }
  }

  // Shard routing counters cover the timed phase only; the queries
  // after it address random groups.
  if (sharded_ != nullptr) {
    trial.forwarded = static_cast<double>(sharded_->forwarded_requests());
    trial.migrations = static_cast<double>(sharded_->migrations());
  }

  PostQueries(trial);
  CheckSinks();

  // Counters, read while the objects that own them are alive.
  for (const auto& client : resilient_) {
    trial.retries += static_cast<double>(client->retry_attempts());
    trial.timeouts += static_cast<double>(client->request_timeouts());
  }
  if (reader_ != nullptr) {
    trial.retries += static_cast<double>(reader_->retry_attempts());
    trial.timeouts += static_cast<double>(reader_->request_timeouts());
  }
  if (server_ != nullptr) {
    trial.backpressure = static_cast<double>(server_->backpressure_events());
    trial.dedup_replays = static_cast<double>(server_->dedup_replays());
  } else {
    trial.dedup_replays = static_cast<double>(sharded_->dedup_replays());
  }
  for (const GroupInput& in : inputs_.groups) {
    if (const auto* sink = Sink(in.name)) {
      trial.sink_rows += static_cast<double>(sink->output_count());
    }
  }
  if (traced) {
    trial.store_samples = timed_->TakeSamples();
    for (const auto& o : observers_) trial.stages.Add(o->totals());
  }

  trial.rss_mb = PeakRssMb() - rss_start;
  Teardown(trial, dir);

  if (traced) {
    const std::vector<obs::SpanRecord> records = tracer_->Snapshot();
    trial.traced_frames = AnalyzeSpans(records);
    trial.spans_dropped = static_cast<double>(tracer_->dropped());
    for (const obs::SpanRecord& r : records) {
      if (std::strncmp(r.name, "server.backpressure", sizeof(r.name)) == 0) {
        trial.backpressure_events_seen += 1.0;
      }
    }
  }
  tracer_.reset();
  registry_.reset();
  return trial;
}

/// Client-side framing cost on the workload's own frames: encode every
/// frame as the client would, then reassemble and decode it as the
/// server would.  Repeats whole passes for at least `min_seconds`.
void MeasureFraming(const Shape& shape, const Inputs& inputs,
                    double min_seconds, MetricMap& m) {
  const bool seq = shape.pipeline_depth <= 1;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double bytes = 0.0;
  double readings = 0.0;
  size_t frames = 0;
  std::string group;
  std::string client_id;
  std::vector<runtime::BatchReading> decoded;
  std::vector<std::string> wire;
  const auto begin = Clock::now();
  do {
    wire.clear();
    uint64_t next_seq = 1;
    const auto t0 = Clock::now();
    for (const GroupInput& in : inputs.groups) {
      for (const auto& frame : in.frames) {
        wire.push_back(
            seq ? runtime::EncodeFrame(
                      runtime::FrameType::kSubmitBatchSeq,
                      runtime::EncodeSubmitBatchSeq("w0", next_seq++, in.name,
                                                    frame))
                : runtime::EncodeFrame(
                      runtime::FrameType::kSubmitBatch,
                      runtime::EncodeSubmitBatch(in.name, frame)));
      }
    }
    const auto t1 = Clock::now();
    runtime::FrameDecoder decoder;
    size_t ok = 0;
    for (const std::string& bytes_on_wire : wire) {
      decoder.Feed(bytes_on_wire);
      auto frame = decoder.Next();
      if (!frame.ok()) continue;
      uint64_t s = 0;
      const avoc::Status status =
          seq ? runtime::DecodeSubmitBatchSeq(frame->payload, &client_id, &s,
                                              &group, &decoded)
              : runtime::DecodeSubmitBatch(frame->payload, &group, &decoded);
      ok += status.ok() ? 1 : 0;
    }
    const auto t2 = Clock::now();
    encode_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    decode_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
    frames += ok;
    for (const std::string& w : wire) bytes += static_cast<double>(w.size());
    readings += static_cast<double>(inputs.total_frames() *
                                    shape.rounds_per_frame * shape.modules);
  } while (Seconds(begin, Clock::now()) < min_seconds);
  const double n = std::max<double>(static_cast<double>(frames), 1.0);
  m["client.encode_ns_per_frame"] = {encode_ns / n, "ns"};
  m["framing.decode_ns_per_frame"] = {decode_ns / n, "ns"};
  m["framing.bytes_per_reading"] = {bytes / std::max(readings, 1.0), "B"};
}

/// The single-threaded baseline: the same frames pushed straight through
/// VoterGroupManager::SubmitBatch, in the writers' order, with the same
/// store policy and no network.
double InprocUsPerFrame(const Shape& shape, const Inputs& inputs,
                        const RunOptions& options, Tally& tally) {
  const std::string dir = avoc::StrFormat(
      "%s/inproc-%ld", options.work_dir.c_str(), static_cast<long>(getpid()));
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  std::filesystem::create_directories(options.work_dir, ignored);
  double us = 0.0;
  {
    auto store = avoc::storage::StorageEngine::Open(StoreOptions(shape, dir));
    tally.Attempt();
    if (!store.ok()) {
      tally.Fail("inproc store: " + store.status().ToString());
      return 0.0;
    }
    VoterGroupManager manager(store->get(), nullptr, store->get());
    for (const GroupInput& in : inputs.groups) {
      auto engine = avoc::core::MakeEngine(avoc::core::AlgorithmId::kAvoc,
                                           shape.modules);
      (void)manager.AddGroup(in.name, std::move(*engine));
    }
    // Converted up front: the server does this per frame too, but the
    // baseline times the group layer, not the conversion.
    std::vector<std::pair<const GroupInput*,
                          std::vector<avoc::runtime::ReadingMessage>>>
        order;
    for (size_t f = 0; f < shape.frames_per_group; ++f) {
      for (size_t w = 0; w < shape.writer_connections; ++w) {
        for (const size_t g : WriterGroups(shape, w)) {
          const GroupInput& in = inputs.groups[g];
          std::vector<avoc::runtime::ReadingMessage> messages;
          for (const auto& r : in.frames[f]) {
            messages.push_back({static_cast<size_t>(r.module),
                                static_cast<size_t>(r.round), r.value});
          }
          order.emplace_back(&in, std::move(messages));
        }
      }
    }
    const auto start = Clock::now();
    for (const auto& [in, messages] : order) {
      tally.Attempt();
      auto stats = manager.SubmitBatch(in->name, messages);
      if (!stats.ok() || stats->accepted != messages.size()) {
        tally.Fail("inproc SubmitBatch " + in->name);
      }
    }
    us = Micros(start, Clock::now()) /
         std::max<double>(static_cast<double>(order.size()), 1.0);
  }
  std::filesystem::remove_all(dir, ignored);
  return us;
}

std::vector<double> Collect(const std::vector<Trial>& trials, bool traced,
                            double Trial::*field) {
  std::vector<double> out;
  for (const Trial& t : trials) {
    if (t.traced == traced) out.push_back(t.*field);
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

void PerLayer(const Shape& shape, const std::vector<Trial>& trials,
              RunResult& result) {
  MetricMap& m = result.metrics;
  auto rate = [](const Trial& t) {
    return t.elapsed_s > 0 ? t.rounds / t.elapsed_s : 0.0;
  };
  std::vector<double> untraced_rps;
  std::vector<double> traced_rps;
  std::vector<double> verb_self, batch_self, store_frame, core_frame, wire,
      verb, submit, attributed, put, append, query, get, reopen;
  double frames = 0, rounds = 0, fsyncs = 0, wal_records = 0, wal_bytes = 0,
         busy_us = 0, elapsed_us = 0, forwarded = 0, dropped = 0;
  std::vector<double> compactions, sealed, ratio, sink_rows, migrations;
  double retries = 0, timeouts = 0, backpressure = 0, dedup = 0;
  StageTotals stages;
  for (const Trial& t : trials) {
    reopen.push_back(t.reopen_ms);
    retries += t.retries;
    timeouts += t.timeouts;
    dedup += t.dedup_replays;
    // ShardedVoterServer keeps its count only in a registry, and a
    // registry would displace the bench's stage observers (see Setup), so
    // sharded runs count the flight recorder's backpressure events.
    backpressure += shape.shards == 0 ? t.backpressure
                                      : t.backpressure_events_seen;
    if (!t.traced) {
      untraced_rps.push_back(rate(t));
      continue;
    }
    traced_rps.push_back(rate(t));
    stages.Add(t.stages);
  }
  const double sampled =
      std::max<double>(static_cast<double>(stages.sampled), 1.0);
  const double core_round_us = stages.round_ns / sampled / 1000.0;
  // Per frame: client latency = wire + verb self + batch self + core +
  // storage, with the frames joined to their client latency by trace id.
  const bool joined = shape.pipeline_depth <= 1;
  for (const Trial& t : trials) {
    if (!t.traced) continue;
    std::unordered_map<uint64_t, double> latency_by_trace(
        t.latency_by_trace.begin(), t.latency_by_trace.end());
    for (const FrameSpans& f : t.traced_frames) {
      auto latency = latency_by_trace.find(f.trace_id);
      if (joined && latency == latency_by_trace.end()) continue;
      const double core_us = core_round_us * f.rounds;
      verb.push_back(f.verb_us);
      verb_self.push_back(f.verb_us - f.batch_us);
      store_frame.push_back(f.store_us);
      core_frame.push_back(core_us);
      batch_self.push_back(f.batch_us - f.store_us - core_us);
      if (joined) {
        wire.push_back(latency->second - f.verb_us);
        attributed.push_back(latency->second);
      }
    }
    submit.insert(submit.end(), t.submit_us.begin(), t.submit_us.end());
    put.insert(put.end(), t.store_samples.put_us.begin(),
               t.store_samples.put_us.end());
    append.insert(append.end(), t.store_samples.append_us.begin(),
                  t.store_samples.append_us.end());
    query.insert(query.end(), t.store_samples.query_us.begin(),
                 t.store_samples.query_us.end());
    get.insert(get.end(), t.store_samples.get_us.begin(),
               t.store_samples.get_us.end());
    frames += t.frames;
    rounds += t.rounds;
    fsyncs += static_cast<double>(t.store_after.fsyncs - t.store_before.fsyncs);
    wal_records += static_cast<double>(t.store_after.wal_records -
                                       t.store_before.wal_records);
    wal_bytes += t.wal_bytes;
    busy_us += t.store_busy_us;
    elapsed_us += t.elapsed_s * 1e6;
    forwarded += t.forwarded;
    dropped += t.spans_dropped;
    compactions.push_back(static_cast<double>(t.store_after.compactions -
                                              t.store_before.compactions));
    sealed.push_back(static_cast<double>(t.store_after.sealed_chunks));
    ratio.push_back(t.store_after.compression_ratio());
    sink_rows.push_back(t.sink_rows);
    migrations.push_back(t.migrations);
  }
  if (!joined && !submit.empty() && !verb.empty()) {
    // Pipelined frames carry no trace context: the wire share is the
    // difference of the medians (it includes queueing behind the
    // pipeline's other frames).
    wire.push_back(Median(submit) - Median(verb));
    attributed = submit;
  }
  const double nframes = std::max(frames, 1.0);
  m["remote.verb_self_us_p50"] = {Percentile(verb_self, 0.5), "us"};
  m["remote.verb_self_us_p99"] = {Percentile(verb_self, 0.99), "us"};
  m["remote.wire_us_p50"] = {Percentile(wire, 0.5), "us"};
  m["shard.forwarded_frac"] = {forwarded / nframes, "frac"};
  m["shard.migrations"] = {Median(migrations), "count"};
  m["group.batch_self_us_p50"] = {Percentile(batch_self, 0.5), "us"};
  m["group.batch_self_us_p99"] = {Percentile(batch_self, 0.99), "us"};
  m["group.rounds_per_frame"] = {rounds / nframes, "count"};
  m["group.sink_rows_resident"] = {Median(sink_rows), "count"};
  m["core.round_ns"] = {stages.round_ns / sampled, "ns"};
  m["core.agreement_ns"] = {stages.agreement_ns / sampled, "ns"};
  m["core.exclusion_ns"] = {stages.exclusion_ns / sampled, "ns"};
  m["core.collation_ns"] = {stages.collation_ns / sampled, "ns"};
  m["core.other_ns"] = {stages.other_ns / sampled, "ns"};
  m["storage.put_us_p50"] = {Percentile(put, 0.5), "us"};
  m["storage.put_us_p99"] = {Percentile(put, 0.99), "us"};
  m["storage.append_trace_us_p50"] = {Percentile(append, 0.5), "us"};
  m["storage.append_trace_us_p99"] = {Percentile(append, 0.99), "us"};
  m["storage.fsyncs_per_frame"] = {fsyncs / nframes, "count"};
  m["storage.busy_frac"] = {busy_us / std::max(elapsed_us, 1.0), "frac"};
  m["storage.wal_records_per_frame"] = {wal_records / nframes, "count"};
  m["storage.wal_bytes_per_round"] = {wal_bytes / std::max(rounds, 1.0), "B"};
  m["storage.compactions"] = {Median(compactions), "count"};
  m["storage.query_range_us_p50"] = {Percentile(query, 0.5), "us"};
  m["storage.query_range_us_p99"] = {Percentile(query, 0.99), "us"};
  m["storage.get_us_p50"] = {Percentile(get, 0.5), "us"};
  m["storage.sealed_chunks"] = {Median(sealed), "count"};
  m["storage.compression_ratio"] = {Median(ratio), "ratio"};
  m["storage.reopen_ms"] = {Median(reopen), "ms"};
  m["client.retries"] = {retries, "count"};
  m["client.timeouts"] = {timeouts, "count"};
  m["remote.backpressure_events"] = {backpressure, "count"};
  m["remote.dedup_replays"] = {dedup, "count"};
  m["obs.trace_overhead_frac"] = {
      1.0 - Median(traced_rps) / std::max(Median(untraced_rps), 1e-9),
      "frac"};
  m["obs.spans_dropped"] = {dropped, "count"};

  // Where the client's median submit went, layer by layer.  Medians do
  // not add, so the remainder is stated rather than hidden.  With joined
  // frames the means column adds up exactly, frame by frame.
  const double submit_p50 = Percentile(attributed, 0.5);
  const double parts_p50 = Percentile(wire, 0.5) + Percentile(verb_self, 0.5) +
                           Percentile(batch_self, 0.5) +
                           Percentile(core_frame, 0.5) +
                           Percentile(store_frame, 0.5);
  m["attribution.unattributed_us"] = {submit_p50 - parts_p50, "us"};
  auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
  };
  result.notes.push_back(avoc::StrFormat(
      "attribution of submit latency over %zu traced frames, us (%s):",
      verb.size(),
      joined
          ? "wire = client latency minus the verb span, joined by trace id"
          : "wire = client p50 minus verb p50, including pipeline queueing"));
  result.notes.push_back(
      "  layer                     p50        mean");
  const auto row = [&](const char* name, std::vector<double> v) {
    const double mean_v = mean(v);
    result.notes.push_back(avoc::StrFormat("  %-20s %10.2f %10.2f", name,
                                           Percentile(v, 0.5), mean_v));
  };
  row("remote.wire", wire);
  row("remote.verb_self", verb_self);
  row("group.batch_self", batch_self);
  row("core (estimate)", core_frame);
  row("storage (decorator)", store_frame);
  result.notes.push_back(avoc::StrFormat(
      "  %-20s %10.2f %10.2f", "sum of layers", parts_p50,
      mean(wire) + mean(verb_self) + mean(batch_self) + mean(core_frame) +
          mean(store_frame)));
  result.notes.push_back(avoc::StrFormat("  %-20s %10.2f %10.2f",
                                         "client submit", submit_p50,
                                         mean(attributed)));
  result.notes.push_back(avoc::StrFormat(
      "  unattributed remainder at p50: %.2f us (%.1f %% of submit p50)",
      submit_p50 - parts_p50,
      submit_p50 > 0 ? 100.0 * (submit_p50 - parts_p50) / submit_p50 : 0.0));
}

}  // namespace

RunResult RunWorkload(const Shape& shape, const Inputs& inputs,
                      const RunOptions& options) {
  RunResult result;
  Tally tally;
  TrialRunner runner(shape, inputs, options, tally);
  std::vector<Trial> trials;
  const auto run_start = Clock::now();
  // Set-up, checks and reopen run outside the measured time; this guard
  // keeps a badly slowed program inside the run's wall-clock budget.
  constexpr double kWallBudgetS = 120.0;
  double measured = 0.0;
  double longest = 0.0;
  size_t rounds_of_trials = 0;
  // One unmeasured warm-up trial (still checked) lets the allocator,
  // page cache and the disk's write path settle before timing.
  if (!options.smoke) (void)runner.Run(options.trace, 0);
  while (rounds_of_trials < shape.min_trials || measured < options.seconds) {
    if (rounds_of_trials > 0 &&
        Seconds(run_start, Clock::now()) + longest > kWallBudgetS) {
      break;
    }
    const auto trial_start = Clock::now();
    for (const bool traced :
         options.trace ? std::vector<bool>{false, true}
                       : std::vector<bool>{false}) {
      trials.push_back(runner.Run(traced, trials.size() + 1));
      measured += trials.back().elapsed_s;
    }
    longest = std::max(longest, Seconds(trial_start, Clock::now()));
    ++rounds_of_trials;
  }

  // Every figure is the median over trials of that trial's value, so a
  // trial caught by a host stall does not move the run's result, and
  // each trial's percentiles rest on its own samples (counts below).
  // The submit tail is a per-layer figure (pooled over trials): it
  // follows the disk's fsync latency, which drifts for minutes at a time
  // on a shared VM disk (README, Caveats).  The query tail is p90.
  MetricMap& m = result.metrics;
  const auto untraced_quantile = [&](std::vector<double> Trial::*field,
                                     double q) {
    std::vector<double> per_trial;
    for (Trial& t : trials) {
      if (!t.traced && !(t.*field).empty()) {
        per_trial.push_back(Percentile(t.*field, q));
      }
    }
    return Median(per_trial);
  };
  if (!options.trace) {
    std::vector<double> rps, cpu;
    size_t submits = 0;
    size_t queries = 0;
    size_t min_submits = SIZE_MAX;
    size_t min_queries = SIZE_MAX;
    for (const Trial& t : trials) {
      if (t.elapsed_s > 0 && t.rounds > 0) {
        rps.push_back(t.rounds / t.elapsed_s);
        cpu.push_back(t.cpu_us / t.rounds);
      }
      submits += t.submit_us.size();
      queries += t.query_us.size();
      min_submits = std::min(min_submits, t.submit_us.size());
      min_queries = std::min(min_queries, t.query_us.size());
    }
    m["setup_s"] = {Median(Collect(trials, false, &Trial::setup_s)), "s"};
    m["rounds_per_s"] = {Median(rps), "1/s"};
    m["submit_p50_us"] = {untraced_quantile(&Trial::submit_us, 0.5), "us"};
    m["query_p50_us"] = {untraced_quantile(&Trial::query_us, 0.5), "us"};
    m["query_p90_us"] = {untraced_quantile(&Trial::query_us, 0.9), "us"};
    m["cpu_us_per_round"] = {Median(cpu), "us"};
    // Memory is a peak: the largest over trials.  Many trials reuse heap
    // the reset could not hand back and add less (on iot_mixed ~2-5 MiB
    // against ~6.6), in a share that changes from run to run.
    const std::vector<double> rss = Collect(trials, false, &Trial::rss_mb);
    m["rss_peak_mb"] = {
        rss.empty() ? 0.0 : *std::max_element(rss.begin(), rss.end()),
        "MiB"};
    result.notes.push_back(avoc::StrFormat(
        "samples: %zu trials; %zu submits (at least %zu per trial), %zu "
        "QUERY_RANGE (at least %zu per trial)",
        trials.size(), submits, min_submits, queries, min_queries));
    std::string per_trial;
    for (double r : rps) per_trial += avoc::StrFormat(" %.0f", r);
    result.notes.push_back("rounds_per_s by trial:" + per_trial);
    per_trial.clear();
    for (const Trial& t : trials) {
      per_trial += avoc::StrFormat(" %.2f", t.rss_mb);
    }
    result.notes.push_back("rss_peak_mb by trial:" + per_trial);
  } else {
    MeasureFraming(shape, inputs, options.smoke ? 0.0 : 0.3, m);
    m["group.inproc_us_per_frame"] = {
        InprocUsPerFrame(shape, inputs, options, tally), "us"};
    PerLayer(shape, trials, result);
    // p99 needs more samples than one trial of queries holds: pooled.
    std::vector<double> submit, query;
    for (const Trial& t : trials) {
      if (t.traced) continue;
      submit.insert(submit.end(), t.submit_us.begin(), t.submit_us.end());
      query.insert(query.end(), t.query_us.begin(), t.query_us.end());
    }
    m["client.submit_p90_us"] = {Percentile(submit, 0.9), "us"};
    m["client.submit_p99_us"] = {Percentile(submit, 0.99), "us"};
    m["client.query_p99_us"] = {Percentile(query, 0.99), "us"};
    result.notes.push_back(avoc::StrFormat(
        "samples: %zu trials (%zu traced)", trials.size(),
        Collect(trials, true, &Trial::setup_s).size()));
  }
  const double failed_frac =
      static_cast<double>(tally.failed()) /
      std::max<double>(static_cast<double>(tally.attempted()), 1.0);
  result.notes.push_back(avoc::StrFormat(
      "failed_frac: %.6f (%llu of %llu operations)", failed_frac,
      static_cast<unsigned long long>(tally.failed()),
      static_cast<unsigned long long>(tally.attempted())));
  for (const std::string& why : tally.reasons()) {
    result.notes.push_back("FAILED: " + why);
  }
  result.attempted = tally.attempted();
  result.failed = tally.failed();
  result.correct = tally.failed() == 0;
  return result;
}

}  // namespace e2e
