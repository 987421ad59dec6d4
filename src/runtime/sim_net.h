// Deterministic simulation harness for the remote runtime.
//
// The real RemoteVoterServer connection state machines, FrameDecoder, and
// timer wheel are exercised here over an *in-memory* network driven by a
// seeded virtual clock — FoundationDB-style deterministic simulation
// testing.  One uint64_t seed fully determines the run: every latency
// draw, fault trigger, and callback dispatch order replays bit-identically
// (`SimWorld::trace()` is the proof artifact tests compare).
//
// Pieces:
//
//   FaultPlan    scripted faults for a run: segment fragmentation, seeded
//                delivery delays, connection resets, half-open links
//                (one direction blackholed), full partitions, plus opt-in
//                stream-corrupting chaos (duplicate/reorder/corrupt) for
//                decoder-robustness tests.
//   SimWorld     owns the virtual clock, the network state, the trace,
//                and a SimReactor; implements Clock so retry/backoff code
//                sleeps in virtual time.
//   SimTransport Transport over an in-memory duplex pipe.  The blocking
//                half pumps the world forward until satisfied or a
//                virtual deadline passes, so single-threaded tests can
//                use the production blocking client verbatim.
//   SimListener  Listener over a simulated port.
//   SimReactor   Reactor over SimWorld readiness + the real TimerWheel on
//                the virtual clock.  RemoteVoterServer runs on it via
//                StartOnReactor(..., spawn_loop_thread=false) — fully
//                cooperative, no threads anywhere in a simulated run.
//
// Fault-model honesty: by default delivery is FIFO per direction and
// bytes are never duplicated or corrupted — exactly TCP's contract — so
// convergence tests ("sink equals the fault-free trace once the network
// heals") are sound.  duplicate/reorder/corrupt knobs break the stream
// abstraction on purpose and are only for decoder robustness tests, where
// the assertion is "decode or poison, never hang or crash".
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/event_loop.h"
#include "runtime/transport.h"
#include "util/rng.h"
#include "util/status.h"

namespace avoc::runtime {

/// Half-open interval [start_ms, end_ms) of virtual time.
struct FaultWindow {
  uint64_t start_ms = 0;
  uint64_t end_ms = 0;

  bool Contains(uint64_t t) const { return t >= start_ms && t < end_ms; }
};

/// Scripted faults for one simulated run.  Everything is interpreted
/// against the virtual clock; random draws come from the world's seeded
/// Rng, so the same (seed, plan) pair replays identically.
struct FaultPlan {
  // --- TCP-faithful stream shaping ------------------------------------------
  /// Split every write into segments of at most this many bytes
  /// (0 = unlimited).  Models short send()s and slow-loris delivery.
  size_t max_segment_bytes = 0;
  /// Cap one ReadSome/ReceiveSome at this many bytes (0 = unlimited).
  size_t max_read_bytes = 0;
  /// Per-segment delivery latency drawn uniformly from [min, max].
  uint64_t min_delay_ms = 0;
  uint64_t max_delay_ms = 0;

  // --- connection-level faults ----------------------------------------------
  /// At each listed time, every live connection is reset (RST): buffered
  /// and in-flight bytes are discarded, both endpoints see errors.
  std::vector<uint64_t> reset_at_ms;
  /// While active: new connects fail and *all* delivery stalls (segments
  /// queue and flush after the window ends, like TCP retransmission).
  std::vector<FaultWindow> partitions;
  /// While active: bytes written client->server silently vanish.
  std::vector<FaultWindow> blackhole_c2s;
  /// While active: bytes written server->client silently vanish.
  std::vector<FaultWindow> blackhole_s2c;

  // --- stream-corrupting chaos (decoder tests ONLY) -------------------------
  /// Probability a segment is enqueued twice.  Breaks the TCP contract.
  double duplicate_segment_p = 0.0;
  /// Probability a segment skips the FIFO clamp (may overtake).
  double reorder_segment_p = 0.0;
  /// Probability one byte of a segment is flipped.
  double corrupt_byte_p = 0.0;

  /// True when any knob that violates the TCP byte-stream contract is on.
  bool CorruptsStream() const {
    return duplicate_segment_p > 0 || reorder_segment_p > 0 ||
           corrupt_byte_p > 0;
  }

  /// Virtual time after which no scripted fault is active (resets fired,
  /// windows closed).  Latency/fragmentation shaping continues forever —
  /// it never violates the stream contract.
  uint64_t HealedAfterMs() const;

  /// Heal-eventually chaos schedule derived from a seed: fragmentation,
  /// delays, and 0-3 each of resets / partitions / half-open windows, all
  /// strictly inside [0, horizon_ms).  Never corrupts the stream.
  static FaultPlan Chaos(uint64_t seed, uint64_t horizon_ms);

  /// Delays + fragmentation only; no resets, no windows.  Safe for raw
  /// line-protocol exchanges, which carry no retry identity (a resent
  /// line SUBMIT could not be told from a new one).
  static FaultPlan Gentle(uint64_t seed);
};

class SimReactor;

/// The simulated world: virtual clock, in-memory network, fault engine,
/// deterministic event trace.  Single-threaded and cooperative — nothing
/// here is thread-safe, by design.
class SimWorld : public Clock {
 public:
  struct Options {
    FaultPlan fault_plan;
    /// Outbound buffer per direction; writes WouldBlock beyond this.
    size_t pipe_capacity_bytes = 256 * 1024;
    /// Latency before a Connect() shows up at the listener.
    uint64_t connect_delay_ms = 1;
    /// Hard ceiling a blocking op may pump the clock forward, so a
    /// blackholed request deterministically times out instead of hanging.
    uint64_t max_block_ms = 10 * 60 * 1000;
    /// Record the event trace (determinism assertions diff it).
    bool record_trace = true;
  };

  explicit SimWorld(uint64_t seed);
  SimWorld(uint64_t seed, Options options);
  ~SimWorld() override;

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  // --- Clock ----------------------------------------------------------------
  uint64_t NowMs() override { return now_ms_; }
  /// Advances the world `ms` of virtual time (pumping deliveries, faults,
  /// and reactor callbacks along the way).
  void SleepMs(uint64_t ms) override;

  // --- network factory ------------------------------------------------------
  /// Opens a simulated listening port.
  Result<std::unique_ptr<Listener>> Listen(uint16_t port);
  /// Connects to a listening port.  Fails during a partition or when the
  /// port is not listening.  The connection becomes acceptable after
  /// connect_delay_ms.
  Result<std::unique_ptr<Transport>> Connect(uint16_t port);

  // --- simulation driving ---------------------------------------------------
  /// Delivers due segments, applies due scripted faults, and dispatches
  /// reactor callbacks/timers at the current instant (to fixpoint).
  void Pump();
  /// Advances virtual time by `ms`, event by event.
  void RunFor(uint64_t ms);
  /// Pumps until `pred()` holds or the virtual deadline passes; returns
  /// the predicate's final value.
  bool RunUntil(const std::function<bool()>& pred, uint64_t deadline_ms);

  /// Resets every live connection now (unscripted fault injection).
  void ResetAllConnections();

  /// The reactor a simulated server runs on.
  std::shared_ptr<SimReactor> reactor() { return reactor_; }

  /// An additional reactor — one per simulated shard.  Pump() dispatches
  /// every reactor in creation order to fixpoint, so a multi-shard
  /// server (runtime/sharded_remote.h) runs deterministically on one
  /// thread: cross-shard mailbox posts land in the target reactor's
  /// queue and execute on the next dispatch pass, FIFO per sender.
  std::shared_ptr<SimReactor> NewReactor();

  /// reactor() plus every NewReactor(), in creation order.
  const std::vector<std::shared_ptr<SimReactor>>& reactors() const {
    return reactors_;
  }

  uint64_t seed() const { return seed_; }
  const Options& options() const { return options_; }
  const std::vector<std::string>& trace() const { return trace_; }
  /// The full trace joined by newlines (for one-shot equality asserts).
  std::string TraceText() const;

 private:
  friend class SimTransport;
  friend class SimListener;
  friend class SimReactor;

  struct Segment {
    uint64_t deliver_at = 0;
    uint64_t seq = 0;  ///< tie-break for equal deliver_at
    std::string bytes;
  };

  /// One direction of a connection.
  struct Pipe {
    std::deque<Segment> in_flight;  // sorted by (deliver_at, seq)
    std::string delivered;          // readable now
    uint64_t fifo_floor = 0;        // monotonic clamp for FIFO delivery
    size_t bytes_in_flight = 0;
    bool src_closed = false;
  };

  struct Conn {
    int id = 0;
    int client_handle = 0;
    int server_handle = 0;
    Pipe c2s;
    Pipe s2c;
    bool reset = false;
    bool client_closed = false;
    bool server_closed = false;
  };

  struct PendingAccept {
    uint64_t ready_at = 0;
    int conn_id = 0;
  };

  struct Port {
    uint16_t port = 0;
    int handle = 0;
    bool closed = false;
    std::deque<PendingAccept> pending;
  };

  struct Endpoint {
    int conn_id = 0;
    bool is_client = false;
  };

  void Trace(std::string line);
  bool PartitionActiveAt(uint64_t t) const;
  bool BlackholeActiveAt(uint64_t t, bool c2s) const;

  Conn* FindConn(int conn_id);
  /// Readiness bits (kIoRead/kIoWrite/kIoError) for a watched handle.
  uint32_t Readiness(int handle);

  // Transport backend (called by SimTransport through the endpoint map).
  IoOp EndpointRead(int handle, char* buffer, size_t len);
  IoOp EndpointWrite(int handle, const char* data, size_t len);
  void EndpointClose(int handle);
  /// Enqueues `data` onto `pipe`, applying segmentation + fault draws.
  void EnqueueBytes(Conn& conn, bool c2s, std::string_view data);

  // Listener backend.
  Result<std::unique_ptr<Transport>> AcceptOn(int listener_handle);
  void CloseListener(int listener_handle);

  /// Applies scripted resets due at or before now.
  void ApplyScriptedFaults();
  /// Moves due segments from in_flight to delivered.
  void DeliverDue();
  /// Earliest future instant at which anything changes (UINT64_MAX when
  /// fully quiescent).
  uint64_t NextEventAtMs() const;
  void AdvanceTo(uint64_t t);
  void ResetConn(Conn& conn, std::string_view why);

  uint64_t seed_;
  Options options_;
  Rng rng_;
  uint64_t now_ms_ = 0;
  int next_handle_ = 1;
  int next_conn_id_ = 1;
  uint64_t next_segment_seq_ = 1;
  size_t scripted_resets_applied_ = 0;
  std::map<int, Conn> conns_;          // by conn id
  std::map<int, Endpoint> endpoints_;  // by transport handle
  std::map<int, Port> ports_;          // by listener handle
  std::map<uint16_t, int> listening_;  // port number -> listener handle
  std::vector<std::string> trace_;
  std::shared_ptr<SimReactor> reactor_;  ///< == reactors_[0]
  std::vector<std::shared_ptr<SimReactor>> reactors_;
};

/// Reactor over SimWorld readiness and the real TimerWheel running on the
/// virtual clock.  Dispatch order is deterministic: posted tasks in order,
/// then watched handles in ascending handle order, repeated to fixpoint.
class SimReactor : public Reactor {
 public:
  explicit SimReactor(SimWorld* world);

  Status Watch(int handle, uint32_t interest, IoCallback callback) override;
  Status SetInterest(int handle, uint32_t interest) override;
  Status Unwatch(int handle) override;

  uint64_t ScheduleTimer(uint64_t delay_ms, std::function<void()> fn) override;
  bool CancelTimer(uint64_t id) override;

  void Post(std::function<void()> fn) override;

  /// Pumps the world until Stop() (bounded by max_block_ms of virtual
  /// time).  Simulated servers normally run cooperatively instead, via
  /// SimWorld::Pump/RunUntil — Run() exists to satisfy the interface.
  void Run() override;
  void Stop() override { stop_ = true; }
  bool stopped() const override { return stop_; }

  uint64_t now_ms() const override;

 private:
  friend class SimWorld;

  /// Runs posted tasks + ready watched handles to fixpoint at `now`;
  /// true when any callback ran.
  bool Dispatch();
  void AdvanceTimers();
  /// Absolute virtual time of the next pending timer (UINT64_MAX: none).
  uint64_t NextTimerAtMs() const;

  struct Watched {
    uint64_t generation = 0;
    uint32_t interest = 0;
    std::shared_ptr<IoCallback> callback;
  };

  SimWorld* world_;
  bool stop_ = false;
  uint64_t next_generation_ = 1;
  std::map<int, Watched> watched_;
  /// 1 ms ticks: virtual time is free, so take full precision.
  TimerWheel timers_{/*tick_ms=*/1, /*slots=*/256};
  std::vector<std::function<void()>> posted_;
};

/// Transport endpoint over a SimWorld pipe.  Blocking operations advance
/// the virtual clock (pumping the world) until satisfied, EOF, error, or
/// the receive timeout / max_block_ms deadline.
class SimTransport : public Transport {
 public:
  SimTransport(SimWorld* world, int handle);
  ~SimTransport() override;

  bool valid() const override { return world_ != nullptr; }
  int handle() const override { return handle_; }

  IoOp ReadSome(char* buffer, size_t len) override;
  IoOp WriteSome(const char* data, size_t len) override;

  Status SendAll(std::string_view data) override;
  Result<std::string> ReceiveLine() override;
  Result<size_t> ReceiveSome(char* buffer, size_t len) override;
  Status SetReceiveTimeoutMs(int timeout_ms) override;

  Status SetNonBlocking(bool enabled) override;
  Status SetSendBufferBytes(int bytes) override;
  void Close() override;

 private:
  /// Blocks (in virtual time) until the endpoint is readable/errored.
  Status AwaitReadable();

  SimWorld* world_ = nullptr;
  int handle_ = -1;
  int receive_timeout_ms_ = 0;
  std::string line_buffer_;
};

/// Listener over a SimWorld port.
class SimListener : public Listener {
 public:
  SimListener(SimWorld* world, int handle, uint16_t port);
  ~SimListener() override;

  uint16_t port() const override { return port_; }
  int handle() const override { return handle_; }
  Result<std::unique_ptr<Transport>> TryAcceptTransport() override;
  void Close() override;

 private:
  SimWorld* world_ = nullptr;
  int handle_ = -1;
  uint16_t port_ = 0;
};

}  // namespace avoc::runtime
