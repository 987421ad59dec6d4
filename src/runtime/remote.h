// The networked voter service: sensors and edge applications talk to the
// voter over TCP — the wire realisation of the paper's sensors → hub →
// WiFi → voting sink-node path (Fig. 1) and of its closing vision, "a
// compatible voter service running on an edge node" receiving VDX
// definitions.
//
// The server is a single-threaded epoll event loop (runtime/event_loop.h)
// multiplexing every connection; each connection is a small protocol
// state machine with a bounded outbound queue.  Every request is a frame
// (runtime/framing.h, docs/PROTOCOL.md), described by one row of a static
// verb table (span name, where its group sits in the payload, whether it
// mutates state, how it executes), and takes one dispatch path in a fixed
// order: count in -> busy check -> cluster interception (park behind a
// MIGRATE_GROUP, MOVED, standby hold) -> shard forward -> execute (span +
// per-verb latency histogram; HEALTH fans out from here on a shard, and
// MIGRATE_GROUP answers once the handoff ends) -> count out when the
// reply reaches the connection.  Forwarded frames, frames parked behind a
// migration and standby replays re-enter the same path, so no verb can
// skip a step.  Two spellings share the port, auto-detected from a
// connection's first bytes:
//
//   * Binary frames, announced by the 2-byte magic preamble 0xAB 0x0C.
//     Length-prefixed typed frames; SUBMIT_BATCH carries N readings that
//     the server turns into ONE columnar engine pass
//     (VoterGroupManager::SubmitBatch), and requests may be pipelined
//     back-to-back without waiting.
//
//   * The line protocol (UTF-8 lines, space-separated tokens; multi-line
//     responses end with an "END" line), spoken by any connection whose
//     first byte is not 0xAB.  It is a text spelling of eight frame
//     verbs: each line becomes its frame (ParseRequestLine) and each
//     reply frame becomes its line (RenderLineReply) inside the
//     connection, so line requests get MOVED redirects, standby
//     replication, migration parking and shard forwarding like frames:
//
//       SUBMIT <group> <module> <round> <value>   -> OK | ERR <reason>
//       CLOSE <group> <round>                     -> OK | ERR <reason>
//       QUERY <group>                             -> VALUE <v> | NONE | ERR
//       GROUPS                                    -> GROUPS <n> <name...>
//       METRICS      -> multi-line Prometheus text exposition | ERR
//       HEALTH       -> multi-line: "HEALTH <n>" then one GROUP line each
//       PING                                      -> PONG
//       QUIT                                      -> BYE (and disconnects)
//
//     SUBMIT answers OK exactly when the reading was accepted (a reading
//     for an already-closed round or an out-of-range module gets ERR).
//
// Backpressure: a client that pipelines faster than it reads accumulates
// an outbound queue.  Past `read_pause_bytes` the server stops reading
// from that connection (EPOLLIN off) until the queue drains; past
// `write_high_water_bytes` every further request, whatever its verb, is
// answered with "ERR busy" instead of being executed.  Connections idle
// past `idle_timeout_ms` are dropped by the loop's timer wheel.
//
// The server is intentionally plain-text/plain-frame and loopback-bound:
// §6 notes VDX "has no security features that protect against malicious
// actors, so this is left up to the client code"; the same stance
// applies here.
// Sharding (runtime/sharded_remote.h): a server may instead run as one
// of N linked shards, each on its own reactor thread, owning a disjoint
// set of groups (stable GroupRouter hash).  A connection's first
// group-addressed request *migrates* the whole connection to the owning
// shard (the shared-nothing fast path: one device, one group, one
// shard); later requests for foreign groups are forwarded frame-by-frame
// through reactor mailboxes with strict per-connection reply ordering.
// GROUPS/METRICS answer locally (frozen global group list / shared
// lock-free registry); HEALTH scatter-gathers one part per shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "runtime/event_loop.h"
#include "runtime/framing.h"
#include "runtime/group_manager.h"
#include "runtime/group_router.h"
#include "runtime/migration.h"
#include "runtime/tcp.h"
#include "runtime/transport.h"

namespace avoc::runtime {

/// Server tuning knobs (defaults suit production; tests shrink them).
struct RemoteServerOptions {
  /// 127.0.0.1 port; 0 picks an ephemeral port (see port()).
  uint16_t port = 0;
  /// Drop connections with no traffic for this long; 0 disables.
  uint64_t idle_timeout_ms = 0;
  /// Stop reading from a connection whose outbound queue exceeds this.
  size_t read_pause_bytes = 256 * 1024;
  /// Answer "ERR busy" instead of executing requests past this.
  size_t write_high_water_bytes = 1024 * 1024;
  /// Largest accepted binary frame body.
  size_t max_frame_bytes = kMaxFrameBytes;
  /// Kernel send buffer per accepted connection; 0 keeps the default
  /// (backpressure tests pin it small for determinism).
  int send_buffer_bytes = 0;
  /// SUBMIT_BATCH_SEQ dedup: per client, acknowledgements at least this
  /// far below the highest seen sequence number may be forgotten.
  size_t dedup_window = 1024;
  /// Shard scope for telemetry families (e.g. "s2" publishes
  /// avoc_remote_*{shard="s2"}).  Empty keeps the plain family names.
  std::string metrics_scope;
  /// Node identity (e.g. "n0") once several server instances share one
  /// registry/tracer (cluster mode).  Labels every telemetry family with
  /// node="<id>", tags HEALTH group lines and server spans, so fan-out
  /// verbs can tell the instances apart.  Empty keeps single-node output.
  std::string node_id;
  /// Flight recorder / distributed tracing sink (obs/trace.h).  Null
  /// falls back to the manager's tracer; when both are null the server
  /// records nothing and pays one branch per request.
  obs::Tracer* tracer = nullptr;
};

class RemoteVoterServer;

/// Wiring of one shard server into a shard group, installed by
/// ShardedVoterServer before traffic flows and immutable afterwards.
/// `peers[index] == self`; `all_groups` is the frozen global group list
/// (sharded serving registers groups before accepting).
struct ShardLink {
  size_t index = 0;
  std::vector<RemoteVoterServer*> peers;
  std::vector<std::shared_ptr<Reactor>> reactors;
  std::vector<std::string> all_groups;
};

class RemoteVoterServer {
 public:
  using Options = RemoteServerOptions;

  /// Binds 127.0.0.1:`port` (0 = ephemeral, see port()) and serves the
  /// given manager.  The manager must outlive the server; its groups may
  /// be registered before or while serving.  When the manager carries an
  /// obs::Registry the server publishes avoc_remote_* metrics into it.
  static Result<std::unique_ptr<RemoteVoterServer>> Start(
      VoterGroupManager* manager, uint16_t port = 0);

  /// Start with explicit tuning knobs.
  static Result<std::unique_ptr<RemoteVoterServer>> StartWithOptions(
      VoterGroupManager* manager, Options options);

  /// Start over injected transport and dispatch seams.  With
  /// `spawn_loop_thread` false the caller drives the reactor itself —
  /// this is how the deterministic simulation harness (runtime/sim_net.h)
  /// runs the real server state machines over a virtual network and
  /// clock, single-threaded.
  static Result<std::unique_ptr<RemoteVoterServer>> StartOnReactor(
      VoterGroupManager* manager, Options options,
      std::unique_ptr<Listener> listener, std::shared_ptr<Reactor> reactor,
      bool spawn_loop_thread);

  /// A listenerless shard server: connections arrive only through
  /// AdoptConnection (posted by the sharded acceptor) or migration from
  /// a peer shard.  The caller owns the reactor's dispatch (thread or
  /// simulation pump) and must LinkShards() before traffic flows.
  static Result<std::unique_ptr<RemoteVoterServer>> StartShard(
      VoterGroupManager* manager, Options options,
      std::shared_ptr<Reactor> reactor);

  /// Installs the shard wiring (see ShardLink).  Call once, before any
  /// connection is adopted; the link is read-only afterwards.
  void LinkShards(ShardLink link);

  /// Installs the cluster wiring (see ClusterLink / runtime/cluster.h).
  /// Call once before traffic flows; read-only afterwards.  A clustered
  /// server answers requests for groups it does not own with a MOVED
  /// redirect, accepts the MIGRATE_GROUP verb, and (when the cluster
  /// gives it a hot standby) holds mutating replies until the standby
  /// acknowledged the shipped record.
  void LinkCluster(ClusterLink link);

  /// Simulated node crash (DST only): closes the listener and every
  /// connection without the graceful Stop() handshake and marks the
  /// server dead, so stray mailbox posts become no-ops.  Call from the
  /// loop thread or with the simulation world paused.
  void Crash();
  bool crashed() const { return crashed_; }

  /// Source side of a migration without a connection (the chaos driver's
  /// operator entry; the MIGRATE_GROUP verb routes here too): quiesces
  /// `group`, exports its state, ships it to `dest`, then answers the
  /// deferred requests with MOVED.  Loop-thread only; `done` fires on
  /// the loop thread with the outcome (typed errors for a nonexistent
  /// group, a dead/invalid destination, or a concurrent migration).
  void BeginMigration(std::string group, size_t dest,
                      std::function<void(Status)> done);

  /// Destination side: installs a shipped GroupStateBlob (engines come
  /// from the cluster's engine factory), replicates the import to this
  /// node's standby, then completes.  Loop-thread only.
  void BeginImport(std::string blob, std::function<void(Status)> done);

  /// Applies one shipped replication record (hot-standby side).  Returns
  /// the apply outcome; a torn record fails with ParseError.
  Status ApplyReplicated(std::string_view record_bytes);

  /// Group migrations this node completed as source / destination.
  size_t group_migrations_out() const { return group_migrations_out_.load(); }
  size_t group_migrations_in() const { return group_migrations_in_.load(); }
  /// MOVED redirects answered.
  size_t moved_redirects() const { return moved_redirects_.load(); }
  /// Replication records applied as a standby.
  size_t replicated_applies() const { return replicated_applies_.load(); }

  /// Takes ownership of an accepted transport (already non-blocking) and
  /// runs the standard connection state machine on it.  Loop-thread
  /// only — peers reach it via Reactor::Post.
  void AdoptConnection(std::shared_ptr<Transport> transport);

  ~RemoteVoterServer();

  RemoteVoterServer(const RemoteVoterServer&) = delete;
  RemoteVoterServer& operator=(const RemoteVoterServer&) = delete;

  /// Listening port; 0 for listenerless shard servers (the sharded
  /// front door owns the socket).
  uint16_t port() const { return listener_ ? listener_->port() : 0; }

  /// Stops the loop, disconnects clients, joins the loop thread.
  /// Idempotent.
  void Stop();

  /// Requests this server accepted from its connections (one frame or one
  /// request line each, malformed and poisoned ones included); each gets
  /// exactly one reply while its connection lives.
  size_t requests_served() const { return requests_.load(); }

  /// Times a connection hit a backpressure threshold (read pause or
  /// busy-rejection).
  size_t backpressure_events() const { return backpressure_.load(); }

  /// SUBMIT_BATCH_SEQ duplicates answered from the dedup cache instead
  /// of re-ingesting.
  size_t dedup_replays() const { return dedup_replays_count_.load(); }

  /// Requests this shard forwarded to a peer (foreign group on a pinned
  /// connection); 0 unsharded.
  size_t forwarded_requests() const { return forwarded_.load(); }

  /// Connections this shard handed to the owning peer on their first
  /// group-addressed request; 0 unsharded.
  size_t migrations_out() const { return migrations_.load(); }

  // --- the verb table --------------------------------------------------------

  /// Where a request's reply goes: slot `slot` of connection (`fd`,
  /// `conn_id`) on `server`, the shard that accepted the request.
  struct ReplyTo {
    RemoteVoterServer* server = nullptr;
    int fd = -1;
    uint64_t conn_id = 0;
    uint64_t slot = 0;
  };

  /// One verb execution: the request's context and, once Verb::decode ran,
  /// its arguments (each verb fills the fields it carries).
  struct Call {
    std::string_view payload;
    /// How the frame reached this server: "local" | "forwarded" |
    /// "migrated" | "replicated" (tags the server span).
    const char* route = "local";
    ReplyTo to;
    obs::ScopedSpan* span = nullptr;  ///< the verb's span, if it opens one
    std::string group;
    WireTraceContext trace;
    std::vector<BatchReading> readings;
    std::string client_id;
    uint64_t seq = 0;
    uint64_t lo = 0;  ///< CLOSE round; QUERY_RANGE lo_round
    uint64_t hi = 0;  ///< QUERY_RANGE hi_round
  };

  /// A verb's reply; nullopt when the verb answers `Call::to` later.
  using Reply = std::optional<Frame>;

  /// Where the addressed group sits in a verb's payload.
  enum class GroupAt : uint8_t {
    kNone,            ///< group-less verb: answered where it arrives
    kFirst,           ///< the payload leads with the group
    kAfterClientSeq,  ///< SUBMIT_BATCH_SEQ: after client id and seq
  };

  /// One row per request FrameType.
  struct Verb {
    FrameType type;
    /// Server span opened around the execution; empty opens none.
    std::string_view span;
    /// Group-routed verbs are forwarded to the owning shard, answered
    /// with MOVED by a non-owning cluster node and parked during the
    /// group's MIGRATE_GROUP.
    GroupAt group_at;
    /// Changes group state: on a node with a hot standby the reply waits
    /// for the standby to apply the shipped frame.
    bool mutating;
    /// Fills the call's arguments; null for verbs without decoded ones.
    Status (*decode)(std::string_view payload, Call* call);
    Reply (*run)(RemoteVoterServer& server, Call& call);
  };

  /// The row of `type`; null for bytes that name no request verb.
  static const Verb* FindVerb(FrameType type);

  /// The group a request addresses, read without decoding the rest of the
  /// payload; empty for group-less verbs and unreadable payloads.
  static std::string_view GroupOf(const Verb& verb, std::string_view payload);

 private:
  /// One connection's protocol state machine (loop thread only — the
  /// owning shard's; migration moves the whole struct between shards
  /// through a reactor mailbox, never shares it).
  struct Connection {
    explicit Connection(std::shared_ptr<Transport> c) : conn(std::move(c)) {}

    std::shared_ptr<Transport> conn;  ///< shared: posts across reactors
    enum class Mode : uint8_t { kDetecting, kLine, kBinary };
    Mode mode = Mode::kDetecting;
    std::string inbuf;     ///< detection + request-line assembly
    size_t line_pos = 0;   ///< consumed prefix of inbuf (line mode)
    FrameDecoder decoder;  ///< binary frame assembly
    std::string outbuf;    ///< encoded responses not yet written
    size_t out_pos = 0;    ///< written prefix of outbuf
    bool want_close = false;  ///< close once outbuf AND replies drain
    bool paused = false;      ///< reading stopped by backpressure
    bool pinned = false;      ///< shard placement decided (sharded mode)
    uint64_t id = 0;          ///< guards stale cross-shard completions
    uint64_t idle_timer = 0;  ///< timer-wheel handle (0 = none)
    uint64_t last_activity_ms = 0;

    /// In-order reply delivery: every request takes a slot at admission;
    /// forwarded, fanned-out, parked and standby-held ones complete
    /// later, and only the ready prefix ever reaches outbuf.  Invariant:
    /// when `replies` is non-empty its front is pending (ready fronts
    /// flush immediately).
    struct PendingReply {
      bool ready = false;
      Frame reply;
    };
    std::deque<PendingReply> replies;
    uint64_t reply_base = 0;  ///< absolute slot index of replies.front()
    uint64_t next_slot = 0;   ///< next absolute slot to allocate
  };

  RemoteVoterServer(VoterGroupManager* manager, Options options,
                    std::unique_ptr<Listener> listener,
                    std::shared_ptr<Reactor> loop);

  static const Verb kVerbs[];

  // Loop-thread handlers.
  void OnAcceptable();
  void OnConnectionEvent(int fd, uint32_t events);
  void ReadPath(int fd);
  void WritePath(int fd);
  /// Runs every complete request of the connection, then writes the
  /// replies that completed meanwhile in one go.
  void ProcessInput(int fd);
  /// The one request source: the next frame, decoded or translated from
  /// a request line (after protocol detection).  NotFound = need more
  /// bytes; a malformed line fails with its reply reason; a decoder or
  /// preamble error, or OutOfRange (a line longer than max_frame_bytes),
  /// means the stream is poisoned.
  Result<Frame> NextRequest(Connection& c) const;
  /// Appends one reply to the outbound queue, encoded as a frame or
  /// rendered as line text, and counts it out.
  void QueueResponse(Connection& c, const Frame& reply);
  bool OverHighWater(const Connection& c) const;
  void UpdateInterest(int fd);
  void ScheduleIdleTimer(int fd);
  void CloseConnection(int fd);

  // --- the dispatch path ---------------------------------------------------
  /// Counts a request in and gives it the connection's next reply slot.
  ReplyTo Admit(Connection& c);
  /// Admit, then the busy check, then Serve.
  void Dispatch(Connection& c, Frame frame, const char* route);
  /// Cluster interception, then shard forward, else Execute; the reply
  /// completes `to`.  Forwarded and un-parked frames enter here.
  void Serve(Frame frame, const ReplyTo& to, const char* route);
  /// Decodes, opens the verb's span, runs it and records its latency.
  Reply Execute(const Verb& verb, const Frame& frame, const char* route,
                const ReplyTo& to);
  /// Fills a reply slot and flushes the ready prefix (posted back to the
  /// accepting shard when `to` lives there).  Drops silently when the
  /// connection died or was reused (id mismatch).
  void Complete(const ReplyTo& to, Frame reply);
  void FlushReplies(Connection& c);

  /// The per-group "GROUP ..." lines of this shard (no header).
  std::string LocalHealthLines() const;

  // --- sharded routing (all loop-thread-only on their shard) ---------------
  bool IsLinked() const { return link_.peers.size() > 1; }

  /// Posts `frame` to the owning peer, which serves it into `to`.
  void ForwardFrame(size_t owner, Frame frame, const ReplyTo& to);
  /// Hands the whole connection (buffers, decoder, outbuf) to the owning
  /// shard, carrying the request that triggered the move.
  void MigrateConnection(int fd, size_t owner, Frame frame);
  /// Receives a migrated connection on the owning shard.
  void AdoptMigrated(std::shared_ptr<Connection> c, Frame frame);
  /// HEALTH scatter-gather: one LocalHealthLines() per shard, assembled
  /// into `to` when the last part arrives.
  void StartHealthFanout(const ReplyTo& to);

  /// Remembered SUBMIT_BATCH_SEQ acknowledgements for one client
  /// identity (loop thread only).  Each ack remembers the group it
  /// addressed so the entries can travel with a migrated group.
  struct ClientDedup {
    struct AckEntry {
      uint64_t accepted = 0;
      std::string group;
    };
    std::map<uint64_t, AckEntry> acks;  ///< seq -> ack
    uint64_t max_seq = 0;
  };

  // --- cluster mode (all loop-thread-only) ---------------------------------
  bool IsClustered() const { return cluster_.control != nullptr; }

  /// Ships the executed mutating frame to the standby and completes `to`
  /// with `reply` once the standby acknowledged it.
  void CompleteAfterReplication(const ReplyTo& to, const Frame& frame,
                                Frame reply);

  /// Source-side completion: on success removes the group, erases its
  /// travelling dedup, commits placement, and answers deferred requests
  /// with MOVED; on failure serves them again in order.
  void FinishMigration(const std::string& group, size_t dest, Status result);

  /// Serializes one group (pipeline state + travelling dedup entries).
  Result<std::string> ExportGroupBlob(const std::string& group);
  /// Installs a shipped blob (engine from the cluster catalog, state
  /// restore with rollback, dedup merge).
  Status ImportGroupBlob(std::string_view bytes);
  /// Drops dedup acks addressed to `group`; returns the erased entries.
  std::vector<GroupStateBlob::DedupEntry> EraseDedupForGroup(
      const std::string& group);

  /// One in-flight outbound migration: requests for the group arriving
  /// while it runs are parked here instead of executing.
  struct ActiveMigration {
    size_t dest = 0;
    struct Deferred {
      Frame frame;
      ReplyTo to;
      const char* route = "local";
    };
    std::vector<Deferred> deferred;
    std::vector<std::function<void(Status)>> done;
  };

  VoterGroupManager* manager_;
  Options options_;
  std::unique_ptr<Listener> listener_;  ///< null for shard servers
  std::shared_ptr<Reactor> loop_;
  std::thread loop_thread_;
  std::atomic<bool> running_{true};
  std::atomic<size_t> requests_{0};
  std::atomic<size_t> backpressure_{0};
  std::atomic<size_t> dedup_replays_count_{0};
  std::atomic<size_t> forwarded_{0};
  std::atomic<size_t> migrations_{0};
  uint64_t next_conn_id_ = 1;                           // loop thread
  /// The connection ProcessInput is working through: replies completed
  /// for it reach the socket in its one write at the end (loop thread).
  int dispatching_fd_ = -1;
  std::map<int, std::shared_ptr<Connection>> connections_;  // loop thread
  std::map<std::string, ClientDedup> dedup_;                // loop thread

  /// Shard wiring; empty (unlinked) for a standalone server.  Installed
  /// once before traffic, read-only afterwards — safe to read from the
  /// loop thread without locks.
  ShardLink link_;
  GroupRouter router_{1};

  /// Cluster wiring; control == nullptr for a standalone server.  Same
  /// install-once discipline as link_.
  ClusterLink cluster_;
  std::map<std::string, ActiveMigration> active_migrations_;  // loop thread
  bool crashed_ = false;                                      // loop thread
  std::atomic<size_t> group_migrations_out_{0};
  std::atomic<size_t> group_migrations_in_{0};
  std::atomic<size_t> moved_redirects_{0};
  std::atomic<size_t> replicated_applies_{0};
  /// " node=<id>" when options_.node_id set, else empty — appended to
  /// HEALTH group lines and span details so fan-outs identify the node.
  std::string node_suffix_;

  /// Resolved tracing sink: options_.tracer, else the manager's tracer,
  /// else null (tracing off).  Shared across shards — spans from every
  /// shard land in one flight recorder, so TRACE_DUMP on any connection
  /// sees the whole request path.
  obs::Tracer* tracer_ = nullptr;

  // Optional telemetry (null without a manager registry).
  obs::Gauge* connections_gauge_ = nullptr;
  obs::Counter* frames_in_ = nullptr;
  obs::Counter* frames_out_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
  obs::Counter* backpressure_counter_ = nullptr;
  obs::Counter* dedup_replays_ = nullptr;
  obs::Gauge* dedup_clients_ = nullptr;
  /// avoc_remote_request_latency_ns{verb=...}, one per kVerbs row.
  std::vector<obs::LatencyHistogram*> verb_latency_;
  obs::Counter* forwarded_counter_ = nullptr;
  obs::Counter* migrations_counter_ = nullptr;
  obs::Counter* adopted_counter_ = nullptr;
  obs::Gauge* owned_groups_gauge_ = nullptr;
  obs::Counter* group_migrations_out_counter_ = nullptr;
  obs::Counter* group_migrations_in_counter_ = nullptr;
  obs::Counter* moved_redirects_counter_ = nullptr;
  obs::Counter* replicated_applies_counter_ = nullptr;
};

/// Client helper speaking the binary frame protocol: it sends the 0xAB
/// 0x0C preamble on connect and one frame per request (the line protocol
/// is for raw-text clients such as netcat).  One client is one
/// connection; methods are not thread-safe.
class RemoteVoterClient {
 public:
  /// Connects over TCP (preamble sent immediately).
  static Result<RemoteVoterClient> ConnectBinary(const std::string& host,
                                                 uint16_t port);

  /// Speaks over an already-connected stream (the simulation harness
  /// hands in in-memory transports here); sends the preamble immediately.
  static Result<RemoteVoterClient> FromTransport(
      std::unique_ptr<Transport> transport);

  /// Bounds every subsequent reply wait; 0 disables.
  Status SetRequestTimeoutMs(int timeout_ms);

  Status Submit(const std::string& group, size_t module, size_t round,
                double value);

  /// Sends `readings` as one SUBMIT_BATCH frame and awaits the reply;
  /// returns the number of readings the server accepted.
  Result<uint64_t> SubmitBatch(const std::string& group,
                               std::span<const BatchReading> readings);

  /// SUBMIT_BATCH_SEQ: like SubmitBatch, tagged with a client identity
  /// and sequence number so a resend after a lost reply is answered from
  /// the server's dedup cache instead of double-ingested.
  /// `trace` (optional) rides the frame as the trailing trace-context
  /// field, parenting the server-side span tree to the caller's span.
  Result<uint64_t> SubmitBatchSeq(std::string_view client_id, uint64_t seq,
                                  const std::string& group,
                                  std::span<const BatchReading> readings,
                                  const WireTraceContext* trace = nullptr);

  /// Pipelining: queue a SUBMIT_BATCH without reading the reply...
  Status PipelineSubmitBatch(const std::string& group,
                             std::span<const BatchReading> readings);
  /// ...then collect one pending reply per earlier Pipeline call, in
  /// order.
  Result<uint64_t> AwaitSubmitBatch();
  size_t pending_replies() const { return pending_submits_; }

  Status CloseRound(const std::string& group, size_t round);
  /// Operator verb: asks the server to migrate `group` to cluster node
  /// `dest_node` (MIGRATE_GROUP).  FailedPrecondition on a standalone
  /// (non-clustered) server.
  Status MigrateGroup(const std::string& group, uint64_t dest_node);
  /// Last fused value of the group; NotFound when none yet.
  Result<double> Query(const std::string& group);
  /// The group's stored vote trace restricted to rounds in
  /// [lo_round, hi_round] (inclusive).  Values are bit-identical to the
  /// server's trace.
  Result<std::vector<RangePoint>> QueryRange(const std::string& group,
                                             uint64_t lo_round,
                                             uint64_t hi_round);
  /// A group's live reliability ledger as served by HISTORY_GET.
  struct RemoteHistory {
    uint64_t rounds = 0;            ///< rounds absorbed by the ledger
    std::vector<double> records;    ///< per-module reliability records
  };
  /// The group's reliability ledger.
  Result<RemoteHistory> HistoryGet(const std::string& group);
  Result<std::vector<std::string>> Groups();
  Status Ping();
  /// The server's Prometheus text exposition (one string, '\n'-separated
  /// lines).
  Result<std::string> Metrics();
  /// Snapshot of the server's flight recorder as AVOC-TRACE v1 text
  /// (obs::Tracer::DumpText).  FailedPrecondition when the server runs
  /// without a tracer.
  Result<std::string> TraceDump();
  /// Per-group health lines ("GROUP <name> ..."), header stripped.
  Result<std::vector<std::string>> Health();

 private:
  explicit RemoteVoterClient(std::unique_ptr<Transport> connection)
      : connection_(std::move(connection)) {}

  /// Blocks until one complete frame arrives.
  Result<Frame> ReadFrame();

  /// Sends a request frame and reads its reply frame, which must be of
  /// type `expected`.
  Result<Frame> FrameRoundTrip(FrameType type, std::string_view payload,
                               FrameType expected);

  /// FrameRoundTrip of a payload-less verb answered with TEXT.
  Result<std::string> TextRoundTrip(FrameType type);

  /// Unwraps kError / kMoved frames into a Status and rejects any other
  /// type but `expected`.
  static Result<Frame> CheckFrame(Frame frame, FrameType expected);

  std::unique_ptr<Transport> connection_;
  FrameDecoder decoder_;
  size_t pending_submits_ = 0;
};

}  // namespace avoc::runtime
