#include "runtime/remote.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "util/log.h"
#include "util/strings.h"

namespace avoc::runtime {
namespace {

/// Read chunk size per recv call on the loop thread.
constexpr size_t kReadChunk = 16 * 1024;

/// Per-wakeup read budget so one firehose connection cannot starve the
/// rest of the loop (level-triggered epoll re-arms what remains).
constexpr size_t kReadBudget = 256 * 1024;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The span parent encoded in a request's trailing trace-context field;
/// an absent field yields an invalid context, which roots a new local
/// trace (the flight recorder is always on, traced client or not).
obs::SpanContext ParentOf(const WireTraceContext& trace) {
  obs::SpanContext parent;
  parent.trace_id = trace.trace_id;
  parent.span_id = trace.parent_span_id;
  parent.flags = trace.flags;
  return parent;
}

Frame OkFrame(uint64_t accepted) {
  return Frame{FrameType::kOk, EncodeOk(accepted)};
}

Frame TextFrame(std::string_view text) {
  return Frame{FrameType::kText, EncodeText(text)};
}

}  // namespace

RemoteVoterServer::RemoteVoterServer(VoterGroupManager* manager,
                                     Options options,
                                     std::unique_ptr<Listener> listener,
                                     std::shared_ptr<Reactor> loop)
    : manager_(manager),
      options_(options),
      listener_(std::move(listener)),
      loop_(std::move(loop)) {
  if (obs::Registry* registry = manager_->registry()) {
    // Shard servers publish the same families under a shard label, and
    // cluster nodes under a node label (both when a server is a shard of
    // a clustered node); the scrape side sums/merges families across
    // scopes for the deployment view (docs/OBSERVABILITY.md).
    std::vector<obs::Label> scope;
    if (!options_.node_id.empty()) scope.emplace_back("node", options_.node_id);
    if (!options_.metrics_scope.empty()) {
      scope.emplace_back("shard", options_.metrics_scope);
    }
    const auto name = [&scope](std::string_view family) {
      return obs::LabeledName(family, scope);
    };
    connections_gauge_ = &registry->GetGauge(name("avoc_remote_connections"));
    frames_in_ = &registry->GetCounter(name("avoc_remote_frames_in_total"));
    frames_out_ = &registry->GetCounter(name("avoc_remote_frames_out_total"));
    bytes_in_ = &registry->GetCounter(name("avoc_remote_bytes_in_total"));
    bytes_out_ = &registry->GetCounter(name("avoc_remote_bytes_out_total"));
    backpressure_counter_ =
        &registry->GetCounter(name("avoc_remote_backpressure_total"));
    dedup_replays_ =
        &registry->GetCounter(name("avoc_remote_dedup_replays_total"));
    dedup_clients_ = &registry->GetGauge(name("avoc_remote_dedup_clients"));
    for (unsigned byte = 0; byte < 0x80; ++byte) {  // in kVerbs row order
      const Verb* verb = FindVerb(static_cast<FrameType>(byte));
      if (verb == nullptr) continue;
      std::vector<obs::Label> labels = scope;
      labels.emplace_back("verb", FrameTypeName(verb->type));
      verb_latency_.push_back(&registry->GetHistogram(
          obs::LabeledName("avoc_remote_request_latency_ns", labels)));
    }
    if (!options_.metrics_scope.empty()) {
      forwarded_counter_ =
          &registry->GetCounter(name("avoc_shard_forwarded_total"));
      migrations_counter_ =
          &registry->GetCounter(name("avoc_shard_migrations_total"));
      adopted_counter_ =
          &registry->GetCounter(name("avoc_shard_adopted_total"));
      owned_groups_gauge_ = &registry->GetGauge(name("avoc_shard_groups"));
    }
    if (!options_.node_id.empty()) {
      group_migrations_out_counter_ =
          &registry->GetCounter(name("avoc_cluster_migrations_out_total"));
      group_migrations_in_counter_ =
          &registry->GetCounter(name("avoc_cluster_migrations_in_total"));
      moved_redirects_counter_ =
          &registry->GetCounter(name("avoc_cluster_moved_total"));
      replicated_applies_counter_ =
          &registry->GetCounter(name("avoc_cluster_replicated_total"));
    }
  }
  tracer_ =
      options_.tracer != nullptr ? options_.tracer : manager_->tracer();
  if (!options_.node_id.empty()) {
    node_suffix_ = " node=" + options_.node_id;
  }
}

Result<std::unique_ptr<RemoteVoterServer>> RemoteVoterServer::Start(
    VoterGroupManager* manager, uint16_t port) {
  Options options;
  options.port = port;
  return StartWithOptions(manager, options);
}

Result<std::unique_ptr<RemoteVoterServer>> RemoteVoterServer::StartWithOptions(
    VoterGroupManager* manager, Options options) {
  AVOC_ASSIGN_OR_RETURN(TcpListener listener,
                        TcpListener::Listen(options.port));
  AVOC_RETURN_IF_ERROR(listener.SetNonBlocking(true));
  AVOC_ASSIGN_OR_RETURN(std::unique_ptr<EventLoop> loop, EventLoop::Create());
  return StartOnReactor(manager, options,
                        std::make_unique<TcpListener>(std::move(listener)),
                        std::shared_ptr<Reactor>(std::move(loop)),
                        /*spawn_loop_thread=*/true);
}

Result<std::unique_ptr<RemoteVoterServer>> RemoteVoterServer::StartOnReactor(
    VoterGroupManager* manager, Options options,
    std::unique_ptr<Listener> listener, std::shared_ptr<Reactor> reactor,
    bool spawn_loop_thread) {
  if (manager == nullptr) {
    return InvalidArgumentError("server needs a group manager");
  }
  if (listener == nullptr || reactor == nullptr) {
    return InvalidArgumentError("server needs a listener and a reactor");
  }
  std::unique_ptr<RemoteVoterServer> server(new RemoteVoterServer(
      manager, options, std::move(listener), std::move(reactor)));
  RemoteVoterServer* raw = server.get();
  AVOC_RETURN_IF_ERROR(raw->loop_->Watch(
      raw->listener_->handle(), kIoRead,
      [raw](uint32_t) { raw->OnAcceptable(); }));
  if (spawn_loop_thread) {
    server->loop_thread_ = std::thread([raw] { raw->loop_->Run(); });
  }
  return server;
}

Result<std::unique_ptr<RemoteVoterServer>> RemoteVoterServer::StartShard(
    VoterGroupManager* manager, Options options,
    std::shared_ptr<Reactor> reactor) {
  if (manager == nullptr) {
    return InvalidArgumentError("shard server needs a group manager");
  }
  if (reactor == nullptr) {
    return InvalidArgumentError("shard server needs a reactor");
  }
  return std::unique_ptr<RemoteVoterServer>(new RemoteVoterServer(
      manager, std::move(options), /*listener=*/nullptr, std::move(reactor)));
}

void RemoteVoterServer::LinkShards(ShardLink link) {
  link_ = std::move(link);
  router_ = GroupRouter(link_.peers.size());
  if (owned_groups_gauge_ != nullptr) {
    owned_groups_gauge_->Set(static_cast<double>(manager_->group_count()));
  }
}

void RemoteVoterServer::LinkCluster(ClusterLink link) {
  cluster_ = std::move(link);
}

void RemoteVoterServer::Crash() {
  // Simulated power loss: no FIN handshakes, no reply flushes, no Stop()
  // protocol — sockets and state vanish.  running_ stays true so a later
  // Stop() still parks the loop and joins the thread normally; every
  // mailbox entry point checks crashed_ instead.
  crashed_ = true;
  for (auto& [fd, connection] : connections_) {
    if (connection->idle_timer != 0) loop_->CancelTimer(connection->idle_timer);
    (void)loop_->Unwatch(fd);
    connection->conn->Close();
  }
  connections_.clear();
  if (connections_gauge_ != nullptr) connections_gauge_->Set(0.0);
  if (listener_ != nullptr) {
    (void)loop_->Unwatch(listener_->handle());
    listener_->Close();
  }
  // Parked requests die with their connections; in-flight transfer
  // completions find their migration gone and drop out.
  active_migrations_.clear();
  if (tracer_ != nullptr) {
    tracer_->Event("cluster.crash", options_.node_id.empty()
                                        ? std::string("node down")
                                        : "node=" + options_.node_id);
  }
}

void RemoteVoterServer::AdoptConnection(std::shared_ptr<Transport> transport) {
  if (transport == nullptr || !transport->valid()) return;
  if (crashed_ || !running_.load() || loop_->stopped()) {
    transport->Close();
    return;
  }
  const int fd = transport->handle();
  auto connection = std::make_shared<Connection>(std::move(transport));
  connection->decoder = FrameDecoder(options_.max_frame_bytes);
  connection->id = next_conn_id_++;
  connection->last_activity_ms = loop_->now_ms();
  const Status watched = loop_->Watch(
      fd, kIoRead, [this, fd](uint32_t events) {
        OnConnectionEvent(fd, events);
      });
  if (!watched.ok()) {
    AVOC_LOG_WARN("voter server: watch failed: %s", watched.ToString().c_str());
    connection->conn->Close();
    return;
  }
  connections_.emplace(fd, std::move(connection));
  if (connections_gauge_ != nullptr) {
    connections_gauge_->Set(static_cast<double>(connections_.size()));
  }
  if (adopted_counter_ != nullptr) adopted_counter_->Increment();
  ScheduleIdleTimer(fd);
}

RemoteVoterServer::~RemoteVoterServer() { Stop(); }

void RemoteVoterServer::Stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  loop_->Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop is parked; connection state is now safe to touch here.
  for (auto& [fd, connection] : connections_) {
    (void)fd;
    connection->conn->Close();
  }
  connections_.clear();
  if (connections_gauge_ != nullptr) connections_gauge_->Set(0.0);
  if (listener_ != nullptr) listener_->Close();
}

void RemoteVoterServer::OnAcceptable() {
  for (;;) {
    auto accepted = listener_->TryAcceptTransport();
    if (!accepted.ok()) {
      if (accepted.status().code() != ErrorCode::kNotFound &&
          running_.load()) {
        AVOC_LOG_WARN("voter server: accept failed: %s",
                      accepted.status().ToString().c_str());
      }
      return;
    }
    if (!(*accepted)->SetNonBlocking(true).ok()) continue;
    if (options_.send_buffer_bytes > 0) {
      (void)(*accepted)->SetSendBufferBytes(options_.send_buffer_bytes);
    }
    AdoptConnection(std::shared_ptr<Transport>(std::move(*accepted)));
  }
}

void RemoteVoterServer::ScheduleIdleTimer(int fd) {
  if (options_.idle_timeout_ms == 0) return;
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& c = *it->second;
  // Lazy idle tracking: the timer checks last_activity_ms when it fires
  // and re-arms for the remainder, so the hot path never touches the
  // wheel.
  c.idle_timer = loop_->ScheduleTimer(options_.idle_timeout_ms, [this, fd] {
    auto found = connections_.find(fd);
    if (found == connections_.end()) return;
    Connection& conn = *found->second;
    conn.idle_timer = 0;
    const uint64_t idle_ms = loop_->now_ms() - conn.last_activity_ms;
    if (idle_ms >= options_.idle_timeout_ms) {
      CloseConnection(fd);
      return;
    }
    ScheduleIdleTimer(fd);
  });
}

void RemoteVoterServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  if (it->second->idle_timer != 0) {
    loop_->CancelTimer(it->second->idle_timer);
  }
  (void)loop_->Unwatch(fd);
  it->second->conn->Close();
  connections_.erase(it);
  if (connections_gauge_ != nullptr) {
    connections_gauge_->Set(static_cast<double>(connections_.size()));
  }
}

void RemoteVoterServer::OnConnectionEvent(int fd, uint32_t events) {
  if (events & kIoError) {
    CloseConnection(fd);
    return;
  }
  if (events & kIoWrite) {
    WritePath(fd);
    if (connections_.find(fd) == connections_.end()) return;
  }
  if (events & kIoRead) ReadPath(fd);
}

void RemoteVoterServer::ReadPath(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& c = *it->second;
  char chunk[kReadChunk];
  size_t read_total = 0;
  bool saw_eof = false;
  while (read_total < kReadBudget) {
    const IoOp op = c.conn->ReadSome(chunk, sizeof(chunk));
    if (op.kind == IoOp::Kind::kDone) {
      read_total += op.bytes;
      if (bytes_in_ != nullptr) bytes_in_->Add(op.bytes);
      if (c.mode == Connection::Mode::kBinary) {
        c.decoder.Feed(std::string_view(chunk, op.bytes));
      } else {
        c.inbuf.append(chunk, op.bytes);
      }
      continue;
    }
    if (op.kind == IoOp::Kind::kWouldBlock) break;
    saw_eof = true;  // kEof or kError: no more input either way
    break;
  }
  if (read_total > 0) {
    c.last_activity_ms = loop_->now_ms();
    ProcessInput(fd);
    if (connections_.find(fd) == connections_.end()) return;
  }
  if (saw_eof) {
    // Flush queued responses — and wait out any in-flight forwarded
    // replies — then drop the connection.
    Connection& conn = *connections_.find(fd)->second;
    if (conn.outbuf.size() == conn.out_pos && conn.replies.empty()) {
      CloseConnection(fd);
      return;
    }
    conn.want_close = true;
    UpdateInterest(fd);
  }
}

void RemoteVoterServer::ProcessInput(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& c = *it->second;
  dispatching_fd_ = fd;
  while (!c.want_close) {
    auto frame = NextRequest(c);
    if (frame.ok()) {
      if (IsLinked() && !c.pinned) {
        const Verb* verb = FindVerb(frame->type);
        const std::string_view group =
            verb != nullptr ? GroupOf(*verb, frame->payload)
                            : std::string_view();
        if (!group.empty()) {
          // The first group-addressed frame decides the home shard: the
          // whole connection migrates there (shared-nothing from here
          // on) unless replies are still pending here.
          c.pinned = true;
          const size_t owner = router_.ShardFor(group);
          if (owner != link_.index && c.replies.empty()) {
            dispatching_fd_ = -1;
            MigrateConnection(fd, owner, std::move(*frame));
            return;
          }
        }
      }
      Dispatch(c, std::move(*frame), "local");
      continue;
    }
    if (frame.status().code() == ErrorCode::kNotFound) break;
    // A malformed line costs only its own reply: line boundaries survive,
    // so the connection carries on.  Anything else lost the stream's
    // boundaries: report and hang up.
    if (c.mode != Connection::Mode::kLine ||
        frame.status().code() == ErrorCode::kOutOfRange) {
      if (tracer_ != nullptr) {
        tracer_->Event("server.poisoned_frame", frame.status().message());
      }
      c.want_close = true;
    }
    Complete(Admit(c), ErrorFrame(frame.status().message()));
  }
  dispatching_fd_ = -1;
  UpdateInterest(fd);
}

bool RemoteVoterServer::OverHighWater(const Connection& c) const {
  return c.outbuf.size() - c.out_pos > options_.write_high_water_bytes;
}

Result<Frame> RemoteVoterServer::NextRequest(Connection& c) const {
  if (c.mode == Connection::Mode::kDetecting) {
    if (c.inbuf.empty()) return NotFoundError("need more bytes");
    if (static_cast<uint8_t>(c.inbuf[0]) != kBinaryMagic[0]) {
      c.mode = Connection::Mode::kLine;
    } else {
      if (c.inbuf.size() < 2) return NotFoundError("need more bytes");
      if (static_cast<uint8_t>(c.inbuf[1]) != kBinaryMagic[1]) {
        return ParseError("bad protocol preamble");
      }
      c.mode = Connection::Mode::kBinary;
      c.decoder.Feed(std::string_view(c.inbuf).substr(2));
      c.inbuf.clear();
      c.inbuf.shrink_to_fit();
    }
  }
  if (c.mode == Connection::Mode::kBinary) return c.decoder.Next();
  const size_t newline = c.inbuf.find('\n', c.line_pos);
  const size_t line_end =
      newline == std::string::npos ? c.inbuf.size() : newline;
  if (line_end - c.line_pos > options_.max_frame_bytes) {
    // Longer than any frame body may be, newline or not: like an
    // oversized binary frame it is a protocol violation, and its bytes
    // are dropped instead of buffered.
    c.inbuf.clear();
    c.line_pos = 0;
    return OutOfRangeError(StrFormat("request line exceeds limit %zu",
                                     options_.max_frame_bytes));
  }
  if (newline == std::string::npos) {
    c.inbuf.erase(0, c.line_pos);
    c.line_pos = 0;
    return NotFoundError("need more bytes");
  }
  std::string_view line =
      std::string_view(c.inbuf).substr(c.line_pos, newline - c.line_pos);
  c.line_pos = newline + 1;
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return ParseRequestLine(line);
}

// --- the dispatch path -------------------------------------------------------

RemoteVoterServer::ReplyTo RemoteVoterServer::Admit(Connection& c) {
  ++requests_;
  if (frames_in_ != nullptr) frames_in_->Increment();
  // Every request holds a slot, so replies leave in request order however
  // late a forwarded, parked or replicated one completes.
  c.replies.emplace_back();
  return ReplyTo{this, c.conn->handle(), c.id, c.next_slot++};
}

void RemoteVoterServer::Dispatch(Connection& c, Frame frame,
                                 const char* route) {
  const ReplyTo to = Admit(c);
  if (OverHighWater(c)) {
    backpressure_.fetch_add(1);
    if (backpressure_counter_ != nullptr) backpressure_counter_->Increment();
    if (tracer_ != nullptr) tracer_->Event("server.backpressure", "busy");
    return Complete(to, ErrorFrame("busy"));
  }
  Serve(std::move(frame), to, route);
}

void RemoteVoterServer::Serve(Frame frame, const ReplyTo& to,
                              const char* route) {
  const Verb* verb = FindVerb(frame.type);
  if (verb == nullptr) {
    return Complete(to, ErrorFrame(InvalidArgumentError(
                            StrFormat("unknown frame type 0x%02x",
                                      static_cast<unsigned>(frame.type)))));
  }
  const std::string_view group = IsClustered() || IsLinked()
                                     ? GroupOf(*verb, frame.payload)
                                     : std::string_view();
  bool hold = false;
  if (IsClustered() && !group.empty()) {
    const std::string name(group);
    // Mid-migration: park the request.  It resolves to MOVED once the
    // handoff commits, or is served again if the transfer failed — the
    // client never observes the in-between.
    const auto active = active_migrations_.find(name);
    if (active != active_migrations_.end()) {
      active->second.deferred.push_back(
          ActiveMigration::Deferred{std::move(frame), to, route});
      return;
    }
    const size_t owner = cluster_.control->OwnerOf(name);
    if (owner != cluster_.node_index) {
      // Not the placement owner: redirect — even when a copy is hosted
      // here.  An aborted handoff (source crash after the destination
      // imported) can leave a stale replica behind; serving it would fork
      // the group's history, so placement always wins.
      moved_redirects_.fetch_add(1);
      if (moved_redirects_counter_ != nullptr) {
        moved_redirects_counter_->Increment();
      }
      if (tracer_ != nullptr) {
        tracer_->Event("cluster.moved",
                       StrFormat("group=%s owner=n%zu%s", name.c_str(), owner,
                                 node_suffix_.c_str()));
      }
      return Complete(
          to, Frame{FrameType::kMoved,
                    EncodeMoved(owner, cluster_.control->NodeAddress(owner))});
    }
    // Hosted here: mutating frames on a node with a hot standby execute
    // now but release their reply only after the standby acknowledged the
    // shipped frame, so a crash-and-failover never un-acknowledges data.
    // (The placement owner without the group falls through so the manager
    // reports NotFound: the group exists nowhere.)
    hold = verb->mutating && manager_->HasGroup(name) &&
           cluster_.control->HasStandby(cluster_.node_index);
  }
  if (IsLinked() && !group.empty()) {
    const size_t owner = router_.ShardFor(group);
    if (owner != link_.index) return ForwardFrame(owner, std::move(frame), to);
  }
  Reply reply = Execute(*verb, frame, route, to);
  if (!reply.has_value()) return;  // the verb completes `to` itself
  if (hold) return CompleteAfterReplication(to, frame, std::move(*reply));
  Complete(to, std::move(*reply));
}

RemoteVoterServer::Reply RemoteVoterServer::Execute(const Verb& verb,
                                                    const Frame& frame,
                                                    const char* route,
                                                    const ReplyTo& to) {
  const uint64_t begin = NowNanos();
  Call call;
  call.payload = frame.payload;
  call.route = route;
  call.to = to;
  Reply reply = [&]() -> Reply {
    if (verb.decode != nullptr) {
      const Status decoded = verb.decode(frame.payload, &call);
      if (!decoded.ok()) return ErrorFrame(decoded);
    }
    if (verb.span.empty()) return verb.run(*this, call);
    obs::ScopedSpan span(tracer_, obs::SpanKind::kServer, verb.span,
                         ParentOf(call.trace));
    span.SetDetailF("group=%s route=%s%s", call.group.c_str(), route,
                    node_suffix_.c_str());
    call.span = &span;
    return verb.run(*this, call);
  }();
  if (!verb_latency_.empty()) {
    // Exemplar: the verb span's trace id (0 when the verb was untraced),
    // linking this histogram to a TRACE_DUMP span tree.
    verb_latency_[static_cast<size_t>(&verb - kVerbs)]->RecordWithExemplar(
        NowNanos() - begin, obs::ConsumeLastTraceId());
  }
  return reply;
}

void RemoteVoterServer::Complete(const ReplyTo& to, Frame reply) {
  if (to.server != this) {
    // A forwarded request: its reply travels back to the accepting shard
    // (shard servers outlive every post; ShardedVoterServer joins every
    // loop before destroying any shard).
    to.server->loop_->Post([to, reply = std::move(reply)]() mutable {
      to.server->Complete(to, std::move(reply));
    });
    return;
  }
  auto it = connections_.find(to.fd);
  if (it == connections_.end() || it->second->id != to.conn_id) return;
  Connection& c = *it->second;
  const uint64_t position = to.slot - c.reply_base;
  if (position >= c.replies.size()) return;
  if (reply.type == FrameType::kBye) c.want_close = true;  // QUIT
  c.replies[position].ready = true;
  c.replies[position].reply = std::move(reply);
  FlushReplies(c);
  // Flush to the socket (may close on want_close) — unless ProcessInput
  // is still working through this connection and writes once at its end.
  if (to.fd != dispatching_fd_) UpdateInterest(to.fd);
}

void RemoteVoterServer::FlushReplies(Connection& c) {
  while (!c.replies.empty() && c.replies.front().ready) {
    QueueResponse(c, c.replies.front().reply);
    c.replies.pop_front();
    ++c.reply_base;
  }
}

void RemoteVoterServer::QueueResponse(Connection& c, const Frame& reply) {
  // Every reply reaches the socket through here, so this is the one
  // place a line connection's reply frames become line text.
  if (frames_out_ != nullptr) frames_out_->Increment();
  if (c.mode == Connection::Mode::kLine) {
    c.outbuf += RenderLineReply(reply);
    c.outbuf.push_back('\n');
  } else {
    AppendFrame(c.outbuf, reply.type, reply.payload);
  }
}

void RemoteVoterServer::UpdateInterest(int fd) {
  if (connections_.find(fd) == connections_.end()) return;
  // Opportunistic write: most responses fit the socket buffer, so the
  // common case never arms EPOLLOUT at all.  WritePath re-derives the
  // interest bits (and may close the connection) itself.
  WritePath(fd);
}

void RemoteVoterServer::WritePath(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& c = *it->second;
  while (c.out_pos < c.outbuf.size()) {
    const IoOp op =
        c.conn->WriteSome(c.outbuf.data() + c.out_pos,
                          c.outbuf.size() - c.out_pos);
    if (op.kind == IoOp::Kind::kDone) {
      c.out_pos += op.bytes;
      if (bytes_out_ != nullptr) bytes_out_->Add(op.bytes);
      continue;
    }
    if (op.kind == IoOp::Kind::kWouldBlock) break;
    CloseConnection(fd);
    return;
  }
  if (c.out_pos == c.outbuf.size()) {
    c.outbuf.clear();
    c.out_pos = 0;
    // Forwarded replies still in flight keep the connection alive; the
    // completing shard re-enters here once the last slot flushes.
    if (c.want_close && c.replies.empty()) {
      CloseConnection(fd);
      return;
    }
  } else if (c.out_pos > 64 * 1024 && c.out_pos > c.outbuf.size() / 2) {
    c.outbuf.erase(0, c.out_pos);
    c.out_pos = 0;
  }
  const size_t pending = c.outbuf.size() - c.out_pos;
  // Backpressure: stop reading past the pause mark, resume below half.
  if (!c.paused && pending > options_.read_pause_bytes) {
    c.paused = true;
    backpressure_.fetch_add(1);
    if (backpressure_counter_ != nullptr) backpressure_counter_->Increment();
    if (tracer_ != nullptr) {
      tracer_->Event("server.backpressure", "read_pause");
    }
  } else if (c.paused && pending <= options_.read_pause_bytes / 2) {
    c.paused = false;
  }
  uint32_t interest = 0;
  if (!c.paused && !c.want_close) interest |= kIoRead;
  if (pending > 0) interest |= kIoWrite;
  (void)loop_->SetInterest(fd, interest);
}

// --- sharded routing ---------------------------------------------------------

void RemoteVoterServer::ForwardFrame(size_t owner, Frame frame,
                                     const ReplyTo& to) {
  forwarded_.fetch_add(1);
  if (forwarded_counter_ != nullptr) forwarded_counter_->Increment();
  if (tracer_ != nullptr) {
    const std::string_view type_name = FrameTypeName(frame.type);
    tracer_->Event("shard.forward",
                   StrFormat("type=%.*s from=s%zu to=s%zu",
                             static_cast<int>(type_name.size()),
                             type_name.data(), link_.index, owner));
  }
  // Two hops, both through single-writer mailboxes: serve on the owner's
  // loop (its dedup + groups stay single-threaded), complete on ours.
  RemoteVoterServer* peer = link_.peers[owner];
  link_.reactors[owner]->Post(
      [peer, frame = std::move(frame), to]() mutable {
        peer->Serve(std::move(frame), to, "forwarded");
      });
}

void RemoteVoterServer::MigrateConnection(int fd, size_t owner, Frame frame) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  std::shared_ptr<Connection> c = std::move(it->second);
  if (c->idle_timer != 0) {
    loop_->CancelTimer(c->idle_timer);
    c->idle_timer = 0;
  }
  (void)loop_->Unwatch(fd);
  connections_.erase(it);
  if (connections_gauge_ != nullptr) {
    connections_gauge_->Set(static_cast<double>(connections_.size()));
  }
  migrations_.fetch_add(1);
  if (migrations_counter_ != nullptr) migrations_counter_->Increment();
  if (tracer_ != nullptr) {
    tracer_->Event("shard.migrate",
                   StrFormat("from=s%zu to=s%zu", link_.index, owner));
  }
  RemoteVoterServer* peer = link_.peers[owner];
  link_.reactors[owner]->Post(
      [peer, c = std::move(c), frame = std::move(frame)]() mutable {
        peer->AdoptMigrated(std::move(c), std::move(frame));
      });
}

void RemoteVoterServer::AdoptMigrated(std::shared_ptr<Connection> c,
                                      Frame frame) {
  if (crashed_ || !running_.load() || loop_->stopped()) {
    c->conn->Close();
    return;
  }
  const int fd = c->conn->handle();
  c->id = next_conn_id_++;
  c->last_activity_ms = loop_->now_ms();
  const Status watched = loop_->Watch(
      fd, kIoRead, [this, fd](uint32_t events) {
        OnConnectionEvent(fd, events);
      });
  if (!watched.ok()) {
    AVOC_LOG_WARN("voter server: migrated watch failed: %s",
                  watched.ToString().c_str());
    c->conn->Close();
    return;
  }
  auto [slot, inserted] = connections_.emplace(fd, std::move(c));
  (void)inserted;
  if (connections_gauge_ != nullptr) {
    connections_gauge_->Set(static_cast<double>(connections_.size()));
  }
  if (adopted_counter_ != nullptr) adopted_counter_->Increment();
  // The request that triggered the migration runs here first, then
  // whatever else the client already pipelined into the buffers.
  dispatching_fd_ = fd;
  Dispatch(*slot->second, std::move(frame), "migrated");
  ProcessInput(fd);
  if (connections_.find(fd) != connections_.end()) ScheduleIdleTimer(fd);
}

void RemoteVoterServer::StartHealthFanout(const ReplyTo& to) {
  // Scatter-gather: every shard reports its own groups on its own loop;
  // parts assemble on this loop when the last one lands.  The aggregate
  // is only ever touched from the origin loop thread.
  struct HealthAggregate {
    std::vector<std::string> parts;
    size_t remaining = 0;
  };
  auto aggregate = std::make_shared<HealthAggregate>();
  aggregate->parts.resize(link_.peers.size());
  aggregate->remaining = link_.peers.size();
  for (size_t shard = 0; shard < link_.peers.size(); ++shard) {
    RemoteVoterServer* peer = link_.peers[shard];
    link_.reactors[shard]->Post([peer, shard, aggregate, origin = this, to,
                                 total = link_.all_groups.size()]() {
      std::string part = peer->LocalHealthLines();
      origin->loop_->Post([aggregate, shard, part = std::move(part), origin,
                           to, total]() mutable {
        aggregate->parts[shard] = std::move(part);
        if (--aggregate->remaining > 0) return;
        std::string body = StrFormat("HEALTH %zu\n", total);
        for (const std::string& p : aggregate->parts) body += p;
        origin->Complete(to, TextFrame(body));
      });
    });
  }
}

// --- cluster mode ------------------------------------------------------------

void RemoteVoterServer::CompleteAfterReplication(const ReplyTo& to,
                                                 const Frame& frame,
                                                 Frame reply) {
  ReplicationRecord record;
  record.kind = ReplicationRecord::Kind::kFrame;
  record.frame_type = static_cast<uint8_t>(frame.type);
  record.bytes = frame.payload;
  cluster_.control->Replicate(
      cluster_.node_index, EncodeReplicationRecord(record),
      [this, to, reply = std::move(reply)](Status status) mutable {
        // The primary already applied the frame; a replication fault is
        // surfaced to telemetry but must not fail the acknowledged
        // request (failover replays converge through the dedup cache).
        if (!status.ok() && tracer_ != nullptr) {
          tracer_->Event("cluster.replicate_error", status.ToString());
        }
        Complete(to, std::move(reply));
      });
}

void RemoteVoterServer::BeginMigration(std::string group, size_t dest,
                                       std::function<void(Status)> done) {
  auto finish = [&done](Status status) {
    if (done) done(std::move(status));
  };
  if (crashed_) return finish(IoError("node crashed"));
  if (!IsClustered()) {
    return finish(
        FailedPreconditionError("MIGRATE_GROUP requires cluster mode"));
  }
  if (active_migrations_.count(group) != 0) {
    return finish(FailedPreconditionError("migration of '" + group +
                                          "' already in flight"));
  }
  const size_t owner = cluster_.control->OwnerOf(group);
  if (owner != cluster_.node_index) {
    // The operator asked the wrong node (or a stale host left over from
    // an aborted handoff): same redirect contract as data requests, so
    // tooling re-targets transparently.
    return finish(MovedError(owner, cluster_.control->NodeAddress(owner)));
  }
  if (!manager_->HasGroup(group)) {
    return finish(NotFoundError("no voter group named '" + group + "'"));
  }
  if (dest >= cluster_.control->NodeCount()) {
    return finish(InvalidArgumentError(
        StrFormat("destination node %zu out of range (cluster of %zu)", dest,
                  cluster_.control->NodeCount())));
  }
  if (dest == cluster_.node_index) {
    return finish(
        InvalidArgumentError("destination node is already the owner"));
  }
  if (!cluster_.control->NodeAlive(dest)) {
    return finish(FailedPreconditionError(
        StrFormat("destination node %zu is down", dest)));
  }
  auto blob = ExportGroupBlob(group);
  if (!blob.ok()) return finish(blob.status());
  if (tracer_ != nullptr) {
    tracer_->Event("cluster.migrate_begin",
                   StrFormat("group=%s dest=n%zu%s", group.c_str(), dest,
                             node_suffix_.c_str()));
  }
  // Quiesce: from here until FinishMigration, requests for the group park
  // in the deferred queue instead of executing (Serve).
  ActiveMigration& migration = active_migrations_[group];
  migration.dest = dest;
  migration.done.push_back(std::move(done));
  cluster_.control->TransferGroup(
      cluster_.node_index, dest, std::move(*blob),
      [this, group, dest](Status status) {
        FinishMigration(group, dest, std::move(status));
      });
}

void RemoteVoterServer::FinishMigration(const std::string& group, size_t dest,
                                        Status result) {
  const auto it = active_migrations_.find(group);
  if (it == active_migrations_.end()) return;  // swept by Crash()
  ActiveMigration migration = std::move(it->second);
  active_migrations_.erase(it);
  if (crashed_) return;
  if (result.ok()) {
    group_migrations_out_.fetch_add(1);
    if (group_migrations_out_counter_ != nullptr) {
      group_migrations_out_counter_->Increment();
    }
    (void)manager_->RemoveGroup(group);
    (void)EraseDedupForGroup(group);
    cluster_.control->CommitPlacement(group, dest);
    // The standby mirrors this node's group set: tell it to drop its copy
    // (ordered behind every earlier record through the same mailbox).
    if (cluster_.control->HasStandby(cluster_.node_index)) {
      ReplicationRecord record;
      record.kind = ReplicationRecord::Kind::kRemove;
      record.group = group;
      cluster_.control->Replicate(cluster_.node_index,
                                  EncodeReplicationRecord(record),
                                  [](Status) {});
    }
    if (tracer_ != nullptr) {
      tracer_->Event("cluster.migrate_commit",
                     StrFormat("group=%s dest=n%zu%s", group.c_str(), dest,
                               node_suffix_.c_str()));
    }
    // Parked requests resolve to MOVED; the resilient client re-resolves
    // and resubmits (dedup entries travelled with the group, so retried
    // SUBMIT_BATCH_SEQ frames replay instead of double-ingesting).
    const Frame moved{FrameType::kMoved,
                      EncodeMoved(dest, cluster_.control->NodeAddress(dest))};
    for (const ActiveMigration::Deferred& d : migration.deferred) {
      moved_redirects_.fetch_add(1);
      if (moved_redirects_counter_ != nullptr) {
        moved_redirects_counter_->Increment();
      }
      Complete(d.to, moved);
    }
  } else {
    if (tracer_ != nullptr) {
      tracer_->Event("cluster.migrate_failed",
                     StrFormat("group=%s dest=n%zu error=%s%s", group.c_str(),
                               dest, result.ToString().c_str(),
                               node_suffix_.c_str()));
    }
    // The group stays here: serve the parked requests in arrival order as
    // if the migration never happened.
    for (ActiveMigration::Deferred& d : migration.deferred) {
      Serve(std::move(d.frame), d.to, d.route);
    }
  }
  for (std::function<void(Status)>& done : migration.done) {
    if (done) done(result);
  }
}

Result<std::string> RemoteVoterServer::ExportGroupBlob(
    const std::string& group) {
  GroupStateBlob blob;
  blob.group = group;
  // Travelling dedup: every remembered ack addressed to this group moves
  // with it (collected here, erased only once the transfer committed).
  for (const auto& [client_id, dedup] : dedup_) {
    for (const auto& [seq, ack] : dedup.acks) {
      if (ack.group != group) continue;
      blob.dedup.push_back(
          GroupStateBlob::DedupEntry{client_id, seq, ack.accepted});
    }
  }
  // Encoded under the group lock: its sink rows go to the wire in place.
  std::string bytes;
  AVOC_RETURN_IF_ERROR(manager_->ExportGroupState(
      group, [&](const GroupRunner::State& state) {
        blob.state = state;
        bytes = EncodeGroupState(blob);
      }));
  return bytes;
}

Status RemoteVoterServer::ImportGroupBlob(std::string_view bytes) {
  AVOC_ASSIGN_OR_RETURN(GroupStateBlob blob, DecodeGroupState(bytes));
  if (manager_->HasGroup(blob.group)) {
    // Double-migration guard: two concurrent MIGRATE_GROUPs racing the
    // same group to different nodes fail typed on the second import.
    return FailedPreconditionError("group '" + blob.group +
                                   "' already hosted on this node");
  }
  if (!cluster_.engine_factory) {
    return FailedPreconditionError("cluster link has no engine factory");
  }
  AVOC_ASSIGN_OR_RETURN(core::VotingEngine engine,
                        cluster_.engine_factory(blob.group));
  AVOC_RETURN_IF_ERROR(manager_->AddGroup(blob.group, std::move(engine)));
  const Status restored = manager_->RestoreGroupState(blob.group, blob.state);
  if (!restored.ok()) {
    (void)manager_->RemoveGroup(blob.group);  // no half-imported groups
    return restored;
  }
  for (const GroupStateBlob::DedupEntry& entry : blob.dedup) {
    ClientDedup& dedup = dedup_[entry.client_id];
    dedup.acks[entry.seq] = ClientDedup::AckEntry{entry.accepted, blob.group};
    dedup.max_seq = std::max(dedup.max_seq, entry.seq);
  }
  if (!blob.dedup.empty() && dedup_clients_ != nullptr) {
    dedup_clients_->Set(static_cast<double>(dedup_.size()));
  }
  if (tracer_ != nullptr) {
    tracer_->Event("cluster.migrate_in",
                   StrFormat("group=%s%s", blob.group.c_str(),
                             node_suffix_.c_str()));
  }
  return Status::Ok();
}

void RemoteVoterServer::BeginImport(std::string blob,
                                    std::function<void(Status)> done) {
  if (crashed_) {
    if (done) done(IoError("node crashed"));
    return;
  }
  Status imported = ImportGroupBlob(blob);
  if (!imported.ok()) {
    if (done) done(std::move(imported));
    return;
  }
  group_migrations_in_.fetch_add(1);
  if (group_migrations_in_counter_ != nullptr) {
    group_migrations_in_counter_->Increment();
  }
  // Semi-sync: the source (and through it the operator) learns of the
  // import only after this node's standby holds the group too, so a
  // crash right after the handoff still fails over losslessly.
  if (IsClustered() && cluster_.control->HasStandby(cluster_.node_index)) {
    ReplicationRecord record;
    record.kind = ReplicationRecord::Kind::kImport;
    record.bytes = std::move(blob);
    cluster_.control->Replicate(
        cluster_.node_index, EncodeReplicationRecord(record),
        [this, done = std::move(done)](Status status) {
          if (!status.ok() && tracer_ != nullptr) {
            tracer_->Event("cluster.replicate_error", status.ToString());
          }
          if (done) done(Status::Ok());
        });
    return;
  }
  if (done) done(Status::Ok());
}

Status RemoteVoterServer::ApplyReplicated(std::string_view record_bytes) {
  if (crashed_) return IoError("standby crashed");
  AVOC_ASSIGN_OR_RETURN(ReplicationRecord record,
                        DecodeReplicationRecord(record_bytes));
  replicated_applies_.fetch_add(1);
  if (replicated_applies_counter_ != nullptr) {
    replicated_applies_counter_->Increment();
  }
  switch (record.kind) {
    case ReplicationRecord::Kind::kFrame: {
      // Re-execute the raw frame against this standby's own manager and
      // dedup map; the reply is discarded (the primary answered the
      // client).  A frame the primary rejected is rejected here too —
      // both replicas converge on the same state either way.
      const Frame frame{static_cast<FrameType>(record.frame_type),
                        std::move(record.bytes)};
      const Verb* verb = FindVerb(frame.type);
      if (verb == nullptr || !verb->mutating) {
        return InvalidArgumentError(
            StrFormat("replicated frame type 0x%02x is no mutating verb",
                      static_cast<unsigned>(frame.type)));
      }
      (void)Execute(*verb, frame, "replicated", ReplyTo{});
      return Status::Ok();
    }
    case ReplicationRecord::Kind::kImport:
      return ImportGroupBlob(record.bytes);
    case ReplicationRecord::Kind::kRemove: {
      // Tolerate a group this standby never saw (it attached mid-stream).
      (void)manager_->RemoveGroup(record.group);
      (void)EraseDedupForGroup(record.group);
      return Status::Ok();
    }
  }
  return InternalError("unreachable replication kind");
}

std::vector<GroupStateBlob::DedupEntry> RemoteVoterServer::EraseDedupForGroup(
    const std::string& group) {
  std::vector<GroupStateBlob::DedupEntry> erased;
  for (auto it = dedup_.begin(); it != dedup_.end();) {
    ClientDedup& dedup = it->second;
    for (auto ack = dedup.acks.begin(); ack != dedup.acks.end();) {
      if (ack->second.group == group) {
        erased.push_back(GroupStateBlob::DedupEntry{it->first, ack->first,
                                                    ack->second.accepted});
        ack = dedup.acks.erase(ack);
      } else {
        ++ack;
      }
    }
    // max_seq stays: the client's sequence numbers are global, not
    // per-group, so the window keeps advancing monotonically.
    it = dedup.acks.empty() ? dedup_.erase(it) : std::next(it);
  }
  if (!erased.empty() && dedup_clients_ != nullptr) {
    dedup_clients_->Set(static_cast<double>(dedup_.size()));
  }
  return erased;
}

std::string RemoteVoterServer::LocalHealthLines() const {
  std::string text;
  for (const std::string& name : manager_->GroupNames()) {
    auto runner = manager_->runner(name);
    if (!runner.ok()) continue;  // group removed mid-iteration
    const Status voter_status = (*runner)->voter().last_status();
    text += StrFormat(
        "GROUP %s modules=%zu outputs=%zu open=%zu status=%s%s\n",
        name.c_str(), (*runner)->module_count(),
        (*runner)->sink().output_count(), (*runner)->hub().open_rounds(),
        voter_status.ok() ? "ok" : "error", node_suffix_.c_str());
  }
  return text;
}

// --- the verb table --------------------------------------------------------

// Rows sit in type-byte order from 0x01 (FindVerb indexes by the byte).
// Routed verbs open their server span with the detail
// "group=<g> route=<route>[ node=<id>]" before `run`.
const RemoteVoterServer::Verb RemoteVoterServer::kVerbs[] = {
    {FrameType::kSubmitBatch, "server.submit_batch", GroupAt::kFirst,
     /*mutating=*/true,
     [](std::string_view payload, Call* call) {
       return DecodeSubmitBatch(payload, &call->group, &call->readings,
                                &call->trace);
     },
     [](RemoteVoterServer& server, Call& call) -> Reply {
       auto stats = server.manager_->SubmitBatch(call.group, call.readings);
       if (!stats.ok()) return ErrorFrame(stats.status());
       return OkFrame(stats->accepted);
     }},
    {FrameType::kClose, "server.close", GroupAt::kFirst, /*mutating=*/true,
     [](std::string_view payload, Call* call) {
       return DecodeClose(payload, &call->group, &call->lo, &call->trace);
     },
     [](RemoteVoterServer& server, Call& call) -> Reply {
       const Status closed = server.manager_->CloseRound(
           call.group, static_cast<size_t>(call.lo));
       if (!closed.ok()) return ErrorFrame(closed);
       return OkFrame(1);
     }},
    {FrameType::kQuery, "server.query", GroupAt::kFirst, /*mutating=*/false,
     [](std::string_view payload, Call* call) {
       return DecodeQuery(payload, &call->group, &call->trace);
     },
     [](RemoteVoterServer& server, Call& call) -> Reply {
       auto sink = server.manager_->sink(call.group);
       if (!sink.ok()) return ErrorFrame(sink.status());
       const auto value = (*sink)->last_value();
       if (!value.has_value()) return Frame{FrameType::kNone, {}};
       return Frame{FrameType::kValue, EncodeValue(*value)};
     }},
    {FrameType::kGroups, {}, GroupAt::kNone, /*mutating=*/false, nullptr,
     [](RemoteVoterServer& server, Call&) -> Reply {
       // Linked shards answer from the frozen global list — no fan-out
       // needed, every shard knows the whole deployment's group names.
       return Frame{FrameType::kGroupList,
                    EncodeGroupList(server.IsLinked()
                                        ? server.link_.all_groups
                                        : server.manager_->GroupNames())};
     }},
    {FrameType::kMetrics, {}, GroupAt::kNone, /*mutating=*/false, nullptr,
     [](RemoteVoterServer& server, Call&) -> Reply {
       obs::Registry* registry = server.manager_->registry();
       if (registry == nullptr) {
         return ErrorFrame(
             FailedPreconditionError("metrics disabled (no registry)"));
       }
       return TextFrame(registry->RenderPrometheus());
     }},
    {FrameType::kHealth, {}, GroupAt::kNone, /*mutating=*/false, nullptr,
     [](RemoteVoterServer& server, Call& call) -> Reply {
       if (!server.IsLinked()) {
         return TextFrame(
             StrFormat("HEALTH %zu\n", server.manager_->GroupNames().size()) +
             server.LocalHealthLines());
       }
       server.StartHealthFanout(call.to);
       return std::nullopt;
     }},
    {FrameType::kPing, {}, GroupAt::kNone, /*mutating=*/false, nullptr,
     [](RemoteVoterServer&, Call&) -> Reply {
       return Frame{FrameType::kPong, {}};
     }},
    {FrameType::kQuit, {}, GroupAt::kNone, /*mutating=*/false, nullptr,
     [](RemoteVoterServer&, Call&) -> Reply {
       return Frame{FrameType::kBye, {}};  // Complete hangs up after BYE
     }},
    {FrameType::kSubmitBatchSeq, "server.submit_batch_seq",
     GroupAt::kAfterClientSeq, /*mutating=*/true,
     [](std::string_view payload, Call* call) {
       return DecodeSubmitBatchSeq(payload, &call->client_id, &call->seq,
                                   &call->group, &call->readings,
                                   &call->trace);
     },
     // The SUBMIT_BATCH body wrapped in the dedup check.
     [](RemoteVoterServer& server, Call& call) -> Reply {
       ClientDedup& dedup = server.dedup_[call.client_id];
       if (server.dedup_clients_ != nullptr) {
         server.dedup_clients_->Set(static_cast<double>(server.dedup_.size()));
       }
       const auto seen = dedup.acks.find(call.seq);
       const bool replay = seen != dedup.acks.end();
       call.span->SetDetailF("group=%s route=%s seq=%llu dedup=%s%s",
                             call.group.c_str(), call.route,
                             static_cast<unsigned long long>(call.seq),
                             replay ? "replay" : "miss",
                             server.node_suffix_.c_str());
       if (replay) {
         // Resend after a lost reply: replay the original acknowledgement
         // without touching the engine (exactly-once ingest).
         server.dedup_replays_count_.fetch_add(1);
         if (server.dedup_replays_ != nullptr) {
           server.dedup_replays_->Increment();
         }
         return OkFrame(seen->second.accepted);
       }
       Reply reply = FindVerb(FrameType::kSubmitBatch)->run(server, call);
       uint64_t accepted = 0;
       if (reply->type != FrameType::kOk ||
           !DecodeOk(reply->payload, &accepted).ok()) {
         return reply;
       }
       dedup.acks[call.seq] = ClientDedup::AckEntry{accepted, call.group};
       dedup.max_seq = std::max(dedup.max_seq, call.seq);
       // Forget acknowledgements the client can no longer resend (it
       // advances its sequence number monotonically).
       while (!dedup.acks.empty() &&
              dedup.acks.begin()->first + server.options_.dedup_window <
                  dedup.max_seq) {
         dedup.acks.erase(dedup.acks.begin());
       }
       return reply;
     }},
    {FrameType::kQueryRange, "server.query_range", GroupAt::kFirst,
     /*mutating=*/false,
     [](std::string_view payload, Call* call) {
       return DecodeQueryRange(payload, &call->group, &call->lo, &call->hi,
                               &call->trace);
     },
     [](RemoteVoterServer& server, Call& call) -> Reply {
       const uint64_t lo = call.lo;
       const uint64_t hi = call.hi;
       if (hi < lo) {
         return ErrorFrame(
             InvalidArgumentError("QUERY_RANGE hi_round < lo_round"));
       }
       auto sink = server.manager_->sink(call.group);
       if (!sink.ok()) return ErrorFrame(sink.status());
       std::vector<RangePoint> points;
       if (storage::TraceBackend* traces = server.manager_->trace_store();
           traces != nullptr) {
         auto stored = traces->QueryTraceRange(call.group, lo, hi);
         if (!stored.ok()) return ErrorFrame(stored.status());
         points.reserve(stored->size());
         for (const storage::TracePoint& point : *stored) {
           points.push_back(RangePoint{point.round, point.value,
                                       point.engaged ? uint8_t{1}
                                                     : uint8_t{0}});
         }
       } else {
         // No trace backend wired: serve straight from the sink's
         // in-memory trace so the verb works on every deployment shape.
         (*sink)->WithTrace([&](const core::BatchTrace& trace,
                                const std::vector<size_t>& rounds) {
           for (size_t i = 0; i < rounds.size(); ++i) {
             const uint64_t round = rounds[i];
             if (round < lo || round > hi) continue;
             const auto value = trace.output(i);
             points.push_back(RangePoint{round, value.value_or(0.0),
                                         value.has_value() ? uint8_t{1}
                                                           : uint8_t{0}});
           }
         });
       }
       // A reply the client's frame decoder would refuse would poison the
       // connection; refuse it here instead, so the client can narrow the
       // window and keep the connection.
       std::string reply = EncodeRangeResult(points);
       const size_t limit = server.options_.max_frame_bytes;
       if (reply.size() + 1 > limit) {
         return ErrorFrame(OutOfRangeError(StrFormat(
             "QUERY_RANGE window holds %zu points, a %zu-byte reply over "
             "the %zu-byte frame limit; narrow the window",
             points.size(), reply.size() + 1, limit)));
       }
       return Frame{FrameType::kRangeResult, std::move(reply)};
     }},
    {FrameType::kHistoryGet, "server.history_get", GroupAt::kFirst,
     /*mutating=*/false,
     [](std::string_view payload, Call* call) {
       return DecodeHistoryGet(payload, &call->group, &call->trace);
     },
     [](RemoteVoterServer& server, Call& call) -> Reply {
       auto voter = server.manager_->voter(call.group);
       if (!voter.ok()) return ErrorFrame(voter.status());
       const core::HistoryLedger& ledger = (*voter)->engine().history();
       return Frame{FrameType::kHistory,
                    EncodeHistoryState(ledger.round_count(), ledger.records())};
     }},
    {FrameType::kTraceDump, {}, GroupAt::kNone, /*mutating=*/false, nullptr,
     [](RemoteVoterServer& server, Call&) -> Reply {
       if (server.tracer_ == nullptr) {
         return ErrorFrame(
             FailedPreconditionError("tracing disabled (no tracer)"));
       }
       // The tracer is shared across shards, so any shard's dump shows the
       // whole deployment's flight recorder.
       return TextFrame(server.tracer_->DumpText());
     }},
    // The operator verb: the group it names is the one to move, not an
    // address to route by (BeginMigration redirects a wrong node itself).
    {FrameType::kMigrateGroup, {}, GroupAt::kNone, /*mutating=*/false,
     nullptr,
     [](RemoteVoterServer& server, Call& call) -> Reply {
       if (!server.IsClustered()) {
         return ErrorFrame(
             FailedPreconditionError("MIGRATE_GROUP requires cluster mode"));
       }
       std::string group;
       uint64_t dest = 0;
       const Status decoded = DecodeMigrateGroup(call.payload, &group, &dest);
       if (!decoded.ok()) return ErrorFrame(decoded);
       // The reply waits in its slot until the destination imported the
       // group (or the attempt failed).
       server.BeginMigration(std::move(group), static_cast<size_t>(dest),
                             [&server, to = call.to](Status status) {
                               server.Complete(to, status.ok()
                                                       ? OkFrame(1)
                                                       : ErrorFrame(status));
                             });
       return std::nullopt;
     }},
};

const RemoteVoterServer::Verb* RemoteVoterServer::FindVerb(FrameType type) {
  const size_t index = static_cast<size_t>(type) - 1;
  if (index >= std::size(kVerbs) || kVerbs[index].type != type) {
    return nullptr;
  }
  return &kVerbs[index];
}

std::string_view RemoteVoterServer::GroupOf(const Verb& verb,
                                            std::string_view payload) {
  if (verb.group_at == GroupAt::kNone) return {};
  PayloadReader reader(payload);
  if (verb.group_at == GroupAt::kAfterClientSeq &&
      (!reader.ReadString().ok() || !reader.ReadVarint().ok())) {
    return {};
  }
  auto group = reader.ReadString();
  return group.ok() ? *group : std::string_view();
}

// --- client ------------------------------------------------------------------

Result<RemoteVoterClient> RemoteVoterClient::ConnectBinary(
    const std::string& host, uint16_t port) {
  AVOC_ASSIGN_OR_RETURN(TcpConnection connection,
                        TcpConnection::Connect(host, port));
  return FromTransport(std::make_unique<TcpConnection>(std::move(connection)));
}

Result<RemoteVoterClient> RemoteVoterClient::FromTransport(
    std::unique_ptr<Transport> transport) {
  if (transport == nullptr || !transport->valid()) {
    return InvalidArgumentError("client needs a connected transport");
  }
  const char preamble[2] = {static_cast<char>(kBinaryMagic[0]),
                            static_cast<char>(kBinaryMagic[1])};
  AVOC_RETURN_IF_ERROR(
      transport->SendAll(std::string_view(preamble, sizeof(preamble))));
  return RemoteVoterClient(std::move(transport));
}

Status RemoteVoterClient::SetRequestTimeoutMs(int timeout_ms) {
  return connection_->SetReceiveTimeoutMs(timeout_ms);
}

Result<Frame> RemoteVoterClient::ReadFrame() {
  for (;;) {
    auto frame = decoder_.Next();
    if (frame.ok()) return frame;
    if (frame.status().code() != ErrorCode::kNotFound) return frame.status();
    char chunk[4096];
    AVOC_ASSIGN_OR_RETURN(const size_t n,
                          connection_->ReceiveSome(chunk, sizeof(chunk)));
    decoder_.Feed(std::string_view(chunk, n));
  }
}

Result<Frame> RemoteVoterClient::CheckFrame(Frame frame, FrameType expected) {
  if (frame.type == FrameType::kMoved) {
    uint64_t node = 0;
    std::string address;
    if (!DecodeMoved(frame.payload, &node, &address).ok()) {
      return FailedPreconditionError("server: <malformed MOVED frame>");
    }
    // Cluster redirect: surfaces as the machine-parseable MOVED status so
    // ResilientVoterClient re-resolves the node and resubmits; a plain
    // client sees a typed FailedPrecondition naming the owner.
    return MovedError(node, address);
  }
  if (frame.type == FrameType::kError) {
    std::string reason;
    if (!DecodeError(frame.payload, &reason).ok()) {
      reason = "<malformed ERR frame>";
    }
    // Application error: the transport is healthy, the server said no.
    return FailedPreconditionError("server: " + reason);
  }
  if (frame.type != expected) {
    const std::string_view got = FrameTypeName(frame.type);
    const std::string_view want = FrameTypeName(expected);
    return IoError(StrFormat("unexpected %.*s frame, expected %.*s",
                             static_cast<int>(got.size()), got.data(),
                             static_cast<int>(want.size()), want.data()));
  }
  return frame;
}

Result<Frame> RemoteVoterClient::FrameRoundTrip(FrameType type,
                                                std::string_view payload,
                                                FrameType expected) {
  AVOC_RETURN_IF_ERROR(connection_->SendAll(EncodeFrame(type, payload)));
  AVOC_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  return CheckFrame(std::move(frame), expected);
}

Result<std::string> RemoteVoterClient::TextRoundTrip(FrameType type) {
  AVOC_ASSIGN_OR_RETURN(const Frame frame,
                        FrameRoundTrip(type, {}, FrameType::kText));
  std::string text;
  AVOC_RETURN_IF_ERROR(DecodeText(frame.payload, &text));
  return text;
}

Status RemoteVoterClient::Submit(const std::string& group, size_t module,
                                 size_t round, double value) {
  const BatchReading reading{module, round, value};
  AVOC_ASSIGN_OR_RETURN(const uint64_t accepted,
                        SubmitBatch(group, {&reading, 1}));
  if (accepted != 1) return IoError("reading not accepted");
  return Status::Ok();
}

Result<uint64_t> RemoteVoterClient::SubmitBatch(
    const std::string& group, std::span<const BatchReading> readings) {
  AVOC_RETURN_IF_ERROR(PipelineSubmitBatch(group, readings));
  return AwaitSubmitBatch();
}

Result<uint64_t> RemoteVoterClient::SubmitBatchSeq(
    std::string_view client_id, uint64_t seq, const std::string& group,
    std::span<const BatchReading> readings, const WireTraceContext* trace) {
  AVOC_ASSIGN_OR_RETURN(
      const Frame frame,
      FrameRoundTrip(
          FrameType::kSubmitBatchSeq,
          EncodeSubmitBatchSeq(client_id, seq, group, readings, trace),
          FrameType::kOk));
  uint64_t accepted = 0;
  AVOC_RETURN_IF_ERROR(DecodeOk(frame.payload, &accepted));
  return accepted;
}

Status RemoteVoterClient::PipelineSubmitBatch(
    const std::string& group, std::span<const BatchReading> readings) {
  AVOC_RETURN_IF_ERROR(connection_->SendAll(EncodeFrame(
      FrameType::kSubmitBatch, EncodeSubmitBatch(group, readings))));
  ++pending_submits_;
  return Status::Ok();
}

Result<uint64_t> RemoteVoterClient::AwaitSubmitBatch() {
  if (pending_submits_ == 0) {
    return FailedPreconditionError("no pipelined SUBMIT_BATCH pending");
  }
  --pending_submits_;
  AVOC_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  AVOC_ASSIGN_OR_RETURN(frame, CheckFrame(std::move(frame), FrameType::kOk));
  uint64_t accepted = 0;
  AVOC_RETURN_IF_ERROR(DecodeOk(frame.payload, &accepted));
  return accepted;
}

Status RemoteVoterClient::CloseRound(const std::string& group, size_t round) {
  return FrameRoundTrip(FrameType::kClose, EncodeClose(group, round),
                        FrameType::kOk)
      .status();
}

Status RemoteVoterClient::MigrateGroup(const std::string& group,
                                       uint64_t dest_node) {
  return FrameRoundTrip(FrameType::kMigrateGroup,
                        EncodeMigrateGroup(group, dest_node), FrameType::kOk)
      .status();
}

Result<double> RemoteVoterClient::Query(const std::string& group) {
  AVOC_RETURN_IF_ERROR(connection_->SendAll(
      EncodeFrame(FrameType::kQuery, EncodeQuery(group))));
  AVOC_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  if (frame.type == FrameType::kNone) {
    return NotFoundError("no fused value yet");
  }
  AVOC_ASSIGN_OR_RETURN(frame, CheckFrame(std::move(frame), FrameType::kValue));
  double value = 0.0;
  AVOC_RETURN_IF_ERROR(DecodeValue(frame.payload, &value));
  return value;
}

Result<std::vector<RangePoint>> RemoteVoterClient::QueryRange(
    const std::string& group, uint64_t lo_round, uint64_t hi_round) {
  AVOC_ASSIGN_OR_RETURN(
      const Frame frame,
      FrameRoundTrip(FrameType::kQueryRange,
                     EncodeQueryRange(group, lo_round, hi_round),
                     FrameType::kRangeResult));
  std::vector<RangePoint> points;
  AVOC_RETURN_IF_ERROR(DecodeRangeResult(frame.payload, &points));
  return points;
}

Result<RemoteVoterClient::RemoteHistory> RemoteVoterClient::HistoryGet(
    const std::string& group) {
  AVOC_ASSIGN_OR_RETURN(const Frame frame,
                        FrameRoundTrip(FrameType::kHistoryGet,
                                       EncodeHistoryGet(group),
                                       FrameType::kHistory));
  RemoteHistory history;
  AVOC_RETURN_IF_ERROR(
      DecodeHistoryState(frame.payload, &history.rounds, &history.records));
  return history;
}

Result<std::vector<std::string>> RemoteVoterClient::Groups() {
  AVOC_ASSIGN_OR_RETURN(
      const Frame frame,
      FrameRoundTrip(FrameType::kGroups, {}, FrameType::kGroupList));
  std::vector<std::string> groups;
  AVOC_RETURN_IF_ERROR(DecodeGroupList(frame.payload, &groups));
  return groups;
}

Status RemoteVoterClient::Ping() {
  return FrameRoundTrip(FrameType::kPing, {}, FrameType::kPong).status();
}

Result<std::string> RemoteVoterClient::Metrics() {
  return TextRoundTrip(FrameType::kMetrics);
}

Result<std::string> RemoteVoterClient::TraceDump() {
  return TextRoundTrip(FrameType::kTraceDump);
}

Result<std::vector<std::string>> RemoteVoterClient::Health() {
  AVOC_ASSIGN_OR_RETURN(const std::string text,
                        TextRoundTrip(FrameType::kHealth));
  std::vector<std::string> lines;
  for (const std::string& line : SplitString(text, '\n')) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty() || !StartsWith(lines[0], "HEALTH ")) {
    return IoError("unexpected response: " +
                   (lines.empty() ? std::string("<empty>") : lines[0]));
  }
  lines.erase(lines.begin());
  return lines;
}

}  // namespace avoc::runtime
