#include "runtime/remote.h"

#include <algorithm>
#include <chrono>

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

/// Per-verb accounting for the broken-out QUERY_RANGE / HISTORY_GET
/// families: counts on entry, records wall latency on scope exit.
class VerbTimer {
 public:
  VerbTimer(obs::Counter* requests, obs::LatencyHistogram* latency)
      : latency_(latency), begin_(latency != nullptr ? NowNanos() : 0) {
    if (requests != nullptr) requests->Increment();
  }
  ~VerbTimer() {
    if (latency_ != nullptr) latency_->Record(NowNanos() - begin_);
  }
  VerbTimer(const VerbTimer&) = delete;
  VerbTimer& operator=(const VerbTimer&) = delete;

 private:
  obs::LatencyHistogram* latency_;
  uint64_t begin_;
};

/// The target group of a frame, or "" for group-less verbs (and for
/// malformed payloads, which then fail decoding on the local shard).
/// Group-addressed payloads lead with the group id (or client id + seq
/// for SUBMIT_BATCH_SEQ) precisely so routing never decodes readings.
std::string PeekFrameGroup(const Frame& frame) {
  PayloadReader reader(frame.payload);
  switch (frame.type) {
    case FrameType::kSubmitBatch:
    case FrameType::kClose:
    case FrameType::kQuery:
    case FrameType::kQueryRange:
    case FrameType::kHistoryGet: {
      auto group = reader.ReadString();
      return group.ok() ? std::string(*group) : std::string();
    }
    case FrameType::kSubmitBatchSeq: {
      if (!reader.ReadString().ok()) return {};  // client id
      if (!reader.ReadVarint().ok()) return {};  // sequence number
      auto group = reader.ReadString();
      return group.ok() ? std::string(*group) : std::string();
    }
    default:
      return {};
  }
}

/// An encoded reply frame as its line-protocol text (newline included):
/// the reply encoder of line connections.
std::string LineReply(std::string_view encoded) {
  FrameDecoder decoder;
  decoder.Feed(encoded);
  auto frame = decoder.Next();
  std::string line =
      frame.ok() ? RenderLineReply(*frame) : "ERR malformed reply frame";
  line.push_back('\n');
  return line;
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
    const auto name = [this](const char* family) {
      const bool sharded = !options_.metrics_scope.empty();
      const bool noded = !options_.node_id.empty();
      if (sharded && noded) {
        return obs::LabeledName(family, "node", options_.node_id, "shard",
                                options_.metrics_scope);
      }
      if (sharded) {
        return obs::LabeledName(family, "shard", options_.metrics_scope);
      }
      if (noded) return obs::LabeledName(family, "node", options_.node_id);
      return std::string(family);
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
    request_latency_ =
        &registry->GetHistogram(name("avoc_remote_request_latency_ns"));
    query_range_requests_ =
        &registry->GetCounter(name("avoc_remote_query_range_requests_total"));
    history_get_requests_ =
        &registry->GetCounter(name("avoc_remote_history_get_requests_total"));
    query_range_latency_ =
        &registry->GetHistogram(name("avoc_remote_query_range_latency_ns"));
    history_get_latency_ =
        &registry->GetHistogram(name("avoc_remote_history_get_latency_ns"));
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
  if (c.mode == Connection::Mode::kDetecting) {
    if (c.inbuf.empty()) return;
    if (static_cast<uint8_t>(c.inbuf[0]) != kBinaryMagic[0]) {
      c.mode = Connection::Mode::kLine;
    } else {
      if (c.inbuf.size() < 2) return;  // wait for the second magic byte
      if (static_cast<uint8_t>(c.inbuf[1]) != kBinaryMagic[1]) {
        QueueResponse(c, EncodeFrame(FrameType::kError,
                                     EncodeError("bad protocol preamble")));
        c.want_close = true;
        UpdateInterest(fd);
        return;
      }
      c.mode = Connection::Mode::kBinary;
      if (c.inbuf.size() > 2) {
        c.decoder.Feed(std::string_view(c.inbuf).substr(2));
      }
      c.inbuf.clear();
      c.inbuf.shrink_to_fit();
    }
  }
  ProcessRequests(fd);
  UpdateInterest(fd);
}

bool RemoteVoterServer::OverHighWater(const Connection& c) const {
  return c.outbuf.size() - c.out_pos > options_.write_high_water_bytes;
}

Result<Frame> RemoteVoterServer::NextRequest(Connection& c) const {
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

void RemoteVoterServer::ProcessRequests(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& c = *it->second;
  while (!c.want_close) {
    auto frame = NextRequest(c);
    if (!frame.ok()) {
      if (frame.status().code() == ErrorCode::kNotFound) break;
      if (c.mode == Connection::Mode::kLine &&
          frame.status().code() != ErrorCode::kOutOfRange) {
        // A malformed line costs only its own reply: line boundaries
        // survive, so the connection carries on.
        ++requests_;
        DeliverResponse(c, EncodeFrame(FrameType::kError,
                                       EncodeError(frame.status().message())));
        continue;
      }
      // Protocol violation: boundaries are lost, report and hang up.
      if (tracer_ != nullptr) {
        tracer_->Event("server.poisoned_frame", frame.status().message());
      }
      DeliverResponse(
          c, EncodeFrame(FrameType::kError,
                         EncodeError(frame.status().message())));
      c.want_close = true;
      break;
    }
    if (IsLinked()) {
      if (frame->type == FrameType::kHealth) {
        ++requests_;
        if (frames_in_ != nullptr) frames_in_->Increment();
        StartHealthFanout(fd, c);
        continue;
      }
      const std::string group = PeekFrameGroup(*frame);
      if (!group.empty()) {
        const size_t owner = router_.ShardFor(group);
        if (!c.pinned) {
          // First group-addressed frame decides the home shard: migrate
          // the whole connection there (shared-nothing from here on).
          c.pinned = true;
          if (owner != link_.index) {
            MigrateConnection(fd, owner, std::move(*frame));
            return;
          }
        } else if (owner != link_.index) {
          ++requests_;
          if (frames_in_ != nullptr) frames_in_->Increment();
          if (OverHighWater(c)) {
            backpressure_.fetch_add(1);
            if (backpressure_counter_ != nullptr) {
              backpressure_counter_->Increment();
            }
            if (tracer_ != nullptr) {
              tracer_->Event("server.backpressure", "busy");
            }
            DeliverResponse(
                c, EncodeFrame(FrameType::kError, EncodeError("busy")));
            continue;
          }
          ForwardFrame(fd, c, owner, std::move(*frame));
          continue;
        }
      }
    }
    ExecuteFrameLocally(c, *frame);
  }
}

void RemoteVoterServer::ExecuteFrameLocally(Connection& c, const Frame& frame,
                                            const char* route) {
  if (IsClustered() && ClusterIntercept(c.conn->handle(), c, frame)) return;
  ++requests_;
  if (frames_in_ != nullptr) frames_in_->Increment();
  std::string response;
  bool close_after = false;
  if (OverHighWater(c)) {
    backpressure_.fetch_add(1);
    if (backpressure_counter_ != nullptr) {
      backpressure_counter_->Increment();
    }
    if (tracer_ != nullptr) tracer_->Event("server.backpressure", "busy");
    response = EncodeFrame(FrameType::kError, EncodeError("busy"));
  } else {
    const uint64_t begin = NowNanos();
    response = HandleFrame(frame, &close_after, route);
    if (request_latency_ != nullptr) {
      // Exemplar: the verb span's trace id (0 when the verb was
      // untraced), linking this histogram to a TRACE_DUMP span tree.
      request_latency_->RecordWithExemplar(NowNanos() - begin,
                                           obs::ConsumeLastTraceId());
    }
  }
  if (frames_out_ != nullptr) frames_out_->Increment();
  if (close_after) c.want_close = true;
  DeliverResponse(c, std::move(response));
}

void RemoteVoterServer::QueueResponse(Connection& c, std::string bytes) {
  // Every reply reaches the socket through here, so this is the one
  // place a line connection's reply frames become line text.
  if (c.mode == Connection::Mode::kLine) bytes = LineReply(bytes);
  if (c.outbuf.empty()) {
    c.outbuf = std::move(bytes);
    c.out_pos = 0;
  } else {
    c.outbuf.append(bytes);
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

void RemoteVoterServer::DeliverResponse(Connection& c, std::string bytes) {
  if (c.replies.empty()) {
    QueueResponse(c, std::move(bytes));
    return;
  }
  // A forwarded reply is still pending ahead of us: take a slot behind it
  // so the client sees responses in request order.  No flush needed — the
  // front slot is pending by invariant.
  c.replies.emplace_back();
  c.replies.back().ready = true;
  c.replies.back().bytes = std::move(bytes);
  ++c.next_slot;
}

uint64_t RemoteVoterServer::AllocatePendingSlot(Connection& c) {
  c.replies.emplace_back();
  return c.next_slot++;
}

void RemoteVoterServer::FlushReplies(Connection& c) {
  while (!c.replies.empty() && c.replies.front().ready) {
    QueueResponse(c, std::move(c.replies.front().bytes));
    c.replies.pop_front();
    ++c.reply_base;
  }
}

void RemoteVoterServer::CompleteReply(int fd, uint64_t conn_id, uint64_t slot,
                                      std::string bytes) {
  auto it = connections_.find(fd);
  if (it == connections_.end() || it->second->id != conn_id) return;
  Connection& c = *it->second;
  const uint64_t position = slot - c.reply_base;
  if (position >= c.replies.size()) return;
  c.replies[position].ready = true;
  c.replies[position].bytes = std::move(bytes);
  FlushReplies(c);
  UpdateInterest(fd);  // flush to the socket; may close on want_close
}

void RemoteVoterServer::ForwardFrame(int fd, Connection& c, size_t owner,
                                     Frame frame) {
  forwarded_.fetch_add(1);
  if (forwarded_counter_ != nullptr) forwarded_counter_->Increment();
  if (tracer_ != nullptr) {
    const std::string_view type_name = FrameTypeName(frame.type);
    tracer_->Event("shard.forward",
                   StrFormat("type=%.*s from=s%zu to=s%zu",
                             static_cast<int>(type_name.size()),
                             type_name.data(), link_.index, owner));
  }
  const uint64_t slot = AllocatePendingSlot(c);
  RemoteVoterServer* peer = link_.peers[owner];
  // Two hops, both through single-writer mailboxes: execute on the
  // owner's loop (its dedup + groups stay single-threaded), complete on
  // ours.  Shard servers outlive both posts (ShardedVoterServer joins
  // every loop before destroying any shard).
  link_.reactors[owner]->Post(
      [peer, frame = std::move(frame), origin = this,
       origin_reactor = loop_, fd, conn_id = c.id, slot]() mutable {
        bool close_after = false;
        std::string response =
            peer->HandleFrame(frame, &close_after, "forwarded");
        origin_reactor->Post([origin, fd, conn_id, slot,
                              response = std::move(response)]() mutable {
          origin->CompleteReply(fd, conn_id, slot, std::move(response));
        });
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
  Connection& conn = *slot->second;
  // The request that triggered the migration executes here first, then
  // whatever else the client already pipelined into the buffers.
  ExecuteFrameLocally(conn, frame, "migrated");
  ProcessInput(fd);
  if (connections_.find(fd) != connections_.end()) {
    UpdateInterest(fd);
    if (connections_.find(fd) != connections_.end()) ScheduleIdleTimer(fd);
  }
}

void RemoteVoterServer::StartHealthFanout(int fd, Connection& c) {
  // Scatter-gather: every shard reports its own groups on its own loop;
  // parts assemble on this loop when the last one lands.  The aggregate
  // is only ever touched from the origin loop thread.
  struct HealthAggregate {
    std::vector<std::string> parts;
    size_t remaining = 0;
  };
  const uint64_t slot = AllocatePendingSlot(c);
  auto aggregate = std::make_shared<HealthAggregate>();
  aggregate->parts.resize(link_.peers.size());
  aggregate->remaining = link_.peers.size();
  for (size_t shard = 0; shard < link_.peers.size(); ++shard) {
    RemoteVoterServer* peer = link_.peers[shard];
    link_.reactors[shard]->Post(
        [peer, shard, aggregate, origin = this, origin_reactor = loop_, fd,
         conn_id = c.id, slot, total = link_.all_groups.size()]() {
          std::string part = peer->LocalHealthLines();
          origin_reactor->Post([aggregate, shard, part = std::move(part),
                                origin, fd, conn_id, slot,
                                total]() mutable {
            aggregate->parts[shard] = std::move(part);
            if (--aggregate->remaining > 0) return;
            std::string body = StrFormat("HEALTH %zu\n", total);
            for (const std::string& p : aggregate->parts) body += p;
            origin->CompleteReply(
                fd, conn_id, slot,
                EncodeFrame(FrameType::kText, EncodeText(body)));
          });
        });
  }
}

// --- cluster mode ------------------------------------------------------------

namespace {

/// Frames that change group state; these replicate to the hot standby
/// before their reply releases (semi-synchronous replication).
bool IsMutatingFrame(FrameType type) {
  return type == FrameType::kSubmitBatch ||
         type == FrameType::kSubmitBatchSeq || type == FrameType::kClose;
}

}  // namespace

bool RemoteVoterServer::ClusterIntercept(int fd, Connection& c,
                                         const Frame& frame) {
  if (frame.type == FrameType::kMigrateGroup) {
    ++requests_;
    if (frames_in_ != nullptr) frames_in_->Increment();
    std::string group;
    uint64_t dest = 0;
    const Status decoded = DecodeMigrateGroup(frame.payload, &group, &dest);
    if (!decoded.ok()) {
      if (frames_out_ != nullptr) frames_out_->Increment();
      DeliverResponse(c, EncodeFrame(FrameType::kError,
                                     EncodeError(decoded.ToString())));
      return true;
    }
    // The verb completes only once the destination imported the group (or
    // the attempt failed), so the reply occupies a slot like a forwarded
    // request.
    const uint64_t slot = AllocatePendingSlot(c);
    BeginMigration(std::move(group), static_cast<size_t>(dest),
                   [this, fd, conn_id = c.id, slot](Status status) {
                     if (frames_out_ != nullptr) frames_out_->Increment();
                     std::string response =
                         status.ok()
                             ? EncodeFrame(FrameType::kOk, EncodeOk(1))
                             : EncodeFrame(FrameType::kError,
                                           EncodeError(status.ToString()));
                     CompleteReply(fd, conn_id, slot, std::move(response));
                   });
    return true;
  }
  const std::string group = PeekFrameGroup(frame);
  if (group.empty()) return false;  // group-less verbs answer locally
  // Mid-migration: park the request.  It resolves to MOVED once the
  // handoff commits, or executes locally if the transfer failed — the
  // client never observes the in-between.
  const auto active = active_migrations_.find(group);
  if (active != active_migrations_.end()) {
    ++requests_;
    if (frames_in_ != nullptr) frames_in_->Increment();
    const uint64_t slot = AllocatePendingSlot(c);
    active->second.deferred.push_back(
        ActiveMigration::Deferred{fd, c.id, slot, frame});
    return true;
  }
  const size_t owner = cluster_.control->OwnerOf(group);
  if (owner != cluster_.node_index) {
    // Not the placement owner: redirect — even when a copy is hosted
    // here.  An aborted handoff (source crash after the destination
    // imported) can leave a stale replica behind; serving it would fork
    // the group's history, so placement always wins.
    ++requests_;
    if (frames_in_ != nullptr) frames_in_->Increment();
    moved_redirects_.fetch_add(1);
    if (moved_redirects_counter_ != nullptr) {
      moved_redirects_counter_->Increment();
    }
    if (tracer_ != nullptr) {
      tracer_->Event("cluster.moved",
                     StrFormat("group=%s owner=n%zu%s", group.c_str(), owner,
                               node_suffix_.c_str()));
    }
    if (frames_out_ != nullptr) frames_out_->Increment();
    DeliverResponse(
        c, EncodeFrame(FrameType::kMoved,
                       EncodeMoved(owner, cluster_.control->NodeAddress(owner))));
    return true;
  }
  // The placement owner without the group: fall through so the manager
  // reports NotFound (the group exists nowhere).
  if (!manager_->HasGroup(group)) return false;
  // Hosted here.  Mutating frames on a node with a hot standby execute
  // now but release their reply only after the standby acknowledged the
  // shipped record, so a crash-and-failover never un-acknowledges data.
  if (IsMutatingFrame(frame.type) &&
      cluster_.control->HasStandby(cluster_.node_index)) {
    ++requests_;
    if (frames_in_ != nullptr) frames_in_->Increment();
    if (OverHighWater(c)) {
      backpressure_.fetch_add(1);
      if (backpressure_counter_ != nullptr) backpressure_counter_->Increment();
      if (tracer_ != nullptr) tracer_->Event("server.backpressure", "busy");
      if (frames_out_ != nullptr) frames_out_->Increment();
      DeliverResponse(c, EncodeFrame(FrameType::kError, EncodeError("busy")));
      return true;
    }
    const uint64_t begin = NowNanos();
    bool close_after = false;
    std::string response = HandleFrame(frame, &close_after, "local");
    if (request_latency_ != nullptr) {
      request_latency_->RecordWithExemplar(NowNanos() - begin,
                                           obs::ConsumeLastTraceId());
    }
    if (frames_out_ != nullptr) frames_out_->Increment();
    if (close_after) c.want_close = true;
    const uint64_t slot = AllocatePendingSlot(c);
    CompleteAfterReplication(fd, c.id, slot, frame, std::move(response));
    return true;
  }
  return false;
}

void RemoteVoterServer::CompleteAfterReplication(int fd, uint64_t conn_id,
                                                 uint64_t slot,
                                                 const Frame& frame,
                                                 std::string response) {
  ReplicationRecord record;
  record.kind = ReplicationRecord::Kind::kFrame;
  record.frame_type = static_cast<uint8_t>(frame.type);
  record.bytes = frame.payload;
  cluster_.control->Replicate(
      cluster_.node_index, EncodeReplicationRecord(record),
      [this, fd, conn_id, slot, response = std::move(response)](
          Status status) mutable {
        // The primary already applied the frame; a replication fault is
        // surfaced to telemetry but must not fail the acknowledged
        // request (failover replays converge through the dedup cache).
        if (!status.ok() && tracer_ != nullptr) {
          tracer_->Event("cluster.replicate_error", status.ToString());
        }
        CompleteReply(fd, conn_id, slot, std::move(response));
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
  // in the deferred queue instead of executing (ClusterIntercept).
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
    const std::string moved = EncodeFrame(
        FrameType::kMoved,
        EncodeMoved(dest, cluster_.control->NodeAddress(dest)));
    for (ActiveMigration::Deferred& d : migration.deferred) {
      moved_redirects_.fetch_add(1);
      if (moved_redirects_counter_ != nullptr) {
        moved_redirects_counter_->Increment();
      }
      if (frames_out_ != nullptr) frames_out_->Increment();
      CompleteReply(d.fd, d.conn_id, d.slot, moved);
    }
  } else {
    if (tracer_ != nullptr) {
      tracer_->Event("cluster.migrate_failed",
                     StrFormat("group=%s dest=n%zu error=%s%s", group.c_str(),
                               dest, result.ToString().c_str(),
                               node_suffix_.c_str()));
    }
    // The group stays here: run the parked requests in arrival order as
    // if the migration never happened.
    for (ActiveMigration::Deferred& d : migration.deferred) {
      bool close_after = false;
      std::string response = HandleFrame(d.frame, &close_after, "local");
      if (frames_out_ != nullptr) frames_out_->Increment();
      if (IsMutatingFrame(d.frame.type) &&
          cluster_.control->HasStandby(cluster_.node_index)) {
        CompleteAfterReplication(d.fd, d.conn_id, d.slot, d.frame,
                                 std::move(response));
      } else {
        CompleteReply(d.fd, d.conn_id, d.slot, std::move(response));
      }
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
  AVOC_ASSIGN_OR_RETURN(blob.state, manager_->ExportGroupState(group));
  // Travelling dedup: every remembered ack addressed to this group moves
  // with it (collected here, erased only once the transfer committed).
  for (const auto& [client_id, dedup] : dedup_) {
    for (const auto& [seq, ack] : dedup.acks) {
      if (ack.group != group) continue;
      blob.dedup.push_back(
          GroupStateBlob::DedupEntry{client_id, seq, ack.accepted});
    }
  }
  return EncodeGroupState(blob);
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
      // dedup map; the response is discarded (the primary answered the
      // client).  A frame the primary rejected is rejected here too —
      // both replicas converge on the same state either way.
      Frame frame;
      frame.type = static_cast<FrameType>(record.frame_type);
      frame.payload = std::move(record.bytes);
      bool close_after = false;
      (void)HandleFrame(frame, &close_after, "replicated");
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

std::string RemoteVoterServer::HealthText() const {
  return StrFormat("HEALTH %zu\n", manager_->GroupNames().size()) +
         LocalHealthLines();
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

std::string RemoteVoterServer::HandleFrame(const Frame& frame,
                                           bool* close_after,
                                           const char* route) {
  auto error = [](const Status& status) {
    return EncodeFrame(FrameType::kError, EncodeError(status.ToString()));
  };
  switch (frame.type) {
    case FrameType::kPing:
      return EncodeFrame(FrameType::kPong);
    case FrameType::kQuit:
      *close_after = true;
      return EncodeFrame(FrameType::kBye);
    case FrameType::kSubmitBatch: {
      std::string group;
      std::vector<BatchReading> readings;
      WireTraceContext trace;
      const Status decoded =
          DecodeSubmitBatch(frame.payload, &group, &readings, &trace);
      if (!decoded.ok()) return error(decoded);
      obs::ScopedSpan span(tracer_, obs::SpanKind::kServer,
                           "server.submit_batch", ParentOf(trace));
      span.SetDetailF("group=%s route=%s%s", group.c_str(), route,
                      node_suffix_.c_str());
      auto stats = manager_->SubmitBatch(group, readings);
      if (!stats.ok()) return error(stats.status());
      return EncodeFrame(FrameType::kOk, EncodeOk(stats->accepted));
    }
    case FrameType::kSubmitBatchSeq: {
      std::string client_id;
      uint64_t seq = 0;
      std::string group;
      std::vector<BatchReading> readings;
      WireTraceContext trace;
      const Status decoded = DecodeSubmitBatchSeq(
          frame.payload, &client_id, &seq, &group, &readings, &trace);
      if (!decoded.ok()) return error(decoded);
      obs::ScopedSpan span(tracer_, obs::SpanKind::kServer,
                           "server.submit_batch_seq", ParentOf(trace));
      ClientDedup& dedup = dedup_[client_id];
      if (dedup_clients_ != nullptr) {
        dedup_clients_->Set(static_cast<double>(dedup_.size()));
      }
      const auto seen = dedup.acks.find(seq);
      if (seen != dedup.acks.end()) {
        // Resend after a lost reply: replay the original acknowledgement
        // without touching the engine (exactly-once ingest).
        dedup_replays_count_.fetch_add(1);
        if (dedup_replays_ != nullptr) dedup_replays_->Increment();
        span.SetDetailF("group=%s route=%s seq=%llu dedup=replay%s",
                        group.c_str(), route,
                        static_cast<unsigned long long>(seq),
                        node_suffix_.c_str());
        return EncodeFrame(FrameType::kOk, EncodeOk(seen->second.accepted));
      }
      span.SetDetailF("group=%s route=%s seq=%llu dedup=miss%s",
                      group.c_str(), route,
                      static_cast<unsigned long long>(seq),
                      node_suffix_.c_str());
      auto stats = manager_->SubmitBatch(group, readings);
      if (!stats.ok()) return error(stats.status());
      dedup.acks[seq] = ClientDedup::AckEntry{stats->accepted, group};
      dedup.max_seq = std::max(dedup.max_seq, seq);
      // Forget acknowledgements the client can no longer resend (it
      // advances its sequence number monotonically).
      while (!dedup.acks.empty() &&
             dedup.acks.begin()->first + options_.dedup_window <
                 dedup.max_seq) {
        dedup.acks.erase(dedup.acks.begin());
      }
      return EncodeFrame(FrameType::kOk, EncodeOk(stats->accepted));
    }
    case FrameType::kClose: {
      std::string group;
      uint64_t round = 0;
      WireTraceContext trace;
      const Status decoded =
          DecodeClose(frame.payload, &group, &round, &trace);
      if (!decoded.ok()) return error(decoded);
      obs::ScopedSpan span(tracer_, obs::SpanKind::kServer, "server.close",
                           ParentOf(trace));
      span.SetDetailF("group=%s route=%s%s", group.c_str(), route,
                      node_suffix_.c_str());
      const Status closed =
          manager_->CloseRound(group, static_cast<size_t>(round));
      if (!closed.ok()) return error(closed);
      return EncodeFrame(FrameType::kOk, EncodeOk(1));
    }
    case FrameType::kQuery: {
      std::string group;
      WireTraceContext trace;
      const Status decoded = DecodeQuery(frame.payload, &group, &trace);
      if (!decoded.ok()) return error(decoded);
      obs::ScopedSpan span(tracer_, obs::SpanKind::kServer, "server.query",
                           ParentOf(trace));
      span.SetDetailF("group=%s route=%s%s", group.c_str(), route,
                      node_suffix_.c_str());
      auto sink = manager_->sink(group);
      if (!sink.ok()) return error(sink.status());
      const auto value = (*sink)->last_value();
      if (!value.has_value()) return EncodeFrame(FrameType::kNone);
      return EncodeFrame(FrameType::kValue, EncodeValue(*value));
    }
    case FrameType::kQueryRange: {
      VerbTimer timer(query_range_requests_, query_range_latency_);
      std::string group;
      uint64_t lo = 0;
      uint64_t hi = 0;
      WireTraceContext trace;
      const Status decoded =
          DecodeQueryRange(frame.payload, &group, &lo, &hi, &trace);
      if (!decoded.ok()) return error(decoded);
      obs::ScopedSpan span(tracer_, obs::SpanKind::kServer,
                           "server.query_range", ParentOf(trace));
      span.SetDetailF("group=%s route=%s%s", group.c_str(), route,
                      node_suffix_.c_str());
      if (hi < lo) {
        return error(InvalidArgumentError("QUERY_RANGE hi_round < lo_round"));
      }
      auto sink = manager_->sink(group);
      if (!sink.ok()) return error(sink.status());
      std::vector<RangePoint> points;
      if (storage::TraceBackend* traces = manager_->trace_store();
          traces != nullptr) {
        auto stored = traces->QueryTraceRange(group, lo, hi);
        if (!stored.ok()) return error(stored.status());
        points.reserve(stored->size());
        for (const storage::TracePoint& point : *stored) {
          points.push_back(RangePoint{point.round, point.value,
                                      point.engaged ? uint8_t{1} : uint8_t{0}});
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
      if (reply.size() + 1 > options_.max_frame_bytes) {
        return error(OutOfRangeError(StrFormat(
            "QUERY_RANGE window holds %zu points, a %zu-byte reply over "
            "the %zu-byte frame limit; narrow the window",
            points.size(), reply.size() + 1, options_.max_frame_bytes)));
      }
      return EncodeFrame(FrameType::kRangeResult, reply);
    }
    case FrameType::kHistoryGet: {
      VerbTimer timer(history_get_requests_, history_get_latency_);
      std::string group;
      WireTraceContext trace;
      const Status decoded = DecodeHistoryGet(frame.payload, &group, &trace);
      if (!decoded.ok()) return error(decoded);
      obs::ScopedSpan span(tracer_, obs::SpanKind::kServer,
                           "server.history_get", ParentOf(trace));
      span.SetDetailF("group=%s route=%s%s", group.c_str(), route,
                      node_suffix_.c_str());
      auto voter = manager_->voter(group);
      if (!voter.ok()) return error(voter.status());
      const core::HistoryLedger& ledger = (*voter)->engine().history();
      return EncodeFrame(
          FrameType::kHistory,
          EncodeHistoryState(ledger.round_count(), ledger.records()));
    }
    case FrameType::kGroups:
      // Linked shards answer from the frozen global list — no fan-out
      // needed, every shard knows the whole deployment's group names.
      return EncodeFrame(FrameType::kGroupList,
                         EncodeGroupList(IsLinked() ? link_.all_groups
                                                    : manager_->GroupNames()));
    case FrameType::kMetrics: {
      obs::Registry* registry = manager_->registry();
      if (registry == nullptr) {
        return error(
            FailedPreconditionError("metrics disabled (no registry)"));
      }
      return EncodeFrame(FrameType::kText,
                         EncodeText(registry->RenderPrometheus()));
    }
    case FrameType::kHealth:
      return EncodeFrame(FrameType::kText, EncodeText(HealthText()));
    case FrameType::kTraceDump: {
      if (tracer_ == nullptr) {
        return error(FailedPreconditionError("tracing disabled (no tracer)"));
      }
      // The tracer is shared across shards, so any shard's dump shows the
      // whole deployment's flight recorder.
      return EncodeFrame(FrameType::kText, EncodeText(tracer_->DumpText()));
    }
    case FrameType::kMigrateGroup:
      // Clustered servers intercept this verb before HandleFrame
      // (ClusterIntercept); reaching here means the server is standalone.
      return error(
          FailedPreconditionError("MIGRATE_GROUP requires cluster mode"));
    default:
      return error(InvalidArgumentError(StrFormat(
          "unknown frame type 0x%02x", static_cast<unsigned>(frame.type))));
  }
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
