#include "runtime/sim_net.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/strings.h"

namespace avoc::runtime {
namespace {

constexpr const char* DirName(bool c2s) { return c2s ? "c2s" : "s2c"; }

unsigned long long U64(uint64_t v) { return static_cast<unsigned long long>(v); }

}  // namespace

// --- FaultPlan ---------------------------------------------------------------

uint64_t FaultPlan::HealedAfterMs() const {
  uint64_t healed = 0;
  for (uint64_t t : reset_at_ms) healed = std::max(healed, t + 1);
  for (const FaultWindow& w : partitions) healed = std::max(healed, w.end_ms);
  for (const FaultWindow& w : blackhole_c2s) healed = std::max(healed, w.end_ms);
  for (const FaultWindow& w : blackhole_s2c) healed = std::max(healed, w.end_ms);
  return healed;
}

FaultPlan FaultPlan::Chaos(uint64_t seed, uint64_t horizon_ms) {
  Rng rng(seed);
  horizon_ms = std::max<uint64_t>(horizon_ms, 100);
  FaultPlan plan;
  switch (rng.UniformInt(3)) {
    case 0: plan.max_segment_bytes = 1 + rng.UniformInt(7); break;
    case 1: plan.max_segment_bytes = 8 + rng.UniformInt(120); break;
    default: break;  // unlimited
  }
  if (rng.Bernoulli(0.3)) plan.max_read_bytes = 1 + rng.UniformInt(15);
  plan.min_delay_ms = rng.UniformInt(4);
  plan.max_delay_ms = plan.min_delay_ms + rng.UniformInt(16);

  const uint64_t resets = rng.UniformInt(3);
  for (uint64_t i = 0; i < resets; ++i) {
    plan.reset_at_ms.push_back(1 + rng.UniformInt(horizon_ms * 4 / 5));
  }
  std::sort(plan.reset_at_ms.begin(), plan.reset_at_ms.end());

  auto draw_window = [&rng, horizon_ms]() -> FaultWindow {
    FaultWindow w;
    w.start_ms = rng.UniformInt(horizon_ms * 3 / 5);
    w.end_ms = std::min(w.start_ms + 1 + rng.UniformInt(horizon_ms / 5),
                        horizon_ms - 1);
    return w;
  };
  const uint64_t parts = rng.UniformInt(3);
  for (uint64_t i = 0; i < parts; ++i) {
    FaultWindow w = draw_window();
    if (w.end_ms > w.start_ms) plan.partitions.push_back(w);
  }
  const uint64_t holes_c2s = rng.UniformInt(2);
  for (uint64_t i = 0; i < holes_c2s; ++i) {
    FaultWindow w = draw_window();
    if (w.end_ms > w.start_ms) plan.blackhole_c2s.push_back(w);
  }
  const uint64_t holes_s2c = rng.UniformInt(2);
  for (uint64_t i = 0; i < holes_s2c; ++i) {
    FaultWindow w = draw_window();
    if (w.end_ms > w.start_ms) plan.blackhole_s2c.push_back(w);
  }
  return plan;
}

FaultPlan FaultPlan::Gentle(uint64_t seed) {
  Rng rng(seed);
  FaultPlan plan;
  plan.max_segment_bytes = 1 + rng.UniformInt(32);
  plan.min_delay_ms = rng.UniformInt(3);
  plan.max_delay_ms = plan.min_delay_ms + rng.UniformInt(8);
  return plan;
}

// --- SimWorld ----------------------------------------------------------------

SimWorld::SimWorld(uint64_t seed) : SimWorld(seed, Options{}) {}

SimWorld::SimWorld(uint64_t seed, Options options)
    : seed_(seed), options_(std::move(options)), rng_(seed) {
  std::sort(options_.fault_plan.reset_at_ms.begin(),
            options_.fault_plan.reset_at_ms.end());
  reactor_ = std::make_shared<SimReactor>(this);
  reactors_.push_back(reactor_);
}

std::shared_ptr<SimReactor> SimWorld::NewReactor() {
  reactors_.push_back(std::make_shared<SimReactor>(this));
  return reactors_.back();
}

SimWorld::~SimWorld() = default;

void SimWorld::Trace(std::string line) {
  if (options_.record_trace) trace_.push_back(std::move(line));
}

std::string SimWorld::TraceText() const {
  std::string text;
  for (const std::string& line : trace_) {
    text += line;
    text += '\n';
  }
  return text;
}

bool SimWorld::PartitionActiveAt(uint64_t t) const {
  for (const FaultWindow& w : options_.fault_plan.partitions) {
    if (w.Contains(t)) return true;
  }
  return false;
}

bool SimWorld::BlackholeActiveAt(uint64_t t, bool c2s) const {
  const auto& windows = c2s ? options_.fault_plan.blackhole_c2s
                            : options_.fault_plan.blackhole_s2c;
  for (const FaultWindow& w : windows) {
    if (w.Contains(t)) return true;
  }
  return false;
}

SimWorld::Conn* SimWorld::FindConn(int conn_id) {
  auto it = conns_.find(conn_id);
  return it == conns_.end() ? nullptr : &it->second;
}

Result<std::unique_ptr<Listener>> SimWorld::Listen(uint16_t port) {
  if (listening_.count(port) != 0) {
    return InvalidArgumentError(StrFormat("sim port %u already bound", port));
  }
  const int handle = next_handle_++;
  Port& state = ports_[handle];
  state.port = port;
  state.handle = handle;
  listening_[port] = handle;
  Trace(StrFormat("t=%llu listen :%u", U64(now_ms_), port));
  return std::unique_ptr<Listener>(
      std::make_unique<SimListener>(this, handle, port));
}

Result<std::unique_ptr<Transport>> SimWorld::Connect(uint16_t port) {
  ApplyScriptedFaults();
  if (PartitionActiveAt(now_ms_)) {
    Trace(StrFormat("t=%llu connect-fail :%u partitioned", U64(now_ms_), port));
    return IoError("sim connect failed: network partitioned");
  }
  auto it = listening_.find(port);
  if (it == listening_.end() || ports_[it->second].closed) {
    Trace(StrFormat("t=%llu connect-fail :%u refused", U64(now_ms_), port));
    return IoError(StrFormat("sim connect to :%u refused", port));
  }
  Conn conn;
  conn.id = next_conn_id_++;
  conn.client_handle = next_handle_++;
  conn.server_handle = next_handle_++;
  const int id = conn.id;
  const int client_handle = conn.client_handle;
  const int server_handle = conn.server_handle;
  conns_.emplace(id, std::move(conn));
  endpoints_[client_handle] = Endpoint{id, /*is_client=*/true};
  endpoints_[server_handle] = Endpoint{id, /*is_client=*/false};
  ports_[it->second].pending.push_back(
      PendingAccept{now_ms_ + options_.connect_delay_ms, id});
  Trace(StrFormat("t=%llu connect #%d -> :%u", U64(now_ms_), id, port));
  return std::unique_ptr<Transport>(
      std::make_unique<SimTransport>(this, client_handle));
}

uint32_t SimWorld::Readiness(int handle) {
  auto port_it = ports_.find(handle);
  if (port_it != ports_.end()) {
    const Port& port = port_it->second;
    if (port.closed) return 0;
    for (const PendingAccept& pending : port.pending) {
      if (pending.ready_at <= now_ms_) return kIoRead;
    }
    return 0;
  }
  auto ep_it = endpoints_.find(handle);
  if (ep_it == endpoints_.end()) return 0;
  Conn* conn = FindConn(ep_it->second.conn_id);
  if (conn == nullptr) return 0;
  const bool is_client = ep_it->second.is_client;
  const bool my_closed = is_client ? conn->client_closed : conn->server_closed;
  if (my_closed) return 0;  // like epoll: a closed fd reports nothing
  if (conn->reset) return kIoError | kIoRead;
  const Pipe& rx = is_client ? conn->s2c : conn->c2s;
  const Pipe& tx = is_client ? conn->c2s : conn->s2c;
  uint32_t ready = 0;
  if (!rx.delivered.empty() || (rx.src_closed && rx.in_flight.empty())) {
    ready |= kIoRead;
  }
  if (tx.bytes_in_flight + tx.delivered.size() < options_.pipe_capacity_bytes) {
    ready |= kIoWrite;
  }
  return ready;
}

IoOp SimWorld::EndpointRead(int handle, char* buffer, size_t len) {
  auto ep_it = endpoints_.find(handle);
  if (ep_it == endpoints_.end()) {
    return IoOp{IoOp::Kind::kError, 0, IoError("unknown sim endpoint")};
  }
  Conn* conn = FindConn(ep_it->second.conn_id);
  const bool is_client = ep_it->second.is_client;
  if (conn == nullptr ||
      (is_client ? conn->client_closed : conn->server_closed)) {
    return IoOp{IoOp::Kind::kError, 0, IoError("read on closed sim transport")};
  }
  if (conn->reset) {
    return IoOp{IoOp::Kind::kError, 0, IoError("connection reset by peer")};
  }
  Pipe& rx = is_client ? conn->s2c : conn->c2s;
  if (rx.delivered.empty()) {
    if (rx.src_closed && rx.in_flight.empty()) {
      return IoOp{IoOp::Kind::kEof, 0, Status::Ok()};
    }
    return IoOp{IoOp::Kind::kWouldBlock, 0, Status::Ok()};
  }
  size_t n = std::min(len, rx.delivered.size());
  if (options_.fault_plan.max_read_bytes > 0) {
    n = std::min(n, options_.fault_plan.max_read_bytes);
  }
  std::memcpy(buffer, rx.delivered.data(), n);
  rx.delivered.erase(0, n);
  return IoOp{IoOp::Kind::kDone, n, Status::Ok()};
}

IoOp SimWorld::EndpointWrite(int handle, const char* data, size_t len) {
  auto ep_it = endpoints_.find(handle);
  if (ep_it == endpoints_.end()) {
    return IoOp{IoOp::Kind::kError, 0, IoError("unknown sim endpoint")};
  }
  Conn* conn = FindConn(ep_it->second.conn_id);
  const bool is_client = ep_it->second.is_client;
  if (conn == nullptr ||
      (is_client ? conn->client_closed : conn->server_closed)) {
    return IoOp{IoOp::Kind::kError, 0,
                IoError("write on closed sim transport")};
  }
  if (conn->reset) {
    return IoOp{IoOp::Kind::kError, 0, IoError("connection reset by peer")};
  }
  Pipe& tx = is_client ? conn->c2s : conn->s2c;
  const size_t used = tx.bytes_in_flight + tx.delivered.size();
  if (used >= options_.pipe_capacity_bytes) {
    return IoOp{IoOp::Kind::kWouldBlock, 0, Status::Ok()};
  }
  size_t n = std::min(len, options_.pipe_capacity_bytes - used);
  if (options_.fault_plan.max_segment_bytes > 0) {
    n = std::min(n, options_.fault_plan.max_segment_bytes);
  }
  EnqueueBytes(*conn, /*c2s=*/is_client, std::string_view(data, n));
  return IoOp{IoOp::Kind::kDone, n, Status::Ok()};
}

void SimWorld::EnqueueBytes(Conn& conn, bool c2s, std::string_view data) {
  const FaultPlan& plan = options_.fault_plan;
  if (BlackholeActiveAt(now_ms_, c2s)) {
    Trace(StrFormat("t=%llu drop #%d %s %zuB", U64(now_ms_), conn.id,
                    DirName(c2s), data.size()));
    return;
  }
  Pipe& pipe = c2s ? conn.c2s : conn.s2c;
  auto insert = [this, &pipe](uint64_t deliver_at, std::string bytes) {
    Segment segment;
    segment.deliver_at = deliver_at;
    segment.seq = next_segment_seq_++;
    pipe.bytes_in_flight += bytes.size();
    segment.bytes = std::move(bytes);
    auto pos = std::upper_bound(
        pipe.in_flight.begin(), pipe.in_flight.end(), segment,
        [](const Segment& a, const Segment& b) {
          if (a.deliver_at != b.deliver_at) return a.deliver_at < b.deliver_at;
          return a.seq < b.seq;
        });
    pipe.in_flight.insert(pos, std::move(segment));
  };
  size_t off = 0;
  while (off < data.size()) {
    size_t n = data.size() - off;
    if (plan.max_segment_bytes > 0) n = std::min(n, plan.max_segment_bytes);
    std::string bytes(data.substr(off, n));
    off += n;
    uint64_t delay = plan.min_delay_ms;
    if (plan.max_delay_ms > plan.min_delay_ms) {
      delay += rng_.UniformInt(plan.max_delay_ms - plan.min_delay_ms + 1);
    }
    uint64_t deliver_at = now_ms_ + delay;
    const bool reorder =
        plan.reorder_segment_p > 0 && rng_.Bernoulli(plan.reorder_segment_p);
    if (!reorder) {
      deliver_at = std::max(deliver_at, pipe.fifo_floor);
      pipe.fifo_floor = deliver_at;
    }
    if (plan.corrupt_byte_p > 0 && !bytes.empty() &&
        rng_.Bernoulli(plan.corrupt_byte_p)) {
      const size_t pos = rng_.UniformInt(bytes.size());
      bytes[pos] = static_cast<char>(
          static_cast<uint8_t>(bytes[pos]) ^
          static_cast<uint8_t>(1 + rng_.UniformInt(255)));
      Trace(StrFormat("t=%llu corrupt #%d %s", U64(now_ms_), conn.id,
                      DirName(c2s)));
    }
    const bool duplicate = plan.duplicate_segment_p > 0 &&
                           rng_.Bernoulli(plan.duplicate_segment_p);
    if (duplicate) {
      Trace(StrFormat("t=%llu dup #%d %s %zuB", U64(now_ms_), conn.id,
                      DirName(c2s), bytes.size()));
      insert(now_ms_ + delay, bytes);
    }
    insert(deliver_at, std::move(bytes));
  }
}

void SimWorld::EndpointClose(int handle) {
  auto ep_it = endpoints_.find(handle);
  if (ep_it == endpoints_.end()) return;
  Conn* conn = FindConn(ep_it->second.conn_id);
  if (conn == nullptr) return;
  const bool is_client = ep_it->second.is_client;
  bool& my_closed = is_client ? conn->client_closed : conn->server_closed;
  if (my_closed) return;
  my_closed = true;
  Pipe& tx = is_client ? conn->c2s : conn->s2c;
  tx.src_closed = true;
  Trace(StrFormat("t=%llu close #%d %s", U64(now_ms_), conn->id,
                  is_client ? "client" : "server"));
}

Result<std::unique_ptr<Transport>> SimWorld::AcceptOn(int listener_handle) {
  auto it = ports_.find(listener_handle);
  if (it == ports_.end() || it->second.closed) {
    return IoError("sim listener closed");
  }
  Port& port = it->second;
  while (!port.pending.empty()) {
    if (port.pending.front().ready_at > now_ms_) break;
    const int conn_id = port.pending.front().conn_id;
    port.pending.pop_front();
    Conn* conn = FindConn(conn_id);
    if (conn == nullptr || conn->reset) continue;  // reset before accept
    Trace(StrFormat("t=%llu accept #%d", U64(now_ms_), conn_id));
    return std::unique_ptr<Transport>(
        std::make_unique<SimTransport>(this, conn->server_handle));
  }
  return NotFoundError("no pending sim connection");
}

void SimWorld::CloseListener(int listener_handle) {
  auto it = ports_.find(listener_handle);
  if (it == ports_.end() || it->second.closed) return;
  it->second.closed = true;
  listening_.erase(it->second.port);
  Trace(StrFormat("t=%llu unlisten :%u", U64(now_ms_), it->second.port));
}

void SimWorld::ResetConn(Conn& conn, std::string_view why) {
  conn.reset = true;
  conn.c2s = Pipe{};
  conn.s2c = Pipe{};
  Trace(StrFormat("t=%llu reset #%d (%.*s)", U64(now_ms_), conn.id,
                  static_cast<int>(why.size()), why.data()));
}

void SimWorld::ResetAllConnections() {
  for (auto& [id, conn] : conns_) {
    if (!conn.reset && !(conn.client_closed && conn.server_closed)) {
      ResetConn(conn, "manual");
    }
  }
}

void SimWorld::ApplyScriptedFaults() {
  const auto& resets = options_.fault_plan.reset_at_ms;
  while (scripted_resets_applied_ < resets.size() &&
         resets[scripted_resets_applied_] <= now_ms_) {
    Trace(StrFormat("t=%llu scripted-reset", U64(now_ms_)));
    for (auto& [id, conn] : conns_) {
      if (!conn.reset && !(conn.client_closed && conn.server_closed)) {
        ResetConn(conn, "scripted");
      }
    }
    ++scripted_resets_applied_;
  }
}

void SimWorld::DeliverDue() {
  if (PartitionActiveAt(now_ms_)) return;
  for (auto& [id, conn] : conns_) {
    for (int dir = 0; dir < 2; ++dir) {
      const bool c2s = dir == 0;
      Pipe& pipe = c2s ? conn.c2s : conn.s2c;
      while (!pipe.in_flight.empty() &&
             pipe.in_flight.front().deliver_at <= now_ms_) {
        Segment segment = std::move(pipe.in_flight.front());
        pipe.in_flight.pop_front();
        pipe.bytes_in_flight -= segment.bytes.size();
        pipe.delivered += segment.bytes;
        Trace(StrFormat("t=%llu dlv #%d %s %zuB", U64(now_ms_), conn.id,
                        DirName(c2s), segment.bytes.size()));
      }
    }
  }
}

uint64_t SimWorld::NextEventAtMs() const {
  uint64_t best = UINT64_MAX;
  auto consider = [&best](uint64_t t) { best = std::min(best, t); };
  auto unpartitioned_at_or_after = [this](uint64_t t) {
    bool again = true;
    while (again) {
      again = false;
      for (const FaultWindow& w : options_.fault_plan.partitions) {
        if (w.Contains(t)) {
          t = w.end_ms;
          again = true;
        }
      }
    }
    return t;
  };
  for (const auto& [id, conn] : conns_) {
    for (const Pipe* pipe : {&conn.c2s, &conn.s2c}) {
      if (pipe->in_flight.empty()) continue;
      const uint64_t at = unpartitioned_at_or_after(
          std::max(pipe->in_flight.front().deliver_at, now_ms_));
      if (at > now_ms_) consider(at);
    }
  }
  for (const auto& [handle, port] : ports_) {
    if (port.closed) continue;
    for (const PendingAccept& pending : port.pending) {
      if (pending.ready_at > now_ms_) consider(pending.ready_at);
    }
  }
  const auto& resets = options_.fault_plan.reset_at_ms;
  if (scripted_resets_applied_ < resets.size() &&
      resets[scripted_resets_applied_] > now_ms_) {
    consider(resets[scripted_resets_applied_]);
  }
  for (const auto& reactor : reactors_) {
    const uint64_t timer_at = reactor->NextTimerAtMs();
    if (timer_at != UINT64_MAX) consider(std::max(timer_at, now_ms_ + 1));
  }
  return best;
}

void SimWorld::Pump() {
  // Deliveries can unlock callbacks which write zero-latency segments
  // which unlock more callbacks — iterate to fixpoint (bounded).  With
  // several reactors (sharded servers), each outer iteration dispatches
  // every reactor once in creation order, so a mailbox post from reactor
  // k to reactor j executes this iteration when j > k and the next one
  // when j <= k — deterministic either way.
  for (int i = 0; i < 64; ++i) {
    ApplyScriptedFaults();
    DeliverDue();
    bool progressed = false;
    for (const auto& reactor : reactors_) {
      reactor->AdvanceTimers();
      if (reactor->Dispatch()) progressed = true;
    }
    if (!progressed) break;
  }
}

void SimWorld::AdvanceTo(uint64_t t) {
  now_ms_ = std::max(now_ms_, t);
  Pump();
}

void SimWorld::RunFor(uint64_t ms) {
  const uint64_t target = now_ms_ + ms;
  Pump();
  while (now_ms_ < target) {
    const uint64_t next = NextEventAtMs();
    AdvanceTo(next > target ? target : std::max(next, now_ms_ + 1));
  }
}

bool SimWorld::RunUntil(const std::function<bool()>& pred,
                        uint64_t deadline_ms) {
  Pump();
  while (!pred() && now_ms_ < deadline_ms) {
    const uint64_t next = NextEventAtMs();
    AdvanceTo(next > deadline_ms ? deadline_ms : std::max(next, now_ms_ + 1));
  }
  return pred();
}

void SimWorld::SleepMs(uint64_t ms) { RunFor(ms); }

// --- SimReactor --------------------------------------------------------------

SimReactor::SimReactor(SimWorld* world) : world_(world) {}

uint64_t SimReactor::now_ms() const { return world_->now_ms_; }

Status SimReactor::Watch(int handle, uint32_t interest, IoCallback callback) {
  if (callback == nullptr) return InvalidArgumentError("null callback");
  auto [it, inserted] = watched_.try_emplace(handle);
  if (!inserted) {
    return InvalidArgumentError(StrFormat("handle %d already watched", handle));
  }
  it->second.generation = next_generation_++;
  it->second.interest = interest;
  it->second.callback = std::make_shared<IoCallback>(std::move(callback));
  return Status::Ok();
}

Status SimReactor::SetInterest(int handle, uint32_t interest) {
  auto it = watched_.find(handle);
  if (it == watched_.end()) {
    return InvalidArgumentError(StrFormat("handle %d not watched", handle));
  }
  it->second.interest = interest;
  return Status::Ok();
}

Status SimReactor::Unwatch(int handle) {
  if (watched_.erase(handle) == 0) {
    return InvalidArgumentError(StrFormat("handle %d not watched", handle));
  }
  return Status::Ok();
}

uint64_t SimReactor::ScheduleTimer(uint64_t delay_ms,
                                   std::function<void()> fn) {
  return timers_.Schedule(world_->now_ms_, delay_ms, std::move(fn));
}

bool SimReactor::CancelTimer(uint64_t id) { return timers_.Cancel(id); }

void SimReactor::Post(std::function<void()> fn) {
  posted_.push_back(std::move(fn));
}

void SimReactor::Run() {
  const uint64_t deadline = world_->now_ms_ + world_->options_.max_block_ms;
  world_->RunUntil([this] { return stop_; }, deadline);
}

void SimReactor::AdvanceTimers() { timers_.Advance(world_->now_ms_); }

uint64_t SimReactor::NextTimerAtMs() const {
  const int64_t delta = timers_.MsUntilNext(world_->now_ms_);
  if (delta < 0) return UINT64_MAX;
  return world_->now_ms_ + static_cast<uint64_t>(delta);
}

bool SimReactor::Dispatch() {
  bool any = false;
  // A callback can Watch/Unwatch/post/write, changing readiness — repeat
  // until a full pass makes no progress (bounded against livelock).
  for (int pass = 0; pass < 1000; ++pass) {
    bool progressed = false;
    if (!posted_.empty()) {
      std::vector<std::function<void()>> run;
      run.swap(posted_);
      for (auto& fn : run) fn();
      progressed = true;
    }
    std::vector<int> handles;
    handles.reserve(watched_.size());
    for (const auto& [handle, watched] : watched_) handles.push_back(handle);
    for (int handle : handles) {
      auto it = watched_.find(handle);
      if (it == watched_.end()) continue;  // unwatched by an earlier callback
      const uint32_t ready = world_->Readiness(handle);
      const uint32_t events = ready & (it->second.interest | kIoError);
      if (events == 0) continue;
      auto callback = it->second.callback;  // keep alive across Unwatch
      (*callback)(events);
      progressed = true;
    }
    if (!progressed) break;
    any = true;
  }
  return any;
}

// --- SimTransport ------------------------------------------------------------

SimTransport::SimTransport(SimWorld* world, int handle)
    : world_(world), handle_(handle) {}

SimTransport::~SimTransport() { Close(); }

IoOp SimTransport::ReadSome(char* buffer, size_t len) {
  return world_->EndpointRead(handle_, buffer, len);
}

IoOp SimTransport::WriteSome(const char* data, size_t len) {
  return world_->EndpointWrite(handle_, data, len);
}

Status SimTransport::AwaitReadable() {
  const uint64_t wait = receive_timeout_ms_ > 0
                            ? static_cast<uint64_t>(receive_timeout_ms_)
                            : world_->options().max_block_ms;
  const bool ready = world_->RunUntil(
      [this] {
        return (world_->Readiness(handle_) & (kIoRead | kIoError)) != 0;
      },
      world_->NowMs() + wait);
  if (!ready) return IoError("sim receive timed out");
  return Status::Ok();
}

Status SimTransport::SendAll(std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    IoOp op = world_->EndpointWrite(handle_, data.data() + off,
                                    data.size() - off);
    switch (op.kind) {
      case IoOp::Kind::kDone:
        off += op.bytes;
        break;
      case IoOp::Kind::kWouldBlock: {
        const bool ready = world_->RunUntil(
            [this] {
              return (world_->Readiness(handle_) & (kIoWrite | kIoError)) != 0;
            },
            world_->NowMs() + world_->options().max_block_ms);
        if (!ready) return IoError("sim send stalled");
        break;
      }
      case IoOp::Kind::kEof:
        return IoError("sim send hit eof");
      case IoOp::Kind::kError:
        return op.status;
    }
  }
  return Status::Ok();
}

Result<size_t> SimTransport::ReceiveSome(char* buffer, size_t len) {
  if (len == 0) return InvalidArgumentError("zero-length receive");
  if (!line_buffer_.empty()) {
    const size_t n = std::min(len, line_buffer_.size());
    std::memcpy(buffer, line_buffer_.data(), n);
    line_buffer_.erase(0, n);
    return n;
  }
  while (true) {
    IoOp op = world_->EndpointRead(handle_, buffer, len);
    switch (op.kind) {
      case IoOp::Kind::kDone:
        return op.bytes;
      case IoOp::Kind::kWouldBlock:
        AVOC_RETURN_IF_ERROR(AwaitReadable());
        break;
      case IoOp::Kind::kEof:
        return NotFoundError("connection closed");
      case IoOp::Kind::kError:
        return op.status;
    }
  }
}

Result<std::string> SimTransport::ReceiveLine() {
  while (true) {
    const size_t newline = line_buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = line_buffer_.substr(0, newline);
      line_buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    IoOp op = world_->EndpointRead(handle_, chunk, sizeof chunk);
    switch (op.kind) {
      case IoOp::Kind::kDone:
        line_buffer_.append(chunk, op.bytes);
        break;
      case IoOp::Kind::kWouldBlock:
        AVOC_RETURN_IF_ERROR(AwaitReadable());
        break;
      case IoOp::Kind::kEof: {
        if (line_buffer_.empty()) return NotFoundError("connection closed");
        std::string line;
        line.swap(line_buffer_);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return line;
      }
      case IoOp::Kind::kError:
        return op.status;
    }
  }
}

Status SimTransport::SetReceiveTimeoutMs(int timeout_ms) {
  if (timeout_ms < 0) return InvalidArgumentError("negative timeout");
  receive_timeout_ms_ = timeout_ms;
  return Status::Ok();
}

Status SimTransport::SetNonBlocking(bool) { return Status::Ok(); }

Status SimTransport::SetSendBufferBytes(int bytes) {
  if (bytes <= 0) return InvalidArgumentError("buffer size must be > 0");
  return Status::Ok();  // advisory; pipe capacity is a world option
}

void SimTransport::Close() {
  if (world_ != nullptr) world_->EndpointClose(handle_);
}

// --- SimListener -------------------------------------------------------------

SimListener::SimListener(SimWorld* world, int handle, uint16_t port)
    : world_(world), handle_(handle), port_(port) {}

SimListener::~SimListener() { Close(); }

Result<std::unique_ptr<Transport>> SimListener::TryAcceptTransport() {
  return world_->AcceptOn(handle_);
}

void SimListener::Close() {
  if (world_ != nullptr) world_->CloseListener(handle_);
}

}  // namespace avoc::runtime
