// Thread-per-core shared-nothing sharding of the networked voter.
//
// One ShardedVoterServer is N independent reactor shards, each a full
// vertical slice owned end to end by one thread: its own EventLoop (or
// SimReactor under the deterministic simulation), its own
// VoterGroupManager with a disjoint set of voter groups (stable
// GroupRouter hash over the group id), its own connections, dedup
// windows, and shard-labeled metrics scope.  There are no cross-shard
// locks and no shared mutable state on the hot path; shards communicate
// only through reactor mailboxes (Reactor::Post):
//
//   accept   One listener, watched by shard 0.  Accepted connections are
//            handed off round-robin; a connection's first group-addressed
//            request then *migrates* it to the shard owning that group,
//            so the steady state of the common IoT shape (one device
//            connection feeding one group) is strictly shard-local.
//   forward  A pinned connection addressing a foreign group has that one
//            request executed on the owning shard (two mailbox hops),
//            with per-connection reply slots keeping responses in
//            request order even under pipelining.
//   fan-out  GROUPS answers from the frozen global group list, METRICS
//            from the shared lock-free registry; HEALTH scatter-gathers
//            one part per shard.
//
// Groups are registered before Serve() and frozen afterwards — that is
// what makes the routing table immutable and lock-free.  A future
// rebalancing item would speak MOVED redirects instead (see
// docs/MIDDLEWARE.md).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "runtime/group_router.h"
#include "runtime/remote.h"

namespace avoc::runtime {

struct ShardedServerOptions {
  /// Per-shard server tuning; `port` is the single listening port and
  /// `metrics_scope` is overwritten per shard ("s0".."s<n-1>").
  RemoteServerOptions base;
  /// Reactor shards (0 = one per hardware thread).
  size_t shards = 0;
};

class ShardedVoterServer {
 public:
  using Options = ShardedServerOptions;

  /// Real TCP serving: binds 127.0.0.1:port, creates one EventLoop per
  /// shard.  Register groups, then Serve().  `store`/`registry` are
  /// optional and shared by every shard (the registry is lock-free and
  /// the store is only touched at group registration).
  static Result<std::unique_ptr<ShardedVoterServer>> Start(
      Options options, storage::HistoryBackend* store = nullptr,
      obs::Registry* registry = nullptr,
      storage::TraceBackend* trace_store = nullptr);

  /// Injected seams: one reactor per shard (the deterministic simulation
  /// passes SimWorld reactors and drives them itself with
  /// `spawn_loop_threads` false).
  static Result<std::unique_ptr<ShardedVoterServer>> StartOnReactors(
      Options options, std::unique_ptr<Listener> listener,
      std::vector<std::shared_ptr<Reactor>> reactors, bool spawn_loop_threads,
      storage::HistoryBackend* store = nullptr,
      obs::Registry* registry = nullptr,
      storage::TraceBackend* trace_store = nullptr);

  ~ShardedVoterServer();

  ShardedVoterServer(const ShardedVoterServer&) = delete;
  ShardedVoterServer& operator=(const ShardedVoterServer&) = delete;

  /// Registers a group on its owning shard (GroupRouter placement).
  /// Pre-Serve only; the group set is frozen once serving.
  Status AddGroup(const std::string& name, core::VotingEngine engine);
  Status AddGroupFromSpec(const std::string& name, const vdx::Spec& spec,
                          size_t modules);

  /// Freezes the group set, links the shards, starts accepting (and the
  /// per-shard loop threads when configured).  Call once.
  Status Serve();

  /// Stops every loop, joins the shard threads, closes everything.
  /// Idempotent.
  void Stop();

  uint16_t port() const { return listener_->port(); }
  size_t shard_count() const { return shards_.size(); }

  /// The shard owning `group`.
  size_t shard_of(std::string_view group) const {
    return router_.ShardFor(group);
  }

  /// One shard's group manager (tests and embedding; the sink/voter
  /// accessors below are usually enough).
  VoterGroupManager& manager(size_t shard) { return *managers_[shard]; }
  const VoterGroupManager& manager(size_t shard) const {
    return *managers_[shard];
  }

  /// The group's output sink, wherever it lives.  SinkNode reads take
  /// the group's lock, so cross-shard inspection is safe.
  Result<const SinkNode*> sink(const std::string& group) const;

  // Aggregated introspection across all shards.
  size_t requests_served() const;
  size_t dedup_replays() const;
  size_t forwarded_requests() const;
  size_t migrations() const;

 private:
  ShardedVoterServer(Options options, std::unique_ptr<Listener> listener,
                     std::vector<std::shared_ptr<Reactor>> reactors,
                     bool spawn_loop_threads, storage::HistoryBackend* store,
                     obs::Registry* registry,
                     storage::TraceBackend* trace_store);

  /// Shard-0 loop thread: accept and hand off round-robin.
  void OnAcceptable();

  Options options_;
  std::unique_ptr<Listener> listener_;
  std::vector<std::shared_ptr<Reactor>> reactors_;
  std::vector<std::unique_ptr<VoterGroupManager>> managers_;
  std::vector<std::unique_ptr<RemoteVoterServer>> shards_;
  std::vector<std::thread> threads_;
  GroupRouter router_{1};
  bool spawn_loop_threads_ = false;
  bool serving_ = false;
  std::atomic<bool> running_{true};
  size_t next_handoff_ = 0;  // shard-0 loop thread only
};

}  // namespace avoc::runtime
