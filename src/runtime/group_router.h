// Stable group -> shard placement for the sharded remote runtime.
//
// Both the sharded voter server (runtime/sharded_remote.h) and the
// multi-group batch engine (runtime/multi_group.h) partition independent
// voter groups across workers.  They must agree on the assignment — and
// the assignment must never drift between releases, or a restarted
// deployment would silently re-home groups (invalidating sticky client
// connections and per-shard dedup state).  GroupRouter is that single
// frozen contract:
//
//   * Named groups hash with splitmix64 over the group id bytes; the
//     shard is the hash reduced by Lemire's multiply-shift.  The golden
//     test (tests/runtime_group_router_test.cpp) pins concrete
//     assignments so any change to the mix is a loud test failure, not a
//     silent rebalance.
//   * Index-addressed groups (the multi-group engine's dense 0..N-1 id
//     space) partition into contiguous ranges, one per shard: contiguous
//     ranges keep each worker's rows of the group-major trace block
//     (MultiGroupTrace) adjacent in memory, so workers never interleave
//     writes within a cache line (the false-sharing fix).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace avoc::runtime {

/// Stable 64-bit hash of a group id (splitmix64 finalizer over a
/// byte-mixing loop).  Frozen: see the golden test before touching.
uint64_t GroupIdHash(std::string_view group);

/// Contiguous index range [begin, end) of one shard's groups.
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
};

class GroupRouter {
 public:
  /// A router over `shard_count` shards (clamped to at least 1).
  explicit GroupRouter(size_t shard_count)
      : shard_count_(shard_count == 0 ? 1 : shard_count) {}

  size_t shard_count() const { return shard_count_; }

  /// The shard owning a named group.  Uniform via multiply-shift
  /// reduction; stable for all time for a given (group, shard_count).
  size_t ShardFor(std::string_view group) const;

  /// The shard owning dense group index `g` of `group_count` groups:
  /// contiguous ranges, remainder spread over the leading shards.
  size_t ShardForIndex(size_t g, size_t group_count) const;

  /// Shard `shard`'s contiguous range of `group_count` dense indices.
  /// Ranges tile [0, group_count) exactly; trailing shards may be empty
  /// when there are fewer groups than shards.
  ShardRange RangeFor(size_t shard, size_t group_count) const;

 private:
  size_t shard_count_;
};

}  // namespace avoc::runtime
