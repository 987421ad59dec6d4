// Cluster seams for voter-group migration and replicated failover.
//
// A cluster (runtime/cluster.h) runs several RemoteVoterServer instances
// that share a consistent-hash ring.  This header holds what the server
// and the cluster control plane exchange:
//
//   * ClusterControl / ClusterLink — how one node reaches the rest of
//     the cluster (placement lookups, state transfer, standby
//     replication).  Installed before traffic flows, like ShardLink.
//   * GroupStateBlob — the serialized full pipeline state of one group
//     (engine state, hub assembly state, sink trace, travelling
//     SUBMIT_BATCH_SEQ dedup entries) shipped on MIGRATE_GROUP.  The
//     engine state rides the storage layer's one group-state encoding
//     (storage/snapshot.h), the bytes a restart restores from.
//   * ReplicationRecord — the unit shipped to a hot standby: a raw frame
//     to re-execute, a whole group import, or a group removal.  CRC-framed
//     like a WAL segment, so a torn record fails typed.
//   * MOVED redirect helpers — the Status form redirects travel in
//     between RemoteVoterClient and ResilientVoterClient.
//
// All doubles round-trip bit-exactly: a migrated group must keep voting
// bit-identically with the source (see docs/MIGRATION.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/group_runner.h"
#include "util/status.h"

namespace avoc::runtime {

/// How one cluster node reaches the rest of the cluster.  Implemented by
/// VoterCluster over reactor mailboxes; every method is called from the
/// node's loop thread and every completion callback is posted back to it.
class ClusterControl {
 public:
  virtual ~ClusterControl() = default;

  /// Current owner of `group` per the placement map (hash ring plus the
  /// migration overlay).
  virtual size_t OwnerOf(const std::string& group) const = 0;
  virtual size_t NodeCount() const = 0;
  /// Advertised address of `node` ("127.0.0.1:<port>"), informational —
  /// clients resolve node indices through their own dialer.
  virtual std::string NodeAddress(size_t node) const = 0;
  /// False once the node crashed (failover may later revive the index on
  /// its standby).
  virtual bool NodeAlive(size_t node) const = 0;
  /// Whether `node` currently has a live hot standby to replicate to.
  virtual bool HasStandby(size_t node) const = 0;

  /// Ships an exported GroupStateBlob to `dest` for import.  `done` is
  /// posted back to node `from`'s reactor with the import result; a dead
  /// destination fails fast instead of hanging.
  virtual void TransferGroup(size_t from, size_t dest, std::string blob,
                             std::function<void(Status)> done) = 0;

  /// Moves `group` to `dest` in the shared placement map (called by the
  /// source after a successful transfer).
  virtual void CommitPlacement(const std::string& group, size_t dest) = 0;

  /// Ships one encoded ReplicationRecord to `node`'s hot standby; `done`
  /// is posted back to the calling node's reactor once the standby
  /// applied it.  Immediate success when the node has no standby.
  virtual void Replicate(size_t node, std::string record,
                         std::function<void(Status)> done) = 0;
};

/// Resolves a group name to a fresh engine instance (the cluster's group
/// catalog) when a migrated group lands on a node that never hosted it.
using EngineFactory =
    std::function<Result<core::VotingEngine>(const std::string& group)>;

/// Wiring of one server into a cluster, installed before Serve and
/// immutable afterwards (like ShardLink).
struct ClusterLink {
  size_t node_index = 0;
  ClusterControl* control = nullptr;
  /// Group catalog for imports (must be thread-safe to call; the cluster
  /// freezes its catalog before traffic flows).
  EngineFactory engine_factory;
};

// --- group-state blob --------------------------------------------------------

/// Everything one group needs to keep running bit-identically on another
/// node.
struct GroupStateBlob {
  std::string group;
  GroupRunner::State state;
  /// Keeps alive the columns state.sink_trace and state.sink_rounds view
  /// (DecodeGroupState's decoded rows); copies of the blob share them.
  std::shared_ptr<const void> sink_columns;

  /// SUBMIT_BATCH_SEQ acknowledgements addressed to this group: they
  /// travel with it so a client retry after the MOVED redirect replays
  /// from the destination's dedup cache instead of double-ingesting.
  struct DedupEntry {
    std::string client_id;
    uint64_t seq = 0;
    uint64_t accepted = 0;
  };
  std::vector<DedupEntry> dedup;
};

std::string EncodeGroupState(const GroupStateBlob& blob);
/// ParseError on truncation, bad magic/version, CRC mismatch, a
/// malformed field (closed runs out of order, an error on a row that has
/// none), or trailing bytes; InvalidArgument for sink rows no group of
/// the engine state's arity could hold (GroupRunner::CheckSinkRows: a
/// detail base past the rows, rows of another arity).
Result<GroupStateBlob> DecodeGroupState(std::string_view bytes);

// --- replication records -----------------------------------------------------

/// One shipped-WAL-segment unit applied by a hot standby.
struct ReplicationRecord {
  enum class Kind : uint8_t {
    kFrame = 1,   ///< re-execute `frame_type` + `bytes` (a request payload)
    kImport = 2,  ///< install the GroupStateBlob in `bytes`
    kRemove = 3,  ///< drop `group` (source side of a migration)
  };
  Kind kind = Kind::kFrame;
  uint8_t frame_type = 0;  ///< kFrame only
  std::string group;       ///< kRemove only
  std::string bytes;       ///< kFrame: frame payload; kImport: state blob
};

std::string EncodeReplicationRecord(const ReplicationRecord& record);
/// ParseError on CRC mismatch, unknown kind, or truncation.
Result<ReplicationRecord> DecodeReplicationRecord(std::string_view bytes);

// --- MOVED redirects ---------------------------------------------------------

/// The Status form of a MOVED redirect, carried between the plain client
/// (which decodes the kMoved frame) and the resilient client (which
/// re-resolves the node and resubmits).  FailedPrecondition with a
/// machine-parseable "MOVED <node> <address>" message.
Status MovedError(uint64_t node, std::string_view address);

/// True when `status` is a MOVED redirect; extracts the owning node.
bool TryParseMoved(const Status& status, uint64_t* node);

}  // namespace avoc::runtime
