// Functional and negative-path coverage for voter-group migration across
// cluster nodes (runtime/cluster.h + the MIGRATE_GROUP / MOVED verbs).
//
// The deterministic simulation hosts a 2-node VoterCluster; every test
// drives it through real wire frames (no test-only seams):
//
//   * happy path: ingest, migrate, MOVED redirect, continued ingest with
//     a bit-identical sink trace and travelling dedup entries;
//   * failover: crash the owner, promote its hot standby, ingest resumes
//     exactly-once;
//   * the line protocol: raw request lines replicate to the standby, get
//     MOVED from a non-owner, and park during a handoff, like frames;
//   * negative paths: every malformed or impossible migration request
//     answers a TYPED error — nothing hangs, nothing crashes — and a
//     blob of an older version aborts the handoff, the source keeping
//     the group;
//   * telemetry identity: HEALTH lines, TRACE_DUMP spans, and metric
//     families carry the node="<id>" label so fan-outs across nodes stay
//     attributable;
//   * hostile bytes: the GroupStateBlob / ReplicationRecord codecs reject
//     truncation, bit flips, bad magic, and CRC damage with ParseError.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/cluster.h"
#include "runtime/group_manager.h"
#include "runtime/migration.h"
#include "runtime/remote.h"
#include "runtime/resilient.h"
#include "runtime/sim_net.h"
#include "storage/io.h"
#include "util/rng.h"
#include "util/strings.h"
#include "sink_rows.h"

namespace avoc::runtime {
namespace {

constexpr size_t kModules = 3;
constexpr size_t kRounds = 6;
constexpr uint64_t kSeed = 0xC10C7E57ull;

VoterCluster::EngineMaker AvocMaker() {
  return [] { return core::MakeEngine(core::AlgorithmId::kAvoc, kModules); };
}

std::vector<std::vector<BatchReading>> WorkloadFor(uint64_t seed) {
  Rng values(seed ^ 0xD1FFull);
  std::vector<std::vector<BatchReading>> rounds;
  for (size_t r = 0; r < kRounds; ++r) {
    std::vector<BatchReading> batch;
    for (uint64_t m = 0; m < kModules; ++m) {
      batch.push_back(BatchReading{m, r, 20.0 + values.Gaussian(0.0, 2.0)});
    }
    rounds.push_back(std::move(batch));
  }
  return rounds;
}

std::string RenderOutputs(const SinkNode* sink) {
  std::string trace;
  for (const SinkRow& out : SinkRows(*sink)) {
    trace += StrFormat("%zu %d %a\n", out.round,
                       static_cast<int>(out.result.outcome),
                       out.result.value.value_or(-0.0));
  }
  return trace;
}

/// The fault-free in-process reference trace for WorkloadFor(seed).
std::string ReferenceTrace(uint64_t seed) {
  obs::Registry registry;
  VoterGroupManager manager(nullptr, &registry);
  EXPECT_TRUE(manager
                  .AddGroup("lights", *core::MakeEngine(
                                          core::AlgorithmId::kAvoc, kModules))
                  .ok());
  for (const std::vector<BatchReading>& batch : WorkloadFor(seed)) {
    std::vector<ReadingMessage> readings;
    for (const BatchReading& r : batch) {
      readings.push_back(ReadingMessage{static_cast<size_t>(r.module),
                                        static_cast<size_t>(r.round),
                                        r.value});
    }
    EXPECT_TRUE(manager.SubmitBatch("lights", readings).ok());
  }
  auto sink = manager.sink("lights");
  EXPECT_TRUE(sink.ok());
  return RenderOutputs(*sink);
}

RetryPolicy TestPolicy() {
  RetryPolicy policy;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 200;
  policy.request_timeout_ms = 150;
  policy.deadline_ms = 30 * 1000;
  return policy;
}

/// Runs the cluster-level operator migration and pumps it to completion.
Status MigrateAndPump(SimWorld& world, VoterCluster& cluster,
                      const std::string& group, size_t dest) {
  Status result = InternalError("migration never completed");
  bool done = false;
  cluster.Migrate(group, dest, [&](Status status) {
    result = std::move(status);
    done = true;
  });
  world.Pump();
  EXPECT_TRUE(done) << "migration callback never fired";
  return result;
}

TEST(ClusterMigrationTest, ClientFollowsMovedRedirectAndTraceStaysBitExact) {
  SimWorld world(kSeed);
  obs::Registry registry;
  VoterCluster::Options options;
  options.nodes = 2;
  auto cluster =
      VoterCluster::StartOnWorld(&world, options, &registry);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_TRUE((*cluster)->AddGroup("lights", AvocMaker()).ok());
  const size_t source = (*cluster)->OwnerOf("lights");
  const size_t dest = 1 - source;

  ResilientVoterClient client(
      []() -> Result<std::unique_ptr<Transport>> {
        return IoError("node directory only");
      },
      &world, "cluster-client", TestPolicy(), kSeed, &registry);
  client.UseNodeDirectory(
      [&](size_t node) { return (*cluster)->DialNode(node); }, options.nodes,
      /*initial_node=*/source);

  const auto workload = WorkloadFor(kSeed);
  for (size_t r = 0; r < kRounds / 2; ++r) {
    auto accepted = client.SubmitBatch("lights", workload[r]);
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    ASSERT_EQ(*accepted, workload[r].size());
  }

  ASSERT_TRUE(MigrateAndPump(world, **cluster, "lights", dest).ok());
  EXPECT_EQ((*cluster)->OwnerOf("lights"), dest);
  EXPECT_EQ((*cluster)->ActiveServer(source)->group_migrations_out(), 1u);
  EXPECT_EQ((*cluster)->ActiveServer(dest)->group_migrations_in(), 1u);

  for (size_t r = kRounds / 2; r < kRounds; ++r) {
    auto accepted = client.SubmitBatch("lights", workload[r]);
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    ASSERT_EQ(*accepted, workload[r].size());
  }
  // The still-connected client learned the new owner from MOVED.
  EXPECT_GE(client.redirects_followed(), 1u);
  EXPECT_EQ(client.target_node(), dest);
  EXPECT_GE((*cluster)->ActiveServer(source)->moved_redirects(), 1u);

  auto sink = (*cluster)->sink("lights");
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ(RenderOutputs(*sink), ReferenceTrace(kSeed));
  (*cluster)->Stop();
}

TEST(ClusterMigrationTest, DedupEntriesTravelWithTheGroup) {
  SimWorld world(kSeed);
  VoterCluster::Options options;
  options.nodes = 2;
  auto cluster = VoterCluster::StartOnWorld(&world, options);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->AddGroup("lights", AvocMaker()).ok());
  const size_t source = (*cluster)->OwnerOf("lights");
  const size_t dest = 1 - source;

  const auto workload = WorkloadFor(kSeed);
  auto transport = (*cluster)->DialNode(source);
  ASSERT_TRUE(transport.ok());
  auto writer = RemoteVoterClient::FromTransport(std::move(*transport));
  ASSERT_TRUE(writer.ok());
  auto first = writer->SubmitBatchSeq("edge-7", 1, "lights", workload[0]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(*first, workload[0].size());

  ASSERT_TRUE(MigrateAndPump(world, **cluster, "lights", dest).ok());

  // The SAME (client, seq) resent to the destination must be answered
  // from the migrated dedup cache, not double-ingested.
  auto transport2 = (*cluster)->DialNode(dest);
  ASSERT_TRUE(transport2.ok());
  auto resender = RemoteVoterClient::FromTransport(std::move(*transport2));
  ASSERT_TRUE(resender.ok());
  auto replay = resender->SubmitBatchSeq("edge-7", 1, "lights", workload[0]);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(*replay, *first);

  auto sink = (*cluster)->sink("lights");
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ(SinkRows(**sink).size(), 1u);  // round 0 fused exactly once
  (*cluster)->Stop();
}

TEST(ClusterMigrationTest, WireMigrateGroupVerbCommitsAndOldOwnerRedirects) {
  SimWorld world(kSeed);
  VoterCluster::Options options;
  options.nodes = 2;
  auto cluster = VoterCluster::StartOnWorld(&world, options);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->AddGroup("lights", AvocMaker()).ok());
  const size_t source = (*cluster)->OwnerOf("lights");
  const size_t dest = 1 - source;

  auto transport = (*cluster)->DialNode(source);
  ASSERT_TRUE(transport.ok());
  auto client = RemoteVoterClient::FromTransport(std::move(*transport));
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->MigrateGroup("lights", dest).ok());
  EXPECT_EQ((*cluster)->OwnerOf("lights"), dest);

  // A plain (non-resilient) client sees the machine-parseable MOVED.
  const auto workload = WorkloadFor(kSeed);
  auto bounced = client->SubmitBatch("lights", workload[0]);
  ASSERT_FALSE(bounced.ok());
  uint64_t moved_to = std::numeric_limits<uint64_t>::max();
  EXPECT_TRUE(TryParseMoved(bounced.status(), &moved_to))
      << bounced.status().ToString();
  EXPECT_EQ(moved_to, dest);
  (*cluster)->Stop();
}

TEST(ClusterMigrationTest, CrashFailoverResumesIngestExactlyOnce) {
  SimWorld world(kSeed);
  obs::Registry registry;
  VoterCluster::Options options;
  options.nodes = 2;
  options.hot_standbys = true;
  auto cluster = VoterCluster::StartOnWorld(&world, options, &registry);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->AddGroup("lights", AvocMaker()).ok());
  const size_t owner = (*cluster)->OwnerOf("lights");

  ResilientVoterClient client(
      []() -> Result<std::unique_ptr<Transport>> {
        return IoError("node directory only");
      },
      &world, "failover-client", TestPolicy(), kSeed, &registry);
  client.UseNodeDirectory(
      [&](size_t node) { return (*cluster)->DialNode(node); }, options.nodes,
      owner);

  const auto workload = WorkloadFor(kSeed);
  for (size_t r = 0; r < kRounds / 2; ++r) {
    ASSERT_TRUE(client.SubmitBatch("lights", workload[r]).ok());
  }
  // Every acknowledged frame reached the standby before its reply.
  EXPECT_GE((*cluster)->StandbyServer(owner)->replicated_applies(),
            kRounds / 2);

  (*cluster)->CrashNode(owner);
  ASSERT_TRUE((*cluster)->Failover(owner).ok());
  for (size_t r = kRounds / 2; r < kRounds; ++r) {
    auto accepted = client.SubmitBatch("lights", workload[r]);
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  }
  EXPECT_GE(client.reconnects(), 1u);  // the crash dropped the connection

  auto sink = (*cluster)->sink("lights");
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ(RenderOutputs(*sink), ReferenceTrace(kSeed));
  (*cluster)->Stop();
}

// --- the line protocol on a cluster ------------------------------------------
//
// Line requests are translated into frames inside the connection, so they
// take the same cluster path as binary clients: standby replication,
// MOVED redirects and migration parking.

/// Sends one request line and returns the reply line.
std::string Exchange(Transport& connection, const std::string& line) {
  EXPECT_TRUE(connection.SendLine(line).ok());
  auto reply = connection.ReceiveLine();
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  return reply.ok() ? *reply : "<" + reply.status().ToString() + ">";
}

std::string SubmitLine(const BatchReading& reading) {
  return StrFormat("SUBMIT lights %llu %llu %.17g",
                   static_cast<unsigned long long>(reading.module),
                   static_cast<unsigned long long>(reading.round),
                   reading.value);
}

std::string MovedLine(VoterCluster& cluster, size_t owner) {
  return "ERR " + MovedError(owner, cluster.NodeAddress(owner)).ToString();
}

TEST(ClusterLineProtocolTest, LineSubmitsReplicateAndSurviveFailover) {
  SimWorld world(kSeed);
  obs::Registry registry;
  VoterCluster::Options options;
  options.nodes = 2;
  options.hot_standbys = true;
  auto cluster = VoterCluster::StartOnWorld(&world, options, &registry);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_TRUE((*cluster)->AddGroup("lights", AvocMaker()).ok());
  const size_t owner = (*cluster)->OwnerOf("lights");

  const auto workload = WorkloadFor(kSeed);
  auto primary = (*cluster)->DialNode(owner);
  ASSERT_TRUE(primary.ok());
  for (size_t r = 0; r < kRounds / 2; ++r) {
    for (const BatchReading& reading : workload[r]) {
      ASSERT_EQ(Exchange(**primary, SubmitLine(reading)), "OK");
    }
  }
  // Every acknowledged line reached the standby before its reply.
  EXPECT_GE((*cluster)->StandbyServer(owner)->replicated_applies(),
            kRounds / 2 * kModules);

  (*cluster)->CrashNode(owner);
  ASSERT_TRUE((*cluster)->Failover(owner).ok());
  // The crash dropped the connection; the node index now dials the
  // promoted standby.
  auto promoted = (*cluster)->DialNode(owner);
  ASSERT_TRUE(promoted.ok());
  for (size_t r = kRounds / 2; r < kRounds; ++r) {
    for (const BatchReading& reading : workload[r]) {
      ASSERT_EQ(Exchange(**promoted, SubmitLine(reading)), "OK");
    }
  }

  auto sink = (*cluster)->sink("lights");
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ(RenderOutputs(*sink), ReferenceTrace(kSeed));
  (*cluster)->Stop();
}

TEST(ClusterLineProtocolTest, NonOwnerAnswersMovedNamingTheOwner) {
  SimWorld world(kSeed);
  VoterCluster::Options options;
  options.nodes = 2;
  auto cluster = VoterCluster::StartOnWorld(&world, options);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->AddGroup("lights", AvocMaker()).ok());
  const size_t owner = (*cluster)->OwnerOf("lights");
  const size_t other = 1 - owner;

  auto transport = (*cluster)->DialNode(other);
  ASSERT_TRUE(transport.ok());
  const auto workload = WorkloadFor(kSeed);
  EXPECT_EQ(Exchange(**transport, SubmitLine(workload[0][0])),
            MovedLine(**cluster, owner));
  EXPECT_EQ(Exchange(**transport, "CLOSE lights 0"),
            MovedLine(**cluster, owner));
  EXPECT_EQ(Exchange(**transport, "QUERY lights"), MovedLine(**cluster, owner));
  EXPECT_GE((*cluster)->ActiveServer(other)->moved_redirects(), 3u);
  // Nothing was written on the non-owner.
  EXPECT_FALSE((*cluster)->ActiveManager(other)->HasGroup("lights"));
  (*cluster)->Stop();
}

TEST(ClusterLineProtocolTest, LineSubmitDuringHandoffIsParkedThenMoved) {
  SimWorld world(kSeed);
  VoterCluster::Options options;
  options.nodes = 2;
  auto cluster = VoterCluster::StartOnWorld(&world, options);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->AddGroup("lights", AvocMaker()).ok());
  const size_t source = (*cluster)->OwnerOf("lights");
  const size_t dest = 1 - source;

  const auto workload = WorkloadFor(kSeed);
  auto transport = (*cluster)->DialNode(source);
  ASSERT_TRUE(transport.ok());
  for (const BatchReading& reading : workload[0]) {
    ASSERT_EQ(Exchange(**transport, SubmitLine(reading)), "OK");
  }
  // The migration quiesces the group on the source's loop before the
  // next line arrives; that line parks and resolves to MOVED once the
  // handoff commits, instead of landing in the exported copy.
  bool migrated = false;
  (*cluster)->Migrate("lights", dest, [&](Status status) {
    EXPECT_TRUE(status.ok()) << status.ToString();
    migrated = true;
  });
  EXPECT_EQ(Exchange(**transport, SubmitLine(workload[1][0])),
            MovedLine(**cluster, dest));
  EXPECT_TRUE(migrated);
  EXPECT_EQ((*cluster)->OwnerOf("lights"), dest);

  // Resent to the new owner, the rest of the workload completes with the
  // reference trace: nothing was lost or doubled by the handoff.
  auto moved = (*cluster)->DialNode(dest);
  ASSERT_TRUE(moved.ok());
  for (size_t r = 1; r < kRounds; ++r) {
    for (const BatchReading& reading : workload[r]) {
      ASSERT_EQ(Exchange(**moved, SubmitLine(reading)), "OK");
    }
  }
  auto sink = (*cluster)->sink("lights");
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ(RenderOutputs(*sink), ReferenceTrace(kSeed));
  (*cluster)->Stop();
}

// --- negative paths ----------------------------------------------------------

TEST(ClusterMigrationNegativeTest, UnknownGroupAnswersNotFound) {
  SimWorld world(kSeed);
  VoterCluster::Options options;
  options.nodes = 2;
  auto cluster = VoterCluster::StartOnWorld(&world, options);
  ASSERT_TRUE(cluster.ok());
  const Status status = MigrateAndPump(world, **cluster, "ghost", 0);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound) << status.ToString();
  (*cluster)->Stop();
}

TEST(ClusterMigrationNegativeTest, WrongNodeAnswersMovedRedirect) {
  SimWorld world(kSeed);
  VoterCluster::Options options;
  options.nodes = 2;
  auto cluster = VoterCluster::StartOnWorld(&world, options);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->AddGroup("lights", AvocMaker()).ok());
  const size_t owner = (*cluster)->OwnerOf("lights");
  const size_t wrong = 1 - owner;

  // Ask the NON-owner to migrate: same MOVED contract as data requests.
  Status result = InternalError("never completed");
  bool done = false;
  auto* server = (*cluster)->ActiveServer(wrong);
  server->BeginMigration("lights", owner, [&](Status status) {
    result = std::move(status);
    done = true;
  });
  world.Pump();
  ASSERT_TRUE(done);
  uint64_t moved_to = 0;
  EXPECT_TRUE(TryParseMoved(result, &moved_to)) << result.ToString();
  EXPECT_EQ(moved_to, owner);
  (*cluster)->Stop();
}

TEST(ClusterMigrationNegativeTest, DestinationOutOfRangeOrSelfIsTyped) {
  SimWorld world(kSeed);
  VoterCluster::Options options;
  options.nodes = 2;
  auto cluster = VoterCluster::StartOnWorld(&world, options);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->AddGroup("lights", AvocMaker()).ok());
  const size_t owner = (*cluster)->OwnerOf("lights");

  const Status out_of_range = MigrateAndPump(world, **cluster, "lights", 7);
  EXPECT_EQ(out_of_range.code(), ErrorCode::kInvalidArgument)
      << out_of_range.ToString();
  const Status to_self = MigrateAndPump(world, **cluster, "lights", owner);
  EXPECT_EQ(to_self.code(), ErrorCode::kInvalidArgument) << to_self.ToString();
  (*cluster)->Stop();
}

TEST(ClusterMigrationNegativeTest, MigrationToDeadNodeFailsFast) {
  SimWorld world(kSeed);
  VoterCluster::Options options;
  options.nodes = 2;
  auto cluster = VoterCluster::StartOnWorld(&world, options);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->AddGroup("lights", AvocMaker()).ok());
  const size_t owner = (*cluster)->OwnerOf("lights");
  const size_t dest = 1 - owner;

  (*cluster)->CrashNode(dest);
  const Status status = MigrateAndPump(world, **cluster, "lights", dest);
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition)
      << status.ToString();
  // The group never left the owner and still serves.
  EXPECT_EQ((*cluster)->OwnerOf("lights"), owner);
  EXPECT_EQ((*cluster)->ActiveServer(owner)->group_migrations_out(), 0u);
  (*cluster)->Stop();
}

TEST(ClusterMigrationNegativeTest, DoubleMigrationRaceSecondIsTyped) {
  SimWorld world(kSeed);
  VoterCluster::Options options;
  options.nodes = 3;
  auto cluster = VoterCluster::StartOnWorld(&world, options);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->AddGroup("lights", AvocMaker()).ok());
  const size_t owner = (*cluster)->OwnerOf("lights");
  const size_t dest_a = (owner + 1) % 3;
  const size_t dest_b = (owner + 2) % 3;

  // Enqueue BOTH migrations before any pump: the second dispatch finds
  // either the in-flight quiesce or the already-moved group — a typed
  // FailedPrecondition either way, never a double transfer.
  Status first = InternalError("never completed");
  Status second = InternalError("never completed");
  (**cluster).Migrate("lights", dest_a, [&](Status s) { first = std::move(s); });
  (**cluster).Migrate("lights", dest_b,
                      [&](Status s) { second = std::move(s); });
  world.Pump();
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_EQ(second.code(), ErrorCode::kFailedPrecondition)
      << second.ToString();
  EXPECT_EQ((*cluster)->OwnerOf("lights"), dest_a);
  (*cluster)->Stop();
}

/// Forwards to the cluster, but every blob it ships carries an older
/// AVGS version with its CRC re-sealed: what a node of an older build
/// sends.
class OldVersionTransfers : public ClusterControl {
 public:
  OldVersionTransfers(ClusterControl* inner, uint8_t version)
      : inner_(inner), version_(version) {}

  size_t OwnerOf(const std::string& group) const override {
    return inner_->OwnerOf(group);
  }
  size_t NodeCount() const override { return inner_->NodeCount(); }
  std::string NodeAddress(size_t node) const override {
    return inner_->NodeAddress(node);
  }
  bool NodeAlive(size_t node) const override { return inner_->NodeAlive(node); }
  bool HasStandby(size_t node) const override {
    return inner_->HasStandby(node);
  }
  void TransferGroup(size_t from, size_t dest, std::string blob,
                     std::function<void(Status)> done) override {
    blob.resize(blob.size() - 4);
    blob[4] = static_cast<char>(version_);
    storage::AppendU32(blob, storage::Crc32(blob));
    inner_->TransferGroup(from, dest, std::move(blob), std::move(done));
  }
  void CommitPlacement(const std::string& group, size_t dest) override {
    inner_->CommitPlacement(group, dest);
  }
  void Replicate(size_t node, std::string record,
                 std::function<void(Status)> done) override {
    inner_->Replicate(node, std::move(record), std::move(done));
  }

 private:
  ClusterControl* inner_;
  uint8_t version_;
};

/// A blob of an older `version` is not decoded: in a mixed-version
/// cluster the handoff fails typed on import and the group stays where
/// it was.
void ExpectOldBlobAbortsAndSourceKeepsGroup(uint8_t version) {
  SimWorld world(kSeed);
  VoterCluster::Options options;
  options.nodes = 2;
  auto cluster = VoterCluster::StartOnWorld(&world, options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_TRUE((*cluster)->AddGroup("lights", AvocMaker()).ok());
  const size_t source = (*cluster)->OwnerOf("lights");
  const size_t dest = 1 - source;

  ResilientVoterClient client(
      []() -> Result<std::unique_ptr<Transport>> {
        return IoError("node directory only");
      },
      &world, "cluster-client", TestPolicy(), kSeed);
  client.UseNodeDirectory(
      [&](size_t node) { return (*cluster)->DialNode(node); }, options.nodes,
      /*initial_node=*/source);
  const auto workload = WorkloadFor(kSeed);
  for (size_t r = 0; r < kRounds / 2; ++r) {
    auto accepted = client.SubmitBatch("lights", workload[r]);
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  }

  OldVersionTransfers old_blobs(cluster->get(), version);
  ClusterLink link;
  link.node_index = source;
  link.control = &old_blobs;
  (*cluster)->ActiveServer(source)->LinkCluster(std::move(link));
  const Status status = MigrateAndPump(world, **cluster, "lights", dest);
  EXPECT_EQ(status.code(), ErrorCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find("unsupported version"), std::string::npos)
      << status.ToString();
  EXPECT_EQ((*cluster)->OwnerOf("lights"), source);
  EXPECT_FALSE((*cluster)->ActiveManager(dest)->HasGroup("lights"));
  EXPECT_EQ((*cluster)->ActiveServer(source)->group_migrations_out(), 0u);
  EXPECT_EQ((*cluster)->ActiveServer(dest)->group_migrations_in(), 0u);

  // The source still serves the group, as if no migration was tried.
  for (size_t r = kRounds / 2; r < kRounds; ++r) {
    auto accepted = client.SubmitBatch("lights", workload[r]);
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  }
  EXPECT_EQ(client.redirects_followed(), 0u);
  auto sink = (*cluster)->sink("lights");
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ(RenderOutputs(*sink), ReferenceTrace(kSeed));
  (*cluster)->Stop();
}

TEST(ClusterMigrationNegativeTest, VersionOneBlobAbortsAndSourceKeepsGroup) {
  ExpectOldBlobAbortsAndSourceKeepsGroup(1);
}

TEST(ClusterMigrationNegativeTest, VersionTwoBlobAbortsAndSourceKeepsGroup) {
  // Version 2 carried no sink detail base; a cluster must not mix builds
  // across versions 2 and 3.
  ExpectOldBlobAbortsAndSourceKeepsGroup(2);
}

TEST(ClusterMigrationNegativeTest, RedirectLoopToDeadOwnerFailsTyped) {
  SimWorld world(kSeed);
  VoterCluster::Options options;
  options.nodes = 2;
  auto cluster = VoterCluster::StartOnWorld(&world, options);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->AddGroup("lights", AvocMaker()).ok());
  const size_t owner = (*cluster)->OwnerOf("lights");

  // Kill the owner WITHOUT failover: the live node keeps answering MOVED
  // toward a corpse.  The client must fail typed at max_redirects, not
  // spin forever.
  (*cluster)->CrashNode(owner);
  RetryPolicy policy = TestPolicy();
  policy.max_redirects = 3;
  policy.deadline_ms = 5000;
  ResilientVoterClient client(
      []() -> Result<std::unique_ptr<Transport>> {
        return IoError("node directory only");
      },
      &world, "loop-client", policy, kSeed);
  client.UseNodeDirectory(
      [&](size_t node) { return (*cluster)->DialNode(node); }, options.nodes,
      1 - owner);

  const auto workload = WorkloadFor(kSeed);
  auto bounced = client.SubmitBatch("lights", workload[0]);
  ASSERT_FALSE(bounced.ok());
  EXPECT_EQ(bounced.status().code(), ErrorCode::kFailedPrecondition)
      << bounced.status().ToString();
  EXPECT_NE(bounced.status().message().find("redirect loop"),
            std::string::npos)
      << bounced.status().ToString();
  EXPECT_GE(client.redirects_followed(), policy.max_redirects);
  (*cluster)->Stop();
}

TEST(ClusterMigrationNegativeTest, StandaloneServerRejectsMigrateGroupVerb) {
  SimWorld world(kSeed);
  obs::Registry registry;
  VoterGroupManager manager(nullptr, &registry);
  ASSERT_TRUE(manager
                  .AddGroup("lights", *core::MakeEngine(
                                          core::AlgorithmId::kAvoc, kModules))
                  .ok());
  auto listener = world.Listen(7);
  ASSERT_TRUE(listener.ok());
  auto server = RemoteVoterServer::StartOnReactor(
      &manager, RemoteServerOptions{}, std::move(*listener), world.reactor(),
      /*spawn_loop_thread=*/false);
  ASSERT_TRUE(server.ok());

  auto transport = world.Connect(7);
  ASSERT_TRUE(transport.ok());
  auto client = RemoteVoterClient::FromTransport(std::move(*transport));
  ASSERT_TRUE(client.ok());
  const Status status = client->MigrateGroup("lights", 1);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cluster mode"), std::string::npos)
      << status.ToString();
  // The connection stays healthy for ordinary traffic.
  EXPECT_TRUE(client->Ping().ok());
  (*server)->Stop();
}

// --- per-node telemetry identity --------------------------------------------

TEST(ClusterTelemetryTest, HealthMetricsAndTraceDumpCarryNodeLabels) {
  SimWorld world(kSeed);
  obs::TracerOptions tracer_options;
  tracer_options.ring_count = 1;
  tracer_options.ring_capacity = 4096;
  tracer_options.now_ns = [&world] { return world.NowMs() * 1'000'000ull; };
  obs::Tracer tracer(tracer_options);
  obs::Registry registry;
  VoterCluster::Options options;
  options.nodes = 2;
  options.server.tracer = &tracer;
  auto cluster = VoterCluster::StartOnWorld(&world, options, &registry);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->AddGroup("lights", AvocMaker()).ok());
  const size_t owner = (*cluster)->OwnerOf("lights");

  const auto workload = WorkloadFor(kSeed);
  auto transport = (*cluster)->DialNode(owner);
  ASSERT_TRUE(transport.ok());
  auto client = RemoteVoterClient::FromTransport(std::move(*transport));
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SubmitBatch("lights", workload[0]).ok());

  const std::string node_label = StrFormat("node=n%zu", owner);
  // HEALTH fan-out: every GROUP line names the node that owns the group.
  auto health = client->Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  ASSERT_FALSE(health->empty());
  for (const std::string& line : *health) {
    EXPECT_NE(line.find(node_label), std::string::npos) << line;
  }
  // Metric families are disambiguated per node.
  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find(StrFormat("node=\"n%zu\"", owner)),
            std::string::npos);
  EXPECT_NE(metrics->find("avoc_cluster_moved_total"), std::string::npos);
  // TRACE_DUMP spans say which node did the work.
  auto dump = client->TraceDump();
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_NE(dump->find(node_label), std::string::npos) << *dump;
  (*cluster)->Stop();
}

// --- hostile bytes at the codec layer ----------------------------------------

GroupStateBlob SampleBlob() {
  GroupStateBlob blob;
  blob.group = "lights";
  auto& engine = blob.state.engine;
  engine.records = {0.5, std::numeric_limits<double>::quiet_NaN(), -0.0};
  engine.agreement_sums = {1.25, std::numeric_limits<double>::infinity(),
                           -3.5};
  engine.observations = {4, 5, 6};
  engine.rounds = 9;
  engine.last_output = -0.0;
  engine.round_index = 9;
  blob.state.hub.pending.push_back(
      {11, core::Round{core::Reading(21.5), core::Reading(std::nullopt),
                       core::Reading(22.5)}});
  for (const uint64_t round : {0, 1, 2, 5}) blob.state.hub.closed.Insert(round);
  core::VoteResult out;
  out.value = 21.0;
  out.present_count = 3;
  out.weights = {0.3, 0.3, 0.4};
  out.agreement = {1.0, 0.0, 1.0};
  out.history = {0.9, 0.1, 0.8};
  out.excluded = {false, true, false};
  out.eliminated = {false, false, false};
  core::BatchTrace trace;
  trace.Append(out);
  SetSinkRows(blob, std::move(trace), {2});
  blob.dedup.push_back({"edge-7", 3, 3});
  return blob;
}

TEST(ClusterCodecTest, GroupStateRoundTripsSpecialDoublesBitExactly) {
  const GroupStateBlob blob = SampleBlob();
  auto decoded = DecodeGroupState(EncodeGroupState(blob));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto& ledger = decoded->state.engine;
  ASSERT_EQ(ledger.records.size(), 3u);
  EXPECT_EQ(std::bit_cast<uint64_t>(ledger.records[1]),
            std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(std::bit_cast<uint64_t>(ledger.records[2]),
            std::bit_cast<uint64_t>(-0.0));
  EXPECT_EQ(ledger.agreement_sums[1],
            std::numeric_limits<double>::infinity());
  ASSERT_TRUE(decoded->state.engine.last_output.has_value());
  EXPECT_EQ(std::bit_cast<uint64_t>(*decoded->state.engine.last_output),
            std::bit_cast<uint64_t>(-0.0));
  ASSERT_EQ(decoded->dedup.size(), 1u);
  EXPECT_EQ(decoded->dedup[0].client_id, "edge-7");
  EXPECT_EQ(decoded->dedup[0].seq, 3u);
  ASSERT_EQ(decoded->state.hub.pending.size(), 1u);
  EXPECT_FALSE(decoded->state.hub.pending[0].second[1].has_value());
  EXPECT_EQ(decoded->state.hub.closed.run_count(), 2u);
  ASSERT_EQ(decoded->state.sink_rounds.size(), 1u);
  EXPECT_EQ(decoded->state.sink_rounds[0], 2u);
  EXPECT_EQ(decoded->state.sink_trace.output(0), std::optional<double>(21.0));
  EXPECT_EQ(decoded->state.sink_trace.excluded(0)[1], 1u);
}

TEST(ClusterCodecTest, GroupStateDecodeRejectsHostileBytes) {
  const std::string good = EncodeGroupState(SampleBlob());
  // Every truncation point fails typed.
  for (size_t len = 0; len < good.size(); ++len) {
    auto decoded = DecodeGroupState(std::string_view(good).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "len=" << len;
    EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError)
        << "len=" << len;
  }
  // Any single bit flip breaks the CRC.
  Rng rng(0xF11Full);
  for (int i = 0; i < 200; ++i) {
    std::string bytes = good;
    bytes[rng.UniformInt(bytes.size())] ^=
        static_cast<char>(1u << rng.UniformInt(8));
    auto decoded = DecodeGroupState(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);
  }
  // Wrong magic (a replication record is NOT a blob) and trailing bytes.
  EXPECT_FALSE(DecodeGroupState(EncodeReplicationRecord({})).ok());
  EXPECT_FALSE(DecodeGroupState(good + "x").ok());
  EXPECT_FALSE(DecodeGroupState("").ok());
}

TEST(ClusterCodecTest, GroupStateDecodeRejectsSinkRowsTheEngineCannotHold) {
  // The engine state has three modules; two-wide sink rows would be
  // written past by the next pass, so the decoder refuses them.
  GroupStateBlob narrow = SampleBlob();
  core::VoteResult out;
  out.value = 21.0;
  out.weights = {0.5, 0.5};
  out.agreement = {1.0, 1.0};
  out.history = {1.0, 1.0};
  out.excluded = {false, false};
  out.eliminated = {false, false};
  core::BatchTrace trace;
  trace.Append(out);
  SetSinkRows(narrow, std::move(trace), {2});
  auto decoded = DecodeGroupState(EncodeGroupState(narrow));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kInvalidArgument)
      << decoded.status().ToString();

  // No sink rows: any arity will do.
  GroupStateBlob empty = SampleBlob();
  SetSinkRows(empty, core::BatchTrace(), {});
  EXPECT_TRUE(DecodeGroupState(EncodeGroupState(empty)).ok());
}

TEST(ClusterCodecTest, ReplicationRecordDecodeRejectsHostileBytes) {
  ReplicationRecord record;
  record.kind = ReplicationRecord::Kind::kFrame;
  record.frame_type = 0x06;
  record.bytes = std::string("payload\x00\xff\x80", 10);
  const std::string good = EncodeReplicationRecord(record);
  auto ok = DecodeReplicationRecord(good);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->bytes, record.bytes);

  for (size_t len = 0; len < good.size(); ++len) {
    auto decoded =
        DecodeReplicationRecord(std::string_view(good).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "len=" << len;
    EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);
  }
  Rng rng(0xF00Dull);
  for (int i = 0; i < 200; ++i) {
    std::string bytes = good;
    bytes[rng.UniformInt(bytes.size())] ^=
        static_cast<char>(1u << rng.UniformInt(8));
    EXPECT_FALSE(DecodeReplicationRecord(bytes).ok());
  }
  EXPECT_FALSE(DecodeReplicationRecord(EncodeGroupState(SampleBlob())).ok());
  EXPECT_FALSE(DecodeReplicationRecord("").ok());
}

}  // namespace
}  // namespace avoc::runtime
