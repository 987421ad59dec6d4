#include "runtime/remote.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithms.h"
#include "obs/metrics.h"
#include "runtime/cluster.h"
#include "runtime/framing.h"
#include "runtime/sharded_remote.h"
#include "runtime/sim_net.h"
#include "sample_requests.h"
#include "util/strings.h"

namespace avoc::runtime {
namespace {

class RemoteBinaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    manager_ = std::make_unique<VoterGroupManager>(nullptr, &registry_);
    ASSERT_TRUE(manager_
                    ->AddGroup("lights",
                               *core::MakeEngine(core::AlgorithmId::kAvoc, 3))
                    .ok());
    auto server = RemoteVoterServer::Start(manager_.get(), 0);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  void TearDown() override { server_->Stop(); }

  RemoteVoterClient MustConnectBinary() {
    auto client =
        RemoteVoterClient::ConnectBinary("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  obs::Registry registry_;
  std::unique_ptr<VoterGroupManager> manager_;
  std::unique_ptr<RemoteVoterServer> server_;
};

// One SUBMIT_BATCH frame carrying several complete rounds must reach the
// sink via a single columnar vote — the e2e path of the refactor.
TEST_F(RemoteBinaryTest, BatchedSubmitReachesSinkViaOneFrame) {
  RemoteVoterClient client = MustConnectBinary();
  constexpr size_t kRounds = 8;
  std::vector<BatchReading> readings;
  for (size_t r = 0; r < kRounds; ++r) {
    for (uint64_t m = 0; m < 3; ++m) {
      readings.push_back(BatchReading{m, r, 20.0 + static_cast<double>(m)});
    }
  }
  auto accepted = client.SubmitBatch("lights", readings);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(*accepted, readings.size());
  // Dispatch is synchronous inside the server's frame handler, so by the
  // time the OK reply arrived every round has been voted and sunk.
  auto sink = manager_->sink("lights");
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ((*sink)->output_count(), kRounds);
  (*sink)->WithTrace([&](const core::BatchTrace&,
                         const std::vector<size_t>& rounds) {
    ASSERT_EQ(rounds.size(), kRounds);
    for (size_t i = 0; i < kRounds; ++i) EXPECT_EQ(rounds[i], i);
  });
  auto value = client.Query("lights");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_NEAR(*value, 21.0, 1.5);
}

TEST_F(RemoteBinaryTest, BatchReportsOutOfRangeModulesAsUnaccepted) {
  RemoteVoterClient client = MustConnectBinary();
  const std::vector<BatchReading> readings = {
      {0, 0, 1.0}, {99, 0, 2.0}, {1, 0, 3.0}};
  auto accepted = client.SubmitBatch("lights", readings);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(*accepted, 2u);
}

TEST_F(RemoteBinaryTest, PipelinedBatchesReplyInOrder) {
  RemoteVoterClient client = MustConnectBinary();
  constexpr size_t kFrames = 16;
  for (size_t f = 0; f < kFrames; ++f) {
    std::vector<BatchReading> readings;
    for (uint64_t m = 0; m < 3; ++m) {
      readings.push_back(BatchReading{m, f, 5.0});
    }
    ASSERT_TRUE(client.PipelineSubmitBatch("lights", readings).ok());
  }
  EXPECT_EQ(client.pending_replies(), kFrames);
  for (size_t f = 0; f < kFrames; ++f) {
    auto accepted = client.AwaitSubmitBatch();
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    EXPECT_EQ(*accepted, 3u);
  }
  EXPECT_EQ(client.pending_replies(), 0u);
  EXPECT_FALSE(client.AwaitSubmitBatch().ok());  // nothing pending
  auto sink = manager_->sink("lights");
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ((*sink)->output_count(), kFrames);
}

// Both protocols share the port; detection is per-connection.
TEST_F(RemoteBinaryTest, BinaryAndLegacyClientsCoexist) {
  RemoteVoterClient binary = MustConnectBinary();
  auto line = TcpConnection::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(line.ok());
  ASSERT_TRUE(line->SendLine("SUBMIT lights 0 0 30").ok());
  auto submitted = line->ReceiveLine();
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  EXPECT_EQ(*submitted, "OK");
  const std::vector<BatchReading> rest = {{1, 0, 31.0}, {2, 0, 32.0}};
  auto accepted = binary.SubmitBatch("lights", rest);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(*accepted, 2u);
  auto via_binary = binary.Query("lights");
  ASSERT_TRUE(via_binary.ok());
  ASSERT_TRUE(line->SendLine("QUERY lights").ok());
  auto via_line = line->ReceiveLine();
  ASSERT_TRUE(via_line.ok()) << via_line.status().ToString();
  EXPECT_EQ(*via_line, StrFormat("VALUE %.17g", *via_binary));
}

TEST_F(RemoteBinaryTest, ControlFramesWork) {
  RemoteVoterClient client = MustConnectBinary();
  EXPECT_TRUE(client.Ping().ok());

  auto groups = client.Groups();
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(*groups, (std::vector<std::string>{"lights"}));

  auto empty = client.Query("lights");
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), ErrorCode::kNotFound);

  const std::vector<BatchReading> partial = {{0, 3, 7.0}, {1, 3, 9.0}};
  ASSERT_TRUE(client.SubmitBatch("lights", partial).ok());
  ASSERT_TRUE(client.CloseRound("lights", 3).ok());
  auto value = client.Query("lights");
  ASSERT_TRUE(value.ok());
  EXPECT_TRUE(*value == 7.0 || *value == 9.0) << *value;

  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("avoc_remote_frames_in_total"), std::string::npos);

  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  ASSERT_EQ(health->size(), 1u);
  EXPECT_EQ(health->front().rfind("GROUP lights", 0), 0u) << health->front();

  EXPECT_FALSE(client.SubmitBatch("ghosts", partial).ok());
  EXPECT_FALSE(client.CloseRound("ghosts", 0).ok());
  EXPECT_FALSE(client.Query("ghosts").ok());
}

TEST_F(RemoteBinaryTest, RequestsServedCountsBinaryFrames) {
  RemoteVoterClient client = MustConnectBinary();
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_GE(server_->requests_served(), 3u);
}

// --- raw-socket adversarial cases --------------------------------------------

// Reads frames off a raw connection until EOF or `want` frames arrived.
std::vector<Frame> DrainFrames(Transport& conn, size_t want) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  char chunk[4096];
  while (frames.size() < want) {
    auto frame = decoder.Next();
    if (frame.ok()) {
      frames.push_back(std::move(*frame));
      continue;
    }
    if (frame.status().code() != ErrorCode::kNotFound) break;
    auto n = conn.ReceiveSome(chunk, sizeof(chunk));
    if (!n.ok()) break;  // EOF or error
    decoder.Feed(std::string_view(chunk, *n));
  }
  return frames;
}

bool AtEof(TcpConnection& conn) {
  char byte;
  auto n = conn.ReceiveSome(&byte, 1);
  return !n.ok() && n.status().code() == ErrorCode::kNotFound;
}

/// Sends every verb row's SampleRequest for "lights", each on its own
/// connection from `dial` (QUIT hangs up), and expects each reply to be a
/// typed reply frame — never the "unknown frame type" error.
void ExpectEveryVerbAnswered(
    const std::function<std::unique_ptr<Transport>()>& dial,
    std::string_view shape) {
  for (unsigned byte = 0; byte < 0x80; ++byte) {
    const RemoteVoterServer::Verb* verb =
        RemoteVoterServer::FindVerb(static_cast<FrameType>(byte));
    if (verb == nullptr) continue;
    const std::string label =
        std::string(shape) + " " + std::string(FrameTypeName(verb->type));
    std::unique_ptr<Transport> connection = dial();
    ASSERT_NE(connection, nullptr) << label;
    const Frame request = SampleRequest(verb->type, "lights");
    std::string bytes(reinterpret_cast<const char*>(kBinaryMagic), 2);
    bytes += EncodeFrame(request.type, request.payload);
    ASSERT_TRUE(connection->SendAll(bytes).ok()) << label;
    const std::vector<Frame> replies = DrainFrames(*connection, 1);
    ASSERT_EQ(replies.size(), 1u) << label;
    const Frame& reply = replies[0];
    EXPECT_GE(static_cast<unsigned>(reply.type), 0x80u) << label;
    if (reply.type == FrameType::kError) {
      std::string reason;
      ASSERT_TRUE(DecodeError(reply.payload, &reason).ok()) << label;
      EXPECT_EQ(reason.find("unknown frame type"), std::string::npos)
          << label << ": " << reason;
    }
  }
}

TEST_F(RemoteBinaryTest, EveryVerbGetsATypedReplyOnEveryServerShape) {
  ExpectEveryVerbAnswered(
      [&]() -> std::unique_ptr<Transport> {
        auto connection =
            TcpConnection::Connect("127.0.0.1", server_->port());
        if (!connection.ok() || !connection->SetReceiveTimeoutMs(5000).ok()) {
          return nullptr;
        }
        return std::make_unique<TcpConnection>(std::move(*connection));
      },
      "standalone");

  SimWorld sharded_world(41);
  auto listener = sharded_world.Listen(7);
  ASSERT_TRUE(listener.ok());
  ShardedServerOptions sharded_options;
  sharded_options.shards = 2;
  auto sharded = ShardedVoterServer::StartOnReactors(
      sharded_options, std::move(*listener),
      {sharded_world.reactor(), sharded_world.NewReactor()},
      /*spawn_loop_threads=*/false, /*store=*/nullptr, &registry_);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_TRUE((*sharded)
                  ->AddGroup("lights",
                             *core::MakeEngine(core::AlgorithmId::kAvoc, 3))
                  .ok());
  ASSERT_TRUE((*sharded)->Serve().ok());
  ExpectEveryVerbAnswered(
      [&]() -> std::unique_ptr<Transport> {
        auto connection = sharded_world.Connect(7);
        return connection.ok() ? std::move(*connection) : nullptr;
      },
      "shard");
  (*sharded)->Stop();

  SimWorld cluster_world(42);
  VoterCluster::Options cluster_options;
  cluster_options.nodes = 2;
  cluster_options.hot_standbys = true;
  auto cluster = VoterCluster::StartOnWorld(&cluster_world, cluster_options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_TRUE((*cluster)
                  ->AddGroup("lights",
                             [] {
                               return core::MakeEngine(
                                   core::AlgorithmId::kAvoc, 3);
                             })
                  .ok());
  const size_t owner = (*cluster)->OwnerOf("lights");
  ExpectEveryVerbAnswered(
      [&]() -> std::unique_ptr<Transport> {
        auto connection = (*cluster)->DialNode(owner);
        return connection.ok() ? std::move(*connection) : nullptr;
      },
      "cluster");
  (*cluster)->Stop();
}

TEST_F(RemoteBinaryTest, BadPreambleGetsErrorAndClose) {
  auto raw = TcpConnection::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetReceiveTimeoutMs(5000).ok());
  // First byte announces binary, second byte is wrong.
  ASSERT_TRUE(raw->SendAll(std::string("\xAB\xFF", 2)).ok());
  const std::vector<Frame> frames = DrainFrames(*raw, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_TRUE(AtEof(*raw));
}

TEST_F(RemoteBinaryTest, ZeroLengthFramePoisonsConnection) {
  auto raw = TcpConnection::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetReceiveTimeoutMs(5000).ok());
  std::string bytes(reinterpret_cast<const char*>(kBinaryMagic), 2);
  bytes.push_back('\x00');  // zero-length frame: protocol violation
  ASSERT_TRUE(raw->SendAll(bytes).ok());
  const std::vector<Frame> frames = DrainFrames(*raw, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_TRUE(AtEof(*raw));
}

TEST_F(RemoteBinaryTest, QuitDrainsRepliesBeforeClose) {
  auto raw = TcpConnection::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetReceiveTimeoutMs(5000).ok());
  std::string bytes(reinterpret_cast<const char*>(kBinaryMagic), 2);
  bytes += EncodeFrame(FrameType::kPing);
  bytes += EncodeFrame(FrameType::kQuit);
  ASSERT_TRUE(raw->SendAll(bytes).ok());
  const std::vector<Frame> frames = DrainFrames(*raw, 2);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kPong);
  EXPECT_EQ(frames[1].type, FrameType::kBye);
  EXPECT_TRUE(AtEof(*raw));
}

// A byte-at-a-time sender (slow loris) must still be served correctly:
// the decoder buffers across arbitrarily small reads.
TEST_F(RemoteBinaryTest, SlowLorisSingleBytesStillServed) {
  auto raw = TcpConnection::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetReceiveTimeoutMs(5000).ok());
  std::string bytes(reinterpret_cast<const char*>(kBinaryMagic), 2);
  bytes += EncodeFrame(FrameType::kPing);
  bytes += EncodeFrame(FrameType::kQuery, EncodeQuery("lights"));
  for (char byte : bytes) {
    ASSERT_TRUE(raw->SendAll(std::string(1, byte)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<Frame> frames = DrainFrames(*raw, 2);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kPong);
  EXPECT_EQ(frames[1].type, FrameType::kNone);  // no rounds voted yet
}

// --- tests with tuned server options ------------------------------------------

TEST(RemoteBinaryOptionsTest, OversizedFrameRejectedAtConfiguredLimit) {
  VoterGroupManager manager;
  ASSERT_TRUE(
      manager.AddGroup("g", *core::MakeEngine(core::AlgorithmId::kAverage, 2))
          .ok());
  RemoteServerOptions options;
  options.max_frame_bytes = 512;
  auto server = RemoteVoterServer::StartWithOptions(&manager, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto raw = TcpConnection::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetReceiveTimeoutMs(5000).ok());
  std::vector<BatchReading> readings(100);  // ~1.7 KB payload > 512
  for (uint64_t i = 0; i < readings.size(); ++i) {
    readings[i] = BatchReading{i % 2, i / 2, 1.0};
  }
  std::string bytes(reinterpret_cast<const char*>(kBinaryMagic), 2);
  bytes += EncodeFrame(FrameType::kSubmitBatch,
                       EncodeSubmitBatch("g", readings));
  ASSERT_TRUE(raw->SendAll(bytes).ok());
  const std::vector<Frame> frames = DrainFrames(*raw, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_TRUE(AtEof(*raw));
  (*server)->Stop();
}

TEST(RemoteBinaryOptionsTest, IdleConnectionsAreDropped) {
  VoterGroupManager manager;
  ASSERT_TRUE(
      manager.AddGroup("g", *core::MakeEngine(core::AlgorithmId::kAverage, 2))
          .ok());
  RemoteServerOptions options;
  options.idle_timeout_ms = 60;
  auto server = RemoteVoterServer::StartWithOptions(&manager, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto raw = TcpConnection::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetReceiveTimeoutMs(5000).ok());
  // Say nothing; the timer wheel must reap us.  Bounded wait: the recv
  // returns NotFound at the server-initiated EOF.
  char byte;
  auto n = raw->ReceiveSome(&byte, 1);
  EXPECT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), ErrorCode::kNotFound) << n.status().ToString();
  (*server)->Stop();
}

// Pipelining hundreds of METRICS requests without reading replies must
// trip the write high-water mark: past it the server answers "ERR busy"
// instead of executing, and counts backpressure events.  Small kernel
// buffers on both ends make the queue growth deterministic.
TEST(RemoteBinaryOptionsTest, BackpressureRejectsPastHighWater) {
  obs::Registry registry;
  VoterGroupManager manager(nullptr, &registry);
  ASSERT_TRUE(
      manager.AddGroup("g", *core::MakeEngine(core::AlgorithmId::kAverage, 2))
          .ok());
  RemoteServerOptions options;
  options.write_high_water_bytes = 8 * 1024;
  options.read_pause_bytes = 64 * 1024;
  options.send_buffer_bytes = 4 * 1024;
  auto server = RemoteVoterServer::StartWithOptions(&manager, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto raw = TcpConnection::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetReceiveTimeoutMs(10000).ok());
  const int rcvbuf = 4 * 1024;
  ASSERT_EQ(::setsockopt(raw->fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf)),
            0);

  constexpr size_t kRequests = 500;
  std::string bytes(reinterpret_cast<const char*>(kBinaryMagic), 2);
  const std::string metrics_frame = EncodeFrame(FrameType::kMetrics);
  for (size_t i = 0; i < kRequests; ++i) bytes += metrics_frame;
  ASSERT_TRUE(raw->SendAll(bytes).ok());

  // Now drain every reply; some must be busy-rejections.
  const std::vector<Frame> frames = DrainFrames(*raw, kRequests);
  ASSERT_EQ(frames.size(), kRequests);
  size_t busy = 0;
  for (const Frame& frame : frames) {
    if (frame.type == FrameType::kError) {
      std::string reason;
      ASSERT_TRUE(DecodeError(frame.payload, &reason).ok());
      EXPECT_EQ(reason, "busy");
      ++busy;
    } else {
      EXPECT_EQ(frame.type, FrameType::kText);
    }
  }
  EXPECT_GT(busy, 0u);
  EXPECT_LT(busy, kRequests);  // the early requests were served
  EXPECT_GT((*server)->backpressure_events(), 0u);
  (*server)->Stop();
}

}  // namespace
}  // namespace avoc::runtime
