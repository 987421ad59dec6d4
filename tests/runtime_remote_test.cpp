// The line protocol over real TCP: raw request lines in, exact reply text
// out.  Every line is translated into its frame inside the connection,
// so these tests pin the text spelling of the one frame executor.
#include "runtime/remote.h"

#include <gtest/gtest.h>

#include <thread>

#include "core/algorithms.h"
#include "util/strings.h"

namespace avoc::runtime {
namespace {

class RemoteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(manager_
                    .AddGroup("lights",
                              *core::MakeEngine(core::AlgorithmId::kAvoc, 3))
                    .ok());
    auto server = RemoteVoterServer::Start(&manager_, 0);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  void TearDown() override { server_->Stop(); }

  TcpConnection MustConnect() {
    auto connection = TcpConnection::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(connection.ok()) << connection.status().ToString();
    return std::move(*connection);
  }

  /// Sends one request line and returns the reply line.
  static std::string Exchange(Transport& connection, const std::string& line) {
    EXPECT_TRUE(connection.SendLine(line).ok());
    auto reply = connection.ReceiveLine();
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? *reply : "<" + reply.status().ToString() + ">";
  }

  /// The QUERY reply for the sink's current fused value.
  std::string ExpectedValueLine() {
    auto sink = manager_.sink("lights");
    EXPECT_TRUE(sink.ok());
    const auto value = (*sink)->last_value();
    EXPECT_TRUE(value.has_value());
    return StrFormat("VALUE %.17g", value.value_or(0.0));
  }

  VoterGroupManager manager_;
  std::unique_ptr<RemoteVoterServer> server_;
};

TEST_F(RemoteTest, PingPong) {
  TcpConnection connection = MustConnect();
  EXPECT_EQ(Exchange(connection, "PING"), "PONG");
}

TEST_F(RemoteTest, SubmitFullRoundAndQuery) {
  TcpConnection connection = MustConnect();
  EXPECT_EQ(Exchange(connection, "SUBMIT lights 0 0 100"), "OK");
  EXPECT_EQ(Exchange(connection, "SUBMIT lights 1 0 101"), "OK");
  EXPECT_EQ(Exchange(connection, "SUBMIT lights 2 0 99.5"), "OK");
  const std::string reply = Exchange(connection, "QUERY lights");
  EXPECT_EQ(reply, ExpectedValueLine());
  ASSERT_EQ(reply.rfind("VALUE ", 0), 0u) << reply;
  auto value = ParseDouble(reply.substr(6));
  ASSERT_TRUE(value.ok()) << reply;
  EXPECT_NEAR(*value, 100.0, 1.5);
}

TEST_F(RemoteTest, CloseFlushesPartialRound) {
  TcpConnection connection = MustConnect();
  EXPECT_EQ(Exchange(connection, "SUBMIT lights 0 5 42"), "OK");
  EXPECT_EQ(Exchange(connection, "SUBMIT lights 1 5 44"), "OK");
  EXPECT_EQ(Exchange(connection, "CLOSE lights 5"), "OK");
  // AVOC's mean-nearest-neighbour selection returns a real candidate.
  const std::string reply = Exchange(connection, "QUERY lights");
  EXPECT_TRUE(reply == "VALUE 42" || reply == "VALUE 44") << reply;
}

TEST_F(RemoteTest, QueryBeforeAnyRoundReturnsNone) {
  TcpConnection connection = MustConnect();
  EXPECT_EQ(Exchange(connection, "QUERY lights"), "NONE");
}

TEST_F(RemoteTest, ErrorsForUnknownGroupAndBadInput) {
  TcpConnection connection = MustConnect();
  const std::string unknown = "ERR not_found: no voter group named 'ghosts'";
  EXPECT_EQ(Exchange(connection, "SUBMIT ghosts 0 0 1"), unknown);
  EXPECT_EQ(Exchange(connection, "QUERY ghosts"), unknown);
  EXPECT_EQ(Exchange(connection, "CLOSE ghosts 0"), unknown);
  // Out-of-range module: the reading is not accepted.
  EXPECT_EQ(Exchange(connection, "SUBMIT lights 99 0 1"),
            "ERR reading not accepted");
}

// SUBMIT answers OK exactly when the reading was accepted: a reading for
// an already-closed round is dropped, and says so.
TEST_F(RemoteTest, SubmitIntoClosedRoundIsAnError) {
  TcpConnection connection = MustConnect();
  EXPECT_EQ(Exchange(connection, "SUBMIT lights 0 3 7"), "OK");
  EXPECT_EQ(Exchange(connection, "CLOSE lights 3"), "OK");
  EXPECT_EQ(Exchange(connection, "SUBMIT lights 1 3 9"),
            "ERR reading not accepted");
}

TEST_F(RemoteTest, GroupsListsRegisteredGroups) {
  ASSERT_TRUE(manager_
                  .AddGroup("extra",
                            *core::MakeEngine(core::AlgorithmId::kAverage, 2))
                  .ok());
  TcpConnection connection = MustConnect();
  EXPECT_EQ(Exchange(connection, "GROUPS"), "GROUPS 2 extra lights");
}

TEST_F(RemoteTest, MultipleConcurrentClients) {
  constexpr int kRounds = 20;
  std::vector<std::thread> feeders;
  // Each connection plays one module; rounds complete when all three
  // modules of a round arrived (module 2 is fed by the main thread).
  for (int m = 0; m < 2; ++m) {
    feeders.emplace_back([this, m] {
      auto connection = TcpConnection::Connect("127.0.0.1", server_->port());
      ASSERT_TRUE(connection.ok());
      for (int r = 0; r < kRounds; ++r) {
        ASSERT_EQ(Exchange(*connection,
                           StrFormat("SUBMIT lights %d %d %d", m, r, 10 + m)),
                  "OK");
      }
    });
  }
  TcpConnection main_connection = MustConnect();
  for (int r = 0; r < kRounds; ++r) {
    ASSERT_EQ(Exchange(main_connection, StrFormat("SUBMIT lights 2 %d 12", r)),
              "OK");
  }
  for (std::thread& feeder : feeders) feeder.join();
  // Give the last in-flight round a moment to fuse.
  auto sink = manager_.sink("lights");
  ASSERT_TRUE(sink.ok());
  for (int i = 0; i < 100 && (*sink)->output_count() < kRounds; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ((*sink)->output_count(), static_cast<size_t>(kRounds));
}

TEST_F(RemoteTest, MalformedRequestsYieldErrors) {
  TcpConnection connection = MustConnect();
  EXPECT_EQ(Exchange(connection, "SUBMIT lights notanumber 0 1.0"),
            "ERR bad module index");
  EXPECT_EQ(Exchange(connection, "FROBNICATE"),
            "ERR unknown verb 'FROBNICATE'");
  // A malformed line costs only its own reply; the connection lives on.
  EXPECT_EQ(Exchange(connection, "PING"), "PONG");
  EXPECT_EQ(Exchange(connection, "QUIT"), "BYE");
}

TEST_F(RemoteTest, ServerStopsCleanlyWithConnectedClients) {
  TcpConnection connection = MustConnect();
  EXPECT_EQ(Exchange(connection, "PING"), "PONG");
  server_->Stop();  // must not hang with the client still connected
  SUCCEED();
}

TEST_F(RemoteTest, RequestsServedCounts) {
  TcpConnection connection = MustConnect();
  EXPECT_EQ(Exchange(connection, "PING"), "PONG");
  EXPECT_EQ(Exchange(connection, "PING"), "PONG");
  EXPECT_GE(server_->requests_served(), 2u);
}

// A request line longer than max_frame_bytes, with or without its newline,
// is a protocol violation like an oversized binary frame: one short ERR,
// then the server hangs up instead of buffering the rest.
TEST(RemoteLineOptionsTest, OverlongLineGetsOneErrorAndClose) {
  VoterGroupManager manager;
  ASSERT_TRUE(
      manager.AddGroup("g", *core::MakeEngine(core::AlgorithmId::kAverage, 2))
          .ok());
  RemoteServerOptions options;
  options.max_frame_bytes = 1024;
  auto server = RemoteVoterServer::StartWithOptions(&manager, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto raw = TcpConnection::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetReceiveTimeoutMs(5000).ok());
  // 64 KiB of one unterminated "verb".  The server may hang up before it
  // read every byte, so a failed send is not an error here.
  (void)raw->SendAll(std::string(64 * 1024, 'A'));
  auto reply = raw->ReceiveLine();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->rfind("ERR ", 0), 0u) << *reply;
  EXPECT_LT(reply->size(), 128u);
  EXPECT_FALSE(raw->ReceiveLine().ok()) << "connection must be closed";
  (*server)->Stop();
}

}  // namespace
}  // namespace avoc::runtime
