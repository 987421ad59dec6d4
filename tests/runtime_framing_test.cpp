#include "runtime/framing.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "runtime/remote.h"
#include "sample_requests.h"

namespace avoc::runtime {
namespace {

TEST(FramingTest, VarintRoundTrips) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            300,
                            16383,
                            16384,
                            (1ull << 35) - 1,
                            std::numeric_limits<uint64_t>::max()};
  for (const uint64_t value : cases) {
    std::string buffer;
    AppendVarint(buffer, value);
    PayloadReader reader(buffer);
    auto decoded = reader.ReadVarint();
    ASSERT_TRUE(decoded.ok()) << value;
    EXPECT_EQ(*decoded, value);
    EXPECT_TRUE(reader.ExpectEnd().ok());
  }
}

TEST(FramingTest, VarintSingleByteBoundary) {
  std::string buffer;
  AppendVarint(buffer, 127);
  EXPECT_EQ(buffer.size(), 1u);
  buffer.clear();
  AppendVarint(buffer, 128);
  EXPECT_EQ(buffer.size(), 2u);
}

TEST(FramingTest, TruncatedVarintFails) {
  std::string buffer;
  AppendVarint(buffer, 1u << 20);
  buffer.pop_back();
  PayloadReader reader(buffer);
  EXPECT_FALSE(reader.ReadVarint().ok());
}

TEST(FramingTest, OverlongVarintFails) {
  // 11 continuation bytes: no uint64 needs that many.
  std::string buffer(11, static_cast<char>(0x80));
  PayloadReader reader(buffer);
  EXPECT_FALSE(reader.ReadVarint().ok());
}

TEST(FramingTest, DoubleRoundTripsExactly) {
  const double cases[] = {0.0,
                          -0.0,
                          1.5,
                          -273.15,
                          1e-300,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::infinity()};
  for (const double value : cases) {
    std::string buffer;
    AppendDouble(buffer, value);
    EXPECT_EQ(buffer.size(), 8u);
    PayloadReader reader(buffer);
    auto decoded = reader.ReadDouble();
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, value);
  }
}

TEST(FramingTest, StringRoundTrips) {
  std::string buffer;
  AppendLengthPrefixedString(buffer, "lights");
  AppendLengthPrefixedString(buffer, "");
  PayloadReader reader(buffer);
  auto first = reader.ReadString();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, "lights");
  auto second = reader.ReadString();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "");
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

TEST(FramingTest, StringLengthBeyondPayloadFails) {
  std::string buffer;
  AppendVarint(buffer, 100);  // promises 100 bytes
  buffer += "short";
  PayloadReader reader(buffer);
  EXPECT_FALSE(reader.ReadString().ok());
}

TEST(FramingTest, SingleFrameDecodes) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(FrameType::kPing));
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kPing);
  EXPECT_TRUE(frame->payload.empty());
  EXPECT_EQ(decoder.Next().status().code(), ErrorCode::kNotFound);
}

TEST(FramingTest, EveryByteSplitDecodes) {
  // The hard fragmentation case: three frames delivered one byte at a
  // time must decode to exactly the same three frames.
  std::string stream;
  stream += EncodeFrame(FrameType::kQuery, EncodeQuery("lights"));
  stream += EncodeFrame(FrameType::kPing);
  std::vector<BatchReading> readings = {{0, 1, 2.5}, {1, 1, 2.25}};
  stream += EncodeFrame(FrameType::kSubmitBatch,
                        EncodeSubmitBatch("shelf", readings));
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (const char byte : stream) {
    decoder.Feed(std::string_view(&byte, 1));
    for (;;) {
      auto frame = decoder.Next();
      if (!frame.ok()) {
        ASSERT_EQ(frame.status().code(), ErrorCode::kNotFound);
        break;
      }
      frames.push_back(std::move(*frame));
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kQuery);
  EXPECT_EQ(frames[1].type, FrameType::kPing);
  EXPECT_EQ(frames[2].type, FrameType::kSubmitBatch);
  std::string group;
  std::vector<BatchReading> decoded;
  ASSERT_TRUE(DecodeSubmitBatch(frames[2].payload, &group, &decoded).ok());
  EXPECT_EQ(group, "shelf");
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[1].value, 2.25);
}

TEST(FramingTest, ManyFramesInOneSegmentDecode) {
  std::string stream;
  constexpr size_t kFrames = 64;
  for (size_t i = 0; i < kFrames; ++i) {
    stream += EncodeFrame(FrameType::kOk, EncodeOk(i));
  }
  FrameDecoder decoder;
  decoder.Feed(stream);
  for (size_t i = 0; i < kFrames; ++i) {
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.ok()) << i;
    uint64_t accepted = 0;
    ASSERT_TRUE(DecodeOk(frame->payload, &accepted).ok());
    EXPECT_EQ(accepted, i);
  }
  EXPECT_EQ(decoder.Next().status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FramingTest, ZeroLengthFramePoisons) {
  FrameDecoder decoder;
  decoder.Feed(std::string(1, '\0'));  // body_len = 0
  auto frame = decoder.Next();
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), ErrorCode::kParseError);
  EXPECT_TRUE(decoder.poisoned());
  // Poison is permanent: later feeds are ignored, Next keeps failing.
  decoder.Feed(EncodeFrame(FrameType::kPing));
  EXPECT_FALSE(decoder.Next().ok());
}

TEST(FramingTest, OversizedLengthPoisons) {
  std::string stream;
  AppendVarint(stream, kMaxFrameBytes + 1);
  FrameDecoder decoder;
  decoder.Feed(stream);
  auto frame = decoder.Next();
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), ErrorCode::kParseError);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FramingTest, MaxLengthFrameDecodesAtLimit) {
  // Exactly at the decoder's limit must still decode.
  constexpr size_t kLimit = 4096;
  FrameDecoder decoder(kLimit);
  const std::string payload(kLimit - 1, 'x');  // body = type + payload
  decoder.Feed(EncodeFrame(FrameType::kText, payload));
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->payload.size(), kLimit - 1);
  // One byte over the limit poisons.
  FrameDecoder strict(kLimit);
  strict.Feed(EncodeFrame(FrameType::kText, payload + "y"));
  EXPECT_EQ(strict.Next().status().code(), ErrorCode::kParseError);
}

TEST(FramingTest, OverlongLengthVarintPoisons) {
  // Six continuation bytes in the length prefix exceed the 5-byte cap
  // even though a uint64 varint could be longer.
  FrameDecoder decoder;
  decoder.Feed(std::string(6, static_cast<char>(0x80)));
  auto frame = decoder.Next();
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), ErrorCode::kParseError);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FramingTest, PartialLengthVarintWaits) {
  // A continuation byte with nothing after it is "need more", not error.
  FrameDecoder decoder;
  decoder.Feed(std::string(1, static_cast<char>(0x80)));
  EXPECT_EQ(decoder.Next().status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(decoder.poisoned());
}

TEST(FramingTest, TrailingBytesParseAsTraceContextField) {
  // Trailing payload bytes are the optional trace-context field.  A
  // version-0 field and a truncated v1 field are protocol violations; a
  // future field version is skipped (forward tolerance).
  std::string zero_version = EncodeQuery("lights");
  zero_version.push_back('\0');
  std::string group;
  Status decoded = DecodeQuery(zero_version, &group);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), ErrorCode::kParseError);

  std::string truncated = EncodeQuery("lights");
  truncated.push_back('\x01');  // v1 header with no trace id after it
  decoded = DecodeQuery(truncated, &group);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), ErrorCode::kParseError);

  std::string future = EncodeQuery("lights");
  future.push_back('\x07');       // version 7 ...
  future += "future-field-bytes";  // ... skip the remainder
  WireTraceContext trace;
  trace.trace_id = 99;  // must be cleared on absent/unknown context
  EXPECT_TRUE(DecodeQuery(future, &group, &trace).ok());
  EXPECT_EQ(group, "lights");
  EXPECT_FALSE(trace.valid());
}

TEST(FramingTest, TraceContextRoundTrips) {
  WireTraceContext trace;
  trace.trace_id = 0xfeedfacecafebeefull;
  trace.parent_span_id = 42;
  trace.flags = 1;
  const std::string payload = EncodeQuery("lights", &trace);
  // Untraced encoding is byte-identical to the pre-trace format.
  EXPECT_EQ(EncodeQuery("lights"), EncodeQuery("lights", nullptr));
  EXPECT_GT(payload.size(), EncodeQuery("lights").size());

  std::string group;
  WireTraceContext decoded;
  ASSERT_TRUE(DecodeQuery(payload, &group, &decoded).ok());
  EXPECT_EQ(group, "lights");
  EXPECT_EQ(decoded.trace_id, trace.trace_id);
  EXPECT_EQ(decoded.parent_span_id, trace.parent_span_id);
  EXPECT_EQ(decoded.flags, trace.flags);

  // Decoders that are handed no context slot still validate the field.
  EXPECT_TRUE(DecodeQuery(payload, &group).ok());
}

TEST(FramingTest, SubmitBatchSeqCarriesTraceContext) {
  const std::vector<BatchReading> readings = {{0, 1, 2.5}, {1, 1, 2.75}};
  WireTraceContext trace;
  trace.trace_id = 7;
  trace.parent_span_id = 3;
  trace.flags = 1;
  const std::string payload =
      EncodeSubmitBatchSeq("client-a", 12, "g", readings, &trace);
  std::string client_id, group;
  uint64_t seq = 0;
  std::vector<BatchReading> decoded_readings;
  WireTraceContext decoded;
  ASSERT_TRUE(DecodeSubmitBatchSeq(payload, &client_id, &seq, &group,
                                   &decoded_readings, &decoded)
                  .ok());
  EXPECT_EQ(client_id, "client-a");
  EXPECT_EQ(seq, 12u);
  EXPECT_EQ(group, "g");
  EXPECT_EQ(decoded_readings.size(), 2u);
  EXPECT_EQ(decoded.trace_id, 7u);
  EXPECT_EQ(decoded.parent_span_id, 3u);
}

TEST(FramingTest, SubmitBatchCountBeyondPayloadRejected) {
  // An absurd reading count with a tiny payload must fail before any
  // allocation, not reserve gigabytes.
  std::string payload;
  AppendLengthPrefixedString(payload, "g");
  AppendVarint(payload, std::numeric_limits<uint32_t>::max());
  std::string group;
  std::vector<BatchReading> readings;
  const Status decoded = DecodeSubmitBatch(payload, &group, &readings);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), ErrorCode::kParseError);
}

TEST(FramingTest, SubmitBatchRoundTrips) {
  std::vector<BatchReading> readings;
  for (uint64_t r = 0; r < 4; ++r) {
    for (uint64_t m = 0; m < 3; ++m) {
      readings.push_back(BatchReading{m, r, 100.0 + static_cast<double>(r) +
                                                static_cast<double>(m) * 0.25});
    }
  }
  const std::string payload = EncodeSubmitBatch("lights", readings);
  std::string group;
  std::vector<BatchReading> decoded;
  ASSERT_TRUE(DecodeSubmitBatch(payload, &group, &decoded).ok());
  EXPECT_EQ(group, "lights");
  ASSERT_EQ(decoded.size(), readings.size());
  for (size_t i = 0; i < readings.size(); ++i) {
    EXPECT_EQ(decoded[i].module, readings[i].module);
    EXPECT_EQ(decoded[i].round, readings[i].round);
    EXPECT_EQ(decoded[i].value, readings[i].value);
  }
}

std::string Hex(std::string_view bytes) {
  std::string out;
  char digits[3];
  for (const char byte : bytes) {
    std::snprintf(digits, sizeof(digits), "%02x",
                  static_cast<unsigned>(static_cast<uint8_t>(byte)));
    out += digits;
  }
  return out;
}

// Readings whose varints take 1, 2, 3 and 10 bytes, plus a negative zero,
// a NaN payload and an infinity.
std::vector<BatchReading> GoldenReadings() {
  return {{0, 0, 1.5},
          {1, 127, -0.0},
          {15, 128, -2.25},
          {200, 70000, std::numeric_limits<double>::infinity()},
          {std::numeric_limits<uint64_t>::max(),
           std::numeric_limits<uint64_t>::max(),
           std::numeric_limits<double>::quiet_NaN()}};
}

TEST(FramingTest, SubmitBatchWireBytesAreGolden) {
  // Pins the SUBMIT_BATCH / SUBMIT_BATCH_SEQ wire format byte for byte:
  // the sized pointer encoders must write what the byte-appending ones
  // did.  Per line: frame length, type, group, count; then one reading
  // per line (module, round, f64); the SEQ frame adds the client id and
  // seq up front and the trace context at the end.
  EXPECT_EQ(Hex(EncodeFrame(FrameType::kSubmitBatch,
                            EncodeSubmitBatch("g1", GoldenReadings()))),
            "4d0102673105"
            "00"  "00"      "000000000000f83f"
            "01"  "7f"      "0000000000000080"
            "0f"  "8001"    "00000000000002c0"
            "c801" "f0a204" "000000000000f07f"
            "ffffffffffffffffff01" "ffffffffffffffffff01" "000000000000f87f");
  WireTraceContext trace;
  trace.trace_id = 0x123456789ull;
  trace.parent_span_id = 300;
  trace.flags = 1;
  EXPECT_EQ(Hex(EncodeFrame(FrameType::kSubmitBatchSeq,
                            EncodeSubmitBatchSeq("client-7", 129, "g1",
                                                 GoldenReadings(), &trace))),
            "61090863"  "6c69656e742d37" "8101"
            "02673105"
            "00"  "00"      "000000000000f83f"
            "01"  "7f"      "0000000000000080"
            "0f"  "8001"    "00000000000002c0"
            "c801" "f0a204" "000000000000f07f"
            "ffffffffffffffffff01" "ffffffffffffffffff01" "000000000000f87f"
            "01" "89cf959a12" "ac02" "01");
  // And both decode back to the same readings, bit for bit.
  std::string client_id, group;
  uint64_t seq = 0;
  std::vector<BatchReading> decoded;
  WireTraceContext decoded_trace;
  ASSERT_TRUE(DecodeSubmitBatchSeq(
                  EncodeSubmitBatchSeq("client-7", 129, "g1",
                                       GoldenReadings(), &trace),
                  &client_id, &seq, &group, &decoded, &decoded_trace)
                  .ok());
  const std::vector<BatchReading> expected = GoldenReadings();
  ASSERT_EQ(decoded.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(decoded[i].module, expected[i].module);
    EXPECT_EQ(decoded[i].round, expected[i].round);
    EXPECT_EQ(Hex(std::string_view(
                  reinterpret_cast<const char*>(&decoded[i].value), 8)),
              Hex(std::string_view(
                  reinterpret_cast<const char*>(&expected[i].value), 8)));
  }
  EXPECT_EQ(decoded_trace.trace_id, trace.trace_id);
  EXPECT_EQ(decoded_trace.parent_span_id, trace.parent_span_id);
  EXPECT_EQ(decoded_trace.flags, trace.flags);
}

TEST(FramingTest, SubmitBatchTruncationErrorsAtEveryByte) {
  // Payload layout: [0] group length, [1] 'g', [2] count 3; reading 0 at
  // [3, 13) (1-byte varints); reading 1 at [13, 26) (module 200 in 2
  // bytes, round 70000 in 3); reading 2 at [26, 36).
  const std::vector<BatchReading> readings = {
      {1, 2, 0.5}, {200, 70000, -1.0}, {5, 5, 3.0}};
  const std::string payload = EncodeSubmitBatch("g", readings);
  ASSERT_EQ(payload.size(), 36u);
  auto expected_error = [](size_t cut) -> std::string {
    if (cut == 1) return "truncated string";
    if (cut >= 3 && cut < 6) return "reading count exceeds payload size";
    if ((cut >= 6 && cut < 13) || (cut >= 18 && cut < 26) || cut >= 28) {
      return "truncated double";
    }
    return "truncated varint";
  };
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    std::string group;
    std::vector<BatchReading> decoded;
    const Status status =
        DecodeSubmitBatch(payload.substr(0, cut), &group, &decoded);
    ASSERT_FALSE(status.ok()) << cut;
    EXPECT_EQ(status.code(), ErrorCode::kParseError) << cut;
    EXPECT_EQ(status.message(), expected_error(cut)) << cut;
  }
  std::string group;
  std::vector<BatchReading> decoded;
  EXPECT_TRUE(DecodeSubmitBatch(payload, &group, &decoded).ok());
  EXPECT_EQ(decoded.size(), 3u);
}

TEST(FramingTest, SubmitBatchOverlongVarintInReadingFails) {
  for (const bool in_round : {false, true}) {
    std::string payload;
    AppendLengthPrefixedString(payload, "g");
    AppendVarint(payload, 1);
    if (in_round) AppendVarint(payload, 3);  // module
    // Ten bytes, the tenth still flagged as continued: no uint64 needs
    // that many.
    payload.append(10, static_cast<char>(0x80));
    payload.append(16, '\0');
    std::string group;
    std::vector<BatchReading> decoded;
    const Status status = DecodeSubmitBatch(payload, &group, &decoded);
    EXPECT_EQ(status.code(), ErrorCode::kParseError) << in_round;
    EXPECT_EQ(status.message(), "varint too long") << in_round;
    EXPECT_TRUE(decoded.empty()) << in_round;
  }
  // Ten bytes ending in a terminator are a valid (if wasteful) varint.
  std::string payload;
  AppendLengthPrefixedString(payload, "g");
  AppendVarint(payload, 1);
  payload.append(9, static_cast<char>(0x81));
  payload.push_back(static_cast<char>(0x01));
  AppendVarint(payload, 4);
  AppendDouble(payload, 2.0);
  std::string group;
  std::vector<BatchReading> decoded;
  ASSERT_TRUE(DecodeSubmitBatch(payload, &group, &decoded).ok());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].module, 0x8102040810204081ull);
  EXPECT_EQ(decoded[0].round, 4u);
}

TEST(FramingTest, TypedMessagesRoundTrip) {
  {
    const std::string payload = EncodeClose("shelf", 17);
    std::string group;
    uint64_t round = 0;
    ASSERT_TRUE(DecodeClose(payload, &group, &round).ok());
    EXPECT_EQ(group, "shelf");
    EXPECT_EQ(round, 17u);
  }
  {
    std::string reason;
    ASSERT_TRUE(DecodeError(EncodeError("busy"), &reason).ok());
    EXPECT_EQ(reason, "busy");
  }
  {
    double value = 0;
    ASSERT_TRUE(DecodeValue(EncodeValue(98.75), &value).ok());
    EXPECT_EQ(value, 98.75);
  }
  {
    std::string text;
    ASSERT_TRUE(DecodeText(EncodeText("HEALTH 0\n"), &text).ok());
    EXPECT_EQ(text, "HEALTH 0\n");
  }
  {
    const std::vector<std::string> groups = {"a", "b", "c"};
    std::vector<std::string> decoded;
    ASSERT_TRUE(DecodeGroupList(EncodeGroupList(groups), &decoded).ok());
    EXPECT_EQ(decoded, groups);
  }
}

TEST(FramingTest, DecoderCompactionPreservesStream) {
  // Enough traffic to trigger the lazy compaction path repeatedly.
  FrameDecoder decoder;
  const std::string frame =
      EncodeFrame(FrameType::kText, EncodeText(std::string(1000, 'z')));
  constexpr size_t kCount = 200;
  size_t decoded = 0;
  for (size_t i = 0; i < kCount; ++i) {
    decoder.Feed(frame);
    // Drain only every third feed so the buffer grows and compacts.
    if (i % 3 != 0) continue;
    for (;;) {
      auto next = decoder.Next();
      if (!next.ok()) break;
      ++decoded;
      EXPECT_EQ(next->type, FrameType::kText);
    }
  }
  for (;;) {
    auto next = decoder.Next();
    if (!next.ok()) break;
    ++decoded;
  }
  EXPECT_EQ(decoded, kCount);
}

// The server's verb table (runtime/remote.h) has one row per request
// type: exactly the bytes below 0x80 that FrameTypeName knows.
TEST(FramingTest, EveryRequestTypeByteHasOneVerbRow) {
  size_t rows = 0;
  for (unsigned byte = 0; byte < 0x80; ++byte) {
    const auto type = static_cast<FrameType>(byte);
    const RemoteVoterServer::Verb* verb = RemoteVoterServer::FindVerb(type);
    EXPECT_EQ(verb != nullptr, FrameTypeName(type) != "UNKNOWN") << byte;
    if (verb == nullptr) continue;
    EXPECT_EQ(verb->type, type) << byte;
    ++rows;
  }
  EXPECT_EQ(rows, 13u);
  // Reply types are no verbs.
  EXPECT_EQ(RemoteVoterServer::FindVerb(FrameType::kOk), nullptr);
}

// Routing reads the group without decoding the payload; it must be the
// group the verb's decoder reads, and exactly the routed rows carry one.
TEST(FramingTest, VerbRowsRouteByTheGroupTheirDecoderReads) {
  using Verb = RemoteVoterServer::Verb;
  for (unsigned byte = 0; byte < 0x80; ++byte) {
    const Verb* verb =
        RemoteVoterServer::FindVerb(static_cast<FrameType>(byte));
    if (verb == nullptr) continue;
    const std::string_view name = FrameTypeName(verb->type);
    const Frame frame = SampleRequest(verb->type, "lights");
    RemoteVoterServer::Call call;
    if (verb->decode != nullptr) {
      ASSERT_TRUE(verb->decode(frame.payload, &call).ok()) << name;
    }
    const bool routed = verb->group_at != RemoteVoterServer::GroupAt::kNone;
    EXPECT_EQ(call.group, routed ? "lights" : "") << name;
    EXPECT_EQ(RemoteVoterServer::GroupOf(*verb, frame.payload), call.group)
        << name;
    // Routed verbs open a server span; only routed verbs mutate a group.
    EXPECT_EQ(!verb->span.empty(), routed) << name;
    if (verb->mutating) {
      EXPECT_TRUE(routed) << name;
    }
  }
  // A truncated payload routes nowhere instead of reading past its end.
  const Verb& seq = *RemoteVoterServer::FindVerb(FrameType::kSubmitBatchSeq);
  EXPECT_EQ(RemoteVoterServer::GroupOf(seq, std::string("\x06sample", 7)),
            "");
}

// --- line codec ----------------------------------------------------------------

/// The bytes a binary client would send for `frame`.
std::string Encoded(const Frame& frame) {
  return EncodeFrame(frame.type, frame.payload);
}

/// The reply a line connection writes for a malformed request line.
std::string RenderParseError(const Status& status) {
  return RenderLineReply(Frame{FrameType::kError, EncodeError(status.message())});
}

TEST(LineCodecTest, EachVerbYieldsTheBinaryClientsFrame) {
  const BatchReading reading{2, 7, 21.5};
  const BatchReading negative{0, 0, -0.25};
  const struct {
    const char* line;
    std::string frame;
  } cases[] = {
      {"SUBMIT lights 2 7 21.5",
       EncodeFrame(FrameType::kSubmitBatch,
                   EncodeSubmitBatch("lights", {&reading, 1}))},
      {"  SUBMIT   lights 0 0 -0.25\t",
       EncodeFrame(FrameType::kSubmitBatch,
                   EncodeSubmitBatch("lights", {&negative, 1}))},
      {"CLOSE lights 5",
       EncodeFrame(FrameType::kClose, EncodeClose("lights", 5))},
      {"QUERY lights", EncodeFrame(FrameType::kQuery, EncodeQuery("lights"))},
      {"GROUPS", EncodeFrame(FrameType::kGroups)},
      {"METRICS", EncodeFrame(FrameType::kMetrics)},
      {"HEALTH", EncodeFrame(FrameType::kHealth)},
      {"PING", EncodeFrame(FrameType::kPing)},
      {"QUIT", EncodeFrame(FrameType::kQuit)},
      // Payload-less verbs ignore trailing tokens.
      {"PING and more", EncodeFrame(FrameType::kPing)},
  };
  for (const auto& c : cases) {
    auto frame = ParseRequestLine(c.line);
    ASSERT_TRUE(frame.ok()) << c.line << ": " << frame.status().ToString();
    EXPECT_EQ(Encoded(*frame), c.frame) << c.line;
  }
}

TEST(LineCodecTest, MalformedLinesKeepTheirErrorText) {
  const struct {
    const char* line;
    const char* reply;
  } cases[] = {
      {"", "ERR empty request"},
      {"   ", "ERR empty request"},
      {"SUBMIT lights 0 0", "ERR SUBMIT needs group module round value"},
      {"SUBMIT lights 0 0 1 2", "ERR SUBMIT needs group module round value"},
      {"SUBMIT lights x 0 1", "ERR bad module index"},
      {"SUBMIT lights -1 0 1", "ERR bad module index"},
      {"SUBMIT lights x y z", "ERR bad module index"},
      {"SUBMIT lights 0 y 1", "ERR bad round number"},
      {"SUBMIT lights 0 -2 1", "ERR bad round number"},
      {"SUBMIT lights 0 0 abc", "ERR bad value"},
      {"CLOSE lights", "ERR CLOSE needs group round"},
      {"CLOSE lights x", "ERR bad round number"},
      {"CLOSE lights -1", "ERR bad round number"},
      {"QUERY", "ERR QUERY needs group"},
      {"QUERY a b", "ERR QUERY needs group"},
      {"FROBNICATE x", "ERR unknown verb 'FROBNICATE'"},
      {"submit lights 0 0 1", "ERR unknown verb 'submit'"},
      {"QUERY_RANGE lights 0 9", "ERR unknown verb 'QUERY_RANGE'"},
  };
  for (const auto& c : cases) {
    auto frame = ParseRequestLine(c.line);
    ASSERT_FALSE(frame.ok()) << c.line;
    EXPECT_EQ(frame.status().code(), ErrorCode::kInvalidArgument) << c.line;
    EXPECT_EQ(RenderParseError(frame.status()), c.reply) << c.line;
  }
  // An unknown verb is echoed only as a short prefix.
  auto frame = ParseRequestLine(std::string(4096, 'X') + " x");
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(RenderParseError(frame.status()),
            "ERR unknown verb '" + std::string(32, 'X') + "...'");
}

TEST(LineCodecTest, ReplyFramesRenderTheLineText) {
  const std::vector<std::string> groups = {"extra", "lights"};
  const struct {
    Frame frame;
    const char* line;
  } cases[] = {
      {{FrameType::kOk, EncodeOk(1)}, "OK"},
      {{FrameType::kOk, EncodeOk(3)}, "OK"},
      {{FrameType::kOk, EncodeOk(0)}, "ERR reading not accepted"},
      {{FrameType::kError,
        EncodeError("not_found: no voter group named 'ghosts'")},
       "ERR not_found: no voter group named 'ghosts'"},
      {{FrameType::kError, EncodeError("busy")}, "ERR busy"},
      {{FrameType::kValue, EncodeValue(100.25)}, "VALUE 100.25"},
      {{FrameType::kValue, EncodeValue(42.0)}, "VALUE 42"},
      {{FrameType::kValue, EncodeValue(0.1)}, "VALUE 0.10000000000000001"},
      {{FrameType::kNone, ""}, "NONE"},
      {{FrameType::kPong, ""}, "PONG"},
      {{FrameType::kBye, ""}, "BYE"},
      {{FrameType::kGroupList, EncodeGroupList(groups)},
       "GROUPS 2 extra lights"},
      {{FrameType::kGroupList, EncodeGroupList({})}, "GROUPS 0"},
      {{FrameType::kText, EncodeText("HEALTH 1\nGROUP lights modules=3\n")},
       "HEALTH 1\nGROUP lights modules=3\nEND"},
      {{FrameType::kText, EncodeText("")}, "END"},
      {{FrameType::kMoved, EncodeMoved(1, "sim:n1")},
       "ERR failed_precondition: MOVED 1 sim:n1"},
      // Torn payloads and reply types no line verb produces.
      {{FrameType::kOk, ""}, "ERR unrenderable OK reply"},
      {{FrameType::kRangeResult, EncodeRangeResult({})},
       "ERR unrenderable RANGE_RESULT reply"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(RenderLineReply(c.frame), c.line)
        << FrameTypeName(c.frame.type);
  }
}

// %.17g round-trips every finite double, so a line SUBMIT carries
// exactly the reading the binary client would carry.
TEST(LineCodecTest, SubmitValuesSurviveTheTextSpellingBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           0.1,
                           1.0 / 3.0,
                           -123456.789,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max()};
  for (const double value : values) {
    char line[96];
    std::snprintf(line, sizeof(line), "SUBMIT g 1 2 %.17g", value);
    auto frame = ParseRequestLine(line);
    ASSERT_TRUE(frame.ok()) << line;
    const BatchReading reading{1, 2, value};
    EXPECT_EQ(frame->payload, EncodeSubmitBatch("g", {&reading, 1})) << line;
  }
}

}  // namespace
}  // namespace avoc::runtime
