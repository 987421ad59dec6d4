// Length-prefixed binary frame protocol for the networked voter service.
//
// The line protocol of runtime/remote.h costs one request/response round
// trip — and one text parse — per reading.  The paper's deployment shape
// (sensors → VINT hub → WiFi → voting sink-node) fans thousands of edge
// readings into one ingest tier, so the wire format here is built for
// batching: a single SUBMIT_BATCH frame carries N readings and the server
// turns it into one columnar engine pass.
//
// Wire format (after the 2-byte connection preamble, see kBinaryMagic):
//
//   frame   := varint(body_len) body
//   body    := type_byte payload            (body_len = 1 + |payload|)
//   varint  := LEB128 unsigned, low 7 bits first, MSB = continuation
//   string  := varint(len) bytes            (UTF-8, no terminator)
//   f64     := IEEE-754 double, little-endian, 8 bytes
//
// body_len must be >= 1 (the type byte) and <= max_frame_bytes; a length
// of 0, an over-long length varint (> 5 bytes), or an oversized length
// poisons the decoder — the connection is then unrecoverable by design,
// since byte boundaries are lost.  The decoder tolerates arbitrary
// fragmentation: bytes may arrive one at a time (slow-loris) or many
// frames per segment.
//
// Message payloads (request -> response):
//
//   SUBMIT_BATCH  string group, varint n, n x (varint module, varint
//                 round, f64 value)                     -> OK | ERR
//   SUBMIT_BATCH_SEQ  string client_id, varint seq, then the
//                 SUBMIT_BATCH payload; duplicate (client_id, seq)
//                 replays the original OK (dedup)       -> OK | ERR
//   CLOSE         string group, varint round            -> OK | ERR
//   QUERY         string group                          -> VALUE | NONE | ERR
//   QUERY_RANGE   string group, varint lo_round, varint hi_round
//                 (inclusive)                           -> RANGE_RESULT | ERR
//   HISTORY_GET   string group                          -> HISTORY | ERR
//   GROUPS        (empty)                               -> GROUP_LIST | ERR
//   METRICS       (empty)                               -> TEXT | ERR
//   HEALTH        (empty)                               -> TEXT | ERR
//   TRACE_DUMP    (empty)                               -> TEXT | ERR
//   PING          (empty)                               -> PONG
//   QUIT          (empty)                               -> BYE (then close)
//
// Group-addressed requests (SUBMIT_BATCH, SUBMIT_BATCH_SEQ, CLOSE,
// QUERY, QUERY_RANGE, HISTORY_GET) may carry an OPTIONAL trailing
// trace-context field after their mandatory payload:
//
//   trace_ctx := u8 version(0x01), varint trace_id, varint parent_span_id,
//                u8 flags (bit 0 = sampled)
//
// The field is version-tolerant by construction: an absent field decodes
// exactly as before (old clients), decoders skip the remainder of any
// field with version > 1 (new clients against this server), and servers
// that predate the field reject it as trailing garbage — which the
// resilient client treats as a non-retryable error, matching every other
// capability mismatch.  See docs/PROTOCOL.md.
//
//   OK            varint accepted (readings routed; SUBMIT_BATCH may
//                 accept fewer than sent when modules are out of range)
//   ERR           string reason
//   VALUE         f64
//   NONE          (empty)
//   GROUP_LIST    varint n, n x string
//   TEXT          string (Prometheus exposition / HEALTH lines)
//   RANGE_RESULT  varint n, n x (varint round, u8 engaged, f64 value);
//                 values carry exact IEEE-754 bits, so the response is
//                 bit-identical to the server's stored trace
//   HISTORY       varint rounds, varint n, n x f64 (reliability records)
//   PONG, BYE     (empty)
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/reading.h"
#include "util/status.h"

namespace avoc::runtime {

/// Connection preamble announcing the binary protocol.  0xAB is outside
/// printable ASCII, so the first byte alone separates framed clients from
/// legacy line-protocol clients (whose verbs are uppercase ASCII).
inline constexpr uint8_t kBinaryMagic[2] = {0xAB, 0x0C};

/// Default ceiling on one frame's body (type byte + payload).
inline constexpr size_t kMaxFrameBytes = 16u << 20;

/// Longest accepted length-prefix varint: 5 LEB128 bytes cover 2^35 - 1,
/// far past any sane frame; more is a pathological length by definition.
inline constexpr size_t kMaxLengthVarintBytes = 5;

enum class FrameType : uint8_t {
  // Requests.
  kSubmitBatch = 0x01,
  kClose = 0x02,
  kQuery = 0x03,
  kGroups = 0x04,
  kMetrics = 0x05,
  kHealth = 0x06,
  kPing = 0x07,
  kQuit = 0x08,
  /// SUBMIT_BATCH with a client identity and sequence number for
  /// server-side dedup: a client that resends after a lost reply gets the
  /// original acknowledgement replayed instead of double-ingesting the
  /// readings (exactly-once under retries; see docs/PROTOCOL.md).
  kSubmitBatchSeq = 0x09,
  /// Range read over the group's persisted vote trace (storage seam).
  kQueryRange = 0x0A,
  /// Read of the group's live history ledger (reliability records).
  kHistoryGet = 0x0B,
  /// Snapshot of the server's flight recorder (obs/trace.h) as the
  /// canonical AVOC-TRACE text dump, served like METRICS.
  kTraceDump = 0x0C,
  /// Operator verb: quiesce `group` on this node, hand its full state to
  /// cluster node `dest`, and answer later requests with MOVED.  Cluster
  /// mode only (see runtime/cluster.h, docs/MIGRATION.md).
  kMigrateGroup = 0x0D,
  // Responses (high bit set).
  kOk = 0x81,
  kError = 0x82,
  kValue = 0x83,
  kNone = 0x84,
  kGroupList = 0x85,
  kText = 0x86,
  kPong = 0x87,
  kBye = 0x88,
  kRangeResult = 0x89,
  kHistory = 0x8A,
  /// Redirect: the addressed group lives on cluster node `node` (at
  /// `address`).  Clients re-resolve and resubmit — with SUBMIT_BATCH_SEQ
  /// the dedup cache travels with the group, so the resubmit stays
  /// exactly-once.
  kMoved = 0x8B,
};

/// Name of a frame type ("SUBMIT_BATCH", ...); "UNKNOWN" for others.
std::string_view FrameTypeName(FrameType type);

/// One decoded frame: the type byte plus its raw payload.
struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
};

// --- primitive encoders (append to `out`) -----------------------------------

void AppendVarint(std::string& out, uint64_t value);
void AppendDouble(std::string& out, double value);
void AppendLengthPrefixedString(std::string& out, std::string_view s);

/// Wraps a body (type + payload) in its varint length prefix.
std::string EncodeFrame(FrameType type, std::string_view payload = {});
/// EncodeFrame appending to `out`.
void AppendFrame(std::string& out, FrameType type, std::string_view payload);

// --- primitive decoder over one payload --------------------------------------

/// Bounds-checked cursor over a frame payload.  Every read fails with
/// ParseError instead of walking off the end.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  Result<uint64_t> ReadVarint();
  Result<double> ReadDouble();
  /// A varint-length-prefixed string (view into the payload).
  Result<std::string_view> ReadString();

  size_t remaining() const { return data_.size() - pos_; }
  bool empty() const { return remaining() == 0; }

  /// Discards up to `n` unread bytes (forward-compat field skipping).
  void Skip(size_t n) { pos_ += std::min(n, remaining()); }

  /// ParseError unless every payload byte was consumed — trailing garbage
  /// inside a frame is a protocol violation.
  Status ExpectEnd() const;

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// --- incremental frame decoder -----------------------------------------------

/// Feeds arbitrary byte fragments in, hands complete frames out.  A
/// protocol violation (bad length) poisons the decoder permanently: the
/// caller must drop the connection, because frame boundaries are gone.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Feed(std::string_view bytes);

  /// Next complete frame.  NotFound = need more bytes (not an error);
  /// ParseError = protocol violation, decoder poisoned.
  Result<Frame> Next();

  /// Bytes buffered but not yet returned as frames.
  size_t buffered() const { return buffer_.size() - pos_; }
  bool poisoned() const { return poisoned_; }

 private:
  size_t max_frame_bytes_;
  std::string buffer_;
  size_t pos_ = 0;
  bool poisoned_ = false;
};

// --- trace context -----------------------------------------------------------

/// Wire form of the distributed-tracing context (obs/trace.h): which
/// trace a request belongs to and which client span to parent the server
/// span under.  trace_id 0 means "absent" — the field is then omitted on
/// encode, so untraced requests are byte-identical to the PR 7 format.
struct WireTraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  uint8_t flags = 0;

  bool valid() const { return trace_id != 0; }
};

/// Appends the versioned trace-context field (caller checks valid()).
void AppendTraceContext(std::string& out, const WireTraceContext& trace);

/// Terminal decode step for group-addressed requests: consumes an
/// optional trailing trace-context field (tolerating future versions by
/// skipping their bytes), then requires end-of-payload.  `trace` may be
/// null to validate-and-discard.
Status FinishWithOptionalTraceContext(PayloadReader& reader,
                                      WireTraceContext* trace);

// --- typed messages ----------------------------------------------------------

std::string EncodeSubmitBatch(std::string_view group,
                              std::span<const BatchReading> readings,
                              const WireTraceContext* trace = nullptr);
Status DecodeSubmitBatch(std::string_view payload, std::string* group,
                         std::vector<BatchReading>* readings,
                         WireTraceContext* trace = nullptr);

/// SUBMIT_BATCH_SEQ: string client_id, varint seq, then the SUBMIT_BATCH
/// payload (string group, varint n, readings).
std::string EncodeSubmitBatchSeq(std::string_view client_id, uint64_t seq,
                                 std::string_view group,
                                 std::span<const BatchReading> readings,
                                 const WireTraceContext* trace = nullptr);
Status DecodeSubmitBatchSeq(std::string_view payload, std::string* client_id,
                            uint64_t* seq, std::string* group,
                            std::vector<BatchReading>* readings,
                            WireTraceContext* trace = nullptr);

std::string EncodeClose(std::string_view group, uint64_t round,
                        const WireTraceContext* trace = nullptr);
Status DecodeClose(std::string_view payload, std::string* group,
                   uint64_t* round, WireTraceContext* trace = nullptr);

std::string EncodeQuery(std::string_view group,
                        const WireTraceContext* trace = nullptr);
Status DecodeQuery(std::string_view payload, std::string* group,
                   WireTraceContext* trace = nullptr);

std::string EncodeOk(uint64_t accepted);
Status DecodeOk(std::string_view payload, uint64_t* accepted);

std::string EncodeError(std::string_view reason);
Status DecodeError(std::string_view payload, std::string* reason);
/// The ERR reply frame carrying `reason` (a Status renders as ToString()).
Frame ErrorFrame(std::string_view reason);
inline Frame ErrorFrame(const Status& status) {
  return ErrorFrame(status.ToString());
}

std::string EncodeValue(double value);
Status DecodeValue(std::string_view payload, double* value);

std::string EncodeText(std::string_view text);
Status DecodeText(std::string_view payload, std::string* text);

std::string EncodeGroupList(std::span<const std::string> groups);
Status DecodeGroupList(std::string_view payload,
                       std::vector<std::string>* groups);

/// One point of a RANGE_RESULT response.  `value` carries the exact
/// IEEE-754 bits of the stored trace row (0.0 when not engaged).
struct RangePoint {
  uint64_t round = 0;
  double value = 0.0;
  uint8_t engaged = 0;
};

std::string EncodeQueryRange(std::string_view group, uint64_t lo_round,
                             uint64_t hi_round,
                             const WireTraceContext* trace = nullptr);
Status DecodeQueryRange(std::string_view payload, std::string* group,
                        uint64_t* lo_round, uint64_t* hi_round,
                        WireTraceContext* trace = nullptr);

std::string EncodeRangeResult(std::span<const RangePoint> points);
Status DecodeRangeResult(std::string_view payload,
                         std::vector<RangePoint>* points);

std::string EncodeHistoryGet(std::string_view group,
                             const WireTraceContext* trace = nullptr);
Status DecodeHistoryGet(std::string_view payload, std::string* group,
                        WireTraceContext* trace = nullptr);

/// HISTORY response body: the voter's live reliability ledger.
std::string EncodeHistoryState(uint64_t rounds, std::span<const double> records);
Status DecodeHistoryState(std::string_view payload, uint64_t* rounds,
                          std::vector<double>* records);

/// MIGRATE_GROUP request: string group, varint dest node index.
std::string EncodeMigrateGroup(std::string_view group, uint64_t dest_node);
Status DecodeMigrateGroup(std::string_view payload, std::string* group,
                          uint64_t* dest_node);

/// MOVED response: varint owning node index, string node address
/// (informational — clients resolve the index through their own dialer).
std::string EncodeMoved(uint64_t node, std::string_view address);
Status DecodeMoved(std::string_view payload, uint64_t* node,
                   std::string* address);

// --- line codec ----------------------------------------------------------------

/// The line protocol is a text spelling of eight frame verbs.  Translates
/// one request line (newline already stripped) into the frame a binary
/// client would send for it:
///
///   SUBMIT <group> <module> <round> <value>  -> SUBMIT_BATCH of one reading
///   CLOSE <group> <round>                    -> CLOSE
///   QUERY <group>                            -> QUERY
///   GROUPS | METRICS | HEALTH | PING | QUIT  -> the payload-less frame
///
/// A malformed line fails with InvalidArgument whose message is the reply
/// reason ("empty request", "bad module index", "unknown verb 'X'", ...).
Result<Frame> ParseRequestLine(std::string_view line);

/// The line-protocol text of one reply frame, without its newline:
///
///   OK, accepted >= 1  -> OK
///   OK, accepted 0     -> ERR reading not accepted
///   ERR                -> ERR <reason>
///   VALUE              -> VALUE <%.17g>
///   NONE | PONG | BYE  -> NONE | PONG | BYE
///   GROUP_LIST         -> GROUPS <n> <group>...
///   TEXT               -> the text, then END
///   MOVED              -> ERR + the MovedError status text
std::string RenderLineReply(const Frame& frame);

}  // namespace avoc::runtime
