#include "runtime/framing.h"

#include <bit>
#include <cstring>

#include "runtime/migration.h"
#include "util/strings.h"

namespace avoc::runtime {
namespace {

/// Longest accepted varint anywhere (uint64 = 10 LEB128 bytes).
constexpr size_t kMaxVarintBytes = 10;

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// LEB128 length of `value`: 1 to kMaxVarintBytes bytes.
size_t VarintSize(uint64_t value) {
  return static_cast<size_t>(std::bit_width(value | 1) + 6) / 7;
}

// Pointer writers of the sized encoders: each writes at `out` and returns
// the position after what it wrote.
char* PutVarint(char* out, uint64_t value) {
  while (value >= 0x80) {
    *out++ = static_cast<char>((value & 0x7F) | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<char>(value);
  return out;
}

// f64 is little-endian on the wire: one 8-byte copy on little-endian
// hosts (a byte loop is not reliably merged into one load or store).
char* PutDouble(char* out, double value) {
  uint64_t bits = DoubleBits(value);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &bits, 8);
  } else {
    for (size_t i = 0; i < 8; ++i) {
      out[i] = static_cast<char>(bits & 0xFF);
      bits >>= 8;
    }
  }
  return out + 8;
}

char* PutString(char* out, std::string_view s) {
  out = PutVarint(out, s.size());
  if (!s.empty()) std::memcpy(out, s.data(), s.size());
  return out + s.size();
}

/// The one varint decoder: reads a LEB128 varint at `p` into `*value`,
/// advancing `p`; returns nullptr, or the ParseError text when the bytes
/// end first or the varint runs past kMaxVarintBytes.  Inline: the
/// SUBMIT_BATCH loop runs it twice per reading.
inline const char* GetVarint(const uint8_t*& p, const uint8_t* end,
                             uint64_t* value) {
  uint64_t decoded = 0;
  for (size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (p >= end) return "truncated varint";
    const uint8_t byte = *p++;
    if (i == kMaxVarintBytes - 1 && (byte & 0x80) != 0) {
      return "varint too long";
    }
    decoded |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) {
      *value = decoded;
      return nullptr;
    }
  }
  return "varint too long";
}

/// Little-endian f64 at `p` (caller checked that 8 bytes remain).
double GetDouble(const uint8_t* p) {
  uint64_t bits = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&bits, p, 8);
  } else {
    for (size_t i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(p[i]) << (8 * i);
    }
  }
  return DoubleFromBits(bits);
}

/// The trace-context field: u8 version, varint trace_id, varint
/// parent_span_id, u8 flags.
char* PutTraceContext(char* out, const WireTraceContext& trace) {
  *out++ = static_cast<char>(0x01);  // field version
  out = PutVarint(out, trace.trace_id);
  out = PutVarint(out, trace.parent_span_id);
  *out++ = static_cast<char>(trace.flags);
  return out;
}

bool HasTrace(const WireTraceContext* trace) {
  return trace != nullptr && trace->valid();
}

/// Exact size of a SUBMIT_BATCH payload, trace context included.
size_t SubmitBatchSize(std::string_view group,
                       std::span<const BatchReading> readings,
                       const WireTraceContext* trace) {
  size_t size = VarintSize(group.size()) + group.size() +
                VarintSize(readings.size()) + 8 * readings.size();
  for (const BatchReading& reading : readings) {
    size += VarintSize(reading.module) + VarintSize(reading.round);
  }
  if (HasTrace(trace)) {
    size += 2 + VarintSize(trace->trace_id) + VarintSize(trace->parent_span_id);
  }
  return size;
}

/// Writes exactly SubmitBatchSize(group, readings, trace) bytes at `out`.
char* PutSubmitBatch(char* out, std::string_view group,
                     std::span<const BatchReading> readings,
                     const WireTraceContext* trace) {
  out = PutString(out, group);
  out = PutVarint(out, readings.size());
  for (const BatchReading& reading : readings) {
    out = PutVarint(out, reading.module);
    out = PutVarint(out, reading.round);
    out = PutDouble(out, reading.value);
  }
  if (HasTrace(trace)) out = PutTraceContext(out, *trace);
  return out;
}

}  // namespace

std::string_view FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kSubmitBatch: return "SUBMIT_BATCH";
    case FrameType::kSubmitBatchSeq: return "SUBMIT_BATCH_SEQ";
    case FrameType::kClose: return "CLOSE";
    case FrameType::kQuery: return "QUERY";
    case FrameType::kQueryRange: return "QUERY_RANGE";
    case FrameType::kHistoryGet: return "HISTORY_GET";
    case FrameType::kTraceDump: return "TRACE_DUMP";
    case FrameType::kMigrateGroup: return "MIGRATE_GROUP";
    case FrameType::kGroups: return "GROUPS";
    case FrameType::kMetrics: return "METRICS";
    case FrameType::kHealth: return "HEALTH";
    case FrameType::kPing: return "PING";
    case FrameType::kQuit: return "QUIT";
    case FrameType::kOk: return "OK";
    case FrameType::kError: return "ERR";
    case FrameType::kValue: return "VALUE";
    case FrameType::kNone: return "NONE";
    case FrameType::kGroupList: return "GROUP_LIST";
    case FrameType::kText: return "TEXT";
    case FrameType::kPong: return "PONG";
    case FrameType::kBye: return "BYE";
    case FrameType::kRangeResult: return "RANGE_RESULT";
    case FrameType::kHistory: return "HISTORY";
    case FrameType::kMoved: return "MOVED";
  }
  return "UNKNOWN";
}

void AppendVarint(std::string& out, uint64_t value) {
  char buffer[kMaxVarintBytes];
  out.append(buffer, PutVarint(buffer, value));
}

void AppendDouble(std::string& out, double value) {
  char buffer[8];
  out.append(buffer, PutDouble(buffer, value));
}

void AppendLengthPrefixedString(std::string& out, std::string_view s) {
  AppendVarint(out, s.size());
  out.append(s);
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string frame;
  frame.reserve(payload.size() + 6);
  AppendFrame(frame, type, payload);
  return frame;
}

void AppendFrame(std::string& out, FrameType type, std::string_view payload) {
  AppendVarint(out, payload.size() + 1);  // body = type byte + payload
  out.push_back(static_cast<char>(type));
  out.append(payload);
}

Result<uint64_t> PayloadReader::ReadVarint() {
  const auto* begin = reinterpret_cast<const uint8_t*>(data_.data());
  const uint8_t* p = begin + pos_;
  uint64_t value = 0;
  const char* error = GetVarint(p, begin + data_.size(), &value);
  pos_ = static_cast<size_t>(p - begin);
  if (error != nullptr) return ParseError(error);
  return value;
}

Result<double> PayloadReader::ReadDouble() {
  if (remaining() < 8) return ParseError("truncated double");
  const double value =
      GetDouble(reinterpret_cast<const uint8_t*>(data_.data()) + pos_);
  pos_ += 8;
  return value;
}

Result<std::string_view> PayloadReader::ReadString() {
  AVOC_ASSIGN_OR_RETURN(const uint64_t length, ReadVarint());
  if (length > remaining()) return ParseError("truncated string");
  std::string_view s = data_.substr(pos_, static_cast<size_t>(length));
  pos_ += static_cast<size_t>(length);
  return s;
}

Status PayloadReader::ExpectEnd() const {
  if (pos_ != data_.size()) {
    return ParseError(StrFormat("trailing payload bytes: %zu unread",
                                data_.size() - pos_));
  }
  return Status::Ok();
}

void FrameDecoder::Feed(std::string_view bytes) {
  if (poisoned_) return;  // boundaries already lost, don't accumulate
  // Compact lazily: only when the consumed prefix dominates the buffer.
  if (pos_ > 4096 && pos_ > buffer_.size() / 2) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes);
}

Result<Frame> FrameDecoder::Next() {
  if (poisoned_) return ParseError("frame decoder poisoned by earlier error");
  // Decode the length prefix byte by byte so a partial varint simply
  // waits for more input while an over-long one fails immediately.
  uint64_t body_len = 0;
  int shift = 0;
  size_t cursor = pos_;
  for (size_t i = 0;; ++i) {
    if (cursor >= buffer_.size()) return NotFoundError("need more bytes");
    if (i >= kMaxLengthVarintBytes) {
      poisoned_ = true;
      return ParseError("frame length varint too long");
    }
    const uint8_t byte = static_cast<uint8_t>(buffer_[cursor++]);
    body_len |= static_cast<uint64_t>(byte & 0x7F) << shift;
    shift += 7;
    if ((byte & 0x80) == 0) break;
  }
  if (body_len == 0) {
    poisoned_ = true;
    return ParseError("zero-length frame body");
  }
  if (body_len > max_frame_bytes_) {
    poisoned_ = true;
    return ParseError(StrFormat("frame body of %llu bytes exceeds limit %zu",
                                static_cast<unsigned long long>(body_len),
                                max_frame_bytes_));
  }
  if (buffer_.size() - cursor < body_len) return NotFoundError("need more bytes");
  Frame frame;
  frame.type = static_cast<FrameType>(static_cast<uint8_t>(buffer_[cursor]));
  frame.payload.assign(buffer_, cursor + 1, static_cast<size_t>(body_len) - 1);
  pos_ = cursor + static_cast<size_t>(body_len);
  if (pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  }
  return frame;
}

void AppendTraceContext(std::string& out, const WireTraceContext& trace) {
  char buffer[2 + 2 * kMaxVarintBytes];
  out.append(buffer, PutTraceContext(buffer, trace));
}

Status FinishWithOptionalTraceContext(PayloadReader& reader,
                                      WireTraceContext* trace) {
  if (trace != nullptr) *trace = WireTraceContext{};
  if (reader.empty()) return Status::Ok();  // absent: pre-trace encoding
  AVOC_ASSIGN_OR_RETURN(const uint64_t version, reader.ReadVarint());
  if (version == 0) return ParseError("trace context version 0");
  if (version > 1) {
    // A future field revision: skip its bytes, keep the request.
    reader.Skip(reader.remaining());
    return Status::Ok();
  }
  WireTraceContext decoded;
  AVOC_ASSIGN_OR_RETURN(decoded.trace_id, reader.ReadVarint());
  AVOC_ASSIGN_OR_RETURN(decoded.parent_span_id, reader.ReadVarint());
  AVOC_ASSIGN_OR_RETURN(const uint64_t flags, reader.ReadVarint());
  if (flags > 0xFF) return ParseError("trace context flags out of range");
  decoded.flags = static_cast<uint8_t>(flags);
  if (decoded.trace_id == 0) {
    return ParseError("trace context with zero trace id");
  }
  if (trace != nullptr) *trace = decoded;
  return reader.ExpectEnd();
}

std::string EncodeSubmitBatch(std::string_view group,
                              std::span<const BatchReading> readings,
                              const WireTraceContext* trace) {
  std::string payload(SubmitBatchSize(group, readings, trace), '\0');
  PutSubmitBatch(payload.data(), group, readings, trace);
  return payload;
}

Status DecodeSubmitBatch(std::string_view payload, std::string* group,
                         std::vector<BatchReading>* readings,
                         WireTraceContext* trace) {
  PayloadReader reader(payload);
  AVOC_ASSIGN_OR_RETURN(const std::string_view name, reader.ReadString());
  AVOC_ASSIGN_OR_RETURN(const uint64_t count, reader.ReadVarint());
  // Each reading needs >= 10 payload bytes; an absurd count with a tiny
  // payload is a pathological-length attack, not an allocation request.
  if (count > reader.remaining()) {
    return ParseError("reading count exceeds payload size");
  }
  group->assign(name);
  // Decoded in place: a reused vector of the same length is neither
  // reallocated nor re-zeroed.  A failed decode keeps the readings that
  // completed.
  readings->resize(static_cast<size_t>(count));
  BatchReading* out = readings->data();
  const auto* begin = reinterpret_cast<const uint8_t*>(payload.data());
  const uint8_t* end = begin + payload.size();
  const uint8_t* p = end - reader.remaining();
  for (size_t i = 0; i < count; ++i) {
    const char* error = GetVarint(p, end, &out[i].module);
    if (error == nullptr) error = GetVarint(p, end, &out[i].round);
    if (error == nullptr && end - p < 8) error = "truncated double";
    if (error != nullptr) {
      readings->resize(i);
      return ParseError(error);
    }
    out[i].value = GetDouble(p);
    p += 8;
  }
  PayloadReader tail(payload.substr(static_cast<size_t>(p - begin)));
  return FinishWithOptionalTraceContext(tail, trace);
}

std::string EncodeSubmitBatchSeq(std::string_view client_id, uint64_t seq,
                                 std::string_view group,
                                 std::span<const BatchReading> readings,
                                 const WireTraceContext* trace) {
  const size_t head =
      VarintSize(client_id.size()) + client_id.size() + VarintSize(seq);
  std::string payload(head + SubmitBatchSize(group, readings, trace), '\0');
  char* out = PutString(payload.data(), client_id);
  out = PutVarint(out, seq);
  PutSubmitBatch(out, group, readings, trace);
  return payload;
}

Status DecodeSubmitBatchSeq(std::string_view payload, std::string* client_id,
                            uint64_t* seq, std::string* group,
                            std::vector<BatchReading>* readings,
                            WireTraceContext* trace) {
  PayloadReader reader(payload);
  AVOC_ASSIGN_OR_RETURN(const std::string_view id, reader.ReadString());
  AVOC_ASSIGN_OR_RETURN(*seq, reader.ReadVarint());
  client_id->assign(id);
  // The remainder is exactly a SUBMIT_BATCH payload (incl. the optional
  // trailing trace context, which therefore rides both verbs for free).
  return DecodeSubmitBatch(payload.substr(payload.size() - reader.remaining()),
                           group, readings, trace);
}

std::string EncodeClose(std::string_view group, uint64_t round,
                        const WireTraceContext* trace) {
  std::string payload;
  AppendLengthPrefixedString(payload, group);
  AppendVarint(payload, round);
  if (trace != nullptr && trace->valid()) AppendTraceContext(payload, *trace);
  return payload;
}

Status DecodeClose(std::string_view payload, std::string* group,
                   uint64_t* round, WireTraceContext* trace) {
  PayloadReader reader(payload);
  AVOC_ASSIGN_OR_RETURN(const std::string_view name, reader.ReadString());
  AVOC_ASSIGN_OR_RETURN(*round, reader.ReadVarint());
  group->assign(name);
  return FinishWithOptionalTraceContext(reader, trace);
}

std::string EncodeQuery(std::string_view group, const WireTraceContext* trace) {
  std::string payload;
  AppendLengthPrefixedString(payload, group);
  if (trace != nullptr && trace->valid()) AppendTraceContext(payload, *trace);
  return payload;
}

Status DecodeQuery(std::string_view payload, std::string* group,
                   WireTraceContext* trace) {
  PayloadReader reader(payload);
  AVOC_ASSIGN_OR_RETURN(const std::string_view name, reader.ReadString());
  group->assign(name);
  return FinishWithOptionalTraceContext(reader, trace);
}

std::string EncodeOk(uint64_t accepted) {
  std::string payload;
  AppendVarint(payload, accepted);
  return payload;
}

Status DecodeOk(std::string_view payload, uint64_t* accepted) {
  PayloadReader reader(payload);
  AVOC_ASSIGN_OR_RETURN(*accepted, reader.ReadVarint());
  return reader.ExpectEnd();
}

std::string EncodeError(std::string_view reason) {
  std::string payload;
  AppendLengthPrefixedString(payload, reason);
  return payload;
}

Status DecodeError(std::string_view payload, std::string* reason) {
  PayloadReader reader(payload);
  AVOC_ASSIGN_OR_RETURN(const std::string_view text, reader.ReadString());
  reason->assign(text);
  return reader.ExpectEnd();
}

Frame ErrorFrame(std::string_view reason) {
  return Frame{FrameType::kError, EncodeError(reason)};
}

std::string EncodeValue(double value) {
  std::string payload;
  AppendDouble(payload, value);
  return payload;
}

Status DecodeValue(std::string_view payload, double* value) {
  PayloadReader reader(payload);
  AVOC_ASSIGN_OR_RETURN(*value, reader.ReadDouble());
  return reader.ExpectEnd();
}

std::string EncodeText(std::string_view text) {
  std::string payload;
  AppendLengthPrefixedString(payload, text);
  return payload;
}

Status DecodeText(std::string_view payload, std::string* text) {
  PayloadReader reader(payload);
  AVOC_ASSIGN_OR_RETURN(const std::string_view s, reader.ReadString());
  text->assign(s);
  return reader.ExpectEnd();
}

std::string EncodeGroupList(std::span<const std::string> groups) {
  std::string payload;
  AppendVarint(payload, groups.size());
  for (const std::string& group : groups) {
    AppendLengthPrefixedString(payload, group);
  }
  return payload;
}

Status DecodeGroupList(std::string_view payload,
                       std::vector<std::string>* groups) {
  PayloadReader reader(payload);
  AVOC_ASSIGN_OR_RETURN(const uint64_t count, reader.ReadVarint());
  if (count > reader.remaining()) {
    return ParseError("group count exceeds payload size");
  }
  groups->clear();
  groups->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    AVOC_ASSIGN_OR_RETURN(const std::string_view name, reader.ReadString());
    groups->emplace_back(name);
  }
  return reader.ExpectEnd();
}

std::string EncodeQueryRange(std::string_view group, uint64_t lo_round,
                             uint64_t hi_round,
                             const WireTraceContext* trace) {
  std::string payload;
  AppendLengthPrefixedString(payload, group);
  AppendVarint(payload, lo_round);
  AppendVarint(payload, hi_round);
  if (trace != nullptr && trace->valid()) AppendTraceContext(payload, *trace);
  return payload;
}

Status DecodeQueryRange(std::string_view payload, std::string* group,
                        uint64_t* lo_round, uint64_t* hi_round,
                        WireTraceContext* trace) {
  PayloadReader reader(payload);
  AVOC_ASSIGN_OR_RETURN(const std::string_view name, reader.ReadString());
  group->assign(name);
  AVOC_ASSIGN_OR_RETURN(*lo_round, reader.ReadVarint());
  AVOC_ASSIGN_OR_RETURN(*hi_round, reader.ReadVarint());
  return FinishWithOptionalTraceContext(reader, trace);
}

std::string EncodeRangeResult(std::span<const RangePoint> points) {
  std::string payload;
  AppendVarint(payload, points.size());
  for (const RangePoint& point : points) {
    AppendVarint(payload, point.round);
    payload.push_back(static_cast<char>(point.engaged != 0 ? 1 : 0));
    AppendDouble(payload, point.value);
  }
  return payload;
}

Status DecodeRangeResult(std::string_view payload,
                         std::vector<RangePoint>* points) {
  PayloadReader reader(payload);
  AVOC_ASSIGN_OR_RETURN(const uint64_t count, reader.ReadVarint());
  // Each point is at least 10 bytes (varint round, engaged, f64).
  if (count > reader.remaining()) {
    return ParseError("range point count exceeds payload size");
  }
  points->clear();
  points->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    RangePoint point;
    AVOC_ASSIGN_OR_RETURN(point.round, reader.ReadVarint());
    if (reader.remaining() < 1) return ParseError("truncated range point");
    AVOC_ASSIGN_OR_RETURN(const uint64_t engaged, reader.ReadVarint());
    if (engaged > 1) return ParseError("range point engaged flag not 0/1");
    point.engaged = static_cast<uint8_t>(engaged);
    AVOC_ASSIGN_OR_RETURN(point.value, reader.ReadDouble());
    points->push_back(point);
  }
  return reader.ExpectEnd();
}

std::string EncodeHistoryGet(std::string_view group,
                             const WireTraceContext* trace) {
  std::string payload;
  AppendLengthPrefixedString(payload, group);
  if (trace != nullptr && trace->valid()) AppendTraceContext(payload, *trace);
  return payload;
}

Status DecodeHistoryGet(std::string_view payload, std::string* group,
                        WireTraceContext* trace) {
  PayloadReader reader(payload);
  AVOC_ASSIGN_OR_RETURN(const std::string_view name, reader.ReadString());
  group->assign(name);
  return FinishWithOptionalTraceContext(reader, trace);
}

std::string EncodeHistoryState(uint64_t rounds,
                               std::span<const double> records) {
  std::string payload;
  AppendVarint(payload, rounds);
  AppendVarint(payload, records.size());
  for (const double record : records) AppendDouble(payload, record);
  return payload;
}

Status DecodeHistoryState(std::string_view payload, uint64_t* rounds,
                          std::vector<double>* records) {
  PayloadReader reader(payload);
  AVOC_ASSIGN_OR_RETURN(*rounds, reader.ReadVarint());
  AVOC_ASSIGN_OR_RETURN(const uint64_t count, reader.ReadVarint());
  if (count > reader.remaining() / 8) {
    return ParseError("history record count exceeds payload size");
  }
  records->clear();
  records->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    AVOC_ASSIGN_OR_RETURN(const double record, reader.ReadDouble());
    records->push_back(record);
  }
  return reader.ExpectEnd();
}

std::string EncodeMigrateGroup(std::string_view group, uint64_t dest_node) {
  std::string payload;
  AppendLengthPrefixedString(payload, group);
  AppendVarint(payload, dest_node);
  return payload;
}

Status DecodeMigrateGroup(std::string_view payload, std::string* group,
                          uint64_t* dest_node) {
  PayloadReader reader(payload);
  AVOC_ASSIGN_OR_RETURN(const std::string_view name, reader.ReadString());
  group->assign(name);
  AVOC_ASSIGN_OR_RETURN(*dest_node, reader.ReadVarint());
  return reader.ExpectEnd();
}

std::string EncodeMoved(uint64_t node, std::string_view address) {
  std::string payload;
  AppendVarint(payload, node);
  AppendLengthPrefixedString(payload, address);
  return payload;
}

Status DecodeMoved(std::string_view payload, uint64_t* node,
                   std::string* address) {
  PayloadReader reader(payload);
  AVOC_ASSIGN_OR_RETURN(*node, reader.ReadVarint());
  AVOC_ASSIGN_OR_RETURN(const std::string_view addr, reader.ReadString());
  address->assign(addr);
  return reader.ExpectEnd();
}

Result<Frame> ParseRequestLine(std::string_view line) {
  std::vector<std::string> tokens;
  for (std::string& token : SplitString(TrimWhitespace(line), ' ')) {
    if (!token.empty()) tokens.push_back(std::move(token));
  }
  if (tokens.empty()) return InvalidArgumentError("empty request");
  const std::string& verb = tokens[0];
  if (verb == "SUBMIT") {
    if (tokens.size() != 5) {
      return InvalidArgumentError("SUBMIT needs group module round value");
    }
    auto module = ParseInt(tokens[2]);
    auto round = ParseInt(tokens[3]);
    auto value = ParseDouble(tokens[4]);
    if (!module.ok() || *module < 0) {
      return InvalidArgumentError("bad module index");
    }
    if (!round.ok() || *round < 0) {
      return InvalidArgumentError("bad round number");
    }
    if (!value.ok()) return InvalidArgumentError("bad value");
    const BatchReading reading{static_cast<uint64_t>(*module),
                               static_cast<uint64_t>(*round), *value};
    return Frame{FrameType::kSubmitBatch,
                 EncodeSubmitBatch(tokens[1], {&reading, 1})};
  }
  if (verb == "CLOSE") {
    if (tokens.size() != 3) return InvalidArgumentError("CLOSE needs group round");
    auto round = ParseInt(tokens[2]);
    if (!round.ok() || *round < 0) {
      return InvalidArgumentError("bad round number");
    }
    return Frame{FrameType::kClose,
                 EncodeClose(tokens[1], static_cast<uint64_t>(*round))};
  }
  if (verb == "QUERY") {
    if (tokens.size() != 2) return InvalidArgumentError("QUERY needs group");
    return Frame{FrameType::kQuery, EncodeQuery(tokens[1])};
  }
  // Payload-less verbs ignore trailing tokens.
  for (const FrameType type : {FrameType::kGroups, FrameType::kMetrics,
                               FrameType::kHealth, FrameType::kPing,
                               FrameType::kQuit}) {
    if (verb == FrameTypeName(type)) return Frame{type, {}};
  }
  // Echo at most a short prefix: the verb is whatever the client sent.
  constexpr size_t kVerbEcho = 32;
  return InvalidArgumentError(
      "unknown verb '" + verb.substr(0, kVerbEcho) +
      (verb.size() > kVerbEcho ? "...'" : "'"));
}

std::string RenderLineReply(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kOk: {
      uint64_t accepted = 0;
      if (!DecodeOk(frame.payload, &accepted).ok()) break;
      // A line SUBMIT carries one reading: OK means it was accepted.
      return accepted >= 1 ? "OK" : "ERR reading not accepted";
    }
    case FrameType::kError: {
      std::string reason;
      if (!DecodeError(frame.payload, &reason).ok()) break;
      return "ERR " + reason;
    }
    case FrameType::kValue: {
      double value = 0.0;
      if (!DecodeValue(frame.payload, &value).ok()) break;
      return StrFormat("VALUE %.17g", value);
    }
    case FrameType::kNone:
    case FrameType::kPong:
    case FrameType::kBye:
      return std::string(FrameTypeName(frame.type));
    case FrameType::kGroupList: {
      std::vector<std::string> groups;
      if (!DecodeGroupList(frame.payload, &groups).ok()) break;
      std::string line = StrFormat("GROUPS %zu", groups.size());
      for (const std::string& group : groups) line += " " + group;
      return line;
    }
    case FrameType::kText: {
      // Multi-line reply: the text's own '\n'-terminated lines, then the
      // END sentinel.
      std::string text;
      if (!DecodeText(frame.payload, &text).ok()) break;
      return text + "END";
    }
    case FrameType::kMoved: {
      uint64_t node = 0;
      std::string address;
      if (!DecodeMoved(frame.payload, &node, &address).ok()) break;
      return "ERR " + MovedError(node, address).ToString();
    }
    default:
      break;
  }
  const std::string_view name = FrameTypeName(frame.type);
  return StrFormat("ERR unrenderable %.*s reply", static_cast<int>(name.size()),
                   name.data());
}

}  // namespace avoc::runtime
