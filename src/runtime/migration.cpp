#include "runtime/migration.h"

#include <cinttypes>
#include <cstdint>
#include <memory>

#include "runtime/framing.h"
#include "storage/io.h"
#include "storage/snapshot.h"
#include "util/strings.h"

namespace avoc::runtime {
namespace {

// "AVGS" magic + version byte; trailing CRC32 over everything before it.
constexpr char kBlobMagic[4] = {'A', 'V', 'G', 'S'};
/// Version 3: the engine state in the storage group-state encoding, the
/// closed set as runs, and the sink rows as columns with their detail
/// base (rows below it carry no per-module columns).
constexpr uint8_t kBlobVersion = 3;
// Replication records get their own magic: they travel independently
// (the shipped-WAL-segment unit), so a record must never decode as a blob.
constexpr char kRecordMagic[4] = {'A', 'V', 'R', 'L'};
constexpr uint8_t kRecordVersion = 1;

constexpr std::string_view kMovedPrefix = "MOVED ";

Result<uint8_t> ReadBool(PayloadReader& reader) {
  AVOC_ASSIGN_OR_RETURN(const uint64_t raw, reader.ReadVarint());
  if (raw > 1) return ParseError("group state: flag byte not 0/1");
  return static_cast<uint8_t>(raw);
}

/// A varint count that must leave at least `min_bytes` per item.
Result<uint64_t> ReadCount(PayloadReader& reader, size_t min_bytes,
                           const char* what) {
  AVOC_ASSIGN_OR_RETURN(const uint64_t count, reader.ReadVarint());
  if (count > reader.remaining() / min_bytes) {
    return ParseError(StrFormat("group state: %s count exceeds payload", what));
  }
  return count;
}

void AppendFlags(std::string& out, std::span<const uint8_t> flags) {
  for (const uint8_t flag : flags) out.push_back(flag != 0 ? '\x01' : '\x00');
}

Status ReadFlags(PayloadReader& reader, std::vector<uint8_t>& flags) {
  for (uint8_t& flag : flags) {
    AVOC_ASSIGN_OR_RETURN(flag, ReadBool(reader));
  }
  return Status::Ok();
}

Status ReadDoubles(PayloadReader& reader, std::vector<double>& values) {
  for (double& value : values) {
    AVOC_ASSIGN_OR_RETURN(value, reader.ReadDouble());
  }
  return Status::Ok();
}

/// The sink rows as columns: row count, arity and detail base, the
/// round column, the per-round scalars, the per-module blocks of the rows
/// from the base on, then the sparse errors.
void AppendSinkRows(std::string& out, const core::TraceView& trace,
                    std::span<const size_t> rounds) {
  const core::TraceColumns& c = trace.columns();
  AppendVarint(out, c.rounds);
  AppendVarint(out, c.modules);
  AppendVarint(out, c.detail_base);
  for (const size_t round : rounds) AppendVarint(out, round);
  for (const double value : c.values) AppendDouble(out, value);
  AppendFlags(out, c.engaged);
  for (const core::RoundOutcome outcome : c.outcomes) {
    AppendVarint(out, static_cast<uint64_t>(outcome));
  }
  AppendFlags(out, c.used_clustering);
  AppendFlags(out, c.had_majority);
  for (const uint32_t present : c.present_counts) AppendVarint(out, present);
  for (const double weight : c.weights) AppendDouble(out, weight);
  for (const double agreement : c.agreement) AppendDouble(out, agreement);
  for (const double history : c.history) AppendDouble(out, history);
  AppendFlags(out, c.excluded);
  AppendFlags(out, c.eliminated);
  AppendVarint(out, c.errors.size());
  for (const core::RoundError& error : c.errors) {
    AppendVarint(out, error.round);
    AppendVarint(out, static_cast<uint64_t>(error.status.code()));
    AppendLengthPrefixedString(out, error.status.message());
  }
}

/// Decoded sink rows: the columns a GroupStateBlob's sink views point at.
struct SinkColumns {
  SinkColumns(size_t n, size_t cells)
      : rounds(n), values(n), engaged(n), outcomes(n), used_clustering(n),
        had_majority(n), present_counts(n), weights(cells), agreement(cells),
        history(cells), excluded(cells), eliminated(cells) {}

  std::vector<size_t> rounds;
  std::vector<double> values;
  std::vector<uint8_t> engaged;
  std::vector<core::RoundOutcome> outcomes;
  std::vector<uint8_t> used_clustering;
  std::vector<uint8_t> had_majority;
  std::vector<uint32_t> present_counts;
  std::vector<double> weights;
  std::vector<double> agreement;
  std::vector<double> history;
  std::vector<uint8_t> excluded;
  std::vector<uint8_t> eliminated;
  std::vector<core::RoundError> errors;
};

/// Decodes the sink rows into columns `blob` keeps and points its sink
/// views at them.
Status ReadSinkRows(PayloadReader& reader, GroupStateBlob& blob) {
  // Each row takes at least 13 bytes (round, value, five scalar bytes),
  // each module cell of a detail row at least 26 (three doubles, two
  // flags).
  AVOC_ASSIGN_OR_RETURN(const uint64_t rows, ReadCount(reader, 13, "sink row"));
  AVOC_ASSIGN_OR_RETURN(const uint64_t modules, reader.ReadVarint());
  AVOC_ASSIGN_OR_RETURN(const uint64_t base, reader.ReadVarint());
  if (base > rows) {
    return InvalidArgumentError(
        "group state: sink detail base past its rows");
  }
  const uint64_t detail = rows - base;
  if (detail != 0 && modules > reader.remaining() / 26 / detail) {
    return ParseError("group state: sink arity exceeds payload");
  }
  const size_t n = static_cast<size_t>(rows);
  const size_t cells = static_cast<size_t>(detail * modules);
  auto owned = std::make_shared<SinkColumns>(n, cells);
  SinkColumns& c = *owned;
  for (size_t& round : c.rounds) {
    AVOC_ASSIGN_OR_RETURN(const uint64_t value, reader.ReadVarint());
    round = static_cast<size_t>(value);
  }
  AVOC_RETURN_IF_ERROR(ReadDoubles(reader, c.values));
  AVOC_RETURN_IF_ERROR(ReadFlags(reader, c.engaged));
  for (core::RoundOutcome& outcome : c.outcomes) {
    AVOC_ASSIGN_OR_RETURN(const uint64_t raw, reader.ReadVarint());
    if (raw > static_cast<uint64_t>(core::RoundOutcome::kError)) {
      return ParseError("group state: unknown round outcome");
    }
    outcome = static_cast<core::RoundOutcome>(raw);
  }
  AVOC_RETURN_IF_ERROR(ReadFlags(reader, c.used_clustering));
  AVOC_RETURN_IF_ERROR(ReadFlags(reader, c.had_majority));
  for (uint32_t& present : c.present_counts) {
    AVOC_ASSIGN_OR_RETURN(const uint64_t raw, reader.ReadVarint());
    if (raw > modules) return ParseError("group state: present count > arity");
    present = static_cast<uint32_t>(raw);
  }
  AVOC_RETURN_IF_ERROR(ReadDoubles(reader, c.weights));
  AVOC_RETURN_IF_ERROR(ReadDoubles(reader, c.agreement));
  AVOC_RETURN_IF_ERROR(ReadDoubles(reader, c.history));
  AVOC_RETURN_IF_ERROR(ReadFlags(reader, c.excluded));
  AVOC_RETURN_IF_ERROR(ReadFlags(reader, c.eliminated));
  AVOC_ASSIGN_OR_RETURN(const uint64_t error_count,
                        ReadCount(reader, 3, "sink error"));
  for (uint64_t i = 0; i < error_count; ++i) {
    AVOC_ASSIGN_OR_RETURN(const uint64_t row, reader.ReadVarint());
    AVOC_ASSIGN_OR_RETURN(const uint64_t code, reader.ReadVarint());
    AVOC_ASSIGN_OR_RETURN(const std::string_view message, reader.ReadString());
    // Errors are sparse and ascending, one per kError row.
    if (row >= rows || (!c.errors.empty() && row <= c.errors.back().round) ||
        c.outcomes[static_cast<size_t>(row)] != core::RoundOutcome::kError) {
      return ParseError("group state: sink error on a row that has none");
    }
    if (code == 0 || code > static_cast<uint64_t>(ErrorCode::kInternal)) {
      return ParseError("group state: unknown status code");
    }
    c.errors.push_back(core::RoundError{
        static_cast<uint32_t>(row),
        Status(static_cast<ErrorCode>(code), std::string(message))});
  }
  blob.state.sink_rounds = c.rounds;
  blob.state.sink_trace = core::TraceView(core::TraceColumns{
      n, static_cast<size_t>(modules), static_cast<size_t>(base), c.values,
      c.engaged, c.outcomes, c.used_clustering, c.had_majority,
      c.present_counts, c.weights, c.agreement, c.history, c.excluded,
      c.eliminated, c.errors});
  blob.sink_columns = std::move(owned);
  return Status::Ok();
}

/// Splits off and checks the trailing CRC32; returns the checked body
/// after the magic + version header.
Result<std::string_view> CheckEnvelope(std::string_view bytes,
                                       std::string_view magic,
                                       uint8_t version, const char* what) {
  if (bytes.size() < magic.size() + 1 + 4) {
    return ParseError(StrFormat("%s: truncated", what));
  }
  if (bytes.substr(0, magic.size()) != magic) {
    return ParseError(StrFormat("%s: bad magic", what));
  }
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  storage::ByteReader crc_reader(bytes.substr(bytes.size() - 4));
  AVOC_ASSIGN_OR_RETURN(const uint32_t stored_crc, crc_reader.ReadU32());
  if (storage::Crc32(body) != stored_crc) {
    return ParseError(StrFormat("%s: CRC mismatch (torn record)", what));
  }
  if (static_cast<uint8_t>(body[magic.size()]) != version) {
    return ParseError(StrFormat("%s: unsupported version", what));
  }
  return body.substr(magic.size() + 1);
}

}  // namespace

std::string EncodeGroupState(const GroupStateBlob& blob) {
  std::string out;
  out.append(kBlobMagic, sizeof(kBlobMagic));
  out.push_back(static_cast<char>(kBlobVersion));
  AppendLengthPrefixedString(out, blob.group);

  // The engine state in the storage layer's one group-state encoding.
  const core::VotingEngine::State& engine = blob.state.engine;
  std::string state(storage::GroupStateSize(engine), '\0');
  storage::PutGroupState(state.data(), engine);
  AppendLengthPrefixedString(out, state);

  const HubNode::State& hub = blob.state.hub;
  AppendVarint(out, hub.pending.size());
  for (const auto& [round, readings] : hub.pending) {
    AppendVarint(out, round);
    AppendVarint(out, readings.size());
    for (const core::Reading& reading : readings) {
      out.push_back(reading.has_value() ? '\x01' : '\x00');
      if (reading.has_value()) AppendDouble(out, *reading);
    }
  }
  // Closed rounds as runs: first, then the run's length minus one.
  AppendVarint(out, hub.closed.run_count());
  for (const ClosedRounds::Run& run : hub.closed.runs()) {
    AppendVarint(out, run.first);
    AppendVarint(out, run.last - run.first);
  }

  AppendSinkRows(out, blob.state.sink_trace, blob.state.sink_rounds);

  AppendVarint(out, blob.dedup.size());
  for (const GroupStateBlob::DedupEntry& entry : blob.dedup) {
    AppendLengthPrefixedString(out, entry.client_id);
    AppendVarint(out, entry.seq);
    AppendVarint(out, entry.accepted);
  }

  storage::AppendU32(out, storage::Crc32(out));
  return out;
}

Result<GroupStateBlob> DecodeGroupState(std::string_view bytes) {
  AVOC_ASSIGN_OR_RETURN(
      const std::string_view body,
      CheckEnvelope(bytes, std::string_view(kBlobMagic, sizeof(kBlobMagic)),
                    kBlobVersion, "group state"));
  PayloadReader reader(body);
  GroupStateBlob blob;
  AVOC_ASSIGN_OR_RETURN(const std::string_view group, reader.ReadString());
  blob.group.assign(group);

  AVOC_ASSIGN_OR_RETURN(const std::string_view state, reader.ReadString());
  storage::ByteReader state_reader(state);
  AVOC_ASSIGN_OR_RETURN(blob.state.engine,
                        storage::ReadGroupState(state_reader));
  AVOC_RETURN_IF_ERROR(state_reader.ExpectEnd());

  AVOC_ASSIGN_OR_RETURN(const uint64_t pending,
                        ReadCount(reader, 2, "pending round"));
  blob.state.hub.pending.reserve(pending);
  for (uint64_t i = 0; i < pending; ++i) {
    AVOC_ASSIGN_OR_RETURN(const uint64_t round, reader.ReadVarint());
    AVOC_ASSIGN_OR_RETURN(const uint64_t modules,
                          ReadCount(reader, 1, "pending arity"));
    core::Round readings;
    readings.reserve(modules);
    for (uint64_t m = 0; m < modules; ++m) {
      AVOC_ASSIGN_OR_RETURN(const uint8_t present, ReadBool(reader));
      if (present != 0) {
        AVOC_ASSIGN_OR_RETURN(const double value, reader.ReadDouble());
        readings.emplace_back(value);
      } else {
        readings.emplace_back(std::nullopt);
      }
    }
    blob.state.hub.pending.emplace_back(round, std::move(readings));
  }
  AVOC_ASSIGN_OR_RETURN(const uint64_t runs,
                        ReadCount(reader, 2, "closed run"));
  for (uint64_t i = 0; i < runs; ++i) {
    AVOC_ASSIGN_OR_RETURN(const uint64_t first, reader.ReadVarint());
    AVOC_ASSIGN_OR_RETURN(const uint64_t span, reader.ReadVarint());
    if (span > UINT64_MAX - first ||
        !blob.state.hub.closed.AppendRun(first, first + span)) {
      return ParseError("group state: closed runs not ascending and disjoint");
    }
  }

  AVOC_RETURN_IF_ERROR(ReadSinkRows(reader, blob));
  // The sink rows must fit the group the engine state describes.
  AVOC_RETURN_IF_ERROR(
      GroupRunner::CheckSinkRows(blob.state, blob.state.engine.records.size()));

  AVOC_ASSIGN_OR_RETURN(const uint64_t dedup,
                        ReadCount(reader, 3, "dedup"));
  blob.dedup.reserve(dedup);
  for (uint64_t i = 0; i < dedup; ++i) {
    GroupStateBlob::DedupEntry entry;
    AVOC_ASSIGN_OR_RETURN(const std::string_view client, reader.ReadString());
    entry.client_id.assign(client);
    AVOC_ASSIGN_OR_RETURN(entry.seq, reader.ReadVarint());
    AVOC_ASSIGN_OR_RETURN(entry.accepted, reader.ReadVarint());
    blob.dedup.push_back(std::move(entry));
  }
  AVOC_RETURN_IF_ERROR(reader.ExpectEnd());
  return blob;
}

std::string EncodeReplicationRecord(const ReplicationRecord& record) {
  std::string out;
  out.append(kRecordMagic, sizeof(kRecordMagic));
  out.push_back(static_cast<char>(kRecordVersion));
  AppendVarint(out, static_cast<uint64_t>(record.kind));
  AppendVarint(out, record.frame_type);
  AppendLengthPrefixedString(out, record.group);
  AppendLengthPrefixedString(out, record.bytes);
  storage::AppendU32(out, storage::Crc32(out));
  return out;
}

Result<ReplicationRecord> DecodeReplicationRecord(std::string_view bytes) {
  AVOC_ASSIGN_OR_RETURN(
      const std::string_view body,
      CheckEnvelope(bytes,
                    std::string_view(kRecordMagic, sizeof(kRecordMagic)),
                    kRecordVersion, "replication record"));
  PayloadReader reader(body);
  ReplicationRecord record;
  AVOC_ASSIGN_OR_RETURN(const uint64_t kind, reader.ReadVarint());
  if (kind < 1 || kind > 3) {
    return ParseError("replication record: unknown kind");
  }
  record.kind = static_cast<ReplicationRecord::Kind>(kind);
  AVOC_ASSIGN_OR_RETURN(const uint64_t frame_type, reader.ReadVarint());
  if (frame_type > 0xFF) {
    return ParseError("replication record: bad frame type");
  }
  record.frame_type = static_cast<uint8_t>(frame_type);
  AVOC_ASSIGN_OR_RETURN(const std::string_view group, reader.ReadString());
  record.group.assign(group);
  AVOC_ASSIGN_OR_RETURN(const std::string_view payload, reader.ReadString());
  record.bytes.assign(payload);
  AVOC_RETURN_IF_ERROR(reader.ExpectEnd());
  return record;
}

Status MovedError(uint64_t node, std::string_view address) {
  return FailedPreconditionError(
      StrFormat("%s%" PRIu64 " %.*s", std::string(kMovedPrefix).c_str(), node,
                static_cast<int>(address.size()), address.data()));
}

bool TryParseMoved(const Status& status, uint64_t* node) {
  if (status.code() != ErrorCode::kFailedPrecondition) return false;
  const std::string& message = status.message();
  if (message.rfind(kMovedPrefix, 0) != 0) return false;
  uint64_t value = 0;
  size_t i = kMovedPrefix.size();
  if (i >= message.size() || message[i] < '0' || message[i] > '9') {
    return false;
  }
  for (; i < message.size() && message[i] >= '0' && message[i] <= '9'; ++i) {
    value = value * 10 + static_cast<uint64_t>(message[i] - '0');
  }
  if (node != nullptr) *node = value;
  return true;
}

}  // namespace avoc::runtime
