#include "storage/snapshot.h"

#include <bit>

#include "util/strings.h"

namespace avoc::storage {
namespace {

// "AVSN" magic + one version byte.  The CRC is appended last, over the
// magic, version, and body together.
constexpr char kMagic[4] = {'A', 'V', 'S', 'N'};
constexpr uint8_t kVersion = 2;
constexpr uint8_t kRecordsOnlyVersion = 1;

/// Fixed bytes around the n per-module triples: rounds, n, the
/// last-output flag and value, round_index.
constexpr size_t kStateFixedBytes = 8 + 8 + 1 + 8 + 8;

}  // namespace

size_t GroupStateSize(const HistorySnapshot& state) {
  return kStateFixedBytes + 24 * state.records.size();
}

char* PutGroupState(char* out, const HistorySnapshot& state) {
  const size_t n = state.records.size();
  out = PutU64(out, state.rounds);
  out = PutU64(out, n);
  for (const double record : state.records) out = PutF64(out, record);
  for (size_t i = 0; i < n; ++i) out = PutF64(out, state.agreement_sums[i]);
  for (size_t i = 0; i < n; ++i) out = PutU64(out, state.observations[i]);
  out = PutU8(out, state.last_output.has_value() ? 1 : 0);
  out = PutF64(out, state.last_output.value_or(0.0));
  return PutU64(out, state.round_index);
}

Result<HistorySnapshot> ReadGroupState(ByteReader& reader, bool records_only) {
  AVOC_ASSIGN_OR_RETURN(const uint64_t rounds, reader.ReadU64());
  AVOC_ASSIGN_OR_RETURN(const uint64_t n, reader.ReadU64());
  if (n > reader.remaining() / (records_only ? 8 : 24)) {
    return ParseError("group state: module count exceeds payload");
  }
  std::vector<double> records(static_cast<size_t>(n));
  for (double& record : records) {
    AVOC_ASSIGN_OR_RETURN(record, reader.ReadF64());
  }
  if (records_only) return core::UpgradeRecordsOnly(records, rounds);

  HistorySnapshot state;
  state.records = std::move(records);
  state.rounds = rounds;
  state.agreement_sums.resize(static_cast<size_t>(n));
  for (double& sum : state.agreement_sums) {
    AVOC_ASSIGN_OR_RETURN(sum, reader.ReadF64());
  }
  state.observations.resize(static_cast<size_t>(n));
  for (uint64_t& observed : state.observations) {
    AVOC_ASSIGN_OR_RETURN(observed, reader.ReadU64());
  }
  AVOC_ASSIGN_OR_RETURN(const uint8_t has_last, reader.ReadU8());
  AVOC_ASSIGN_OR_RETURN(const double last, reader.ReadF64());
  // One encoding per state: an absent output is written as zero bits.
  if (has_last > 1 || (has_last == 0 && std::bit_cast<uint64_t>(last) != 0)) {
    return ParseError("group state: malformed last output");
  }
  if (has_last != 0) state.last_output = last;
  AVOC_ASSIGN_OR_RETURN(state.round_index, reader.ReadU64());
  return state;
}

std::string EncodeHistorySnapshot(const HistorySnapshot& snapshot) {
  std::string out(sizeof(kMagic) + 1 + GroupStateSize(snapshot) + 4, '\0');
  char* p = out.data();
  std::memcpy(p, kMagic, sizeof(kMagic));
  p = PutGroupState(PutU8(p + sizeof(kMagic), kVersion), snapshot);
  PutU32(p, Crc32(std::string_view(out.data(), out.size() - 4)));
  return out;
}

Result<HistorySnapshot> DecodeHistorySnapshot(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) + 1 + 4) {
    return ParseError("snapshot: truncated header");
  }
  if (bytes.substr(0, sizeof(kMagic)) !=
      std::string_view(kMagic, sizeof(kMagic))) {
    return ParseError("snapshot: bad magic");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  ByteReader crc_reader(bytes.substr(bytes.size() - 4));
  AVOC_ASSIGN_OR_RETURN(const uint32_t stored_crc, crc_reader.ReadU32());
  if (Crc32(body) != stored_crc) {
    return ParseError("snapshot: CRC mismatch (torn or corrupted file)");
  }
  ByteReader reader(body.substr(sizeof(kMagic)));
  AVOC_ASSIGN_OR_RETURN(const uint8_t version, reader.ReadU8());
  if (version != kVersion && version != kRecordsOnlyVersion) {
    return ParseError(
        StrFormat("snapshot: unsupported version %u", unsigned{version}));
  }
  AVOC_ASSIGN_OR_RETURN(
      HistorySnapshot snapshot,
      ReadGroupState(reader, version == kRecordsOnlyVersion));
  AVOC_RETURN_IF_ERROR(reader.ExpectEnd());
  return snapshot;
}

Status ExportSnapshotToFile(const HistoryBackend& store,
                            const std::string& group,
                            const std::string& path) {
  AVOC_ASSIGN_OR_RETURN(const HistorySnapshot snapshot, store.Get(group));
  AVOC_RETURN_IF_ERROR(core::ValidateGroupState(snapshot));
  return WriteFileDurable(path, EncodeHistorySnapshot(snapshot));
}

Status ImportSnapshotFromFile(HistoryBackend& store, const std::string& group,
                              const std::string& path) {
  AVOC_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  AVOC_ASSIGN_OR_RETURN(const HistorySnapshot snapshot,
                        DecodeHistorySnapshot(bytes));
  return store.Put(group, snapshot);
}

}  // namespace avoc::storage
