// Hostile-input coverage for the portable history-snapshot codec
// (storage/snapshot.h) — the byte format a voter group's reliability
// ledger travels in during migration handoff and operator export/import.
//
// The contract: every double round-trips BIT-exactly (NaN payloads,
// infinities, -0.0), an empty group round-trips, and a torn, truncated,
// or corrupted file decodes to a typed ParseError with the importing
// store left untouched.  The mangling menu mirrors the storage engine's
// corruption soak (storage_corruption_soak_test.cpp).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/trace.h"
#include "core/types.h"
#include "runtime/migration.h"
#include "storage/backend.h"
#include "storage/snapshot.h"
#include "util/rng.h"
#include "sink_rows.h"

namespace avoc::storage {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& tag) {
  return (fs::temp_directory_path() /
          ("avoc_snapshot_" + std::to_string(::getpid()) + "_" + tag))
      .string();
}

/// Minimal in-memory HistoryBackend: just enough store to drive the
/// file-level export/import seams without a storage engine on disk.
class MapBackend final : public HistoryBackend {
 public:
  Status Put(const std::string& group,
             const HistorySnapshot& snapshot) override {
    snapshots_[group] = snapshot;
    return Status::Ok();
  }
  Result<HistorySnapshot> Get(const std::string& group) const override {
    const auto it = snapshots_.find(group);
    if (it == snapshots_.end()) return NotFoundError("no group " + group);
    return it->second;
  }
  Result<bool> Erase(const std::string& group) override {
    return snapshots_.erase(group) != 0;
  }
  std::vector<std::string> Groups() const override {
    std::vector<std::string> names;
    for (const auto& [name, snapshot] : snapshots_) names.push_back(name);
    return names;
  }
  size_t size() const override { return snapshots_.size(); }

 private:
  std::map<std::string, HistorySnapshot> snapshots_;
};

/// Every field of a state, doubles as their bits: equal strings mean
/// bit-identical states.
std::string Dump(const HistorySnapshot& state) {
  std::string out = "rounds=" + std::to_string(state.rounds) + " index=" +
                    std::to_string(state.round_index) + " last=";
  out += state.last_output.has_value()
             ? std::to_string(std::bit_cast<uint64_t>(*state.last_output))
             : "none";
  for (const double record : state.records) {
    out += " r" + std::to_string(std::bit_cast<uint64_t>(record));
  }
  for (const double sum : state.agreement_sums) {
    out += " s" + std::to_string(std::bit_cast<uint64_t>(sum));
  }
  for (const uint64_t observed : state.observations) {
    out += " o" + std::to_string(observed);
  }
  return out;
}

bool BitIdentical(const HistorySnapshot& a, const HistorySnapshot& b) {
  return Dump(a) == Dump(b);
}

/// The doubles no codec may normalize.
std::vector<double> HostileDoubles() {
  return {0.0,
          -0.0,
          std::numeric_limits<double>::quiet_NaN(),
          std::bit_cast<double>(0x7FF8000000000DEFull),  // NaN payload
          std::numeric_limits<double>::signaling_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::max(),
          1.0 / 3.0};
}

/// A full state with a hostile double in every double field.
HistorySnapshot HostileSnapshot() {
  HistorySnapshot snapshot;
  snapshot.records = HostileDoubles();
  snapshot.agreement_sums = HostileDoubles();
  std::reverse(snapshot.agreement_sums.begin(), snapshot.agreement_sums.end());
  for (size_t i = 0; i < snapshot.records.size(); ++i) {
    snapshot.observations.push_back(i == 0 ? UINT64_MAX : 7 * i);
  }
  snapshot.rounds = 0xDEADBEEFu;
  snapshot.last_output = -0.0;
  snapshot.round_index = 0xFEEDFACECAFEull;
  return snapshot;
}

/// The raw state encoding (no envelope) of `state`.
std::string StateBytes(const HistorySnapshot& state) {
  std::string bytes(GroupStateSize(state), '\0');
  PutGroupState(bytes.data(), state);
  return bytes;
}

Result<HistorySnapshot> ReadState(std::string_view bytes) {
  ByteReader reader(bytes);
  AVOC_ASSIGN_OR_RETURN(HistorySnapshot state, ReadGroupState(reader));
  AVOC_RETURN_IF_ERROR(reader.ExpectEnd());
  return state;
}

/// Decodes every truncation and every single-bit flip of `good`: each
/// must fail with a typed ParseError, never decode to another value.
template <typename Decode>
void ExpectEveryTruncationAndFlipFailsTyped(const std::string& good,
                                            Decode decode) {
  for (size_t len = 0; len < good.size(); ++len) {
    const auto decoded = decode(std::string_view(good).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "len=" << len;
    ASSERT_EQ(decoded.status().code(), ErrorCode::kParseError)
        << "len=" << len << ": " << decoded.status().ToString();
  }
  for (size_t bit = 0; bit < 8 * good.size(); ++bit) {
    std::string bytes = good;
    bytes[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    const auto decoded = decode(bytes);
    ASSERT_FALSE(decoded.ok()) << "bit=" << bit;
    ASSERT_EQ(decoded.status().code(), ErrorCode::kParseError) << "bit=" << bit;
  }
}

TEST(SnapshotCodecTest, SpecialDoublesRoundTripBitExactly) {
  const HistorySnapshot snapshot = HostileSnapshot();
  auto decoded = DecodeHistorySnapshot(EncodeHistorySnapshot(snapshot));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(BitIdentical(snapshot, *decoded)) << Dump(*decoded);

  auto raw = ReadState(StateBytes(snapshot));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_TRUE(BitIdentical(snapshot, *raw));

  // Every hostile double as the last output, and no last output at all.
  for (const double last : HostileDoubles()) {
    HistorySnapshot state = snapshot;
    state.last_output = last;
    auto again = DecodeHistorySnapshot(EncodeHistorySnapshot(state));
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(BitIdentical(state, *again)) << Dump(state);
  }
  HistorySnapshot no_last = snapshot;
  no_last.last_output.reset();
  auto again = DecodeHistorySnapshot(EncodeHistorySnapshot(no_last));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(BitIdentical(no_last, *again));
}

TEST(SnapshotCodecTest, EmptyGroupRoundTrips) {
  HistorySnapshot empty;
  auto decoded = DecodeHistorySnapshot(EncodeHistorySnapshot(empty));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->records.empty());
  EXPECT_EQ(decoded->rounds, 0u);
  EXPECT_FALSE(decoded->last_output.has_value());
}

TEST(SnapshotCodecTest, StateLayoutIsPinned) {
  HistorySnapshot state;
  state.records = {0.5};
  state.agreement_sums = {-0.0};
  state.observations = {3};
  state.rounds = 4;
  state.last_output = 1.0;
  state.round_index = 5;
  auto hex = [](std::string_view bytes) {
    std::string out;
    for (const char c : bytes) {
      char buf[3];
      std::snprintf(buf, sizeof(buf), "%02x", static_cast<uint8_t>(c));
      out += buf;
    }
    return out;
  };
  EXPECT_EQ(hex(StateBytes(state)),
            // rounds 4, n 1, record 0.5, sum -0.0, observations 3
            "0400000000000000" "0100000000000000" "000000000000e03f"
            "0000000000000080" "0300000000000000"
            // last output present, 1.0, round_index 5
            "01" "000000000000f03f" "0500000000000000");
}

TEST(SnapshotCodecTest, VersionOneFilesDecodeThroughTheRecordsOnlyUpgrade) {
  // An AVSN file as format version 1 wrote it: rounds, records, CRC.
  std::string v1 = "AVSN";
  AppendU8(v1, 1);
  AppendU64(v1, 7);
  AppendU64(v1, 2);
  AppendF64(v1, 0.75);
  AppendF64(v1, -0.0);
  AppendU32(v1, Crc32(v1));
  auto decoded = DecodeHistorySnapshot(v1);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const std::vector<double> records = {0.75, -0.0};
  EXPECT_TRUE(BitIdentical(*decoded, core::UpgradeRecordsOnly(records, 7)))
      << Dump(*decoded);
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded->records[1]),
            std::bit_cast<uint64_t>(-0.0));
  ExpectEveryTruncationAndFlipFailsTyped(v1, DecodeHistorySnapshot);
}

TEST(SnapshotCodecTest, EveryTruncationFailsTyped) {
  const HistorySnapshot state = HostileSnapshot();
  const std::string good = EncodeHistorySnapshot(state);
  for (size_t len = 0; len < good.size(); ++len) {
    auto decoded = DecodeHistorySnapshot(std::string_view(good).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "len=" << len;
    EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError)
        << "len=" << len << ": " << decoded.status().ToString();
  }
  // The bare state encoding has no CRC; its framing alone must reject
  // every truncation.
  const std::string raw = StateBytes(state);
  for (size_t len = 0; len < raw.size(); ++len) {
    auto decoded = ReadState(std::string_view(raw).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "len=" << len;
    EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);
  }
}

TEST(SnapshotCodecTest, BitFlipsCrcTrailingBytesAndBadMagicFailTyped) {
  const std::string good = EncodeHistorySnapshot(HostileSnapshot());
  ExpectEveryTruncationAndFlipFailsTyped(good, DecodeHistorySnapshot);
  EXPECT_FALSE(DecodeHistorySnapshot(good + "tail").ok());
  EXPECT_FALSE(DecodeHistorySnapshot("").ok());
  EXPECT_FALSE(DecodeHistorySnapshot("not a snapshot at all").ok());
  std::string wrong_magic = good;
  wrong_magic[0] = 'X';
  auto decoded = DecodeHistorySnapshot(wrong_magic);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);

  // A well-framed file whose absent last output carries stray bits is
  // not the encoding of any state.
  HistorySnapshot no_last = HostileSnapshot();
  no_last.last_output.reset();
  std::string stray = EncodeHistorySnapshot(no_last);
  stray.resize(stray.size() - 4);
  stray[stray.size() - 16] = 1;  // low byte of the f64 before round_index
  AppendU32(stray, Crc32(stray));
  decoded = DecodeHistorySnapshot(stray);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);
}

/// A migration blob with a hostile double in every double field, a
/// multi-run closed set, an error row and a dedup entry; its sink rows
/// below `detail_base` carry no per-module columns.
runtime::GroupStateBlob HostileBlob(size_t detail_base = 0) {
  runtime::GroupStateBlob blob;
  blob.group = "lights";
  blob.state.engine = HostileSnapshot();
  const std::vector<double> doubles = HostileDoubles();
  core::Round pending;
  for (const double value : doubles) pending.emplace_back(value);
  pending.emplace_back(std::nullopt);
  blob.state.hub.pending.emplace_back(41, pending);
  blob.state.hub.pending.emplace_back(UINT64_MAX, core::Round(3));
  for (const uint64_t round : {0, 1, 2, 3, 7, 9, 10}) {
    blob.state.hub.closed.Insert(round);
  }
  blob.state.hub.closed.Insert(UINT64_MAX);
  const size_t modules = doubles.size();
  core::BatchTrace trace;
  std::vector<size_t> rounds;
  for (size_t row = 0; row < 4; ++row) {
    core::VoteResult result;
    result.outcome = row == 3 ? core::RoundOutcome::kError
                              : core::RoundOutcome::kVoted;
    if (row == 3) {
      result.status = InvalidArgumentError("no quorum: 1 of 10");
    } else {
      result.value = doubles[row];
    }
    result.used_clustering = row == 1;
    result.had_majority = row != 2;
    result.present_count = modules - row;
    for (size_t m = 0; m < modules; ++m) {
      result.weights.push_back(doubles[(m + row) % modules]);
      result.agreement.push_back(doubles[(m + row + 1) % modules]);
      result.history.push_back(doubles[(m + row + 2) % modules]);
      result.excluded.push_back((m + row) % 3 == 0);
      result.eliminated.push_back((m + row) % 4 == 0);
    }
    trace.Append(result);
    rounds.push_back(7 + row);
  }
  trace.TrimDetail(detail_base);
  runtime::SetSinkRows(blob, std::move(trace), std::move(rounds));
  blob.dedup.push_back({"edge-7", 3, 3});
  blob.dedup.push_back({"", UINT64_MAX, 0});
  return blob;
}

TEST(SnapshotCodecTest, GroupStateBlobRoundTripsAndRejectsEveryDamage) {
  const runtime::GroupStateBlob blob = HostileBlob();
  const std::string good = runtime::EncodeGroupState(blob);
  auto decoded = runtime::DecodeGroupState(good);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(BitIdentical(decoded->state.engine, blob.state.engine));
  // Re-encoding the decoded blob reproduces every byte: no field was
  // normalized on the way through.
  EXPECT_EQ(runtime::EncodeGroupState(*decoded), good);
  ASSERT_EQ(decoded->state.hub.closed.run_count(), 4u);
  EXPECT_TRUE(decoded->state.hub.closed.Contains(UINT64_MAX));
  EXPECT_FALSE(decoded->state.hub.closed.Contains(8));
  EXPECT_TRUE(std::ranges::equal(decoded->state.sink_rounds,
                                 blob.state.sink_rounds));
  EXPECT_EQ(decoded->state.sink_trace.status(3).message(),
            "no quorum: 1 of 10");

  ExpectEveryTruncationAndFlipFailsTyped(good, runtime::DecodeGroupState);
}

TEST(SnapshotCodecTest, GroupStateBlobWithADetailBaseRejectsEveryDamage) {
  const runtime::GroupStateBlob blob = HostileBlob(/*detail_base=*/2);
  const std::string good = runtime::EncodeGroupState(blob);
  auto decoded = runtime::DecodeGroupState(good);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(runtime::EncodeGroupState(*decoded), good);
  const core::TraceView& trace = decoded->state.sink_trace;
  EXPECT_EQ(trace.round_count(), 4u);
  EXPECT_EQ(trace.detail_base(), 2u);
  EXPECT_TRUE(trace.weights(1).empty());
  EXPECT_EQ(trace.weights(2).size(), HostileDoubles().size());
  EXPECT_EQ(trace.status(3).message(), "no quorum: 1 of 10");
  // Two rows' blocks fewer than the untrimmed blob.
  EXPECT_EQ(runtime::EncodeGroupState(HostileBlob()).size() - good.size(),
            2 * HostileDoubles().size() * 26);

  ExpectEveryTruncationAndFlipFailsTyped(good, runtime::DecodeGroupState);
}

TEST(SnapshotCodecTest, GroupStateBlobWithABasePastItsRowsFailsTyped) {
  runtime::GroupStateBlob blob = HostileBlob();
  core::TraceColumns columns = blob.state.sink_trace.columns();
  columns.detail_base = columns.rounds + 1;
  columns.weights = columns.agreement = columns.history = {};
  columns.excluded = columns.eliminated = {};
  blob.state.sink_trace = core::TraceView(columns);
  const auto decoded =
      runtime::DecodeGroupState(runtime::EncodeGroupState(blob));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kInvalidArgument)
      << decoded.status().ToString();
}

TEST(SnapshotCodecTest, FuzzBytesNeverFault) {
  avoc::Rng rng(0xFADE5ull);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string bytes;
    const size_t len = rng.UniformInt(160);
    bytes.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng()));
    }
    // Must return ok or a typed error, never crash or read out of bounds.
    auto decoded = DecodeHistorySnapshot(bytes);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);
    }
    auto raw = ReadState(bytes);
    if (!raw.ok()) {
      EXPECT_EQ(raw.status().code(), ErrorCode::kParseError);
    }
    auto blob = runtime::DecodeGroupState(bytes);
    if (!blob.ok()) {
      EXPECT_EQ(blob.status().code(), ErrorCode::kParseError);
    }
  }
}

TEST(SnapshotFileTest, ExportImportRoundTripsThroughTheBackendSeam) {
  MapBackend store;
  ASSERT_TRUE(store.Put("lights", HostileSnapshot()).ok());
  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(ExportSnapshotToFile(store, "lights", path).ok());

  MapBackend other;
  ASSERT_TRUE(ImportSnapshotFromFile(other, "copy", path).ok());
  auto imported = other.Get("copy");
  ASSERT_TRUE(imported.ok());
  EXPECT_TRUE(BitIdentical(HostileSnapshot(), *imported));
  fs::remove(path);
}

TEST(SnapshotFileTest, ExportOfMissingGroupIsNotFound) {
  MapBackend store;
  const std::string path = TempPath("missing");
  const Status status = ExportSnapshotToFile(store, "ghost", path);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound) << status.ToString();
  EXPECT_FALSE(fs::exists(path));
}

TEST(SnapshotFileTest, TornFileLeavesTheStoreUntouched) {
  MapBackend store;
  ASSERT_TRUE(store.Put("lights", HostileSnapshot()).ok());
  const std::string path = TempPath("torn");
  ASSERT_TRUE(ExportSnapshotToFile(store, "lights", path).ok());

  // Tear the file at every plausible sync point and re-import.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  avoc::Rng rng(0x7042ull);
  for (int i = 0; i < 32; ++i) {
    const size_t keep = rng.UniformInt(bytes.size());
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    MapBackend target;
    ASSERT_TRUE(
        target.Put("keepme", core::UpgradeRecordsOnly({{1.0}}, 1)).ok());
    const Status status = ImportSnapshotFromFile(target, "lights", path);
    EXPECT_FALSE(status.ok()) << "keep=" << keep;
    // All-or-nothing: no partial group appeared, nothing else vanished.
    EXPECT_FALSE(target.Get("lights").ok()) << "keep=" << keep;
    EXPECT_TRUE(target.Get("keepme").ok());
    EXPECT_EQ(target.size(), 1u);
  }
  fs::remove(path);
}

TEST(SnapshotFileTest, ImportOfMissingFileIsTypedError) {
  MapBackend store;
  const Status status =
      ImportSnapshotFromFile(store, "lights", TempPath("never_written"));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(store.size(), 0u);
}

// Seeded soak across the whole mangle menu, mirroring the storage
// engine's corruption soak: decode must recover-or-reject, never fault.
TEST(SnapshotFileTest, SeededCorruptionSoakRecoversOrRejects) {
  size_t rejected = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    avoc::Rng rng(0x5EED ^ (seed * 0x9E3779B97F4A7C15ull));
    HistorySnapshot snapshot;
    const size_t modules = rng.UniformInt(8);
    auto hostile = [&rng]() {
      switch (rng.UniformInt(4)) {
        case 0:
          return std::numeric_limits<double>::quiet_NaN();
        case 1:
          return -0.0;
        case 2:
          return -std::numeric_limits<double>::infinity();
        default:
          return rng.NextDouble() * 1e9;
      }
    };
    for (size_t m = 0; m < modules; ++m) {
      snapshot.records.push_back(hostile());
      snapshot.agreement_sums.push_back(hostile());
      snapshot.observations.push_back(rng());
    }
    snapshot.rounds = rng.UniformInt(1 << 20);
    if (rng.Bernoulli(0.5)) snapshot.last_output = hostile();
    snapshot.round_index = rng();
    std::string bytes = EncodeHistorySnapshot(snapshot);
    switch (rng.UniformInt(3)) {
      case 0:
        bytes.resize(rng.UniformInt(bytes.size() + 1));
        break;
      case 1: {
        const size_t flips = 1 + rng.UniformInt(8);
        for (size_t i = 0; i < flips && !bytes.empty(); ++i) {
          bytes[rng.UniformInt(bytes.size())] ^=
              static_cast<char>(1u << rng.UniformInt(8));
        }
        break;
      }
      default: {
        const size_t len = 1 + rng.UniformInt(32);
        for (size_t i = 0; i < len; ++i) {
          bytes.push_back(static_cast<char>(rng()));
        }
        break;
      }
    }
    auto decoded = DecodeHistorySnapshot(bytes);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError)
          << "seed " << seed;
      ++rejected;
    }
    // A truncation that kept everything can still decode; any real damage
    // must be rejected by the CRC.
  }
  EXPECT_GT(rejected, 150u);
}

}  // namespace
}  // namespace avoc::storage
