// The one byte encoding of a group's state (core/group_state.h), and
// the portable history-snapshot file built on it.
//
// PutGroupState / ReadGroupState encode the state wherever it is
// written: the WAL's STATE_PUT record, a store snapshot's history entry,
// the AVSN file and the migration blob (runtime/migration.h).  Fixed-
// width little-endian fields, bit-exact for every double (NaN payloads,
// infinities and -0.0 round trip verbatim) because a restored or
// migrated voter must keep voting bit-identically:
//
//   state := u64 rounds  u64 n  n × f64 record  n × f64 agreement_sum
//            n × u64 observations  u8 has_last_output
//            f64 last_output (all zero bits when absent)  u64 round_index
//
// Format version 1 wrote only the first three fields (`u64 rounds,
// u64 n, n × f64 record`); ReadGroupState reads that prefix through
// core::UpgradeRecordsOnly when asked for the records-only layout.
//
// AVSN files (operator export/import, docs/MIGRATION.md) carry a magic, a
// version and a trailing CRC32 over everything before it; a torn or
// corrupted file decodes to a typed ParseError, never garbage.
#pragma once

#include <string>
#include <string_view>

#include "storage/backend.h"
#include "storage/io.h"
#include "util/status.h"

namespace avoc::storage {

/// Bytes PutGroupState writes for `state`.
size_t GroupStateSize(const HistorySnapshot& state);

/// Writes `state` at `out` (exactly GroupStateSize bytes) and returns the
/// byte past it.  `state` must pass core::ValidateGroupState.
char* PutGroupState(char* out, const HistorySnapshot& state);

/// Reads one state.  `records_only` reads the format-1 layout and
/// upgrades it.  ParseError on truncation, a count past the payload or a
/// non-canonical last-output field.
Result<HistorySnapshot> ReadGroupState(ByteReader& reader,
                                       bool records_only = false);

/// One group's state as a self-checking AVSN byte string.
std::string EncodeHistorySnapshot(const HistorySnapshot& snapshot);

/// Decodes EncodeHistorySnapshot output, and version-1 files through the
/// records-only upgrade.  ParseError on bad magic, unknown version,
/// truncation, trailing bytes, or CRC mismatch.
Result<HistorySnapshot> DecodeHistorySnapshot(std::string_view bytes);

/// Reads `group` from `store` and writes its snapshot durably (atomic
/// replace) to `path`.  NotFound when the store has no such group.
Status ExportSnapshotToFile(const HistoryBackend& store,
                            const std::string& group,
                            const std::string& path);

/// Decodes `path` and installs it under `group`.  All-or-nothing: a
/// torn or corrupted file leaves the store untouched.
Status ImportSnapshotFromFile(HistoryBackend& store, const std::string& group,
                              const std::string& path);

}  // namespace avoc::storage
