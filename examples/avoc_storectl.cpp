// Storage control tool: migrate legacy JSON history stores into the WAL
// storage engine, verify a migration round-trips bit-exactly, and print
// engine statistics — the operational companion of docs/STORAGE.md.
//
// Usage:
//   avoc_storectl migrate LEGACY.json DIR    copy every group into DIR
//   avoc_storectl verify LEGACY.json DIR     compare both stores bit-exactly
//   avoc_storectl stats DIR                  print WAL/chunk/recovery stats
//   avoc_storectl compact DIR                force a snapshot + WAL rotation
//   avoc_storectl selftest                   temp JSON -> migrate -> verify
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "runtime/datastore.h"
#include "storage/engine.h"

namespace {

using avoc::runtime::HistoryStore;
using avoc::storage::HistorySnapshot;
using avoc::storage::StorageEngine;
using avoc::storage::StorageEngineOptions;

avoc::Result<std::unique_ptr<StorageEngine>> OpenEngine(
    const std::string& dir) {
  StorageEngineOptions options;
  options.dir = dir;
  return StorageEngine::Open(std::move(options));
}

int Migrate(const std::string& legacy_path, const std::string& dir) {
  // HistoryStore::Open treats a missing file as a new empty store; for a
  // migration a typo'd path must not "succeed" with zero groups.
  if (!std::filesystem::exists(legacy_path)) {
    std::fprintf(stderr, "open %s: no such file\n", legacy_path.c_str());
    return 1;
  }
  auto legacy = HistoryStore::Open(legacy_path);
  if (!legacy.ok()) {
    std::fprintf(stderr, "open %s: %s\n", legacy_path.c_str(),
                 legacy.status().ToString().c_str());
    return 1;
  }
  auto engine = OpenEngine(dir);
  if (!engine.ok()) {
    std::fprintf(stderr, "open %s: %s\n", dir.c_str(),
                 engine.status().ToString().c_str());
    return 1;
  }
  size_t migrated = 0;
  for (const std::string& group : legacy->Groups()) {
    auto snapshot = legacy->Get(group);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "read %s: %s\n", group.c_str(),
                   snapshot.status().ToString().c_str());
      return 1;
    }
    const avoc::Status put = (*engine)->Put(group, *snapshot);
    if (!put.ok()) {
      std::fprintf(stderr, "put %s: %s\n", group.c_str(),
                   put.ToString().c_str());
      return 1;
    }
    ++migrated;
  }
  // Seal the migration into a snapshot so the store opens without any
  // WAL replay and the legacy file can be retired immediately.
  const avoc::Status compact = (*engine)->Compact();
  if (!compact.ok()) {
    std::fprintf(stderr, "compact: %s\n", compact.ToString().c_str());
    return 1;
  }
  std::printf("migrated %zu groups from %s into %s\n", migrated,
              legacy_path.c_str(), dir.c_str());
  return 0;
}

int Verify(const std::string& legacy_path, const std::string& dir) {
  if (!std::filesystem::exists(legacy_path)) {
    std::fprintf(stderr, "open %s: no such file\n", legacy_path.c_str());
    return 1;
  }
  auto legacy = HistoryStore::Open(legacy_path);
  if (!legacy.ok()) {
    std::fprintf(stderr, "open %s: %s\n", legacy_path.c_str(),
                 legacy.status().ToString().c_str());
    return 1;
  }
  auto engine = OpenEngine(dir);
  if (!engine.ok()) {
    std::fprintf(stderr, "open %s: %s\n", dir.c_str(),
                 engine.status().ToString().c_str());
    return 1;
  }
  size_t mismatches = 0;
  const std::vector<std::string> groups = legacy->Groups();
  for (const std::string& group : groups) {
    auto want = legacy->Get(group);
    auto got = (*engine)->Get(group);
    if (!want.ok() || !got.ok()) {
      std::printf("%-24s MISSING (%s)\n", group.c_str(),
                  got.ok() ? "legacy read failed" : "not in engine");
      ++mismatches;
      continue;
    }
    // Bit-exact comparison: migrated doubles must survive unchanged,
    // including NaN payloads and signed zeros.
    bool same = want->rounds == got->rounds &&
                want->records.size() == got->records.size();
    for (size_t i = 0; same && i < want->records.size(); ++i) {
      same = std::memcmp(&want->records[i], &got->records[i],
                         sizeof(double)) == 0;
    }
    if (!same) {
      std::printf("%-24s MISMATCH (rounds %llu vs %llu, %zu vs %zu records)\n",
                  group.c_str(),
                  static_cast<unsigned long long>(want->rounds),
                  static_cast<unsigned long long>(got->rounds),
                  want->records.size(), got->records.size());
      ++mismatches;
    }
  }
  if ((*engine)->size() != groups.size()) {
    std::printf("group count differs: legacy %zu vs engine %zu\n",
                groups.size(), (*engine)->size());
    ++mismatches;
  }
  if (mismatches != 0) {
    std::printf("FAILED: %zu mismatches across %zu groups\n", mismatches,
                groups.size());
    return 1;
  }
  std::printf("OK: %zu groups identical\n", groups.size());
  return 0;
}

int Stats(const std::string& dir) {
  auto engine = OpenEngine(dir);
  if (!engine.ok()) {
    std::fprintf(stderr, "open %s: %s\n", dir.c_str(),
                 engine.status().ToString().c_str());
    return 1;
  }
  const avoc::storage::StorageStats stats = (*engine)->stats();
  std::printf("dir:                  %s\n", dir.c_str());
  std::printf("history groups:       %llu\n",
              static_cast<unsigned long long>(stats.history_groups));
  std::printf("trace points:         %llu\n",
              static_cast<unsigned long long>(stats.trace_points));
  std::printf("snapshot generation:  %llu\n",
              static_cast<unsigned long long>(stats.snapshot_seq));
  std::printf("wal records:          %llu\n",
              static_cast<unsigned long long>(stats.wal_records));
  std::printf("wal bytes:            %llu (synced %llu)\n",
              static_cast<unsigned long long>(stats.wal_bytes),
              static_cast<unsigned long long>(stats.wal_synced_bytes));
  std::printf("sealed chunks:        %llu\n",
              static_cast<unsigned long long>(stats.sealed_chunks));
  std::printf("compression:          %.2fx (%llu -> %llu bytes)\n",
              stats.compression_ratio(),
              static_cast<unsigned long long>(stats.chunk_raw_bytes),
              static_cast<unsigned long long>(stats.chunk_compressed_bytes));
  std::printf("last recovery:        %llu ms%s\n",
              static_cast<unsigned long long>(stats.recovery_ms),
              stats.recovered_truncated_tail ? " (truncated a torn tail)"
                                             : "");
  return 0;
}

int Compact(const std::string& dir) {
  auto engine = OpenEngine(dir);
  if (!engine.ok()) {
    std::fprintf(stderr, "open %s: %s\n", dir.c_str(),
                 engine.status().ToString().c_str());
    return 1;
  }
  const avoc::Status status = (*engine)->Compact();
  if (!status.ok()) {
    std::fprintf(stderr, "compact: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("compacted %s (snapshot generation %llu)\n", dir.c_str(),
              static_cast<unsigned long long>((*engine)->stats().snapshot_seq));
  return 0;
}

// End-to-end smoke used by CI: synthesize a legacy store, migrate it,
// then verify the round trip — all under a scratch directory.
int SelfTest() {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "avoc_storectl_selftest";
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string legacy_path = (root / "legacy.json").string();
  const std::string dir = (root / "store").string();
  {
    auto legacy = HistoryStore::Open(legacy_path);
    if (!legacy.ok()) return 1;
    for (size_t g = 0; g < 32; ++g) {
      std::vector<double> records;
      for (size_t m = 0; m < 1 + g % 5; ++m) {
        records.push_back(std::sin(0.1 * static_cast<double>(g * 7 + m)));
      }
      records.push_back(-0.0);  // signed zero must round-trip
      if (!legacy
               ->Put("group" + std::to_string(g),
                     avoc::core::UpgradeRecordsOnly(records, 10 * g + 1))
               .ok()) {
        return 1;
      }
    }
  }
  if (Migrate(legacy_path, dir) != 0) return 1;
  if (Verify(legacy_path, dir) != 0) return 1;
  if (Stats(dir) != 0) return 1;
  fs::remove_all(root);
  std::printf("selftest OK\n");
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: avoc_storectl migrate LEGACY.json DIR\n"
               "       avoc_storectl verify LEGACY.json DIR\n"
               "       avoc_storectl stats DIR\n"
               "       avoc_storectl compact DIR\n"
               "       avoc_storectl selftest\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "migrate" && args.size() == 2) {
    return Migrate(args[0], args[1]);
  }
  if (command == "verify" && args.size() == 2) {
    return Verify(args[0], args[1]);
  }
  if (command == "stats" && args.size() == 1) return Stats(args[0]);
  if (command == "compact" && args.size() == 1) return Compact(args[0]);
  if (command == "selftest") return SelfTest();
  Usage();
  return 2;
}
