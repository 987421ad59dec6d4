// History datastore (legacy JSON backend).
//
// The paper's implementation notes call out "datastore reads and writes
// being the bottleneck" of a history-aware voting round: the per-module
// reliability records live in a store so that a voter service can restart
// (or migrate between edge nodes) without losing its learned history.
//
// HistoryStore is the original key-value store of history snapshots keyed
// by voter-group name, with an in-memory backend and an optional JSON
// file backend persisted through durable atomic rename.  It implements
// storage::HistoryBackend, the seam the runtime is wired through — new
// deployments should prefer storage::StorageEngine (WAL + compressed
// chunks, see docs/STORAGE.md); this import path stays for existing JSON
// stores and as the bench_storage baseline.  avoc_storectl migrates one
// format to the other.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/backend.h"
#include "util/status.h"

namespace avoc::runtime {

/// One persisted group state (alias of the seam's type).
using HistorySnapshot = storage::HistorySnapshot;

class HistoryStore : public storage::HistoryBackend {
 public:
  /// Pure in-memory store.
  HistoryStore() = default;

  /// File-backed store: loads `path` when it exists; every Put rewrites
  /// the file.  The file holds one JSON object {group: {records, rounds}}:
  /// records only, so a state loaded from it is the records-only upgrade
  /// (core::UpgradeRecordsOnly) and a restart through this store stays
  /// approximate.  StorageEngine persists the full state.
  static Result<HistoryStore> Open(const std::string& path);

  HistoryStore(HistoryStore&&) = default;
  HistoryStore& operator=(HistoryStore&&) = default;

  /// Writes (replaces) the state of `group`; InvalidArgument unless it
  /// passes core::ValidateGroupState.
  Status Put(const std::string& group,
             const HistorySnapshot& snapshot) override;

  /// Reads the snapshot of `group`; NotFound when absent.
  Result<HistorySnapshot> Get(const std::string& group) const override;

  /// Removes `group`; returns whether it existed.  A failed flush of the
  /// backing file is an error (the group would silently resurrect on the
  /// next load otherwise).
  Result<bool> Erase(const std::string& group) override;

  /// All group names, sorted.
  std::vector<std::string> Groups() const override;

  size_t size() const override;

 private:
  Status Flush() const;  // requires mutex_ held

  // Heap-held so the store stays movable (Open returns by value).
  mutable std::unique_ptr<std::mutex> mutex_ =
      std::make_unique<std::mutex>();
  std::map<std::string, HistorySnapshot> snapshots_;
  std::string path_;  // empty for in-memory stores
};

}  // namespace avoc::runtime
