#include "runtime/datastore.h"

#include <fstream>
#include <sstream>

#include "json/parse.h"
#include "json/write.h"
#include "storage/io.h"
#include "storage/snapshot.h"

namespace avoc::runtime {

Result<HistoryStore> HistoryStore::Open(const std::string& path) {
  HistoryStore store;
  store.path_ = path;
  std::ifstream in(path, std::ios::binary);
  if (!in) return store;  // fresh store; file created on first Put
  std::ostringstream buffer;
  buffer << in.rdbuf();
  AVOC_ASSIGN_OR_RETURN(const json::Value doc, json::Parse(buffer.str()));
  if (!doc.is_object()) {
    return ParseError("history store file must hold a JSON object");
  }
  // The file holds records and round counts only, so a loaded state is
  // the records-only upgrade: approximate across a restart.
  for (const auto& [group, entry] : doc.object().entries()) {
    uint64_t rounds = 0;
    std::vector<double> records;
    if (const json::Value* value = entry.Find("rounds")) {
      rounds = static_cast<uint64_t>(value->DoubleOr(0));
    }
    if (const json::Value* value = entry.Find("records")) {
      if (!value->is_array()) {
        return ParseError("records of '" + group + "' must be an array");
      }
      for (const json::Value& r : value->array()) {
        AVOC_ASSIGN_OR_RETURN(const double record, r.AsDouble());
        records.push_back(record);
      }
    }
    store.snapshots_[group] = core::UpgradeRecordsOnly(records, rounds);
  }
  return store;
}

Status HistoryStore::Flush() const {
  if (path_.empty()) return Status::Ok();
  json::Object doc;
  for (const auto& [group, snapshot] : snapshots_) {
    json::Array records;
    records.reserve(snapshot.records.size());
    for (const double r : snapshot.records) records.emplace_back(r);
    doc.Set(group, json::MakeObject({
                       {"records", std::move(records)},
                       {"rounds", static_cast<double>(snapshot.rounds)},
                   }));
  }
  // Durable replacement (tmp + fsync + rename + dir fsync): a plain
  // rename could vanish on power loss, losing the whole store.
  return storage::WriteFileDurable(path_,
                                   json::Write(json::Value(std::move(doc))));
}

Status HistoryStore::Put(const std::string& group,
                         const HistorySnapshot& snapshot) {
  AVOC_RETURN_IF_ERROR(core::ValidateGroupState(snapshot));
  std::lock_guard<std::mutex> lock(*mutex_);
  snapshots_[group] = snapshot;
  return Flush();
}

Result<HistorySnapshot> HistoryStore::Get(const std::string& group) const {
  std::lock_guard<std::mutex> lock(*mutex_);
  auto it = snapshots_.find(group);
  if (it == snapshots_.end()) {
    return NotFoundError("no history for group '" + group + "'");
  }
  return it->second;
}

Result<bool> HistoryStore::Erase(const std::string& group) {
  std::lock_guard<std::mutex> lock(*mutex_);
  const bool existed = snapshots_.erase(group) > 0;
  if (existed) AVOC_RETURN_IF_ERROR(Flush());
  return existed;
}

std::vector<std::string> HistoryStore::Groups() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  std::vector<std::string> names;
  names.reserve(snapshots_.size());
  for (const auto& [group, snapshot] : snapshots_) {
    (void)snapshot;
    names.push_back(group);
  }
  return names;
}

size_t HistoryStore::size() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return snapshots_.size();
}

}  // namespace avoc::runtime
