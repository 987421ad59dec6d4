// One well-formed request frame per request verb, for tests that walk the
// server's verb table (RemoteVoterServer::FindVerb).
#pragma once

#include <string_view>

#include "runtime/framing.h"

namespace avoc::runtime {

/// A well-formed request of `type` addressing `group` (group-less verbs
/// carry an empty payload).  SUBMIT_BATCH[_SEQ] carry one reading for
/// module 0 of round 0; MIGRATE_GROUP names node 1 as the destination.
inline Frame SampleRequest(FrameType type, std::string_view group) {
  const BatchReading reading{0, 0, 20.0};
  switch (type) {
    case FrameType::kSubmitBatch:
      return {type, EncodeSubmitBatch(group, {&reading, 1})};
    case FrameType::kSubmitBatchSeq:
      return {type, EncodeSubmitBatchSeq("sample", 1, group, {&reading, 1})};
    case FrameType::kClose:
      return {type, EncodeClose(group, 0)};
    case FrameType::kQuery:
      return {type, EncodeQuery(group)};
    case FrameType::kQueryRange:
      return {type, EncodeQueryRange(group, 0, 10)};
    case FrameType::kHistoryGet:
      return {type, EncodeHistoryGet(group)};
    case FrameType::kMigrateGroup:
      return {type, EncodeMigrateGroup(group, 1)};
    default:
      return {type, {}};
  }
}

}  // namespace avoc::runtime
