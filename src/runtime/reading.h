// The one sensor-reading record of the runtime: what a SUBMIT_BATCH frame
// carries (runtime/framing.h decodes straight into it) and what a group's
// hub ingests (runtime/nodes.h), so a frame reaches the hub with no
// per-reading conversion in between.
#pragma once

#include <cstdint>

namespace avoc::runtime {

/// One reading addressed to a voter group's hub.
struct ReadingMessage {
  uint64_t module = 0;  ///< module index within the voter group
  uint64_t round = 0;
  double value = 0.0;
};

/// The wire-side name of the same record (one reading inside a
/// SUBMIT_BATCH frame).
using BatchReading = ReadingMessage;

}  // namespace avoc::runtime
