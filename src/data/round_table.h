// Round tables: the tabular form every experiment consumes.
//
// A RoundTable holds R rounds x M modules of optional numeric readings —
// exactly the "reference dataset" structure of the paper's UC-1 (10,000
// rounds x 5 light sensors) and UC-2 (297 rounds x 9 beacons per stack).
// `nullopt` encodes a missing value (unreachable BLE beacon), which is a
// first-class fault scenario in §7.
//
// Storage is columnar-friendly structure-of-arrays: one flat row-major
// value block plus a present-bitmask, so View(r) hands a batch run the
// round as two contiguous spans (core::RoundSpan-shaped) with zero copies
// and zero per-round materialization.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace avoc::data {

using Reading = std::optional<double>;

/// Zero-copy view of one round: per-module contiguous values plus a
/// present-bitmask.  values[m] is meaningful only where present[m] != 0.
/// Valid until the table is modified.
struct RoundView {
  std::span<const double> values;
  std::span<const uint8_t> present;

  size_t module_count() const { return values.size(); }
  Reading at(size_t m) const {
    return present[m] != 0 ? Reading(values[m]) : std::nullopt;
  }
};

class RoundTable {
 public:
  RoundTable() = default;

  /// Named modules (e.g. {"E1",...,"E5"}); rounds start empty.
  explicit RoundTable(std::vector<std::string> module_names);

  /// M anonymous modules named "m0".."m{M-1}".
  static RoundTable WithModuleCount(size_t modules);

  size_t module_count() const { return module_names_.size(); }
  size_t round_count() const { return rounds_; }
  bool empty() const { return rounds_ == 0; }

  const std::vector<std::string>& module_names() const { return module_names_; }

  /// Index of the named module, or error.
  Result<size_t> ModuleIndex(std::string_view name) const;

  /// Appends a round; must have exactly module_count() entries.
  Status AppendRound(std::vector<Reading> readings);

  /// Appends a fully populated round.
  Status AppendRound(std::span<const double> readings);

  /// Appends a round given as a value row plus a presence row (both
  /// module_count() long); values of absent modules are ignored.
  Status AppendRound(std::span<const double> values,
                     std::span<const uint8_t> present);

  /// Drops every round, keeping the module names and the capacity.
  void Clear();

  /// Zero-copy view of round r (spans valid until the table is modified).
  RoundView View(size_t r) const;

  /// The whole table as two flat row-major blocks (rounds × modules) —
  /// the zero-copy input of the engine's many-rounds batch entry point.
  /// Valid until the table is modified.
  std::span<const double> value_block() const { return values_; }
  std::span<const uint8_t> present_block() const { return presents_; }

  /// Readings of round r, materialized (prefer View on hot paths).
  std::vector<Reading> MaterializeRound(size_t r) const;

  /// Mutable cell proxy for fault injection; mimics optional<double>.
  class CellRef {
   public:
    bool has_value() const { return *present_ != 0; }
    /// Value slot; meaningful (and assignable) only when present.
    double& operator*() { return *value_; }
    double operator*() const { return *value_; }
    void reset() { *present_ = 0; }
    CellRef& operator=(double v) {
      *value_ = v;
      *present_ = 1;
      return *this;
    }
    CellRef& operator=(const Reading& reading) {
      if (reading.has_value()) {
        *this = *reading;
      } else {
        reset();
      }
      return *this;
    }
    operator Reading() const {
      return has_value() ? Reading(*value_) : std::nullopt;
    }

   private:
    friend class RoundTable;
    CellRef(double* value, uint8_t* present)
        : value_(value), present_(present) {}
    double* value_;
    uint8_t* present_;
  };

  /// Mutable access for fault injection; throws std::out_of_range on bad
  /// indices (matching the historical .at semantics).
  CellRef At(size_t round, size_t module);
  Reading At(size_t round, size_t module) const;

  /// Column extraction: all rounds of one module.
  std::vector<Reading> ModuleSeries(size_t module) const;

  /// Column extraction skipping missing values.
  std::vector<double> ModuleValues(size_t module) const;

  /// Total number of missing readings.
  size_t missing_count() const;

  /// Sub-table containing rounds [begin, end).
  Result<RoundTable> Slice(size_t begin, size_t end) const;

  /// Sub-table containing only the given module columns (by index).
  Result<RoundTable> SelectModules(std::span<const size_t> modules) const;

 private:
  void CheckCell(size_t round, size_t module) const;

  std::vector<std::string> module_names_;
  size_t rounds_ = 0;
  /// Row-major value block (rounds x modules); slots of missing readings
  /// hold 0 and are masked off by presents_.
  std::vector<double> values_;
  std::vector<uint8_t> presents_;
};

/// Categorical analogue: rounds of optional strings, for the VDX
/// categorical-voting extension (§6: "character strings and JSON blobs").
class CategoricalRoundTable {
 public:
  using Label = std::optional<std::string>;

  CategoricalRoundTable() = default;
  explicit CategoricalRoundTable(std::vector<std::string> module_names);

  size_t module_count() const { return module_names_.size(); }
  size_t round_count() const { return rows_.size(); }
  const std::vector<std::string>& module_names() const { return module_names_; }

  Status AppendRound(std::vector<Label> labels);
  std::span<const Label> Round(size_t r) const { return rows_.at(r); }

 private:
  std::vector<std::string> module_names_;
  std::vector<std::vector<Label>> rows_;
};

}  // namespace avoc::data
