#include "data/round_table.h"

#include <stdexcept>

#include "util/strings.h"

namespace avoc::data {

RoundTable::RoundTable(std::vector<std::string> module_names)
    : module_names_(std::move(module_names)) {}

RoundTable RoundTable::WithModuleCount(size_t modules) {
  std::vector<std::string> names;
  names.reserve(modules);
  for (size_t i = 0; i < modules; ++i) names.push_back(StrFormat("m%zu", i));
  return RoundTable(std::move(names));
}

Result<size_t> RoundTable::ModuleIndex(std::string_view name) const {
  for (size_t i = 0; i < module_names_.size(); ++i) {
    if (module_names_[i] == name) return i;
  }
  return NotFoundError("no module named '" + std::string(name) + "'");
}

Status RoundTable::AppendRound(std::vector<Reading> readings) {
  if (readings.size() != module_count()) {
    return InvalidArgumentError(
        StrFormat("round has %zu readings, table has %zu modules",
                  readings.size(), module_count()));
  }
  for (const Reading& reading : readings) {
    values_.push_back(reading.value_or(0.0));
    presents_.push_back(reading.has_value() ? 1 : 0);
  }
  ++rounds_;
  return Status::Ok();
}

Status RoundTable::AppendRound(std::span<const double> readings) {
  if (readings.size() != module_count()) {
    return InvalidArgumentError(
        StrFormat("round has %zu readings, table has %zu modules",
                  readings.size(), module_count()));
  }
  values_.insert(values_.end(), readings.begin(), readings.end());
  presents_.insert(presents_.end(), readings.size(), 1);
  ++rounds_;
  return Status::Ok();
}

Status RoundTable::AppendRound(std::span<const double> values,
                               std::span<const uint8_t> present) {
  if (values.size() != module_count() || present.size() != module_count()) {
    return InvalidArgumentError(
        StrFormat("round has %zu readings, table has %zu modules",
                  values.size(), module_count()));
  }
  // Same cells as the optional overload: 0 in the slot of an absent one.
  const size_t offset = values_.size();
  values_.resize(offset + values.size());
  presents_.resize(offset + values.size());
  for (size_t m = 0; m < values.size(); ++m) {
    values_[offset + m] = present[m] != 0 ? values[m] : 0.0;
    presents_[offset + m] = present[m] != 0 ? 1 : 0;
  }
  ++rounds_;
  return Status::Ok();
}

void RoundTable::Clear() {
  rounds_ = 0;
  values_.clear();
  presents_.clear();
}

RoundView RoundTable::View(size_t r) const {
  if (r >= rounds_) {
    throw std::out_of_range(
        StrFormat("round %zu of %zu", r, rounds_));
  }
  const size_t offset = r * module_count();
  return RoundView{
      std::span<const double>(values_).subspan(offset, module_count()),
      std::span<const uint8_t>(presents_).subspan(offset, module_count())};
}

std::vector<Reading> RoundTable::MaterializeRound(size_t r) const {
  const RoundView view = View(r);
  std::vector<Reading> out;
  out.reserve(module_count());
  for (size_t m = 0; m < module_count(); ++m) out.push_back(view.at(m));
  return out;
}

void RoundTable::CheckCell(size_t round, size_t module) const {
  if (round >= rounds_ || module >= module_count()) {
    throw std::out_of_range(StrFormat("cell (%zu, %zu) of %zu x %zu", round,
                                      module, rounds_, module_count()));
  }
}

RoundTable::CellRef RoundTable::At(size_t round, size_t module) {
  CheckCell(round, module);
  const size_t i = round * module_count() + module;
  return CellRef(&values_[i], &presents_[i]);
}

Reading RoundTable::At(size_t round, size_t module) const {
  CheckCell(round, module);
  const size_t i = round * module_count() + module;
  return presents_[i] != 0 ? Reading(values_[i]) : std::nullopt;
}

std::vector<Reading> RoundTable::ModuleSeries(size_t module) const {
  std::vector<Reading> out;
  out.reserve(rounds_);
  for (size_t r = 0; r < rounds_; ++r) out.push_back(At(r, module));
  return out;
}

std::vector<double> RoundTable::ModuleValues(size_t module) const {
  std::vector<double> out;
  out.reserve(rounds_);
  for (size_t r = 0; r < rounds_; ++r) {
    const size_t i = r * module_count() + module;
    if (presents_.at(i) != 0) out.push_back(values_[i]);
  }
  return out;
}

size_t RoundTable::missing_count() const {
  size_t missing = 0;
  for (const uint8_t present : presents_) {
    if (present == 0) ++missing;
  }
  return missing;
}

Result<RoundTable> RoundTable::Slice(size_t begin, size_t end) const {
  if (begin > end || end > rounds_) {
    return OutOfRangeError(StrFormat("slice [%zu, %zu) of %zu rounds", begin,
                                     end, rounds_));
  }
  RoundTable out(module_names_);
  const size_t modules = module_count();
  out.values_.assign(values_.begin() + static_cast<ptrdiff_t>(begin * modules),
                     values_.begin() + static_cast<ptrdiff_t>(end * modules));
  out.presents_.assign(
      presents_.begin() + static_cast<ptrdiff_t>(begin * modules),
      presents_.begin() + static_cast<ptrdiff_t>(end * modules));
  out.rounds_ = end - begin;
  return out;
}

Result<RoundTable> RoundTable::SelectModules(
    std::span<const size_t> modules) const {
  std::vector<std::string> names;
  for (const size_t m : modules) {
    if (m >= module_count()) {
      return OutOfRangeError(StrFormat("module %zu of %zu", m, module_count()));
    }
    names.push_back(module_names_[m]);
  }
  RoundTable out(std::move(names));
  out.values_.reserve(rounds_ * modules.size());
  out.presents_.reserve(rounds_ * modules.size());
  for (size_t r = 0; r < rounds_; ++r) {
    const size_t offset = r * module_count();
    for (const size_t m : modules) {
      out.values_.push_back(values_[offset + m]);
      out.presents_.push_back(presents_[offset + m]);
    }
  }
  out.rounds_ = rounds_;
  return out;
}

CategoricalRoundTable::CategoricalRoundTable(
    std::vector<std::string> module_names)
    : module_names_(std::move(module_names)) {}

Status CategoricalRoundTable::AppendRound(std::vector<Label> labels) {
  if (labels.size() != module_count()) {
    return InvalidArgumentError(
        StrFormat("round has %zu labels, table has %zu modules", labels.size(),
                  module_count()));
  }
  rows_.push_back(std::move(labels));
  return Status::Ok();
}

}  // namespace avoc::data
