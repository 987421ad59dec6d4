#include "core/trace.h"

#include <algorithm>

namespace avoc::core {
namespace {

/// Zeroes the columns of one handed-out row from `from` to the end.
void ZeroRowTail(RoundColumns& columns, size_t from) {
  std::fill(columns.weights.begin() + from, columns.weights.end(), 0.0);
  std::fill(columns.agreement.begin() + from, columns.agreement.end(), 0.0);
  std::fill(columns.history.begin() + from, columns.history.end(), 0.0);
  std::fill(columns.excluded.begin() + from, columns.excluded.end(), 0);
  std::fill(columns.eliminated.begin() + from, columns.eliminated.end(), 0);
}

/// Copies `rounds` rows of a (rounds x src_modules) block into a
/// (rounds x modules) one: one copy when the arities match, otherwise row
/// by row, truncating wider rows and zeroing the tail of narrower ones.
template <typename T>
void CopyBlockRows(std::span<const T> src, size_t src_modules, T* dst,
                   size_t modules, size_t rounds) {
  if (src_modules == modules) {
    std::copy_n(src.data(), rounds * modules, dst);
    return;
  }
  const size_t n = std::min(src_modules, modules);
  for (size_t r = 0; r < rounds; ++r) {
    std::copy_n(src.data() + r * src_modules, n, dst + r * modules);
    std::fill(dst + r * modules + n, dst + (r + 1) * modules, T{});
  }
}

}  // namespace

Status TraceView::status(size_t r) const {
  const auto it = std::lower_bound(
      c_.errors.begin(), c_.errors.end(), r,
      [](const RoundError& e, size_t round) { return e.round < round; });
  if (it != c_.errors.end() && it->round == r) return it->status;
  return Status::Ok();
}

std::vector<std::optional<double>> TraceView::Outputs() const {
  std::vector<std::optional<double>> out;
  out.reserve(c_.rounds);
  for (size_t r = 0; r < c_.rounds; ++r) out.push_back(output(r));
  return out;
}

std::vector<double> TraceView::ContinuousOutputs() const {
  std::vector<double> out;
  out.reserve(c_.rounds);
  // First engaged value seeds any leading gaps.
  double current = 0.0;
  bool seeded = false;
  for (size_t r = 0; r < c_.rounds; ++r) {
    if (c_.engaged[r] != 0) {
      current = c_.values[r];
      seeded = true;
      break;
    }
  }
  // No round ever produced a value: there is nothing to continue, and a
  // series of fabricated zeros would skew every downstream metric.
  if (!seeded) return out;
  for (size_t r = 0; r < c_.rounds; ++r) {
    if (c_.engaged[r] != 0) current = c_.values[r];
    out.push_back(current);
  }
  return out;
}

size_t TraceView::voted_rounds() const {
  size_t count = 0;
  for (size_t r = 0; r < c_.rounds; ++r) {
    if (c_.outcomes[r] == RoundOutcome::kVoted) ++count;
  }
  return count;
}

size_t TraceView::clustered_rounds() const {
  size_t count = 0;
  for (size_t r = 0; r < c_.rounds; ++r) {
    if (c_.used_clustering[r] != 0) ++count;
  }
  return count;
}

VoteResult TraceView::MaterializeRound(size_t r) const {
  VoteResult result;
  if (c_.engaged[r] != 0) result.value = c_.values[r];
  result.outcome = c_.outcomes[r];
  result.status = status(r);
  result.used_clustering = c_.used_clustering[r] != 0;
  result.had_majority = c_.had_majority[r] != 0;
  result.present_count = c_.present_counts[r];
  const auto w = weights(r);
  const auto a = agreement(r);
  const auto h = history(r);
  const auto ex = excluded(r);
  const auto el = eliminated(r);
  result.weights.assign(w.begin(), w.end());
  result.agreement.assign(a.begin(), a.end());
  result.history.assign(h.begin(), h.end());
  result.excluded.assign(ex.begin(), ex.end());
  result.eliminated.assign(el.begin(), el.end());
  return result;
}

void BatchTrace::Reset(size_t modules) {
  modules_ = modules;
  rounds_ = 0;
  base_ = 0;
  values_.clear();
  engaged_.clear();
  outcomes_.clear();
  used_clustering_.clear();
  had_majority_.clear();
  present_counts_.clear();
  weights_.clear();
  agreement_.clear();
  history_.clear();
  excluded_.clear();
  eliminated_.clear();
  errors_.clear();
}

void BatchTrace::ReserveRounds(size_t rounds) {
  values_.reserve(rounds);
  engaged_.reserve(rounds);
  outcomes_.reserve(rounds);
  used_clustering_.reserve(rounds);
  had_majority_.reserve(rounds);
  present_counts_.reserve(rounds);
  // The per-module blocks are *sized* (not just reserved) up front: the
  // hot path then hands out row subspans with no per-round resize calls
  // (each of which would zero-fill the fresh row only for EmitColumns to
  // overwrite it).  The block size is decoupled from the committed round
  // count — every read goes through view(), which clamps the spans to
  // the committed detail rows.
  if (rounds > base_) GrowBlocks((rounds - base_) * modules_);
}

void BatchTrace::GrowBlocks(size_t elements) {
  if (elements <= weights_.size()) return;
  // Geometric slabs so unreserved streaming stays amortized-O(1).
  const size_t grown = std::max(elements, weights_.size() * 2);
  weights_.resize(grown);
  agreement_.resize(grown);
  history_.resize(grown);
  excluded_.resize(grown);
  eliminated_.resize(grown);
}

RoundColumns BatchTrace::BeginRound(size_t module_count) {
  if (modules_ == 0) modules_ = module_count;
  const size_t offset = (rounds_ - base_) * modules_;
  GrowBlocks(offset + modules_);
  return RoundColumns{
      std::span<double>(weights_).subspan(offset, modules_),
      std::span<double>(agreement_).subspan(offset, modules_),
      std::span<double>(history_).subspan(offset, modules_),
      std::span<uint8_t>(excluded_).subspan(offset, modules_),
      std::span<uint8_t>(eliminated_).subspan(offset, modules_)};
}

void BatchTrace::EndRound(const RoundScalars& scalars) {
  values_.push_back(scalars.has_value ? scalars.value : 0.0);
  engaged_.push_back(scalars.has_value ? 1 : 0);
  outcomes_.push_back(scalars.outcome);
  used_clustering_.push_back(scalars.used_clustering ? 1 : 0);
  had_majority_.push_back(scalars.had_majority ? 1 : 0);
  present_counts_.push_back(scalars.present_count);
  if (scalars.status != nullptr && !scalars.status->ok()) {
    errors_.push_back(
        RoundError{static_cast<uint32_t>(rounds_), *scalars.status});
  }
  ++rounds_;
}

void BatchTrace::Append(const VoteResult& result) {
  if (modules_ == 0) modules_ = result.weights.size();
  RoundColumns columns = BeginRound(modules_);
  const size_t n = std::min(modules_, result.weights.size());
  // Slab rows start uninitialized (UninitAllocator); zero any tail a
  // smaller-arity source leaves unwritten.
  if (n < modules_) ZeroRowTail(columns, n);
  std::copy_n(result.weights.begin(), n, columns.weights.begin());
  std::copy_n(result.agreement.begin(), n, columns.agreement.begin());
  std::copy_n(result.history.begin(), n, columns.history.begin());
  for (size_t m = 0; m < n; ++m) {
    columns.excluded[m] = result.excluded[m] ? 1 : 0;
    columns.eliminated[m] = result.eliminated[m] ? 1 : 0;
  }
  RoundScalars scalars;
  scalars.has_value = result.value.has_value();
  scalars.value = result.value.value_or(0.0);
  scalars.outcome = result.outcome;
  scalars.used_clustering = result.used_clustering;
  scalars.had_majority = result.had_majority;
  scalars.present_count = static_cast<uint32_t>(result.present_count);
  scalars.status = &result.status;
  EndRound(scalars);
}

void BatchTrace::AppendRows(const TraceView& src) {
  const TraceColumns& c = src.columns();
  if (c.rounds == 0) return;
  if (modules_ == 0) modules_ = c.modules;
  const size_t first = rounds_;
  // Source rows below its base have no detail: this trace's detail then
  // starts at the source's first detail row, so it stays one suffix.
  if (c.detail_base > 0) base_ = first + c.detail_base;
  const size_t offset = (first + c.detail_base - base_) * modules_;
  const size_t detail = c.rounds - c.detail_base;
  GrowBlocks(offset + detail * modules_);
  CopyBlockRows(c.weights, c.modules, weights_.data() + offset, modules_,
                detail);
  CopyBlockRows(c.agreement, c.modules, agreement_.data() + offset, modules_,
                detail);
  CopyBlockRows(c.history, c.modules, history_.data() + offset, modules_,
                detail);
  CopyBlockRows(c.excluded, c.modules, excluded_.data() + offset, modules_,
                detail);
  CopyBlockRows(c.eliminated, c.modules, eliminated_.data() + offset,
                modules_, detail);
  // Scalars as EndRound stores them: flags as 0/1, 0 as the value of a
  // round that produced none.
  for (size_t r = 0; r < c.rounds; ++r) {
    values_.push_back(c.engaged[r] != 0 ? c.values[r] : 0.0);
    engaged_.push_back(c.engaged[r] != 0 ? 1 : 0);
    used_clustering_.push_back(c.used_clustering[r] != 0 ? 1 : 0);
    had_majority_.push_back(c.had_majority[r] != 0 ? 1 : 0);
  }
  outcomes_.insert(outcomes_.end(), c.outcomes.begin(), c.outcomes.end());
  present_counts_.insert(present_counts_.end(), c.present_counts.begin(),
                         c.present_counts.end());
  for (const RoundError& error : c.errors) {
    if (error.round < c.rounds && !error.status.ok()) {
      errors_.push_back(
          RoundError{static_cast<uint32_t>(first + error.round), error.status});
    }
  }
  rounds_ += c.rounds;
}

void BatchTrace::TrimDetail(size_t base) {
  base = std::min(base, rounds_);
  if (base <= base_) return;
  const size_t from = (base - base_) * modules_;
  const size_t end = (rounds_ - base_) * modules_;
  // Shift the surviving rows to the front; the ranges may overlap, and
  // std::copy moves forward, which is safe for a shift down.
  const auto shift = [&](auto& block) {
    std::copy(block.begin() + static_cast<ptrdiff_t>(from),
              block.begin() + static_cast<ptrdiff_t>(end), block.begin());
  };
  shift(weights_);
  shift(agreement_);
  shift(history_);
  shift(excluded_);
  shift(eliminated_);
  base_ = base;
}

TraceView BatchTrace::view() const {
  TraceColumns columns;
  columns.rounds = rounds_;
  columns.modules = modules_;
  columns.detail_base = base_;
  columns.values = values_;
  columns.engaged = engaged_;
  columns.outcomes = outcomes_;
  columns.used_clustering = used_clustering_;
  columns.had_majority = had_majority_;
  columns.present_counts = present_counts_;
  // The blocks are slab-sized past the committed rounds (see
  // ReserveRounds); clamp the read surface to what EndRound committed.
  const size_t committed = (rounds_ - base_) * modules_;
  columns.weights = std::span<const double>(weights_.data(), committed);
  columns.agreement = std::span<const double>(agreement_.data(), committed);
  columns.history = std::span<const double>(history_.data(), committed);
  columns.excluded = std::span<const uint8_t>(excluded_.data(), committed);
  columns.eliminated =
      std::span<const uint8_t>(eliminated_.data(), committed);
  columns.errors = errors_;
  return TraceView(columns);
}

}  // namespace avoc::core
