// Mean-shift clustering (Comaniciu & Meer, 2002) with a flat or Gaussian
// kernel — the second multi-dimensional generalisation §5 proposes.
#pragma once

#include <span>
#include <vector>

#include "util/status.h"

namespace avoc::cluster {

using Point = std::vector<double>;

/// Squared Euclidean distance; dimensions must match.
double SquaredDistance(const Point& a, const Point& b);

enum class Kernel { kFlat, kGaussian };

struct MeanShiftOptions {
  double bandwidth = 1.0;
  Kernel kernel = Kernel::kGaussian;
  size_t max_iterations = 300;
  /// Stop shifting a point when its move is below this distance.
  double convergence_threshold = 1e-5;
  /// Modes closer than this merge into one cluster (defaults to
  /// bandwidth/2 when <= 0).
  double merge_threshold = 0.0;
};

struct MeanShiftResult {
  std::vector<Point> modes;      // one per cluster
  std::vector<size_t> labels;    // per-point mode index
  size_t cluster_count() const { return modes.size(); }
};

/// Runs mean-shift.  Errors on empty input, non-positive bandwidth or
/// inconsistent dimensions.
Result<MeanShiftResult> MeanShift(std::span<const Point> points,
                                  const MeanShiftOptions& options = {});

}  // namespace avoc::cluster
