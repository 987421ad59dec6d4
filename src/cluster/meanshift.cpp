#include "cluster/meanshift.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace avoc::cluster {

double SquaredDistance(const Point& a, const Point& b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

namespace {

double KernelWeight(double dist2, double bandwidth, Kernel kernel) {
  const double h2 = bandwidth * bandwidth;
  switch (kernel) {
    case Kernel::kFlat:
      return dist2 <= h2 ? 1.0 : 0.0;
    case Kernel::kGaussian:
      return std::exp(-dist2 / (2.0 * h2));
  }
  return 0.0;
}

}  // namespace

Result<MeanShiftResult> MeanShift(std::span<const Point> points,
                                  const MeanShiftOptions& options) {
  if (points.empty()) return InvalidArgumentError("mean-shift on empty data");
  if (options.bandwidth <= 0.0) {
    return InvalidArgumentError("bandwidth must be positive");
  }
  const size_t dim = points.front().size();
  for (const Point& p : points) {
    if (p.size() != dim) {
      return InvalidArgumentError("inconsistent point dimensions");
    }
  }
  const double merge_threshold = options.merge_threshold > 0.0
                                     ? options.merge_threshold
                                     : options.bandwidth / 2.0;

  // Shift every point to its density mode.
  std::vector<Point> shifted(points.begin(), points.end());
  for (Point& p : shifted) {
    for (size_t iter = 0; iter < options.max_iterations; ++iter) {
      Point numerator(dim, 0.0);
      double denominator = 0.0;
      for (const Point& q : points) {
        const double w =
            KernelWeight(SquaredDistance(p, q), options.bandwidth,
                         options.kernel);
        if (w <= 0.0) continue;
        denominator += w;
        for (size_t d = 0; d < dim; ++d) numerator[d] += w * q[d];
      }
      if (denominator <= 0.0) break;  // isolated point under flat kernel
      Point next(dim);
      for (size_t d = 0; d < dim; ++d) next[d] = numerator[d] / denominator;
      const double move2 = SquaredDistance(next, p);
      p = std::move(next);
      if (move2 <= options.convergence_threshold *
                       options.convergence_threshold) {
        break;
      }
    }
  }

  // Merge converged points into modes.
  MeanShiftResult result;
  result.labels.assign(points.size(), 0);
  const double merge2 = merge_threshold * merge_threshold;
  for (size_t i = 0; i < shifted.size(); ++i) {
    size_t assigned = result.modes.size();
    for (size_t m = 0; m < result.modes.size(); ++m) {
      if (SquaredDistance(shifted[i], result.modes[m]) <= merge2) {
        assigned = m;
        break;
      }
    }
    if (assigned == result.modes.size()) {
      result.modes.push_back(shifted[i]);
    }
    result.labels[i] = assigned;
  }
  return result;
}

}  // namespace avoc::cluster
