#ifndef LAYOUTDB_UTIL_INTERP_H_
#define LAYOUTDB_UTIL_INTERP_H_

#include <cstddef>
#include <vector>

#include "util/status.h"

namespace ldb {

/// Multilinear interpolation over a rectilinear grid of tabulated values.
///
/// Axes are strictly increasing coordinate vectors; values are stored in
/// row-major order (last axis fastest). Queries outside the grid are clamped
/// to the boundary, which matches how the paper's black-box cost models are
/// used: calibration covers the operating range, and queries beyond it
/// saturate rather than extrapolate.
///
/// This is the interpolation engine behind the tabulated device cost models
/// (Section 5.2.2 of the paper).
class GridInterpolator {
 public:
  /// Creates an interpolator.
  ///
  /// \param axes one strictly-increasing coordinate vector per dimension
  ///   (each with at least one entry).
  /// \param values row-major value array; size must equal the product of
  ///   the axis lengths.
  static Result<GridInterpolator> Create(std::vector<std::vector<double>> axes,
                                         std::vector<double> values);

  /// Evaluates the interpolant at `point` (size must equal dimensions()).
  double At(const std::vector<double>& point) const;

  /// Allocation-free variant: `point` must hold dimensions() coordinates.
  /// This is the form used by hot paths (the solver evaluates cost models
  /// millions of times per run).
  double At(const double* point, size_t dims) const;

  /// Fused value + gradient: evaluates the interpolant and its partial
  /// derivative along every axis in one cell-location pass. `grad_out`
  /// receives dimensions() entries. This is the analytic-gradient hot
  /// path: pricing value and slopes separately would locate the cell (one
  /// binary search per axis) multiple times for the same query.
  ///
  /// Outside the grid the interpolant clamps and is therefore constant, so
  /// the derivative along a clamped axis is 0. Exactly on the boundary the
  /// interior one-sided slope is returned — a valid subgradient of the
  /// clamped interpolant.
  double AtWithGrad(const double* point, size_t dims, double* grad_out) const;

  /// Structure-of-arrays batch evaluation: `coords[d]` holds `count`
  /// coordinates for axis d; `out` receives `count` values. Equivalent to
  /// calling At() per query with the argument checks hoisted out of the
  /// loop, keeping the weight/stride arithmetic tight over contiguous
  /// arrays.
  void AtBatch(size_t count, const double* const* coords, double* out) const;

  /// Batched AtWithGrad: `grads[d]` receives the axis-d partials of every
  /// query; a null `grads[d]` skips that axis (callers that never need a
  /// size derivative, say, pay nothing for it). A non-null `at_out` also
  /// receives every query's value exactly as AtBatch returns it, from the
  /// same cell location: the value and value+gradient kernels round the
  /// same interpolant differently in the last place, and a caller pricing
  /// a value and a gradient in one pass (the solver's fused line-search
  /// pass) needs each with its own kernel's rounding.
  void AtWithGradBatch(size_t count, const double* const* coords, double* out,
                       double* const* grads, double* at_out = nullptr) const;

  size_t dimensions() const { return axes_.size(); }
  const std::vector<std::vector<double>>& axes() const { return axes_; }
  const std::vector<double>& values() const { return values_; }

 private:
  GridInterpolator(std::vector<std::vector<double>> axes,
                   std::vector<double> values, std::vector<size_t> strides);

  /// Shared per-query kernels behind At/AtWithGrad and their batch forms
  /// (argument checks live in the public entry points).
  double ValueCore(const double* point, size_t dims) const;
  double ValueGradCore(const double* point, size_t dims,
                       double* grad_out) const;

  /// Straight-line trilinear kernels for the 3-axis grids every cost model
  /// uses: a factored lerp chain instead of the generic 2^dims corner sweep
  /// (whose per-corner bit tests and degenerate-axis branches dominate the
  /// batched evaluators' profile). Values agree with ValueCore to rounding
  /// (different association order), so only the batch entry points use
  /// them; the scalar At/AtWithGrad keep their historical bit patterns.
  /// `value3_out`, when non-null, also receives Value3(point) — computed
  /// from the same cell location.
  double Value3(const double* point) const;
  double ValueGrad3(const double* point, double* grad_out,
                    double* value3_out = nullptr) const;

  std::vector<std::vector<double>> axes_;
  std::vector<double> values_;
  std::vector<size_t> strides_;  // row-major strides per axis
};

/// Finds the cell `[i, i+1]` of a strictly increasing axis containing `x`
/// and the interpolation weight `w` of the upper edge, clamping out-of-range
/// queries. With a single-entry axis returns i=0, w=0.
void LocateOnAxis(const std::vector<double>& axis, double x, size_t* index,
                  double* weight);

}  // namespace ldb

#endif  // LAYOUTDB_UTIL_INTERP_H_
