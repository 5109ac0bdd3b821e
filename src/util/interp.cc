#include "util/interp.h"

#include <algorithm>

#include "util/check.h"

namespace ldb {

namespace {

/// Stack-array bound for per-axis cell state: grid models in this codebase
/// are low-dimensional (cost models use 3 axes) and these functions sit
/// inside the solver's inner loop.
constexpr size_t kMaxDims = 8;

/// Value3's lerp chain over one located cell (upper-edge weights w0..w2,
/// corner values v<axis0><axis1><axis2>), innermost axis first. Kept out
/// of line: ValueGrad3 also calls it for callers that want the value as
/// Value3 rounds it, and inlined next to ValueGrad3's own chain the shared
/// products would change which operations the compiler fuses into FMAs or
/// packs into vectors — and with them both results' last bits.
[[gnu::noinline]] double TrilinearValue(double w0, double w1, double w2,
                                        double v000, double v001,
                                        double v010, double v011,
                                        double v100, double v101,
                                        double v110, double v111) {
  const double a00 = v000 + w2 * (v001 - v000);
  const double a01 = v010 + w2 * (v011 - v010);
  const double a10 = v100 + w2 * (v101 - v100);
  const double a11 = v110 + w2 * (v111 - v110);
  const double b0 = a00 + w1 * (a01 - a00);
  const double b1 = a10 + w1 * (a11 - a10);
  return b0 + w0 * (b1 - b0);
}

}  // namespace

void LocateOnAxis(const std::vector<double>& axis, double x, size_t* index,
                  double* weight) {
  LDB_CHECK(!axis.empty());
  if (axis.size() == 1 || x <= axis.front()) {
    *index = 0;
    *weight = 0.0;
    return;
  }
  if (x >= axis.back()) {
    *index = axis.size() - 2;
    *weight = 1.0;
    return;
  }
  const auto it = std::upper_bound(axis.begin(), axis.end(), x);
  const size_t hi = static_cast<size_t>(it - axis.begin());
  const size_t lo = hi - 1;
  *index = lo;
  *weight = (x - axis[lo]) / (axis[hi] - axis[lo]);
}

Result<GridInterpolator> GridInterpolator::Create(
    std::vector<std::vector<double>> axes, std::vector<double> values) {
  if (axes.empty()) {
    return Status::InvalidArgument("interpolator needs at least one axis");
  }
  size_t expected = 1;
  for (const auto& axis : axes) {
    if (axis.empty()) {
      return Status::InvalidArgument("empty interpolation axis");
    }
    for (size_t i = 1; i < axis.size(); ++i) {
      if (axis[i] <= axis[i - 1]) {
        return Status::InvalidArgument(
            "interpolation axis must be strictly increasing");
      }
    }
    expected *= axis.size();
  }
  if (values.size() != expected) {
    return Status::InvalidArgument("value array size does not match grid");
  }
  std::vector<size_t> strides(axes.size());
  size_t stride = 1;
  for (size_t d = axes.size(); d-- > 0;) {
    strides[d] = stride;
    stride *= axes[d].size();
  }
  return GridInterpolator(std::move(axes), std::move(values),
                          std::move(strides));
}

GridInterpolator::GridInterpolator(std::vector<std::vector<double>> axes,
                                   std::vector<double> values,
                                   std::vector<size_t> strides)
    : axes_(std::move(axes)),
      values_(std::move(values)),
      strides_(std::move(strides)) {}

double GridInterpolator::At(const std::vector<double>& point) const {
  return At(point.data(), point.size());
}

double GridInterpolator::At(const double* point, size_t dims) const {
  LDB_CHECK_EQ(dims, axes_.size());
  LDB_CHECK_LE(dims, kMaxDims);
  return ValueCore(point, dims);
}

double GridInterpolator::ValueCore(const double* point, size_t dims) const {
  // Per-axis cell index and upper-edge weight, on the stack.
  size_t idx[kMaxDims];
  double w[kMaxDims];
  for (size_t d = 0; d < dims; ++d) {
    LocateOnAxis(axes_[d], point[d], &idx[d], &w[d]);
  }
  // Sum over the 2^dims cell corners.
  const size_t corners = size_t{1} << dims;
  double acc = 0.0;
  for (size_t corner = 0; corner < corners; ++corner) {
    double cw = 1.0;
    size_t offset = 0;
    for (size_t d = 0; d < dims; ++d) {
      const bool upper = (corner >> d) & 1;
      if (upper && axes_[d].size() == 1) {
        cw = 0.0;  // degenerate axis: only the lower corner exists
        break;
      }
      cw *= upper ? w[d] : (1.0 - w[d]);
      offset += (idx[d] + (upper ? 1 : 0)) * strides_[d];
    }
    if (cw > 0.0) acc += cw * values_[offset];
  }
  return acc;
}

double GridInterpolator::ValueGradCore(const double* point, size_t dims,
                                       double* grad_out) const {
  size_t idx[kMaxDims];
  double w[kMaxDims];
  double dwdx[kMaxDims];  // d(weight)/d(coordinate); 0 where clamped
  for (size_t d = 0; d < dims; ++d) {
    const std::vector<double>& axis = axes_[d];
    LocateOnAxis(axis, point[d], &idx[d], &w[d]);
    dwdx[d] = (axis.size() < 2 || point[d] < axis.front() ||
               point[d] > axis.back())
                  ? 0.0
                  : 1.0 / (axis[idx[d] + 1] - axis[idx[d]]);
  }
  const size_t corners = size_t{1} << dims;
  double acc = 0.0;
  double dacc[kMaxDims] = {0.0};
  for (size_t corner = 0; corner < corners; ++corner) {
    double factor[kMaxDims];
    double cw = 1.0;
    size_t offset = 0;
    bool degenerate = false;
    for (size_t d = 0; d < dims; ++d) {
      const bool upper = (corner >> d) & 1;
      if (upper && axes_[d].size() == 1) {
        degenerate = true;  // corner does not exist; contributes nothing
        break;
      }
      factor[d] = upper ? w[d] : (1.0 - w[d]);
      cw *= factor[d];
      offset += (idx[d] + (upper ? 1 : 0)) * strides_[d];
    }
    if (degenerate) continue;
    const double v = values_[offset];
    if (cw > 0.0) acc += cw * v;
    // d(cw)/d(w_d) = ±Π_{e≠d} factor_e; recomputing the small product per
    // axis avoids dividing by factors that may be exactly zero.
    for (size_t d = 0; d < dims; ++d) {
      if (dwdx[d] == 0.0) continue;
      double others = 1.0;
      for (size_t e = 0; e < dims; ++e) {
        if (e != d) others *= factor[e];
      }
      if (others == 0.0) continue;
      const bool upper = (corner >> d) & 1;
      dacc[d] += (upper ? others : -others) * v;
    }
  }
  for (size_t d = 0; d < dims; ++d) {
    if (grad_out != nullptr) grad_out[d] = dacc[d] * dwdx[d];
  }
  return acc;
}

double GridInterpolator::Value3(const double* point) const {
  size_t i0, i1, i2;
  double w0, w1, w2;
  LocateOnAxis(axes_[0], point[0], &i0, &w0);
  LocateOnAxis(axes_[1], point[1], &i1, &w1);
  LocateOnAxis(axes_[2], point[2], &i2, &w2);
  // A single-entry axis locates to i=0, w=0; aliasing its upper corner to
  // the lower one keeps the lerp exact without branching in the gather.
  const size_t j0 = axes_[0].size() == 1 ? i0 : i0 + 1;
  const size_t j1 = axes_[1].size() == 1 ? i1 : i1 + 1;
  const size_t j2 = axes_[2].size() == 1 ? i2 : i2 + 1;
  const size_t s0 = strides_[0], s1 = strides_[1], s2 = strides_[2];
  const double* v = values_.data();
  const size_t lo0 = i0 * s0, hi0 = j0 * s0;
  const size_t lo1 = i1 * s1, hi1 = j1 * s1;
  const double v000 = v[lo0 + lo1 + i2 * s2], v001 = v[lo0 + lo1 + j2 * s2];
  const double v010 = v[lo0 + hi1 + i2 * s2], v011 = v[lo0 + hi1 + j2 * s2];
  const double v100 = v[hi0 + lo1 + i2 * s2], v101 = v[hi0 + lo1 + j2 * s2];
  const double v110 = v[hi0 + hi1 + i2 * s2], v111 = v[hi0 + hi1 + j2 * s2];
  return TrilinearValue(w0, w1, w2, v000, v001, v010, v011, v100, v101, v110,
                        v111);
}

double GridInterpolator::ValueGrad3(const double* point, double* grad_out,
                                    double* value3_out) const {
  size_t i0, i1, i2;
  double w0, w1, w2;
  LocateOnAxis(axes_[0], point[0], &i0, &w0);
  LocateOnAxis(axes_[1], point[1], &i1, &w1);
  LocateOnAxis(axes_[2], point[2], &i2, &w2);
  auto slope = [](const std::vector<double>& axis, double x,
                  size_t i) -> double {
    // 0 where the query clamps (the interpolant is constant there) or the
    // axis is degenerate; otherwise d(weight)/d(coordinate) on the cell.
    return (axis.size() < 2 || x < axis.front() || x > axis.back())
               ? 0.0
               : 1.0 / (axis[i + 1] - axis[i]);
  };
  const double dw0 = slope(axes_[0], point[0], i0);
  const double dw1 = slope(axes_[1], point[1], i1);
  const double dw2 = slope(axes_[2], point[2], i2);
  const size_t j0 = axes_[0].size() == 1 ? i0 : i0 + 1;
  const size_t j1 = axes_[1].size() == 1 ? i1 : i1 + 1;
  const size_t j2 = axes_[2].size() == 1 ? i2 : i2 + 1;
  const size_t s0 = strides_[0], s1 = strides_[1], s2 = strides_[2];
  const double* v = values_.data();
  const size_t lo0 = i0 * s0, hi0 = j0 * s0;
  const size_t lo1 = i1 * s1, hi1 = j1 * s1;
  const double v000 = v[lo0 + lo1 + i2 * s2], v001 = v[lo0 + lo1 + j2 * s2];
  const double v010 = v[lo0 + hi1 + i2 * s2], v011 = v[lo0 + hi1 + j2 * s2];
  const double v100 = v[hi0 + lo1 + i2 * s2], v101 = v[hi0 + lo1 + j2 * s2];
  const double v110 = v[hi0 + hi1 + i2 * s2], v111 = v[hi0 + hi1 + j2 * s2];
  const double a00 = v000 + w2 * (v001 - v000);
  const double a01 = v010 + w2 * (v011 - v010);
  const double a10 = v100 + w2 * (v101 - v100);
  const double a11 = v110 + w2 * (v111 - v110);
  const double b0 = a00 + w1 * (a01 - a00);
  const double b1 = a10 + w1 * (a11 - a10);
  // ∂value/∂w2 collapses the per-corner differences through the same chain.
  const double e0 = (v001 - v000) + w1 * ((v011 - v010) - (v001 - v000));
  const double e1 = (v101 - v100) + w1 * ((v111 - v110) - (v101 - v100));
  grad_out[0] = (b1 - b0) * dw0;
  grad_out[1] = ((a01 - a00) + w0 * ((a11 - a10) - (a01 - a00))) * dw1;
  grad_out[2] = (e0 + w0 * (e1 - e0)) * dw2;
  if (value3_out != nullptr) {
    *value3_out = TrilinearValue(w0, w1, w2, v000, v001, v010, v011, v100,
                                 v101, v110, v111);
  }
  return b0 + w0 * (b1 - b0);
}

double GridInterpolator::AtWithGrad(const double* point, size_t dims,
                                    double* grad_out) const {
  LDB_CHECK_EQ(dims, axes_.size());
  LDB_CHECK_LE(dims, kMaxDims);
  LDB_CHECK(grad_out != nullptr);
  return ValueGradCore(point, dims, grad_out);
}

void GridInterpolator::AtBatch(size_t count, const double* const* coords,
                               double* out) const {
  const size_t dims = axes_.size();
  LDB_CHECK_LE(dims, kMaxDims);
  LDB_CHECK(out != nullptr);
  if (dims == 3) {
    const double* c0 = coords[0];
    const double* c1 = coords[1];
    const double* c2 = coords[2];
    for (size_t q = 0; q < count; ++q) {
      const double point[3] = {c0[q], c1[q], c2[q]};
      out[q] = Value3(point);
    }
    return;
  }
  double point[kMaxDims];
  for (size_t q = 0; q < count; ++q) {
    for (size_t d = 0; d < dims; ++d) point[d] = coords[d][q];
    out[q] = ValueCore(point, dims);
  }
}

void GridInterpolator::AtWithGradBatch(size_t count,
                                       const double* const* coords,
                                       double* out, double* const* grads,
                                       double* at_out) const {
  const size_t dims = axes_.size();
  LDB_CHECK_LE(dims, kMaxDims);
  LDB_CHECK(out != nullptr);
  if (dims == 3) {
    const double* c0 = coords[0];
    const double* c1 = coords[1];
    const double* c2 = coords[2];
    double grad[3];
    for (size_t q = 0; q < count; ++q) {
      const double point[3] = {c0[q], c1[q], c2[q]};
      out[q] = ValueGrad3(point, grad,
                          at_out != nullptr ? &at_out[q] : nullptr);
      if (grads[0] != nullptr) grads[0][q] = grad[0];
      if (grads[1] != nullptr) grads[1][q] = grad[1];
      if (grads[2] != nullptr) grads[2][q] = grad[2];
    }
    return;
  }
  double point[kMaxDims] = {};
  double grad[kMaxDims] = {};
  for (size_t q = 0; q < count; ++q) {
    for (size_t d = 0; d < dims; ++d) point[d] = coords[d][q];
    out[q] = ValueGradCore(point, dims, grad);
    if (at_out != nullptr) at_out[q] = ValueCore(point, dims);
    for (size_t d = 0; d < dims; ++d) {
      if (grads[d] != nullptr) grads[d][q] = grad[d];
    }
  }
}

}  // namespace ldb
