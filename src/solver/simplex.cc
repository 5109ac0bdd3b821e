#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "util/check.h"

namespace ldb {

void ProjectToSimplex(double* v, size_t n, double radius,
                      std::vector<double>* scratch) {
  LDB_CHECK(v != nullptr);
  LDB_CHECK_GT(n, 0u);
  LDB_CHECK_GT(radius, 0.0);

  // Michelot lower bound on the threshold θ*: any nonempty S gives
  // θ_S = (Σ_S v − r)/|S| <= θ*, since Σ_S (v_i − θ*) <= Σ_i max(0, v_i − θ*)
  // = r. Take the best of S = all entries and S = {argmax}, then refine
  // once with S = the entries above that bound.
  double sum = 0.0;
  double abs_sum = 0.0;
  double vmax = v[0];
  for (size_t i = 0; i < n; ++i) {
    sum += v[i];
    abs_sum += std::fabs(v[i]);
    vmax = std::max(vmax, v[i]);
  }
  double bound =
      std::max((sum - radius) / static_cast<double>(n), vmax - radius);
  double above_sum = 0.0;
  size_t above = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool in = v[i] > bound;
    above_sum += in ? v[i] : 0.0;
    above += in ? 1 : 0;
  }
  if (above > 0) {
    bound = std::max(bound,
                     (above_sum - radius) / static_cast<double>(above));
  }

  // Every entry above θ* sorts before every entry at or below it, so the
  // entries kept here (those above bound − margin) are a prefix of the
  // full sorted order that holds the support, and the threshold loop
  // below runs over that prefix exactly as over the whole row: θ keeps
  // its bits. In floating point this needs two things, and the margin
  // gives both. It exceeds the bound's rounding error, so no entry above
  // θ* is dropped. And for a dropped entry u_k the exact gap between the
  // running threshold t_k = (running − r)/k and u_k is at least
  // ρ·(θ* − u_k)/k >= (margin − bound error)/n, more than t_k's rounding
  // error, so no dropped entry can pass the loop's test. Both errors are
  // below (n + 2)·ε·A, A = Σ|v| + r.
  const double n_plus_2 = static_cast<double>(n + 2);
  const double margin = 2.0 * n_plus_2 * n_plus_2 *
                        std::numeric_limits<double>::epsilon() *
                        (abs_sum + radius);
  const double cut = bound - margin;
  std::vector<double> local;
  std::vector<double>& u = scratch != nullptr ? *scratch : local;
  u.resize(n);
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    u[kept] = v[i];
    kept += v[i] > cut ? 1 : 0;
  }
  if (kept == 0) {  // non-finite input: no usable bound, keep everything
    std::copy(v, v + n, u.begin());
    kept = n;
  }
  std::sort(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(kept),
            std::greater<double>());

  // Find rho = max { k : u_k - (cumsum_k - radius)/k > 0 }.
  double cumsum = 0.0;
  size_t rho = 0;
  double running = 0.0;
  for (size_t k = 0; k < kept; ++k) {
    running += u[k];
    const double t = (running - radius) / static_cast<double>(k + 1);
    if (u[k] - t > 0.0) {
      rho = k + 1;
      cumsum = running;
    }
  }
  LDB_CHECK_GT(rho, 0u);
  const double theta = (cumsum - radius) / static_cast<double>(rho);

  for (size_t i = 0; i < n; ++i) v[i] = std::max(0.0, v[i] - theta);
}

double SmoothMax(const double* values, size_t n, double t) {
  LDB_CHECK(values != nullptr);
  LDB_CHECK_GT(n, 0u);
  LDB_CHECK_GT(t, 0.0);
  const double vmax = *std::max_element(values, values + n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += std::exp(t * (values[i] - vmax));
  return vmax + std::log(sum) / t;
}

}  // namespace ldb
