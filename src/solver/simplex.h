#ifndef LAYOUTDB_SOLVER_SIMPLEX_H_
#define LAYOUTDB_SOLVER_SIMPLEX_H_

#include <cstddef>
#include <vector>

namespace ldb {

/// Euclidean projection of `v` (length n, modified in place) onto the
/// scaled probability simplex { x : x >= 0, sum x = radius }.
///
/// Implements the sort-and-threshold algorithm (Held/Wolfe/Crowder;
/// popularized by Duchi et al.) behind a Michelot pre-filter: a lower
/// bound on the threshold θ, the best of (Σ v − r)/n, max v − r and one
/// refinement over the entries above it, rules out the entries below
/// bound − margin, and only the rest are sorted. Every gradient entry of
/// the layout objective is >= 0, so a solver step moves each row off the
/// simplex and every row needs a real projection; most of a row's entries
/// are then targets the object is not on, pushed below θ by the step, and
/// the sort shrinks to the few that remain. The dropped entries sit past
/// the threshold index in sorted order and the margin covers the rounding
/// of the bound and of the running thresholds, so the result is bit for bit
/// the sort-everything projection's (tests/property_test.cc,
/// SimplexDifferential). This is the feasibility engine of the
/// projected-gradient layout solver: every layout row must stay on the
/// unit simplex (the paper's integrity constraint).
///
/// `scratch`, when provided, is reused for the internal sort buffer so
/// repeated projections (the solver projects every row every line-search
/// step) allocate nothing after warm-up.
void ProjectToSimplex(double* v, size_t n, double radius = 1.0,
                      std::vector<double>* scratch = nullptr);

/// log-sum-exp smooth approximation of max(values):
///   smoothmax_t(v) = (1/t) * log(sum_j exp(t * v_j))
/// computed stably. As t grows the approximation tightens from above
/// (error <= log(n)/t). The layout solver anneals t upward to optimize the
/// non-smooth max-utilization objective with gradient steps.
double SmoothMax(const double* values, size_t n, double t);

}  // namespace ldb

#endif  // LAYOUTDB_SOLVER_SIMPLEX_H_
