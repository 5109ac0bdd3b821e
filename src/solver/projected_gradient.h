#ifndef LAYOUTDB_SOLVER_PROJECTED_GRADIENT_H_
#define LAYOUTDB_SOLVER_PROJECTED_GRADIENT_H_

#include "solver/layout_nlp.h"
#include "util/status.h"

namespace ldb {

/// Local NLP solver for the layout problem, playing the role MINOS plays
/// in the paper: given an initial valid layout, locally minimize the
/// (non-convex) max-utilization objective subject to the integrity and
/// capacity constraints.
///
/// Method:
///  * the non-smooth max_j µ_j is replaced by a log-sum-exp smooth max
///    whose temperature is annealed upward across rounds;
///  * capacity constraints enter as a quadratic penalty whose weight is
///    annealed upward in lock-step;
///  * each iteration takes a projected-gradient step: the column
///    gradients at the current layout, chain-ruled through the smooth max
///    and the penalties, then a backtracking Armijo line search with
///    per-row Euclidean projection back onto the unit simplex. Every
///    trial is priced with one fused value+gradient pass per column
///    through the problem's column evaluators
///    (LayoutNlpProblem::make_column_eval), so the accepted trial brings
///    the next step's gradients with it;
///  * with SolverOptions::num_threads != 1 the column passes run
///    concurrently. Gradient entries are written to disjoint
///    index-addressed slots and reduced serially, so the result is
///    bit-identical for every thread count;
///  * like MINOS, the result is a locally optimal, generally non-regular
///    layout that depends on the initial point.
class ProjectedGradientSolver {
 public:
  explicit ProjectedGradientSolver(SolverOptions options = {});

  /// Runs the solver from `initial` (rows are projected onto the simplex
  /// first, so any non-negative seed is acceptable).
  ///
  /// \returns InvalidArgument for malformed problems (dimension mismatches,
  ///   missing column-evaluator factory, non-positive sizes/capacities).
  Result<SolverResult> Solve(const LayoutNlpProblem& problem,
                             const Layout& initial) const;

 private:
  SolverOptions options_;
};

}  // namespace ldb

#endif  // LAYOUTDB_SOLVER_PROJECTED_GRADIENT_H_
