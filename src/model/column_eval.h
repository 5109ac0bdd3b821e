#ifndef LAYOUTDB_MODEL_COLUMN_EVAL_H_
#define LAYOUTDB_MODEL_COLUMN_EVAL_H_

#include <cstdint>

namespace ldb {

class Layout;

/// Evaluator for one target utilization µ_j — the contract between a
/// performance model and the NLP solver's analytic gradient engine.
///
/// The solver prices each line-search trial with one fused value+gradient
/// pass per column. Implementations batch their interpolator queries over
/// structure-of-arrays buffers, so a pass costs what the column's present
/// objects cost: their layout transforms, their overlap rows' interference
/// products and cross-term scatters, and their table lookups. An absent
/// object costs one "does a present object interfere with it" bit, set by
/// a scatter over the present objects' reverse overlap entries, and an O(1)
/// gradient entry from limit prices built once, at construction. Evaluators
/// are independent: the solver holds one per column and calls them
/// concurrently from different threads.
class ColumnEvaluator {
 public:
  virtual ~ColumnEvaluator() = default;

  /// µ_j(layout). A pure function of `layout` (the evaluator keeps only
  /// reusable scratch buffers and layout-independent caches between calls).
  virtual double Evaluate(const Layout& layout) = 0;

  /// Fused pass: returns µ_j(layout) — bit for bit what Evaluate returns —
  /// and fills grad[i] = ∂µ_j/∂L_ij for every object i (`grad` sized
  /// num_objects). At kinks of the piecewise model (clamped interpolator
  /// axes, run-count branch boundaries, the presence threshold) a valid
  /// subgradient is produced.
  virtual double EvaluateWithGradient(const Layout& layout, double* grad) = 0;

  /// Interpolator queries issued by the batched kernels since construction,
  /// construction-time caches included (profiling counter).
  virtual int64_t interp_queries() const { return 0; }
};

}  // namespace ldb

#endif  // LAYOUTDB_MODEL_COLUMN_EVAL_H_
