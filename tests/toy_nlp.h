#ifndef LAYOUTDB_TESTS_TOY_NLP_H_
#define LAYOUTDB_TESTS_TOY_NLP_H_

// Closed-form toy objectives for solver tests: each sets both the scalar
// µ_j (for RandomizedSearchSolver and reference checks) and a column
// evaluator carrying its exact gradient (for ProjectedGradientSolver).

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "model/column_eval.h"
#include "model/layout.h"
#include "solver/layout_nlp.h"
#include "util/units.h"

namespace ldb {

/// µ_j(layout) for one column; fills grad[i] = ∂µ_j/∂L_ij when `grad` is
/// non-null.
using ToyColumnFn =
    std::function<double(const Layout& layout, int j, double* grad)>;

class ToyColumnEvaluator final : public ColumnEvaluator {
 public:
  ToyColumnEvaluator(ToyColumnFn fn, int j) : fn_(std::move(fn)), j_(j) {}

  double Evaluate(const Layout& layout) override {
    return fn_(layout, j_, nullptr);
  }
  double EvaluateWithGradient(const Layout& layout, double* grad) override {
    return fn_(layout, j_, grad);
  }

 private:
  ToyColumnFn fn_;
  int j_;
};

/// Installs `fn` as both of `p`'s utilization callbacks.
inline void SetToyObjective(LayoutNlpProblem* p, ToyColumnFn fn) {
  p->target_utilization = [fn](const Layout& l, int j) {
    return fn(l, j, nullptr);
  };
  p->make_column_eval = [fn](int j) {
    return std::make_unique<ToyColumnEvaluator>(fn, j);
  };
}

/// Load-balancing toy: µ_j = Σ_i rate_i·L_ij / speed_j, no interference.
/// The optimum spreads load proportionally to speed.
inline LayoutNlpProblem MakeLinearProblem(std::vector<double> rates,
                                          std::vector<double> speeds,
                                          std::vector<int64_t> sizes = {},
                                          std::vector<int64_t> caps = {}) {
  LayoutNlpProblem p;
  p.num_objects = static_cast<int>(rates.size());
  p.num_targets = static_cast<int>(speeds.size());
  p.object_sizes =
      sizes.empty() ? std::vector<int64_t>(rates.size(), kGiB) : sizes;
  p.target_capacities =
      caps.empty() ? std::vector<int64_t>(speeds.size(), 100 * kGiB) : caps;
  SetToyObjective(&p, [rates, speeds](const Layout& l, int j, double* grad) {
    const double speed = speeds[static_cast<size_t>(j)];
    double load = 0;
    for (int i = 0; i < l.num_objects(); ++i) {
      const double rate = rates[static_cast<size_t>(i)];
      load += rate * l.At(i, j);
      if (grad != nullptr) grad[i] = rate / speed;
    }
    return load / speed;
  });
  return p;
}

/// Two-object interference toy: µ_j = 0.3·(a + b) + 2·a·b with a = L_0j,
/// b = L_1j. SEE is a symmetric saddle; full separation gives µ = 0.3.
inline LayoutNlpProblem MakeInterferenceProblem() {
  LayoutNlpProblem p;
  p.num_objects = 2;
  p.num_targets = 2;
  p.object_sizes = {kGiB, kGiB};
  p.target_capacities = {10 * kGiB, 10 * kGiB};
  SetToyObjective(&p, [](const Layout& l, int j, double* grad) {
    const double a = l.At(0, j), b = l.At(1, j);
    if (grad != nullptr) {
      grad[0] = 0.3 + 2.0 * b;
      grad[1] = 0.3 + 2.0 * a;
    }
    return 0.3 * (a + b) + 2.0 * a * b;
  });
  return p;
}

}  // namespace ldb

#endif  // LAYOUTDB_TESTS_TOY_NLP_H_
