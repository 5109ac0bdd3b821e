#include "solver/layout_nlp.h"

#include <vector>

namespace ldb {

bool LayoutNlpProblem::Gradient(const Layout& layout,
                                double* grad_out) const {
  if (!make_column_eval || grad_out == nullptr) return false;
  const size_t un = static_cast<size_t>(num_objects);
  const size_t um = static_cast<size_t>(num_targets);
  std::vector<double> col(un);
  for (int j = 0; j < num_targets; ++j) {
    make_column_eval(j)->EvaluateWithGradient(layout, col.data());
    for (size_t i = 0; i < un; ++i) {
      grad_out[i * um + static_cast<size_t>(j)] = col[i];
    }
  }
  return true;
}

}  // namespace ldb
