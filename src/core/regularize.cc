#include "core/regularize.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/table.h"

namespace ldb {

double EffectiveTargetUtilization(const RegularizerOptions& options,
                                  double mu_j, int j) {
  if (options.target_derate.empty()) return mu_j;
  const double d = options.target_derate[static_cast<size_t>(j)];
  if (d >= 1.0) return mu_j;
  // Failed target: any load at all disqualifies the candidate.
  if (d <= 0.0) return mu_j > 0.0 ? 1e12 : 0.0;
  return mu_j / d;
}

Regularizer::Regularizer(const LayoutProblem* problem,
                         const TargetModel* model,
                         RegularizerOptions options)
    : problem_(problem), model_(model), options_(options) {
  LDB_CHECK(problem_ != nullptr);
  LDB_CHECK(model_ != nullptr);
}

double EffectiveMaxUtilization(const RegularizerOptions& options,
                               const std::vector<double>& mu) {
  double out = 0.0;
  for (size_t j = 0; j < mu.size(); ++j) {
    out = std::max(out, EffectiveTargetUtilization(options, mu[j],
                                                   static_cast<int>(j)));
  }
  return out;
}

RegularRowPricer::RegularRowPricer(const LayoutProblem* problem,
                                   const TargetModel* model,
                                   RegularizerOptions options, Layout layout)
    : problem_(problem),
      options_(std::move(options)),
      layout_(std::move(layout)),
      terms_(model, &problem->workloads, layout_),
      capacity_(problem->capacities()),
      bytes_(layout_.BytesPerTarget(problem->object_sizes)) {
  const size_t m = static_cast<size_t>(problem_->num_targets());
  LDB_CHECK(options_.target_derate.empty() ||
            options_.target_derate.size() == m);
  mu_.resize(m);
  for (size_t j = 0; j < m; ++j) mu_[j] = terms_.mu(static_cast<int>(j));
  was_nonzero_.resize(m);
  blocked_.resize(m);
  in_consistent_.resize(m);
  in_balancing_.resize(m);
  row_bytes_.resize(m);
}

RegularCandidateChoice RegularRowPricer::Best(int i) {
  const int m = problem_->num_targets();
  const PlacementConstraints& constraints = problem_->constraints;
  const int64_t size = problem_->object_sizes[static_cast<size_t>(i)];
  for (int j = 0; j < m; ++j) {
    const double f = layout_.At(i, j);
    was_nonzero_[static_cast<size_t>(j)] = f > options_.zero_tolerance;
    row_bytes_[static_cast<size_t>(j)] = Layout::CellBytes(f, size);
  }

  // Candidate universe: the object's allowed targets (all targets when
  // unrestricted). Generating prefixes from the allowed set — rather than
  // filtering afterwards — keeps candidates available even when a
  // disallowed target would sort ahead of every allowed one. Every prefix
  // then satisfies the allowed-target constraint.
  if (!constraints.empty() && !constraints.AllowedFor(i).empty()) {
    universe_ = constraints.AllowedFor(i);
  } else {
    universe_.resize(static_cast<size_t>(m));
    std::iota(universe_.begin(), universe_.end(), 0);
  }
  // Class 1 (consistent): targets by current fraction, descending; ties
  // broken by target id (paper footnote 1).
  by_fraction_ = universe_;
  std::stable_sort(by_fraction_.begin(), by_fraction_.end(),
                   [&](int a, int b) {
                     return layout_.At(i, a) > layout_.At(i, b);
                   });
  // Class 2 (balancing): targets by current load, ascending.
  by_load_ = universe_;
  std::stable_sort(by_load_.begin(), by_load_.end(), [&](int a, int b) {
    return EffectiveTargetUtilization(options_, mu_[static_cast<size_t>(a)],
                                      a) <
           EffectiveTargetUtilization(options_, mu_[static_cast<size_t>(b)],
                                      b);
  });
  // Separation constraints: targets a partner occupies are off limits, and
  // a prefix that reaches one stays invalid as it grows.
  std::fill(blocked_.begin(), blocked_.end(), 0);
  for (const auto& [a, b] : constraints.separate) {
    const int partner = a == i ? b : (b == i ? a : -1);
    if (partner < 0) continue;
    for (int j = 0; j < m; ++j) {
      if (layout_.At(partner, j) > options_.zero_tolerance) {
        blocked_[static_cast<size_t>(j)] = 1;
      }
    }
  }

  // Candidates in the order consistent k, balancing k, consistent k+1, ...
  // `common` counts the targets the two size-k prefixes share.
  std::fill(in_consistent_.begin(), in_consistent_.end(), 0);
  std::fill(in_balancing_.begin(), in_balancing_.end(), 0);
  bool consistent_ok = true;
  bool balancing_ok = options_.balancing_candidates;
  int common = 0;
  int best_k = 0;
  bool best_balancing = false;
  RegularCandidateChoice best;
  for (size_t p = 0; p < universe_.size(); ++p) {
    const int k = static_cast<int>(p) + 1;
    const size_t f = static_cast<size_t>(by_fraction_[p]);
    in_consistent_[f] = 1;
    common += in_balancing_[f];
    consistent_ok = consistent_ok && blocked_[f] == 0;
    if (consistent_ok && Score(i, in_consistent_, k, &best)) {
      best_k = k;
      best_balancing = false;
    }
    if (!options_.balancing_candidates) continue;
    const size_t l = static_cast<size_t>(by_load_[p]);
    in_balancing_[l] = 1;
    common += in_consistent_[l];
    balancing_ok = balancing_ok && blocked_[l] == 0;
    if (balancing_ok && common != k && Score(i, in_balancing_, k, &best)) {
      best_k = k;
      best_balancing = true;
    }
  }
  if (best.found) {
    const std::vector<int>& order = best_balancing ? by_load_ : by_fraction_;
    best.targets.assign(order.begin(), order.begin() + best_k);
  }
  return best;
}

bool RegularRowPricer::Score(int i, const std::vector<char>& in, int k,
                             RegularCandidateChoice* best) {
  const int m = problem_->num_targets();
  const double share = 1.0 / static_cast<double>(k);  // as SetRowRegular
  const int64_t share_bytes = Layout::CellBytes(
      share, problem_->object_sizes[static_cast<size_t>(i)]);
  for (size_t j = 0; j < static_cast<size_t>(m); ++j) {
    const int64_t bytes =
        bytes_[j] - row_bytes_[j] + (in[j] != 0 ? share_bytes : 0);
    if (bytes > capacity_[j]) return false;
  }
  // The objective is a max, so its order is free: the columns the row
  // change leaves alone first, then the repriced ones, stopping as soon as
  // the candidate can no longer beat the incumbent strictly.
  const auto beaten = [best](double objective) {
    return best->found && !(objective < best->objective);
  };
  double objective = 0.0;
  for (int j = 0; j < m; ++j) {
    const size_t uj = static_cast<size_t>(j);
    if (in[uj] == 0 && was_nonzero_[uj] == 0) {
      objective = std::max(
          objective, EffectiveTargetUtilization(options_, mu_[uj], j));
    }
  }
  if (beaten(objective)) return false;
  for (int j = 0; j < m; ++j) {
    const size_t uj = static_cast<size_t>(j);
    if (in[uj] == 0 && was_nonzero_[uj] == 0) continue;
    const double mu_j = terms_.Trial(j, i, in[uj] != 0 ? share : 0.0);
    objective =
        std::max(objective, EffectiveTargetUtilization(options_, mu_j, j));
    if (beaten(objective)) return false;
  }
  best->found = true;
  best->objective = objective;
  return true;
}

void RegularRowPricer::Apply(int i, const std::vector<int>& targets) {
  const int m = problem_->num_targets();
  const int64_t size = problem_->object_sizes[static_cast<size_t>(i)];
  old_row_.assign(layout_.Row(i), layout_.Row(i) + m);
  layout_.SetRowRegular(i, targets);
  for (int j = 0; j < m; ++j) {
    const size_t uj = static_cast<size_t>(j);
    const double old = old_row_[uj];
    const double f = layout_.At(i, j);
    if (f != old) {
      bytes_[uj] +=
          Layout::CellBytes(f, size) - Layout::CellBytes(old, size);
      terms_.Reprice(j, i, f);
    }
    // Exactly the columns Best rescored for this row.
    if (old > options_.zero_tolerance || f > 0.0) mu_[uj] = terms_.mu(j);
  }
}

Result<Layout> Regularizer::Regularize(const Layout& solver_layout) const {
  LDB_RETURN_IF_ERROR(problem_->Validate());
  const int n = problem_->num_objects();
  const int m = problem_->num_targets();
  if (solver_layout.num_objects() != n || solver_layout.num_targets() != m) {
    return Status::InvalidArgument("layout dimensions mismatch problem");
  }

  RegularRowPricer pricer(problem_, model_, options_, solver_layout);

  // Object order: decreasing total imposed load Σ_j µ_ij under the
  // solver's layout.
  std::vector<double> object_load(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      object_load[static_cast<size_t>(i)] += pricer.terms().term(j, i);
    }
  }
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return object_load[static_cast<size_t>(a)] >
           object_load[static_cast<size_t>(b)];
  });

  // Greedy pass: regularize one object at a time (paper Section 4.3).
  for (int i : order) {
    const RegularCandidateChoice choice = pricer.Best(i);
    if (!choice.found) {
      return Status::Infeasible(StrFormat(
          "no regular candidate for object %s fits the capacity "
          "constraints; manual intervention required",
          problem_->object_names[static_cast<size_t>(i)].c_str()));
    }
    pricer.Apply(i, choice.targets);
  }

  // Refinement sweeps: with the whole layout now regular, revisit each
  // object's candidates and keep strict improvements until a fixpoint.
  for (int pass = 0; pass < options_.refinement_passes; ++pass) {
    bool improved = false;
    for (int i : order) {
      const double current_objective =
          EffectiveMaxUtilization(options_, pricer.mu());
      const RegularCandidateChoice choice = pricer.Best(i);
      if (choice.found && choice.objective < current_objective - 1e-12 &&
          pricer.layout().TargetsOf(i) != choice.targets) {
        pricer.Apply(i, choice.targets);
        improved = true;
      }
    }
    if (!improved) break;
  }

  LDB_CHECK(pricer.layout().IsRegular(1e-9));
  return pricer.layout();
}

}  // namespace ldb
