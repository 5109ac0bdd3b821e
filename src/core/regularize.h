#ifndef LAYOUTDB_CORE_REGULARIZE_H_
#define LAYOUTDB_CORE_REGULARIZE_H_

#include <cstdint>
#include <vector>

#include "core/problem.h"
#include "model/layout.h"
#include "model/target_model.h"
#include "util/status.h"

namespace ldb {

/// Options for the regularization post-processing step.
struct RegularizerOptions {
  /// Layout entries at or below this are treated as zero when ordering
  /// targets by solver fraction.
  double zero_tolerance = 1e-4;
  /// After the greedy pass, up to this many refinement sweeps re-evaluate
  /// every object's candidate set against the now-regular layout and move
  /// objects while the maximum utilization improves. This corrects the
  /// greedy pass's myopia when the solver's layout is far from regular
  /// (each sweep stops early at a fixpoint).
  int refinement_passes = 3;
  /// Generate the second candidate class (balancing layouts on the
  /// currently least-loaded targets). Disabling leaves only the
  /// consistent-with-solver candidates — an ablation of the design choice
  /// discussed in paper Section 4.3.
  bool balancing_candidates = true;
  /// Per-target service derating for failure-aware re-layout: target j
  /// effectively delivers `target_derate[j]` of its healthy throughput, so
  /// candidates are ranked by µ_j / derate_j. Empty = all healthy (1.0).
  /// A derate of 0 marks a failed target: any load on it scores as
  /// (effectively) infinite utilization. Size must equal the target count
  /// when non-empty.
  std::vector<double> target_derate;
};

/// µ_j adjusted for the derating in `options` (µ_j / derate_j; huge when
/// a failed target carries load, µ_j unchanged when no derating is set).
double EffectiveTargetUtilization(const RegularizerOptions& options,
                                  double mu_j, int j);

/// max_j of EffectiveTargetUtilization over the per-target cache `mu`.
double EffectiveMaxUtilization(const RegularizerOptions& options,
                               const std::vector<double>& mu);

/// Outcome of searching the 2M regular candidates for one object.
struct RegularCandidateChoice {
  bool found = false;
  double objective = 0.0;  ///< max_j µ_j / derate_j with the candidate applied
  std::vector<int> targets;
};

/// The regularizer's candidate search (paper Section 4.3) over a layout it
/// owns, shared by the regularizer, failure re-layout and incremental
/// placement. For object i it generates the paper's 2M candidate regular
/// rows:
///  * M "consistent" candidates — the object striped across its top-k
///    targets by current fraction (k = 1..M, ties broken by target id);
///  * M "balancing" candidates — the object striped across the k currently
///    least-loaded targets;
/// drops capacity and constraint violators, and picks the one minimizing
/// the maximum (derated) utilization, first in that order on ties.
///
/// Candidates are priced incrementally: a ColumnTerms cache reprices only
/// object i and its overlap dependents on each touched column, and an
/// integer per-target byte ledger (exact against Layout::BytesPerTarget)
/// checks capacity in O(M). A balancing candidate naming the same targets
/// as the consistent one of its size is skipped — it cannot win a strict
/// `<` tie. Every candidate's score and the chosen row are those of
/// re-evaluating TargetUtilization and SatisfiesCapacity on the trial
/// layout.
class RegularRowPricer {
 public:
  /// Prices every column of `layout`. `problem` and `model` must outlive
  /// the pricer; `options.target_derate` is empty or sized M.
  RegularRowPricer(const LayoutProblem* problem, const TargetModel* model,
                   RegularizerOptions options, Layout layout);

  const Layout& layout() const { return layout_; }

  /// Per-target utilization µ_j as the candidate search last scored each
  /// column: the applied rows' trial values. A column whose only change
  /// was dropping a fraction at or below `zero_tolerance` is not rescored
  /// and keeps its previous value until a later row change touches it.
  const std::vector<double>& mu() const { return mu_; }

  /// The per-object terms µ_ij of the current layout.
  const ColumnTerms& terms() const { return terms_; }

  /// The best capacity- and constraint-respecting candidate row for object
  /// `i` against the current layout (found = false when none qualifies).
  RegularCandidateChoice Best(int i);

  /// Sets row `i` regular over `targets` and reprices what it touched.
  void Apply(int i, const std::vector<int>& targets);

 private:
  /// Scores the candidate putting object `i` on the targets marked in
  /// `in` (k of them), recording it in `best` when it beats the incumbent.
  bool Score(int i, const std::vector<char>& in, int k,
             RegularCandidateChoice* best);

  const LayoutProblem* problem_;
  RegularizerOptions options_;
  Layout layout_;
  ColumnTerms terms_;
  std::vector<double> mu_;
  std::vector<int64_t> capacity_;
  std::vector<int64_t> bytes_;  // per-target byte ledger of layout_
  // Per-object scratch, reused by every Best call.
  std::vector<char> was_nonzero_, blocked_, in_consistent_, in_balancing_;
  std::vector<int64_t> row_bytes_;
  std::vector<double> old_row_;
  std::vector<int> universe_, by_fraction_, by_load_;
};

/// Regularization post-processor (paper Section 4.3): converts the
/// solver's optimized but generally non-regular layout into a regular one
/// implementable by round-robin striping.
///
/// Objects are regularized one at a time in decreasing order of the total
/// load Σ_j µ_ij they impose, so imbalances introduced early can be
/// corrected by later objects; each takes the best of its 2M candidate
/// rows (RegularRowPricer).
class Regularizer {
 public:
  /// `problem` and `model` must outlive the regularizer.
  Regularizer(const LayoutProblem* problem, const TargetModel* model,
              RegularizerOptions options = {});

  /// Returns the regularized layout, or Infeasible if some object admits
  /// no capacity-respecting candidate (the paper's "manual intervention"
  /// case, only expected under very tight space constraints).
  Result<Layout> Regularize(const Layout& solver_layout) const;

 private:
  const LayoutProblem* problem_;
  const TargetModel* model_;
  RegularizerOptions options_;
};

}  // namespace ldb

#endif  // LAYOUTDB_CORE_REGULARIZE_H_
