#ifndef LAYOUTDB_MODEL_TARGET_MODEL_H_
#define LAYOUTDB_MODEL_TARGET_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "model/column_eval.h"
#include "model/cost_model.h"
#include "model/layout.h"
#include "model/layout_model.h"
#include "model/workload.h"
#include "storage/target.h"

namespace ldb {

/// Model-side description of one storage target: which calibrated cost
/// model applies and how many member devices the target stripes over.
struct TargetModelInfo {
  const CostModel* cost_model = nullptr;
  int num_members = 1;
  /// RAID chunk size of the target (used to estimate how many members a
  /// large request touches).
  int64_t stripe_bytes = 64 * kKiB;
  /// RAID organization: RAID1 fans writes out to every member; RAID5 adds
  /// the parity read-modify-write to each written row.
  RaidLevel raid_level = RaidLevel::kRaid0;
};

class ColumnTerms;

/// The storage-system performance model of paper Section 5.2 (Figure 6):
/// applies the layout model to every (object, target) pair, computes the
/// contention factor χ_ij (Eq. 2), looks up per-request costs in the
/// target's calibrated cost model, and produces the per-target utilizations
///
///   µ_ij = λ^R_ij · Cost^R_j + λ^W_ij · Cost^W_j        (Eq. 1)
///   µ_j  = Σ_i µ_ij
///
/// µ_j is the quantity the layout optimizer minimizes the maximum of.
class TargetModel {
 public:
  /// \param targets one entry per storage target (cost models must outlive
  ///   this object).
  /// \param layout_model the LVM layout model (stripe size of the volume
  ///   manager implementing layouts).
  TargetModel(std::vector<TargetModelInfo> targets,
              LvmLayoutModel layout_model);

  int num_targets() const { return static_cast<int>(targets_.size()); }
  const LvmLayoutModel& layout_model() const { return layout_model_; }

  /// Computes all target utilizations µ_j under `layout`.
  ///
  /// \param workloads one description per object; overlap vectors sized N.
  /// \param mu_ij optional out-param: per-object contribution matrix,
  ///   row-major N x M (the µ_ij used by the regularizer's ordering).
  std::vector<double> Utilizations(const WorkloadSet& workloads,
                                   const Layout& layout,
                                   std::vector<double>* mu_ij = nullptr) const;

  /// Computes µ_j for a single target (the regularizer's per-column
  /// repricing, and the scalar reference the batched column evaluators
  /// are tested against).
  double TargetUtilization(const WorkloadSet& workloads, const Layout& layout,
                           int j) const;

  /// max_j µ_j, the layout problem objective.
  double MaxUtilization(const WorkloadSet& workloads,
                        const Layout& layout) const;

  const TargetModelInfo& target_info(int j) const {
    return targets_[static_cast<size_t>(j)];
  }

  /// Creates the batched value+gradient evaluator for column `j` (see
  /// model/column_eval.h). `workloads` must outlive the evaluator.
  /// Evaluators are independent — the solver holds one per column and uses
  /// them concurrently.
  std::unique_ptr<ColumnEvaluator> MakeColumnEvaluator(
      const WorkloadSet& workloads, int j) const;

 private:
  friend class ColumnTerms;

  /// µ_ij of one already-transformed per-target workload under contention
  /// factor `chi` (the Eq. 1 term, including the RAID member-cost
  /// accounting).
  double PerObjectUtilization(const TargetModelInfo& target,
                              const PerTargetWorkload& wij, double chi) const;

  /// µ_ij of object i, placed on `target` with `fraction` of its data,
  /// given every object's request rate `rate` there (χ_ij of Eq. 2 from
  /// the co-located rates, then Eq. 1); 0 when the object is absent. The
  /// one per-object term both TargetUtilization and ColumnTerms add.
  double ObjectTerm(const TargetModelInfo& target, const WorkloadSet& workloads,
                    const double* rate, int i, double fraction) const;

  /// Shared implementation: µ_j for one target, optionally with the
  /// per-object contributions µ_ij (mu_i sized N on return).
  double TargetUtilizationInternal(const WorkloadSet& workloads,
                                   const Layout& layout, int j,
                                   std::vector<double>* mu_i) const;

  std::vector<TargetModelInfo> targets_;
  LvmLayoutModel layout_model_;
};

/// Per-object terms of every column of one layout, for pricing single-row
/// changes without re-evaluating whole columns (the regularizer's candidate
/// search). Column j caches L_ij, the request rate of W_ij and µ_ij for
/// every object. Changing L_ij alters only µ_ij and the µ_kj of the objects
/// k whose overlap row names i (the reverse-overlap dependents: the CSR
/// transpose of the sparse rows, the nonzero entries of dense ones). Every
/// other term keeps its value: a zero overlap entry adds +0.0 to k's
/// interference. µ_j is the index-order sum of the terms — the terms and
/// the order TargetUtilization adds — so every value equals
/// TargetUtilization on the same layout bit for bit.
class ColumnTerms {
 public:
  /// Prices every column of `layout`. `model` and `workloads` must outlive
  /// the cache.
  ColumnTerms(const TargetModel* model, const WorkloadSet* workloads,
              const Layout& layout);

  /// µ_j of the cached layout.
  double mu(int j) const { return mu_[static_cast<size_t>(j)]; }

  /// µ_ij of the cached layout.
  double term(int j, int i) const {
    return term_[static_cast<size_t>(j) * n_ + static_cast<size_t>(i)];
  }

  /// µ_j with L_ij set to `fraction`; the cache is left unchanged.
  double Trial(int j, int i, double fraction);

  /// Sets L_ij to `fraction` in the cache and returns the new µ_j.
  double Reprice(int j, int i, double fraction);

 private:
  /// Sets L_ij = `fraction` and reprices object i and its dependents,
  /// logging the replaced terms to `undo_` first when `undo` is set.
  /// Returns the new µ_j.
  double Set(int j, int i, double fraction, bool undo);

  const TargetModel* model_;
  const WorkloadSet* workloads_;
  size_t n_;
  // Reverse overlap index (CSR): dep_[dep_begin_[i] .. dep_begin_[i+1])
  // lists, ascending, the objects k != i whose overlap row names i.
  std::vector<size_t> dep_begin_;
  std::vector<int32_t> dep_;
  // Column-major M x N: the clamped fraction, request rate and µ_ij of
  // every cell.
  std::vector<double> fraction_;
  std::vector<double> rate_;
  std::vector<double> term_;
  std::vector<double> mu_;
  // Trial's undo log of replaced terms (sized for the largest dependent
  // list up front, so no trial allocates).
  std::vector<double> undo_;
};

}  // namespace ldb

#endif  // LAYOUTDB_MODEL_TARGET_MODEL_H_
