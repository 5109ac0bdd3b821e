#ifndef LAYOUTDB_CORE_PROBLEM_H_
#define LAYOUTDB_CORE_PROBLEM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/constraints.h"
#include "model/cost_model.h"
#include "model/target_model.h"
#include "model/workload.h"
#include "solver/layout_nlp.h"
#include "util/status.h"
#include "workload/catalog.h"

namespace ldb {

/// Advisor-facing description of one storage target: capacity, the
/// calibrated cost model for its device type, and its internal striping.
struct AdvisorTarget {
  std::string name;
  int64_t capacity_bytes = 0;
  const CostModel* cost_model = nullptr;
  int num_members = 1;
  int64_t stripe_bytes = 64 * 1024;
  RaidLevel raid_level = RaidLevel::kRaid0;
};

/// The database object layout problem (paper Definition 1): N objects with
/// sizes and workload descriptions, M targets with capacities and
/// performance models. This is the single input to the layout advisor.
struct LayoutProblem {
  std::vector<std::string> object_names;
  std::vector<int64_t> object_sizes;
  std::vector<ObjectKind> object_kinds;
  WorkloadSet workloads;
  std::vector<AdvisorTarget> targets;
  int64_t lvm_stripe_bytes = 1024 * 1024;  ///< stripe size of the LVM that
                                           ///< will implement the layout
  /// Administrative constraints (pinning / separation); empty = none.
  PlacementConstraints constraints;

  int num_objects() const { return static_cast<int>(object_sizes.size()); }
  int num_targets() const { return static_cast<int>(targets.size()); }

  /// Checks internal consistency (sizes/kinds/workloads dimensions, target
  /// fields, total capacity at least total size).
  Status Validate() const;

  /// Target capacities, indexed by target.
  std::vector<int64_t> capacities() const;

  /// Builds the performance model for these targets.
  TargetModel MakeTargetModel() const;

  /// Builds the solver-facing NLP. `model` and this problem must outlive
  /// the returned problem (its callbacks capture both), and `workloads`
  /// must not change while it is in use: its column evaluators share a
  /// reverse overlap index built from them here.
  LayoutNlpProblem MakeNlp(const TargetModel* model) const;
};

/// Assembles a LayoutProblem from a catalog, targets, and fitted
/// workload descriptions (one per catalog object).
Result<LayoutProblem> MakeLayoutProblem(const Catalog& catalog,
                                        std::vector<AdvisorTarget> targets,
                                        WorkloadSet workloads,
                                        int64_t lvm_stripe_bytes = 1024 *
                                                                   1024);

/// Converts a regular layout to per-object target lists for the volume
/// manager. Fails if `layout` is not regular or not valid. Administrative
/// pin/separate constraints are policy, not physics: pass
/// `check_placement_constraints = false` for a layout describing a
/// pre-existing on-disk state (e.g. the source of a migration), which may
/// legitimately violate them.
Result<std::vector<std::vector<int>>> LayoutToPlacements(
    const LayoutProblem& problem, const Layout& layout,
    bool check_placement_constraints = true);

}  // namespace ldb

#endif  // LAYOUTDB_CORE_PROBLEM_H_
