#ifndef LAYOUTDB_CORE_HARNESS_H_
#define LAYOUTDB_CORE_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/problem.h"
#include "core/run.h"
#include "model/calibration.h"
#include "storage/storage_system.h"
#include "util/status.h"
#include "workload/catalog.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace ldb {

/// Declarative description of one storage target in an experiment rig:
/// either a group of 15K-RPM disks (RAID0 when members > 1) or an SSD.
struct RigTargetDef {
  std::string name;
  int disk_members = 1;      ///< number of 15K disks grouped together
  bool is_ssd = false;       ///< SSD target instead of disks
  int64_t ssd_capacity_bytes = 0;  ///< SSD capacity (pre-scaling); 0 = default
  RaidLevel raid_level = RaidLevel::kRaid0;  ///< grouping of disk members
};

/// Experiment rig reproducing the paper's testbed in simulation: a set of
/// storage targets built from 18.4 GB 15K-RPM disk models and an optional
/// SSD, calibrated cost models, and the trace→fit→advise→execute pipeline
/// of Sections 5–6.
///
/// `scale` proportionally shrinks database object sizes *and* device
/// capacities, preserving capacity pressure and seek geometry while making
/// simulations fast. Paper scale is 1.0.
class ExperimentRig {
 public:
  /// Builds a rig. Calibrates one cost model per distinct device type
  /// (cached inside the rig).
  static Result<ExperimentRig> Create(Catalog catalog,
                                      std::vector<RigTargetDef> targets,
                                      double scale = 1.0,
                                      uint64_t seed = 42);

  /// Same, with explicit calibration options — grid, parallelism, and the
  /// persistent cost-model cache (`--calibration-cache` in the CLIs). The
  /// rig seed overrides `calibration.seed` so one knob controls a run.
  static Result<ExperimentRig> Create(Catalog catalog,
                                      std::vector<RigTargetDef> targets,
                                      double scale, uint64_t seed,
                                      CalibrationOptions calibration);

  const Catalog& catalog() const { return catalog_; }
  int num_targets() const { return static_cast<int>(targets_.size()); }
  double scale() const { return scale_; }

  /// A fresh storage system with quiescent devices for one measured run.
  std::unique_ptr<StorageSystem> MakeSystem() const;

  /// Advisor-facing target descriptions (capacities, cost models).
  std::vector<AdvisorTarget> AdvisorTargets() const;

  /// Runs the workloads under `spec` on a fresh system: RunLayout with a
  /// WorkloadRunner foreground seeded by the rig. Exactly one of
  /// `olap`/`oltp` may be null; with both set, runs the consolidation
  /// protocol (OLTP until OLAP completes). `reference` is the workload set
  /// spec.layout was advised for — the autopilot's drift reference; other
  /// runs may leave it empty.
  Result<RunReport> Execute(const RunSpec& spec, const OlapSpec* olap,
                            const OltpSpec* oltp, double oltp_duration_s = 0.0,
                            WorkloadSet reference = {}) const;

  /// The paper's workload-characterization pipeline (Section 5.1): runs
  /// the workloads under `trace_layout` with tracing enabled and fits
  /// Rome-style workload descriptions from the trace.
  Result<WorkloadSet> FitWorkloads(const Layout& trace_layout,
                                   const OlapSpec* olap,
                                   const OltpSpec* oltp,
                                   double oltp_duration_s = 0.0) const;

  /// Builds the layout problem from fitted workloads.
  Result<LayoutProblem> MakeProblem(WorkloadSet workloads) const;

 private:
  ExperimentRig() = default;

  Catalog catalog_;
  std::vector<RigTargetDef> defs_;
  std::vector<TargetSpec> target_specs_;  ///< prototypes owned below
  std::vector<std::unique_ptr<BlockDevice>> prototypes_;
  std::vector<std::string> target_names_;
  CostModelRegistry cost_models_;
  std::vector<RigTargetDef> targets_;
  double scale_ = 1.0;
  uint64_t seed_ = 42;
};

}  // namespace ldb

#endif  // LAYOUTDB_CORE_HARNESS_H_
