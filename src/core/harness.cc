#include "core/harness.h"

#include <utility>

#include "storage/disk.h"
#include "storage/ssd.h"
#include "trace/analyzer.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/table.h"

namespace ldb {

namespace {

constexpr int64_t kTargetStripeBytes = 64 * kKiB;  // RAID0 chunk
// LVM stripe size. 64 KiB matches the period's Linux LVM defaults: scan
// requests span all of an object's targets, which is what makes SEE's
// interference (and the advisor's isolation decisions) matter.
constexpr int64_t kLvmStripeBytes = 64 * kKiB;

int64_t ScaledCapacity(int64_t bytes, double scale) {
  return std::max<int64_t>(4 * kMiB,
                           static_cast<int64_t>(bytes * scale));
}

}  // namespace

Result<ExperimentRig> ExperimentRig::Create(Catalog catalog,
                                            std::vector<RigTargetDef> targets,
                                            double scale, uint64_t seed) {
  return Create(std::move(catalog), std::move(targets), scale, seed,
                CalibrationOptions{});
}

Result<ExperimentRig> ExperimentRig::Create(Catalog catalog,
                                            std::vector<RigTargetDef> targets,
                                            double scale, uint64_t seed,
                                            CalibrationOptions calibration) {
  if (targets.empty()) {
    return Status::InvalidArgument("rig needs at least one target");
  }
  if (scale <= 0.0) {
    return Status::InvalidArgument("scale must be positive");
  }
  ExperimentRig rig;
  rig.catalog_ = std::move(catalog);
  rig.targets_ = std::move(targets);
  rig.scale_ = scale;
  rig.seed_ = seed;

  // Device prototypes, capacities scaled with the database.
  DiskParams disk_params = Scsi15kParams();
  disk_params.capacity_bytes = ScaledCapacity(disk_params.capacity_bytes,
                                              scale);
  for (const RigTargetDef& def : rig.targets_) {
    if (def.name.empty()) {
      return Status::InvalidArgument("rig target needs a name");
    }
    std::unique_ptr<BlockDevice> proto;
    if (def.is_ssd) {
      SsdParams ssd_params;
      if (def.ssd_capacity_bytes > 0) {
        ssd_params.capacity_bytes = def.ssd_capacity_bytes;
      }
      ssd_params.capacity_bytes =
          ScaledCapacity(ssd_params.capacity_bytes, scale);
      proto = std::make_unique<SsdModel>(ssd_params);
    } else {
      if (def.disk_members <= 0) {
        return Status::InvalidArgument("disk target needs members > 0");
      }
      proto = std::make_unique<DiskModel>(disk_params);
    }
    TargetSpec spec;
    spec.name = def.name;
    spec.prototype = proto.get();
    spec.num_members = def.is_ssd ? 1 : def.disk_members;
    spec.stripe_bytes = kTargetStripeBytes;
    spec.raid_level = def.raid_level;
    rig.target_specs_.push_back(std::move(spec));
    rig.prototypes_.push_back(std::move(proto));
  }

  // Calibrate one cost model per distinct device type, via the persistent
  // cache when one is configured. The rig seed keys the measurements (it
  // participates in the cache key, so differently-seeded rigs never share
  // stale tables).
  CalibrationOptions cal = std::move(calibration);
  cal.seed = seed;
  std::vector<const BlockDevice*> protos;
  for (const auto& p : rig.prototypes_) protos.push_back(p.get());
  auto registry = CostModelRegistry::ForDevices(protos, cal);
  if (!registry.ok()) return registry.status();
  rig.cost_models_ = std::move(registry).value();
  return rig;
}

std::unique_ptr<StorageSystem> ExperimentRig::MakeSystem() const {
  return std::make_unique<StorageSystem>(target_specs_);
}

std::vector<AdvisorTarget> ExperimentRig::AdvisorTargets() const {
  std::vector<AdvisorTarget> out;
  for (size_t t = 0; t < targets_.size(); ++t) {
    AdvisorTarget at;
    at.name = targets_[t].name;
    const BlockDevice& proto = *prototypes_[t];
    const int members = target_specs_[t].num_members;
    at.raid_level = target_specs_[t].raid_level;
    switch (at.raid_level) {
      case RaidLevel::kRaid0:
        at.capacity_bytes = proto.capacity_bytes() * members;
        break;
      case RaidLevel::kRaid1:
        at.capacity_bytes = proto.capacity_bytes();
        break;
      case RaidLevel::kRaid5:
        at.capacity_bytes = proto.capacity_bytes() * (members - 1);
        break;
    }
    at.cost_model = cost_models_.Find(proto.model_name());
    LDB_CHECK(at.cost_model != nullptr);
    at.num_members = members;
    at.stripe_bytes = kTargetStripeBytes;
    out.push_back(std::move(at));
  }
  return out;
}

Result<RunReport> ExperimentRig::Execute(const RunSpec& spec,
                                         const OlapSpec* olap,
                                         const OltpSpec* oltp,
                                         double oltp_duration_s,
                                         WorkloadSet reference) const {
  if (reference.empty()) {
    // Idle descriptions: only the autopilot reads workloads during a run.
    reference.resize(static_cast<size_t>(catalog_.num_objects()));
    for (size_t i = 0; i < reference.size(); ++i) {
      reference[i].overlap_index = {static_cast<int32_t>(i)};
      reference[i].overlap_value = {0.0};
    }
  }
  auto problem = MakeProblem(std::move(reference));
  if (!problem.ok()) return problem.status();
  auto system = MakeSystem();
  return RunLayout(system.get(), *problem, spec,
                   WorkloadForeground(olap, oltp, oltp_duration_s, seed_));
}

Result<WorkloadSet> ExperimentRig::FitWorkloads(const Layout& trace_layout,
                                                const OlapSpec* olap,
                                                const OltpSpec* oltp,
                                                double oltp_duration_s) const {
  // Fit from the object-level (pre-striping) request stream: the paper's
  // W_i describe objects, not their current on-target placement.
  IoTrace trace;
  RunSpec spec(trace_layout);
  spec.logical_observer = [&trace](const IoEvent& ev) { trace.Add(ev); };
  auto run = Execute(spec, olap, oltp, oltp_duration_s);
  if (!run.ok()) return run.status();

  TraceAnalyzer analyzer;
  return analyzer.Analyze(trace, catalog_.num_objects());
}

Result<LayoutProblem> ExperimentRig::MakeProblem(
    WorkloadSet workloads) const {
  return MakeLayoutProblem(catalog_, AdvisorTargets(), std::move(workloads),
                           kLvmStripeBytes);
}

}  // namespace ldb
