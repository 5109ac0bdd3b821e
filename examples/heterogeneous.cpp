// Heterogeneous storage: the advisor on a mixed RAID0 + single-disk + SSD
// configuration (the scenarios of paper Sections 6.4/6.5).
//
// Demonstrates how the advisor exploits performance asymmetry: fast
// targets attract the latency-critical random workloads, big striped
// groups take the sequential scans, and the layout respects each target's
// capacity.
//
// Usage: heterogeneous [scale]   (default 0.05)

#include <cstdio>
#include <cstdlib>

#include "core/advisor.h"
#include "core/harness.h"
#include "util/table.h"
#include "workload/catalog.h"
#include "workload/spec.h"

int main(int argc, char** argv) {
  using namespace ldb;
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.05;

  // A 2-disk RAID0 group, one standalone disk, and a 10 GB SSD.
  std::vector<RigTargetDef> targets{{"raid0x2", 2}, {"disk", 1}};
  targets.push_back(RigTargetDef{"ssd", 1, true, 10 * kGiB});
  auto rig = ExperimentRig::Create(Catalog::TpcH(scale), targets, scale);
  if (!rig.ok()) {
    std::fprintf(stderr, "rig: %s\n", rig.status().ToString().c_str());
    return 1;
  }

  auto olap = MakeOlapSpec(rig->catalog(), 3, 8, 7);
  if (!olap.ok()) return 1;

  const Layout see = Layout::StripeEverythingEverywhere(
      rig->catalog().num_objects(), rig->num_targets());
  auto workloads = rig->FitWorkloads(see, &*olap, nullptr);
  if (!workloads.ok()) return 1;
  auto problem = rig->MakeProblem(std::move(workloads).value());
  if (!problem.ok()) return 1;

  LayoutAdvisor advisor;
  auto rec = advisor.Recommend(*problem);
  if (!rec.ok()) {
    std::fprintf(stderr, "advisor: %s\n", rec.status().ToString().c_str());
    return 1;
  }
  std::printf("Recommended layout (raid0x2 / disk / ssd):\n%s\n",
              rec->final_layout.ToString(rig->catalog().names()).c_str());

  auto see_run = rig->Execute(RunSpec(see), &*olap, nullptr);
  auto opt_run = rig->Execute(RunSpec(rec->final_layout), &*olap, nullptr);
  if (!see_run.ok() || !opt_run.ok()) return 1;

  TextTable table({"Layout", "Elapsed (s)", "raid0x2 util", "disk util",
                   "ssd util"});
  auto row = [&](const char* name, const RunResult& r) {
    table.AddRow({name, StrFormat("%.0f", r.elapsed_seconds),
                  StrFormat("%.0f%%", 100 * r.utilization[0]),
                  StrFormat("%.0f%%", 100 * r.utilization[1]),
                  StrFormat("%.0f%%", 100 * r.utilization[2])});
  };
  row("SEE", see_run->run);
  row("Optimized", opt_run->run);
  std::printf("%s\nSpeedup: %.2fx\n", table.ToString().c_str(),
              see_run->run.elapsed_seconds / opt_run->run.elapsed_seconds);
  return 0;
}
