// Consolidation: two database instances (an OLAP TPC-H and an OLTP TPC-C)
// share the same four disks, and the advisor lays out all 40 objects at
// once (paper Section 6.3).
//
// Demonstrates multi-database layout problems and the mixed OLAP+OLTP
// execution protocol (OLTP terminals run until the OLAP workload
// completes; throughput is reported as transactions/minute).
//
// Usage: consolidation [scale]   (default 0.05)

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

  // One catalog holding both databases; TPC-C objects get a C_ prefix.
  Catalog merged = Catalog::Merge(Catalog::TpcH(scale), Catalog::TpcC(scale),
                                  "", "C_");
  auto rig = ExperimentRig::Create(
      merged, {{"disk0"}, {"disk1"}, {"disk2"}, {"disk3"}}, scale);
  if (!rig.ok()) return 1;

  auto olap = MakeOlapSpec(rig->catalog(), /*copies=*/1, /*concurrency=*/1,
                           /*shuffle_seed=*/7);
  auto oltp = MakeOltpSpec(rig->catalog(), "C_", /*terminals=*/9,
                           /*warmup_s=*/5.0);
  if (!olap.ok() || !oltp.ok()) return 1;
  std::printf("Laying out %d objects from two databases (%s + %s)\n",
              merged.num_objects(), olap->name.c_str(), oltp->name.c_str());

  const Layout see = Layout::StripeEverythingEverywhere(
      merged.num_objects(), rig->num_targets());
  auto workloads = rig->FitWorkloads(see, &*olap, &*oltp);
  if (!workloads.ok()) return 1;
  auto problem = rig->MakeProblem(std::move(workloads).value());
  if (!problem.ok()) return 1;

  LayoutAdvisor advisor;
  auto rec = advisor.Recommend(*problem);
  if (!rec.ok()) return 1;

  auto see_run = rig->Execute(RunSpec(see), &*olap, &*oltp);
  auto opt_run = rig->Execute(RunSpec(rec->final_layout), &*olap, &*oltp);
  if (!see_run.ok() || !opt_run.ok()) return 1;

  TextTable table({"Layout", "OLAP elapsed (s)", "OLTP (tpm)"});
  table.AddRow({"SEE", StrFormat("%.0f", see_run->run.elapsed_seconds),
                StrFormat("%.0f", see_run->run.tpm)});
  table.AddRow({"Optimized", StrFormat("%.0f", opt_run->run.elapsed_seconds),
                StrFormat("%.0f", opt_run->run.tpm)});
  std::printf("%s\n", table.ToString().c_str());
  std::printf("OLAP speedup %.2fx; OLTP throughput ratio %.2fx\n",
              see_run->run.elapsed_seconds / opt_run->run.elapsed_seconds,
              opt_run->run.tpm / see_run->run.tpm);
  return 0;
}
