// Reproduces paper Figure 12: the advisor-recommended layout for the
// OLAP8-63 workload (eight concurrent queries), most heavily requested
// objects first.
//
// Paper shape to reproduce: unlike the OLAP1-63 layout (Figure 1),
// LINEITEM is *not* completely isolated — query concurrency makes its
// workload less sequential, lowering the penalty for interference — and
// the optimizer instead distributes I_L_ORDERKEY and TEMP SPACE across
// targets to balance load.

#include <cstdio>

#include "bench/bench_common.h"

using namespace ldb;
using namespace ldb::bench;

int main(int argc, char** argv) {
  const BenchEnv env = ParseBenchEnv(argc, argv);
  PrintHeader("Figure 12", "optimized layout for OLAP8-63", env);

  auto rig = FourDiskTpchRig(env);
  if (!rig.ok()) return 1;
  auto olap8 = MakeOlapSpec(rig->catalog(), 3, 8, env.seed);
  auto olap1 = MakeOlapSpec(rig->catalog(), 3, 1, env.seed);
  if (!olap8.ok() || !olap1.ok()) return 1;

  auto advised8 = AdviseForWorkload(*rig, &*olap8, nullptr);
  auto advised1 = AdviseForWorkload(*rig, &*olap1, nullptr);
  if (!advised8.ok() || !advised1.ok()) return 1;

  std::printf("Optimized layout for OLAP8-63:\n%s\n",
              TopObjectsLayoutString(advised8->problem,
                                     advised8->result.final_layout, 8)
                  .c_str());

  // The concurrency effect the paper calls out: LINEITEM's fitted run
  // count (sequentiality) is lower under OLAP8-63 than under OLAP1-63.
  int li = -1;
  for (int i = 0; i < advised8->problem.num_objects(); ++i) {
    if (advised8->problem.object_names[static_cast<size_t>(i)] ==
        "LINEITEM") {
      li = i;
    }
  }
  const double run8 =
      advised8->problem.workloads[static_cast<size_t>(li)].run_count;
  const double run1 =
      advised1->problem.workloads[static_cast<size_t>(li)].run_count;
  // Holds at every seed tried; a miss fails the run.
  const bool less_sequential = run8 < run1;
  std::printf(
      "LINEITEM fitted run count: %.0f under OLAP1-63 vs %.0f under "
      "OLAP8-63 %s\n",
      run1, run8,
      less_sequential
          ? "[ok: less sequential under concurrency, as in paper]"
          : "[MISS]");
  const size_t li_targets = static_cast<size_t>(
      advised8->result.final_layout.TargetsOf(li).size());
  std::printf("LINEITEM spread over %zu targets (paper: not isolated).\n",
              li_targets);
  return less_sequential ? 0 : 1;
}
