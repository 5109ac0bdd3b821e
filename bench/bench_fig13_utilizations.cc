// Reproduces paper Figure 13: estimated storage-target utilizations (µ_j)
// at each stage of the advisor's execution — under the SEE baseline, the
// heuristic initial layout, the NLP solver's layout, and the final
// regularized layout — for OLAP1-63 and OLAP8-63.
//
// Paper shape to reproduce: SEE utilizations are flat but high (~67% for
// OLAP1-63); the initial layouts are unbalanced; the solver's layouts are
// balanced and lower; regularization stays close to the solver.

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "util/table.h"

using namespace ldb;
using namespace ldb::bench;

int main(int argc, char** argv) {
  const BenchEnv env = ParseBenchEnv(argc, argv);
  PrintHeader("Figure 13",
              "estimated utilizations at each advisor stage", env);

  auto rig = FourDiskTpchRig(env);
  if (!rig.ok()) return 1;

  bool all_ok = true;
  for (int concurrency : {1, 8}) {
    auto olap = MakeOlapSpec(rig->catalog(), 3, concurrency, env.seed);
    if (!olap.ok()) return 1;
    auto advised = AdviseForWorkload(*rig, &*olap, nullptr);
    if (!advised.ok()) return 1;
    const TargetModel model = advised->problem.MakeTargetModel();
    const auto see_mu =
        model.Utilizations(advised->problem.workloads, SeeLayout(*rig));

    std::printf("%s:\n", olap->name.c_str());
    TextTable table({"Stage", "T0", "T1", "T2", "T3", "max"});
    auto add = [&table](const char* stage, const std::vector<double>& mu) {
      std::vector<std::string> row{stage};
      for (double m : mu) row.push_back(StrFormat("%.1f%%", 100 * m));
      row.push_back(StrFormat("%.1f%%",
                              100 * *std::max_element(mu.begin(), mu.end())));
      table.AddRow(std::move(row));
    };
    add("SEE baseline", see_mu);
    add("initial layout", advised->result.utilization_initial);
    add("NLP solver", advised->result.utilization_solver);
    add("regularized", advised->result.utilization_final);
    std::printf("%s\n", table.ToString().c_str());

    const double spread_initial =
        *std::max_element(advised->result.utilization_initial.begin(),
                          advised->result.utilization_initial.end()) -
        *std::min_element(advised->result.utilization_initial.begin(),
                          advised->result.utilization_initial.end());
    const double spread_solver =
        *std::max_element(advised->result.utilization_solver.begin(),
                          advised->result.utilization_solver.end()) -
        *std::min_element(advised->result.utilization_solver.begin(),
                          advised->result.utilization_solver.end());
    // Holds for both workloads at every seed tried; a miss fails the run.
    const bool balances = spread_solver < spread_initial;
    all_ok = all_ok && balances;
    std::printf(
        "  initial layout imbalance %.1f%% vs solver %.1f%% %s\n\n",
        100 * spread_initial, 100 * spread_solver,
        balances ? "[ok: solver balances the unbalanced seed]" : "[MISS]");
  }
  return all_ok ? 0 : 1;
}
