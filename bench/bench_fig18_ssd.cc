// Reproduces paper Figure 18: OLAP8-63 on the four disks plus an SSD whose
// capacity is varied (32 / 10 / 6 / 4 GB pre-scaling) — SEE, an
// all-objects-on-SSD baseline (where capacity permits), and the advisor's
// optimized layout.
//
// Paper numbers (seconds): SEE 12145 (32 GB only); SSD-only 6742;
// optimized 6182 / 6354 / 6234 / 8529. Shapes to reproduce: SEE performs
// poorly with a fast+slow mix; the optimized layout beats even SSD-only by
// using disks *and* SSD; with an SSD too small to hold everything the
// advisor still exploits it (the 4 GB case beats the disk-only optimized
// time).

#include <cstdio>

#include "bench/bench_common.h"
#include "util/table.h"

using namespace ldb;
using namespace ldb::bench;

int main(int argc, char** argv) {
  const BenchEnv env = ParseBenchEnv(argc, argv);
  PrintHeader("Figure 18", "four disks + SSD of varying capacity, OLAP8-63",
              env);

  TextTable table({"SSD capacity", "SEE (s)", "All-on-SSD (s)",
                   "Optimized (s)", "Speedup vs SEE"});
  JsonRows json;
  for (int64_t cap_gb : {32, 10, 6, 4}) {
    std::vector<RigTargetDef> targets{{"disk0"}, {"disk1"}, {"disk2"},
                                      {"disk3"}};
    targets.push_back(RigTargetDef{"ssd", 1, true, cap_gb * kGiB});
    auto rig = MakeRig(env, Catalog::TpcH(env.scale), targets);
    if (!rig.ok()) return 1;
    auto olap = MakeOlapSpec(rig->catalog(), 3, 8, env.seed);
    if (!olap.ok()) return 1;

    auto advised = AdviseForWorkload(*rig, &*olap, nullptr);
    if (!advised.ok()) {
      std::fprintf(stderr, "advisor (%lldGB): %s\n",
                   static_cast<long long>(cap_gb),
                   advised.status().ToString().c_str());
      return 1;
    }
    auto opt_run =
        rig->Execute(RunSpec(advised->result.final_layout), &*olap, nullptr);
    if (!opt_run.ok()) return 1;

    // SEE needs every target to hold 1/5 of every object — infeasible for
    // the small SSDs, as in the paper (Figure 18 reports SEE only at 32GB).
    std::string see_cell = "n/a (capacity)";
    double see_elapsed = -1;
    const Layout see = SeeLayout(*rig);
    if (see.SatisfiesCapacity(advised->problem.object_sizes,
                              advised->problem.capacities())) {
      auto run = rig->Execute(RunSpec(see), &*olap, nullptr);
      if (run.ok()) {
        see_elapsed = run->run.elapsed_seconds;
        see_cell = StrFormat("%.0f", see_elapsed);
      }
    }
    std::string ssd_cell = "n/a (capacity)";
    double ssd_elapsed = -1;
    auto ssd_only = AllOnOneTargetBaseline(advised->problem, 4);
    if (ssd_only.ok()) {
      auto run = rig->Execute(RunSpec(*ssd_only), &*olap, nullptr);
      if (run.ok()) {
        ssd_elapsed = run->run.elapsed_seconds;
        ssd_cell = StrFormat("%.0f", ssd_elapsed);
      }
    }
    table.AddRow({StrFormat("%lld GB", static_cast<long long>(cap_gb)),
                  see_cell, ssd_cell,
                  StrFormat("%.0f", opt_run->run.elapsed_seconds),
                  see_elapsed > 0
                      ? StrFormat("%.2fx",
                                  see_elapsed / opt_run->run.elapsed_seconds)
                      : std::string("-")});
    if (env.json) {
      json.BeginRow();
      json.Field("ssd_capacity_gb", cap_gb);
      json.Field("see_seconds", see_elapsed);
      json.Field("ssd_only_seconds", ssd_elapsed);
      json.Field("optimized_seconds", opt_run->run.elapsed_seconds);
      json.Field("speedup", see_elapsed > 0
                                ? see_elapsed / opt_run->run.elapsed_seconds
                                : -1.0);
      json.Field("advisor_seconds", advised->result.total_seconds());
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Paper shapes: SEE poor on the fast+slow mix; optimized <= SSD-only "
      "at 32GB; even a small SSD yields a large boost over disk-only.\n");
  if (env.json && !json.WriteTo(env.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", env.json_path.c_str());
    return 1;
  }
  return 0;
}
