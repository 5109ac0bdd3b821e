// Reproduces paper Figure 11: workload execution times under the SEE
// baseline and the advisor's optimized layout on four identical disks, for
// OLAP1-63 and OLAP8-63.
//
// Paper numbers: OLAP1-63 40927s -> 31879s (1.28x); OLAP8-63 16201s ->
// 13608s (1.19x). Shape to reproduce: the optimized layout wins on both,
// with a larger gain at concurrency 1 than at concurrency 8.

#include <cstdio>

#include "bench/bench_common.h"
#include "util/table.h"

using namespace ldb;
using namespace ldb::bench;

int main(int argc, char** argv) {
  const BenchEnv env = ParseBenchEnv(argc, argv);
  PrintHeader("Figure 11",
              "SEE vs optimized execution times, homogeneous targets", env);

  auto rig = FourDiskTpchRig(env);
  if (!rig.ok()) return 1;

  TextTable table({"Workload", "SEE (s)", "Optimized (s)", "Speedup",
                   "Paper speedup"});
  JsonRows json;
  struct Row {
    int concurrency;
    const char* paper;
    double paper_speedup;
  };
  for (const Row& r : {Row{1, "1.28x", 1.28}, Row{8, "1.19x", 1.19}}) {
    auto olap = MakeOlapSpec(rig->catalog(), 3, r.concurrency, env.seed);
    if (!olap.ok()) return 1;
    auto advised = AdviseForWorkload(*rig, &*olap, nullptr);
    if (!advised.ok()) {
      std::fprintf(stderr, "advisor: %s\n",
                   advised.status().ToString().c_str());
      return 1;
    }
    auto see_run = rig->Execute(RunSpec(SeeLayout(*rig)), &*olap, nullptr);
    auto opt_run =
        rig->Execute(RunSpec(advised->result.final_layout), &*olap, nullptr);
    if (!see_run.ok() || !opt_run.ok()) return 1;
    const double speedup =
        see_run->run.elapsed_seconds / opt_run->run.elapsed_seconds;
    table.AddRow({olap->name,
                  StrFormat("%.0f", see_run->run.elapsed_seconds),
                  StrFormat("%.0f", opt_run->run.elapsed_seconds),
                  StrFormat("%.2fx", speedup), r.paper});
    if (env.json) {
      json.BeginRow();
      json.Field("workload", olap->name);
      json.Field("concurrency", r.concurrency);
      json.Field("see_seconds", see_run->run.elapsed_seconds);
      json.Field("optimized_seconds", opt_run->run.elapsed_seconds);
      json.Field("speedup", speedup);
      json.Field("paper_speedup", r.paper_speedup);
      json.Field("advisor_seconds", advised->result.total_seconds());
    }
  }
  std::printf("%s", table.ToString().c_str());
  if (env.json && !json.WriteTo(env.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", env.json_path.c_str());
    return 1;
  }
  return 0;
}
