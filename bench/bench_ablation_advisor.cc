// Ablation study of the layout advisor's design choices (the decisions
// DESIGN.md calls out): seed choice, multi-start, smooth-max annealing,
// regularizer refinement, and the regularizer's balancing candidates.
//
// Paper connections:
//  * "SEE seed" tests the paper's observation (Section 4.2) that SEE is a
//    local optimum the solver struggles to escape — expect little or no
//    improvement from that seed;
//  * "no balancing candidates" ablates the second candidate class of
//    Section 4.3, whose purpose is correcting regularization imbalance.

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include <chrono>

#include "core/initial.h"
#include "solver/projected_gradient.h"
#include "solver/randomized.h"
#include "util/table.h"
#include "workload/estimator.h"

using namespace ldb;
using namespace ldb::bench;

int main(int argc, char** argv) {
  const BenchEnv env = ParseBenchEnv(argc, argv);
  PrintHeader("Ablation", "advisor design choices, OLAP1-63 problem", env);

  auto rig = FourDiskTpchRig(env);
  if (!rig.ok()) return 1;
  auto olap = MakeOlapSpec(rig->catalog(), 3, 1, env.seed);
  if (!olap.ok()) return 1;
  auto workloads = rig->FitWorkloads(SeeLayout(*rig), &*olap, nullptr);
  if (!workloads.ok()) return 1;
  auto problem = rig->MakeProblem(std::move(workloads).value());
  if (!problem.ok()) return 1;
  const TargetModel model = problem->MakeTargetModel();
  const double see_mu =
      model.MaxUtilization(problem->workloads, SeeLayout(*rig));

  TextTable table({"Variant", "Est. max util", "Measured (s)",
                   "Advisor time (s)"});
  auto run_variant = [&](const char* name, AdvisorOptions options,
                         const Layout* forced_seed) {
    LayoutAdvisor advisor(options);
    Result<AdvisorResult> rec = Status::Internal("unset");
    if (forced_seed == nullptr) {
      rec = advisor.Recommend(*problem);
    } else {
      // Bypass the heuristic seed: run the bare solver + regularizer.
      const LayoutNlpProblem nlp = problem->MakeNlp(&model);
      ProjectedGradientSolver solver(options.solver);
      auto solved = solver.Solve(nlp, *forced_seed);
      if (!solved.ok()) {
        std::fprintf(stderr, "%s: %s\n", name,
                     solved.status().ToString().c_str());
        return;
      }
      AdvisorResult result;
      Regularizer regularizer(&*problem, &model, options.regularizer);
      auto regular = regularizer.Regularize(solved->layout);
      if (!regular.ok()) return;
      result.final_layout = std::move(regular).value();
      result.utilization_final =
          model.Utilizations(problem->workloads, result.final_layout);
      result.max_utilization_final =
          *std::max_element(result.utilization_final.begin(),
                            result.utilization_final.end());
      rec = std::move(result);
    }
    if (!rec.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", name,
                   rec.status().ToString().c_str());
      return;
    }
    auto run = rig->Execute(RunSpec(rec->final_layout), &*olap, nullptr);
    if (!run.ok()) return;
    table.AddRow({name,
                  StrFormat("%.1f%%", 100 * rec->max_utilization_final),
                  StrFormat("%.0f", run->run.elapsed_seconds),
                  StrFormat("%.2f", rec->total_seconds())});
  };

  auto see_run = rig->Execute(RunSpec(SeeLayout(*rig)), &*olap, nullptr);
  if (!see_run.ok()) return 1;
  table.AddRow({"SEE baseline (no advisor)",
                StrFormat("%.1f%%", 100 * see_mu),
                StrFormat("%.0f", see_run->run.elapsed_seconds), "-"});

  run_variant("full advisor (default)", AdvisorOptions{}, nullptr);

  AdvisorOptions no_multistart;
  no_multistart.extra_random_seeds = 0;
  run_variant("single seed (no multi-start)", no_multistart, nullptr);

  AdvisorOptions no_anneal;
  no_anneal.solver.smoothmax_t0 = 2000.0;
  no_anneal.solver.smoothmax_growth = 1.0;
  run_variant("no smooth-max annealing", no_anneal, nullptr);

  AdvisorOptions no_refine;
  no_refine.regularizer.refinement_passes = 0;
  run_variant("regularizer: no refinement", no_refine, nullptr);

  AdvisorOptions no_balance;
  no_balance.regularizer.balancing_candidates = false;
  run_variant("regularizer: consistent candidates only", no_balance,
              nullptr);

  const Layout see_seed = SeeLayout(*rig);
  run_variant("solver seeded at SEE (paper's local-optimum trap)",
              AdvisorOptions{}, &see_seed);

  // Alternative solver (paper Section 7): DAD-style randomized search
  // over regular layouts, no regularization step needed.
  {
    const TargetModel rnd_model = problem->MakeTargetModel();
    const LayoutNlpProblem nlp = problem->MakeNlp(&rnd_model);
    auto seed = InitialLayout(*problem);
    if (seed.ok()) {
      const auto t0 = std::chrono::steady_clock::now();
      RandomizedSearchSolver rnd;
      auto r = rnd.Solve(nlp, *seed);
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      if (r.ok()) {
        auto run = rig->Execute(RunSpec(r->layout), &*olap, nullptr);
        if (run.ok()) {
          table.AddRow({"randomized search (DAD-style, Sec. 7)",
                        StrFormat("%.1f%%", 100 * r->max_utilization),
                        StrFormat("%.0f", run->run.elapsed_seconds),
                        StrFormat("%.2f", secs)});
        }
      }
    }
  }

  // Input-path ablation: estimator-derived workload descriptions instead
  // of trace-fitted ones (paper Section 5.1: convenient but less
  // accurate).
  {
    auto est = EstimateWorkloads(rig->catalog(), &*olap, nullptr);
    if (est.ok()) {
      auto est_problem = rig->MakeProblem(std::move(est).value());
      if (est_problem.ok()) {
        LayoutAdvisor advisor;
        auto rec = advisor.Recommend(*est_problem);
        if (rec.ok()) {
          auto run = rig->Execute(RunSpec(rec->final_layout), &*olap, nullptr);
          if (run.ok()) {
            // Estimated utilization is not comparable across workload
            // inputs; report the measured time only.
            table.AddRow({"estimator-driven workloads (no tracing)", "-",
                          StrFormat("%.0f", run->run.elapsed_seconds),
                          StrFormat("%.2f", rec->total_seconds())});
          }
        }
      }
    }
  }

  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Expected: the full advisor leads; the SEE seed barely improves on "
      "SEE (a symmetric local optimum); dropping refinement or balancing "
      "candidates costs quality.\n");
  return 0;
}
