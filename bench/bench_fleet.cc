// Fleet-scale sweep of the flat advisor solve: the projected-gradient
// solver from the initial layout as the problem grows to O(10k) objects on
// O(100) targets. Sparse CSR overlap rows keep every column evaluation
// O(nnz), so no row needs a dense N x N overlap matrix (800 MB at N=10k).
//
// Workloads are synthetic multi-tenant fleets built directly in the sparse
// CSR overlap form: objects cluster into tenants of ~8 that co-access each
// other heavily, plus a few weak cross-tenant links, with heavy-tailed
// request rates. Rates are scaled by 0.9 * M / N so the offered load per
// target is the same at every row and the solved layouts stay inside the
// calibrated contention grid (at N/M = 10 this is perfbench fleet_replan's
// rate scale, ~29% max utilization).
//
// Reported per row: N, M, solve seconds, max utilization and capacity
// feasibility. Rows with N <= 1000 also re-solve at solver threads {1, 2}
// and check that the layout and max utilization are bit-identical. Gate:
// every row feasible with max utilization < 1, and every checked row
// thread-invariant; a miss fails the binary.
//
// Flags beyond the common bench set:
//   --row=<substr>     run only rows whose name (e.g. "n4000m100")
//                      contains <substr>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/initial.h"
#include "model/calibration.h"
#include "solver/projected_gradient.h"
#include "storage/disk.h"
#include "util/random.h"
#include "util/table.h"
#include "util/units.h"

using namespace ldb;
using namespace ldb::bench;

namespace {

/// Synthetic multi-tenant fleet problem with sparse-only overlap rows.
LayoutProblem MakeFleetProblem(int n, int m, const CostModel* cost_model,
                               uint64_t seed) {
  constexpr int kTenantSize = 8;
  const double rate_scale = 0.9 * m / n;
  Rng rng(MixSeed(seed, static_cast<uint64_t>(n) * 1000 +
                            static_cast<uint64_t>(m)));
  LayoutProblem p;
  p.object_names.reserve(static_cast<size_t>(n));
  p.object_sizes.reserve(static_cast<size_t>(n));
  p.object_kinds.reserve(static_cast<size_t>(n));
  p.workloads.reserve(static_cast<size_t>(n));
  int64_t total_bytes = 0;
  for (int i = 0; i < n; ++i) {
    p.object_names.push_back(StrFormat("obj%d", i));
    const int64_t size = rng.UniformInt(int64_t{64}, int64_t{512}) * kMiB;
    p.object_sizes.push_back(size);
    total_bytes += size;
    p.object_kinds.push_back(ObjectKind::kTable);

    WorkloadDesc w;
    // Heavy-tailed rates: most objects are cool, a few dominate.
    const double heat = rng.Uniform();
    w.read_rate = rate_scale * (2.0 + 400.0 * heat * heat * heat);
    w.read_size = 64 * kKiB;
    w.write_rate = w.read_rate * rng.Uniform(0.0, 0.25);
    w.write_size = 64 * kKiB;
    w.run_count = rng.Uniform(1.0, 32.0);
    // Sparse overlap row: the whole tenant, the diagonal, and one or two
    // weak cross-tenant links.
    std::vector<std::pair<int, double>> entries;
    const int tenant = i / kTenantSize;
    const int lo = tenant * kTenantSize;
    const int hi = std::min(n, lo + kTenantSize);
    for (int k = lo; k < hi; ++k) {
      if (k == i) continue;
      entries.emplace_back(k, rng.Uniform(0.05, 0.6));
    }
    entries.emplace_back(i, rng.Uniform(0.0, 1.5));  // self-overlap
    const int cross_links = static_cast<int>(rng.UniformInt(uint64_t{3}));
    for (int c = 0; c < cross_links; ++c) {
      const int k = static_cast<int>(
          rng.UniformInt(int64_t{0}, static_cast<int64_t>(n) - 1));
      if (k >= lo && k < hi) continue;
      entries.emplace_back(k, rng.Uniform(0.01, 0.1));
    }
    std::sort(entries.begin(), entries.end());
    for (const auto& [k, v] : entries) {
      if (!w.overlap_index.empty() && w.overlap_index.back() == k) continue;
      w.overlap_index.push_back(static_cast<int32_t>(k));
      w.overlap_value.push_back(v);
    }
    p.workloads.push_back(std::move(w));
  }
  const int64_t capacity = total_bytes * 8 / (5 * m) + kMiB;  // 1.6x total
  for (int j = 0; j < m; ++j) {
    AdvisorTarget t;
    t.name = StrFormat("disk%d", j);
    t.capacity_bytes = capacity;
    t.cost_model = cost_model;
    p.targets.push_back(std::move(t));
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = ParseBenchEnv(argc, argv);
  std::string row_filter;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--row=", 6) == 0) row_filter = argv[a] + 6;
  }
  PrintHeader("Fleet", "flat solve at fleet scale (sparse CSR rows)", env);

  DiskModel disk(Scsi15kParams());
  auto cm = CalibrateDeviceCached(disk, RigCalibration(env));
  if (!cm.ok()) {
    std::fprintf(stderr, "calibration: %s\n",
                 cm.status().ToString().c_str());
    return 1;
  }

  struct Row {
    int n;
    int m;
  };
  const Row rows[] = {{160, 10},  {1000, 10},  {1000, 40},
                      {4000, 40}, {4000, 100}, {10000, 100}};

  TextTable table(
      {"Row", "N", "M", "Solve (s)", "Max-u", "Feasible", "Invariant"});
  JsonRows json;
  bool ok = true;
  for (const Row& row : rows) {
    const std::string name = StrFormat("n%dm%d", row.n, row.m);
    if (!row_filter.empty() && name.find(row_filter) == std::string::npos) {
      continue;
    }
    const LayoutProblem problem =
        MakeFleetProblem(row.n, row.m, &*cm, env.seed);
    const TargetModel model = problem.MakeTargetModel();
    const LayoutNlpProblem nlp = problem.MakeNlp(&model);
    auto init = InitialLayout(problem);
    if (!init.ok()) {
      std::fprintf(stderr, "initial layout (%s): %s\n", name.c_str(),
                   init.status().ToString().c_str());
      return 1;
    }
    const auto solve = [&](int threads) {
      SolverOptions options;
      options.num_threads = threads;
      return ProjectedGradientSolver(options).Solve(nlp, *init);
    };

    const auto t0 = std::chrono::steady_clock::now();
    auto sr = solve(env.num_threads);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (!sr.ok()) {
      std::fprintf(stderr, "flat solve (%s): %s\n", name.c_str(),
                   sr.status().ToString().c_str());
      return 1;
    }
    const bool in_domain = sr->feasible && sr->max_utilization < 1.0;

    // Thread-count invariance on the small rows: exactly the same layout
    // at 1 and 2 solver threads.
    const bool invariance_checked = row.n <= 1000;
    bool invariant = true;
    if (invariance_checked) {
      for (const int threads : {1, 2}) {
        auto alt = solve(threads);
        if (!alt.ok() || !(alt->layout == sr->layout) ||
            alt->max_utilization != sr->max_utilization) {
          invariant = false;
        }
      }
    }
    ok = ok && in_domain && invariant;

    table.AddRow({name, StrFormat("%d", row.n), StrFormat("%d", row.m),
                  StrFormat("%.2f", seconds),
                  StrFormat("%.4f", sr->max_utilization),
                  sr->feasible ? "yes" : "NO",
                  invariance_checked ? (invariant ? "yes" : "MISMATCH")
                                     : std::string("-")});
    if (env.json) {
      json.BeginRow();
      json.Field("row", name);
      json.Field("n", row.n);
      json.Field("m", row.m);
      json.Field("solve_seconds", seconds);
      json.Field("max_utilization", sr->max_utilization);
      json.Field("feasible", sr->feasible);
      if (invariance_checked) json.Field("thread_invariant", invariant);
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Gate: every layout feasible with max-u < 1; rows with N <= 1000 "
      "identical across solver threads {1, 2} %s\n",
      ok ? "[ok]" : "[FAIL]");
  if (env.json && !json.WriteTo(env.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", env.json_path.c_str());
    return 1;
  }
  return ok ? 0 : 1;
}
