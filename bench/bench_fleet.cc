// Fleet-scale advisor benchmark: the hierarchical FleetSolver against the
// flat projected-gradient solver as the problem grows to O(10k) objects on
// O(100) targets — the scale where the flat NLP's dense interference rows
// stop fitting in cache (a dense overlap matrix at N=10k is 800 MB) and
// its per-iteration cost collapses.
//
// Workloads are synthetic multi-tenant fleets built directly in the sparse
// CSR overlap form: objects cluster into tenants of ~8 that co-access each
// other heavily, plus a few weak cross-tenant links, with heavy-tailed
// request rates. That is the regime the sharded solve exploits — the
// co-access graph is nearly block-diagonal, so clustering recovers the
// tenants and the disjoint-target decomposition is near-exact.
//
// Reported per row: shard count, fleet solve time (split into cluster /
// shard-solve / coordination phases), flat solve time, final max
// utilizations, and the quality ratio fleet/flat. The flat solver is
// skipped above --flat-cutoff objects (default 1200), where it takes
// minutes. Rows with N <= 1000 additionally check that the fleet result is
// bit-identical across solver thread counts {1, 2}; any mismatch or an
// infeasible fleet layout fails the binary.
//
// Flags beyond the common bench set:
//   --row=<substr>     run only rows whose name (e.g. "n4000m100")
//                      contains <substr>
//   --flat-cutoff=<n>  largest N for which the flat solver runs

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/fleet.h"
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

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Synthetic multi-tenant fleet problem with sparse-only overlap rows.
LayoutProblem MakeFleetProblem(int n, int m, const CostModel* cost_model,
                               uint64_t seed) {
  constexpr int kTenantSize = 8;
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
    w.read_rate = 2.0 + 400.0 * heat * heat * heat;
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
  int flat_cutoff = 1200;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--row=", 6) == 0) {
      row_filter = argv[a] + 6;
    } else if (std::strncmp(argv[a], "--flat-cutoff=", 14) == 0) {
      flat_cutoff = std::atoi(argv[a] + 14);
    }
  }
  PrintHeader("Fleet", "hierarchical vs flat solve at fleet scale", env);

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

  FleetOptions fleet_opts;
  fleet_opts.num_threads = env.num_threads;
  fleet_opts.seed = env.seed;
  SolverOptions flat_opts;
  flat_opts.num_threads = env.num_threads;

  TextTable table({"Row", "N", "M", "Shards", "Fleet (s)", "cluster",
                   "shards", "coord", "Fleet max-u", "Flat (s)",
                   "Flat max-u", "Quality", "Invariant"});
  JsonRows json;
  bool ok = true;
  for (const Row& row : rows) {
    const std::string name = StrFormat("n%dm%d", row.n, row.m);
    if (!row_filter.empty() && name.find(row_filter) == std::string::npos) {
      continue;
    }
    const LayoutProblem problem =
        MakeFleetProblem(row.n, row.m, &*cm, env.seed);

    auto t0 = std::chrono::steady_clock::now();
    const FleetSolver fleet(fleet_opts);
    auto fr = fleet.Solve(problem);
    const double fleet_seconds = SecondsSince(t0);
    if (!fr.ok()) {
      std::fprintf(stderr, "fleet solve (%s): %s\n", name.c_str(),
                   fr.status().ToString().c_str());
      return 1;
    }
    if (!fr->feasible) {
      std::fprintf(stderr, "fleet solve (%s): layout not feasible\n",
                   name.c_str());
      ok = false;
    }

    // Thread-count invariance on the small rows: exactly the same layout
    // at 1 and 2 solver threads.
    bool invariance_checked = false;
    bool invariant = true;
    if (row.n <= 1000) {
      invariance_checked = true;
      for (const int threads : {1, 2}) {
        FleetOptions alt = fleet_opts;
        alt.num_threads = threads;
        auto ar = FleetSolver(alt).Solve(problem);
        if (!ar.ok() || !(ar->layout == fr->layout) ||
            ar->max_utilization != fr->max_utilization) {
          invariant = false;
        }
      }
      ok = ok && invariant;
    }

    double flat_seconds = 0.0;
    double flat_max = 0.0;
    bool flat_ran = false;
    if (row.n <= flat_cutoff) {
      const TargetModel model = problem.MakeTargetModel();
      const LayoutNlpProblem nlp = problem.MakeNlp(&model);
      auto init = InitialLayout(problem);
      if (init.ok()) {
        t0 = std::chrono::steady_clock::now();
        auto sr = ProjectedGradientSolver(flat_opts).Solve(nlp, *init);
        flat_seconds = SecondsSince(t0);
        if (sr.ok()) {
          flat_ran = true;
          flat_max = sr->max_utilization;
        }
      }
    }
    const double quality =
        flat_ran && flat_max > 0.0 ? fr->max_utilization / flat_max : 0.0;

    table.AddRow(
        {name, StrFormat("%d", row.n), StrFormat("%d", row.m),
         StrFormat("%zu", fr->shards.size()),
         StrFormat("%.2f", fleet_seconds),
         StrFormat("%.2f", fr->cluster_seconds),
         StrFormat("%.2f", fr->shard_solve_seconds),
         StrFormat("%.2f", fr->coordination_seconds),
         StrFormat("%.4f", fr->max_utilization),
         flat_ran ? StrFormat("%.2f", flat_seconds) : std::string("-"),
         flat_ran ? StrFormat("%.4f", flat_max) : std::string("-"),
         flat_ran ? StrFormat("%.3f", quality) : std::string("-"),
         invariance_checked ? (invariant ? "yes" : "MISMATCH")
                            : std::string("-")});
    if (env.json) {
      json.BeginRow();
      json.Field("row", name);
      json.Field("n", row.n);
      json.Field("m", row.m);
      json.Field("shards", static_cast<int64_t>(fr->shards.size()));
      json.Field("fleet_seconds", fleet_seconds);
      json.Field("cluster_seconds", fr->cluster_seconds);
      json.Field("shard_solve_seconds", fr->shard_solve_seconds);
      json.Field("coordination_seconds", fr->coordination_seconds);
      json.Field("fleet_max_utilization", fr->max_utilization);
      json.Field("coordination_rounds", fr->coordination_rounds);
      json.Field("accepted_moves", fr->accepted_moves);
      json.Field("feasible", fr->feasible);
      json.Field("flat_ran", flat_ran);
      json.Field("flat_seconds", flat_seconds);
      json.Field("flat_max_utilization", flat_max);
      json.Field("quality_vs_flat", quality);
      json.Field("thread_invariant", invariance_checked ? invariant : true);
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Quality = fleet max-u / flat max-u where both run (lower is better; "
      "reported, not gated)\n");
  std::printf(
      "Gate: every fleet layout feasible; rows with N <= 1000 identical "
      "across solver threads {1, 2} %s\n",
      ok ? "[ok]" : "[FAIL]");
  if (env.json && !json.WriteTo(env.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", env.json_path.c_str());
    return 1;
  }
  return ok ? 0 : 1;
}
