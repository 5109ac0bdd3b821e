#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/initial.h"
#include "core/problem.h"
#include "core/replan.h"
#include "model/cost_model.h"
#include "model/target_model.h"
#include "model/workload.h"
#include "solver/layout_nlp.h"
#include "solver/multistart.h"
#include "solver/projected_gradient.h"
#include "solver/randomized.h"
#include "solver/simplex.h"
#include "toy_nlp.h"
#include "util/check.h"
#include "util/random.h"
#include "util/units.h"

namespace ldb {
namespace {

// --------------------------------------------------------------- Simplex

TEST(SimplexTest, AlreadyOnSimplexUnchanged) {
  double v[3] = {0.2, 0.5, 0.3};
  ProjectToSimplex(v, 3);
  EXPECT_NEAR(v[0], 0.2, 1e-12);
  EXPECT_NEAR(v[1], 0.5, 1e-12);
  EXPECT_NEAR(v[2], 0.3, 1e-12);
}

TEST(SimplexTest, ProjectionSumsToRadius) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> v(5);
    for (auto& x : v) x = rng.Uniform(-2, 2);
    ProjectToSimplex(v.data(), v.size());
    double sum = 0;
    for (double x : v) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(SimplexTest, UniformShiftInvariance) {
  // Projection of v and v + c*1 are identical.
  double a[4] = {0.9, -0.3, 0.4, 0.1};
  double b[4] = {1.9, 0.7, 1.4, 1.1};
  ProjectToSimplex(a, 4);
  ProjectToSimplex(b, 4);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
}

TEST(SimplexTest, DominantCoordinateWins) {
  double v[3] = {10.0, 0.0, 0.0};
  ProjectToSimplex(v, 3);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(v[1], 0.0, 1e-12);
}

TEST(SimplexTest, ScaledRadius) {
  double v[2] = {3.0, 1.0};
  ProjectToSimplex(v, 2, 2.0);
  EXPECT_NEAR(v[0] + v[1], 2.0, 1e-12);
  EXPECT_GT(v[0], v[1]);
}

TEST(SimplexTest, ProjectionIsIdempotent) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> v(6), w;
    for (auto& x : v) x = rng.Uniform(-1, 3);
    ProjectToSimplex(v.data(), v.size());
    w = v;
    ProjectToSimplex(w.data(), w.size());
    for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(w[i], v[i], 1e-9);
  }
}

// -------------------------------------------------------------- SmoothMax

TEST(SmoothMaxTest, UpperBoundsMaxAndConverges) {
  const double v[3] = {0.2, 0.9, 0.5};
  EXPECT_GE(SmoothMax(v, 3, 10), 0.9);
  EXPECT_LE(SmoothMax(v, 3, 10), 0.9 + std::log(3.0) / 10);
  EXPECT_NEAR(SmoothMax(v, 3, 1000), 0.9, 1e-2);
  EXPECT_LT(SmoothMax(v, 3, 1000), SmoothMax(v, 3, 10));
}

TEST(SmoothMaxTest, StableForLargeValues) {
  const double v[2] = {1e6, 1e6 - 1};
  const double s = SmoothMax(v, 2, 50);
  EXPECT_TRUE(std::isfinite(s));
  EXPECT_NEAR(s, 1e6, 0.1);
}

// ---------------------------------------------------------------- Solver

TEST(SolverTest, RejectsMalformedProblems) {
  ProjectedGradientSolver solver;
  LayoutNlpProblem p = MakeLinearProblem({1, 2}, {1, 1});
  Layout init = Layout::StripeEverythingEverywhere(2, 2);
  p.make_column_eval = nullptr;
  EXPECT_FALSE(solver.Solve(p, init).ok());
  p = MakeLinearProblem({1, 2}, {1, 1});
  EXPECT_FALSE(
      solver.Solve(p, Layout::StripeEverythingEverywhere(3, 2)).ok());
  p.object_sizes[0] = 0;
  EXPECT_FALSE(solver.Solve(p, init).ok());
}

TEST(SolverTest, BalancesEqualObjectsOnEqualTargets) {
  ProjectedGradientSolver solver;
  LayoutNlpProblem p = MakeLinearProblem({10, 10}, {1, 1});
  // Seed everything on target 0: max µ = 20.
  Layout init(2, 2);
  init.SetRowRegular(0, {0});
  init.SetRowRegular(1, {0});
  auto r = solver.Solve(p, init);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->feasible);
  // Optimal max utilization is 10 (perfect balance).
  EXPECT_NEAR(r->max_utilization, 10.0, 0.3);
}

TEST(SolverTest, FasterTargetGetsMoreLoad) {
  ProjectedGradientSolver solver;
  LayoutNlpProblem p = MakeLinearProblem({12}, {1, 3});
  Layout init = Layout::StripeEverythingEverywhere(1, 2);
  auto r = solver.Solve(p, init);
  ASSERT_TRUE(r.ok());
  // Optimum: L = (1/4, 3/4), max µ = 3.
  EXPECT_NEAR(r->max_utilization, 3.0, 0.15);
  EXPECT_GT(r->layout.At(0, 1), 2 * r->layout.At(0, 0));
}

TEST(SolverTest, ImprovesOnUnbalancedSeed) {
  ProjectedGradientSolver solver;
  LayoutNlpProblem p = MakeLinearProblem({8, 4, 2, 1}, {1, 1, 1});
  Layout init(4, 3);
  for (int i = 0; i < 4; ++i) init.SetRowRegular(i, {0});
  const double seed_mu = 15.0;  // all on target 0
  auto r = solver.Solve(p, init);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->max_utilization, seed_mu / 2);
  EXPECT_NEAR(r->max_utilization, 5.0, 0.5);  // perfect balance = 5
  EXPECT_GT(r->iterations, 0);
  EXPECT_GT(r->objective_evaluations, 0);
}

TEST(SolverTest, RespectsCapacityConstraints) {
  // Two objects of 10 GiB each; target 0 can hold only 5 GiB total but is
  // much faster. Load balance wants everything on 0; capacity forbids it.
  ProjectedGradientSolver solver;
  LayoutNlpProblem p = MakeLinearProblem(
      {10, 10}, {10, 1}, {10 * kGiB, 10 * kGiB}, {5 * kGiB, 40 * kGiB});
  Layout init = Layout::StripeEverythingEverywhere(2, 2);
  auto r = solver.Solve(p, init);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->feasible);
  EXPECT_TRUE(
      r->layout.SatisfiesCapacity(p.object_sizes, p.target_capacities));
  // At most 5 GiB (25% of the 20 GiB total) fits on the fast target.
  const double on_fast = r->layout.At(0, 0) + r->layout.At(1, 0);
  EXPECT_LE(on_fast, 0.5 + 1e-6);
  EXPECT_GT(on_fast, 0.3);  // ...but the solver should use what it can
}

TEST(SolverTest, SolutionRowsStayOnSimplex) {
  ProjectedGradientSolver solver;
  LayoutNlpProblem p = MakeLinearProblem({5, 3, 2}, {1, 2});
  Rng rng(5);
  auto seeds = MultiStartSolver::RandomSeeds(p, 3, &rng);
  for (const Layout& seed : seeds) {
    auto r = solver.Solve(p, seed);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->layout.SatisfiesIntegrity(1e-6));
  }
}

TEST(SolverTest, InterferenceAwareObjectiveSeparatesObjects) {
  // µ_j = Σ load + heavy quadratic interaction between co-located
  // objects 0 and 1.
  LayoutNlpProblem p = MakeInterferenceProblem();
  ProjectedGradientSolver solver;
  // SEE is a symmetric saddle of this objective — the same trap the paper
  // reports for MINOS (Section 4.2), and why its advisor seeds the solver
  // with an asymmetric heuristic layout instead. Seed slightly off-balance.
  Layout seed(2, 2);
  seed.Set(0, 0, 0.6);
  seed.Set(0, 1, 0.4);
  seed.Set(1, 0, 0.4);
  seed.Set(1, 1, 0.6);
  auto r = solver.Solve(p, seed);
  ASSERT_TRUE(r.ok());
  // SEE gives µ = 0.3 + 0.5 = 0.8 on both targets; full separation gives
  // µ = 0.3. The solver must discover the separation.
  EXPECT_LT(r->max_utilization, 0.35);
  const double co0 = r->layout.At(0, 0) * r->layout.At(1, 0);
  const double co1 = r->layout.At(0, 1) * r->layout.At(1, 1);
  EXPECT_LT(co0 + co1, 0.05);
}

// ------------------------------------------------------------- MultiStart

TEST(MultiStartTest, RequiresSeeds) {
  MultiStartSolver solver;
  LayoutNlpProblem p = MakeLinearProblem({1}, {1});
  EXPECT_FALSE(solver.Solve(p, {}).ok());
}

TEST(MultiStartTest, PicksBestOfSeeds) {
  MultiStartSolver ms;
  // Non-convex-ish: interference makes "together" a local optimum trap when
  // seeded together.
  LayoutNlpProblem p = MakeLinearProblem({6, 6}, {1, 1});
  Layout bad(2, 2), good(2, 2);
  bad.SetRowRegular(0, {0});
  bad.SetRowRegular(1, {0});
  good.SetRowRegular(0, {0});
  good.SetRowRegular(1, {1});
  auto r = ms.Solve(p, {bad, good});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->max_utilization, 6.0, 0.3);
}

TEST(MultiStartTest, AccumulatesEffortCounters) {
  MultiStartSolver ms;
  LayoutNlpProblem p = MakeLinearProblem({3, 2}, {1, 1});
  Layout a = Layout::StripeEverythingEverywhere(2, 2);
  ProjectedGradientSolver single;
  auto one = single.Solve(p, a);
  auto two = ms.Solve(p, {a, a});
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  EXPECT_GE(two->objective_evaluations, 2 * one->objective_evaluations);
}

TEST(MultiStartTest, RandomSeedsAreValidSimplexRows) {
  LayoutNlpProblem p = MakeLinearProblem({1, 2, 3}, {1, 1, 1, 1});
  Rng rng(9);
  auto seeds = MultiStartSolver::RandomSeeds(p, 5, &rng);
  EXPECT_EQ(seeds.size(), 5u);
  for (const Layout& l : seeds) {
    EXPECT_EQ(l.num_objects(), 3);
    EXPECT_EQ(l.num_targets(), 4);
    EXPECT_TRUE(l.SatisfiesIntegrity(1e-9));
  }
}


// --------------------------------------------------- RandomizedSearch

TEST(RandomizedSearchTest, RejectsBadInputs) {
  RandomizedSearchSolver solver;
  LayoutNlpProblem p = MakeLinearProblem({1, 2}, {1, 1});
  Layout nonregular(2, 2);
  nonregular.Set(0, 0, 0.3);
  nonregular.Set(0, 1, 0.7);
  nonregular.SetRowRegular(1, {0});
  EXPECT_FALSE(solver.Solve(p, nonregular).ok());
  RandomizedSearchOptions bad;
  bad.iterations = 0;
  EXPECT_FALSE(RandomizedSearchSolver(bad)
                   .Solve(p, Layout::StripeEverythingEverywhere(2, 2))
                   .ok());
}

TEST(RandomizedSearchTest, ImprovesOnUnbalancedSeedAndStaysRegular) {
  LayoutNlpProblem p = MakeLinearProblem({8, 4, 2, 1}, {1, 1, 1});
  Layout seed(4, 3);
  for (int i = 0; i < 4; ++i) seed.SetRowRegular(i, {0});
  RandomizedSearchSolver solver;
  auto r = solver.Solve(p, seed);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->feasible);
  EXPECT_TRUE(r->layout.IsRegular(1e-9));
  EXPECT_LT(r->max_utilization, 15.0 / 2);      // beats the all-on-one seed
  EXPECT_NEAR(r->max_utilization, 5.0, 0.6);    // near-balanced optimum
}

TEST(RandomizedSearchTest, EscapesSeeSaddleUnlikeGradient) {
  // The interference objective whose SEE point traps the gradient solver
  // (symmetric saddle): random moves break the symmetry immediately.
  LayoutNlpProblem p = MakeInterferenceProblem();
  RandomizedSearchSolver solver;
  auto r = solver.Solve(p, Layout::StripeEverythingEverywhere(2, 2));
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->max_utilization, 0.35);  // full separation found
}

TEST(RandomizedSearchTest, HonorsConstraints) {
  LayoutNlpProblem p = MakeLinearProblem({5, 5, 2}, {1, 1, 1});
  p.constraints.allowed_targets = {{0, 1}, {}, {2}};
  p.constraints.separate = {{0, 1}};
  Layout seed(3, 3);
  seed.SetRowRegular(0, {0});
  seed.SetRowRegular(1, {1});
  seed.SetRowRegular(2, {2});
  RandomizedSearchSolver solver;
  auto r = solver.Solve(p, seed);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->feasible);
  EXPECT_TRUE(p.constraints.SatisfiedBy(r->layout));
}

TEST(RandomizedSearchTest, DeterministicForEqualSeeds) {
  LayoutNlpProblem p = MakeLinearProblem({6, 3, 2, 1}, {1, 2});
  Layout seed = Layout::StripeEverythingEverywhere(4, 2);
  RandomizedSearchOptions opts;
  opts.seed = 77;
  auto a = RandomizedSearchSolver(opts).Solve(p, seed);
  auto b = RandomizedSearchSolver(opts).Solve(p, seed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->max_utilization, b->max_utilization);
  EXPECT_TRUE(a->layout == b->layout);
}

// ------------------------------------------------- Bit-identity regression

/// FNV-1a over raw bytes, continuing from `h`.
uint64_t Fnv1a(const void* data, size_t bytes,
               uint64_t h = 14695981039346656037ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t b = 0; b < bytes; ++b) {
    h ^= p[b];
    h *= 1099511628211ull;
  }
  return h;
}

/// Hash of a solve's layout (raw doubles, row-major) and max utilization.
uint64_t LayoutBits(const Layout& layout, double max_utilization) {
  uint64_t h = Fnv1a(&max_utilization, sizeof(max_utilization));
  for (int i = 0; i < layout.num_objects(); ++i) {
    h = Fnv1a(layout.Row(i),
              sizeof(double) * static_cast<size_t>(layout.num_targets()), h);
  }
  return h;
}

/// Synthetic cost grid (no device calibration): cost grows with size and
/// contention and shrinks with run length; χ tops out at 4, so contended
/// objects reach the clamped end of the axis.
CostModel MakeRegressionCostModel() {
  std::vector<double> sizes{static_cast<double>(4 * kKiB),
                            static_cast<double>(64 * kKiB),
                            static_cast<double>(1024 * kKiB)};
  std::vector<double> runs{1, 8, 64};
  std::vector<double> chis{0, 0.5, 1, 2, 4};
  std::vector<double> reads, writes;
  for (double s : sizes) {
    for (double q : runs) {
      for (double c : chis) {
        const double v = 0.0015 * std::sqrt(s / (4 * kKiB)) *
                         (1.0 + 0.6 * c) / std::sqrt(q);
        reads.push_back(v);
        writes.push_back(1.3 * v);
      }
    }
  }
  auto m = CostModel::Create("regression", sizes, runs, chis, reads, writes);
  LDB_CHECK(m.ok());
  return std::move(m).value();
}

/// A LayoutProblem over `m` targets that cycle through RAID0x4, RAID1x2,
/// RAID5x4 and single-disk geometries (all on one cost model). Objects
/// co-access within tenants of `tenant` (dense rows, or CSR rows when
/// `sparse`), plus one weak cross-tenant link now and then.
LayoutProblem MakeRegressionProblem(int n, int m, int tenant, bool sparse,
                                    bool mixed_raid, double rate_scale,
                                    const CostModel* cost, uint64_t seed) {
  Rng rng(seed);
  LayoutProblem p;
  int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    p.object_names.push_back("obj" + std::to_string(i));
    const int64_t size = rng.UniformInt(int64_t{64}, int64_t{512}) * kMiB;
    p.object_sizes.push_back(size);
    p.object_kinds.push_back(ObjectKind::kTable);
    total += size;
    WorkloadDesc w;
    const double heat = rng.Uniform();
    w.read_rate = rate_scale * (2.0 + 400.0 * heat * heat * heat);
    w.read_size = rng.Uniform() < 0.5 ? 64 * kKiB : 512 * kKiB;
    w.write_rate = w.read_rate * rng.Uniform(0.0, 0.3);
    w.write_size = rng.Uniform() < 0.5 ? 8 * kKiB : 256 * kKiB;
    w.run_count = rng.Uniform(1.0, 48.0);
    w.overlap.assign(static_cast<size_t>(n), 0.0);
    const int lo = (i / tenant) * tenant;
    const int hi = std::min(n, lo + tenant);
    for (int k = lo; k < hi; ++k) {
      if (k != i) w.overlap[static_cast<size_t>(k)] = rng.Uniform(0.05, 0.6);
    }
    w.overlap[static_cast<size_t>(i)] = rng.Uniform(0.0, 1.5);
    if (rng.Uniform() < 0.5) {
      const int k = static_cast<int>(
          rng.UniformInt(int64_t{0}, static_cast<int64_t>(n) - 1));
      if (k < lo || k >= hi) {
        w.overlap[static_cast<size_t>(k)] = rng.Uniform(0.01, 0.1);
      }
    }
    p.workloads.push_back(std::move(w));
  }
  if (sparse) SparsifyOverlap(&p.workloads);
  for (int j = 0; j < m; ++j) {
    AdvisorTarget t;
    t.name = "t" + std::to_string(j);
    t.capacity_bytes = total * 8 / (5 * m) + kMiB;  // 1.6x the data
    t.cost_model = cost;
    if (mixed_raid) {
      switch (j % 4) {
        case 0:
          t.num_members = 4;
          break;
        case 1:
          t.num_members = 2;
          t.raid_level = RaidLevel::kRaid1;
          break;
        case 2:
          t.num_members = 4;
          t.raid_level = RaidLevel::kRaid5;
          break;
        default:
          break;
      }
    }
    p.targets.push_back(std::move(t));
  }
  LDB_CHECK(p.Validate().ok());
  return p;
}

/// The advisor's seeding: the initial layout plus `random_seeds` random
/// simplex rows.
std::vector<Layout> AdvisorSeeds(const LayoutProblem& p,
                                 const LayoutNlpProblem& nlp,
                                 int random_seeds) {
  auto initial = InitialLayout(p);
  LDB_CHECK(initial.ok());
  Rng rng(11);
  std::vector<Layout> seeds =
      MultiStartSolver::RandomSeeds(nlp, random_seeds, &rng);
  seeds.insert(seeds.begin(), std::move(initial).value());
  return seeds;
}

uint64_t SolveBits(const LayoutNlpProblem& nlp,
                   const std::vector<Layout>& seeds) {
  auto r = MultiStartSolver().Solve(nlp, seeds);
  LDB_CHECK(r.ok());
  return LayoutBits(r->layout, r->max_utilization);
}

/// True when this build matches the one the hashes below were recorded
/// on: GCC 12, kernels compiled with AVX2+FMA, no sanitizer instrumentation
/// (RelWithDebInfo and Release agree). Floating-point bit patterns depend
/// on which products the compiler fuses into FMAs and how it vectorizes, so
/// other toolchains and instrumented builds produce different bits.
constexpr bool kBitsRecordedForThisBuild =
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12 && \
    defined(LDB_SIMD_KERNEL_FLAGS) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

/// Checks one solve's hash against the recorded one. On a build the hashes
/// were not recorded on, checks instead that the solve repeats bit for bit,
/// and prints the hash it saw.
void ExpectRecordedBits(const char* name, uint64_t recorded,
                        const std::function<uint64_t()>& solve) {
  const uint64_t got = solve();
  if (kBitsRecordedForThisBuild) {
    EXPECT_EQ(got, recorded) << name;
    return;
  }
  EXPECT_EQ(solve(), got) << name << ": the solve is not deterministic";
  std::printf("[ unrecorded build ] %s: 0x%016llx\n", name,
              static_cast<unsigned long long>(got));
}

// The solver's result is a pure function of its input, so a speedup of the
// evaluation engine must leave these hashes unchanged. They were recorded
// before the absent-cell limit-price cache and the fused line-search
// gradient; a change that moves one changes what the advisor returns and
// must say so.
TEST(SolverRegressionTest, LayoutBitsUnchanged) {
  const CostModel cost = MakeRegressionCostModel();

  {
    const LayoutProblem p =
        MakeRegressionProblem(24, 6, 4, false, true, 0.25, &cost, 101);
    const TargetModel model = p.MakeTargetModel();
    const LayoutNlpProblem nlp = p.MakeNlp(&model);
    ExpectRecordedBits("dense consolidation, mixed RAID",
                       0xde0c8aac23e4d370ull,
                       [&] { return SolveBits(nlp, AdvisorSeeds(p, nlp, 2)); });
  }

  const LayoutProblem fleet =
      MakeRegressionProblem(160, 16, 8, true, false, 0.09, &cost, 202);
  const TargetModel fleet_model = fleet.MakeTargetModel();
  {
    const LayoutNlpProblem nlp = fleet.MakeNlp(&fleet_model);
    ExpectRecordedBits(
        "sparse tenants, N=160 M=16", 0xcfe5a5db821e04d6ull,
        [&] { return SolveBits(nlp, AdvisorSeeds(fleet, nlp, 1)); });
  }

  {
    auto current = InitialLayout(fleet);
    ASSERT_TRUE(current.ok());
    TargetHealth health = TargetHealth::Healthy(fleet.num_targets());
    health.MarkFailed(3);
    health.Derate(5, 0.5);
    ExpectRecordedBits(
        "replan: failed + derated column", 0xc488ab12f1496382ull, [&] {
          auto replan = ReplanAfterFailure(fleet, *current, health);
          LDB_CHECK(replan.ok());
          return LayoutBits(replan->layout, replan->max_utilization);
        });

    // The polish solve itself, as ReplanAfterFailure shapes it: rows off
    // the failed target frozen, the failed target disallowed, every
    // column priced µ_j / derate_j.
    LayoutNlpProblem nlp = fleet.MakeNlp(&fleet_model);
    const int n = fleet.num_objects();
    nlp.frozen_rows.assign(static_cast<size_t>(n), 1);
    std::vector<int> survivors;
    for (int j = 0; j < fleet.num_targets(); ++j) {
      if (!health.IsFailed(j)) survivors.push_back(j);
    }
    nlp.constraints.allowed_targets.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      if (current->At(i, 3) > 0.0) {
        nlp.frozen_rows[static_cast<size_t>(i)] = 0;
        nlp.constraints.allowed_targets[static_cast<size_t>(i)] = survivors;
      }
    }
    auto column = nlp.make_column_eval;
    nlp.make_column_eval = [column, &health](int j) {
      return DerateColumnEvaluator(
          column(j), health.IsFailed(j)
                         ? 0.0
                         : health.derate[static_cast<size_t>(j)]);
    };
    nlp.target_utilization = nullptr;
    ExpectRecordedBits("replan polish: frozen rows, derated columns",
                       0xa5a2636190b812d1ull,
                       [&] { return SolveBits(nlp, {*current}); });
  }

  {
    LayoutProblem p =
        MakeRegressionProblem(20, 5, 5, false, true, 0.2, &cost, 303);
    p.constraints.allowed_targets.resize(20);
    p.constraints.allowed_targets[0] = {0, 1};
    p.constraints.allowed_targets[3] = {2, 3, 4};
    p.constraints.allowed_targets[7] = {1};
    p.constraints.allowed_targets[12] = {0, 4};
    p.constraints.separate = {{1, 2}, {5, 6}, {10, 15}};
    ASSERT_TRUE(p.Validate().ok());
    const TargetModel model = p.MakeTargetModel();
    const LayoutNlpProblem nlp = p.MakeNlp(&model);
    ExpectRecordedBits("allowed-target and separation constraints",
                       0xe4ac16f5b198bcd2ull,
                       [&] { return SolveBits(nlp, AdvisorSeeds(p, nlp, 2)); });
  }
}

}  // namespace
}  // namespace ldb
