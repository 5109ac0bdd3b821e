// Property-based tests: invariants checked over parameter sweeps
// (gtest TEST_P). These complement the example-based unit tests by
// exercising each component across its input space.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <ostream>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/harness.h"
#include "core/incremental.h"
#include "core/regularize.h"
#include "core/problem.h"
#include "core/replan.h"
#include "model/cost_model.h"
#include "model/layout.h"
#include "model/layout_model.h"
#include "model/target_model.h"
#include "monitor/online_analyzer.h"
#include "recorded_bits.h"
#include "scenario/player.h"
#include "scenario/scenario.h"
#include "solver/projected_gradient.h"
#include "solver/simplex.h"
#include "storage/disk.h"
#include "storage/lvm.h"
#include "toy_nlp.h"
#include "trace/analyzer.h"
#include "util/check.h"
#include "util/interp.h"
#include "util/random.h"
#include "util/table.h"
#include "util/units.h"

namespace ldb {
namespace {

// ------------------------------------------------- simplex projection

class SimplexProperty
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(SimplexProperty, ProjectionInvariants) {
  const int dim = std::get<0>(GetParam());
  Rng rng(std::get<1>(GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> v(static_cast<size_t>(dim));
    for (auto& x : v) x = rng.Uniform(-3, 3);
    const std::vector<double> original = v;
    ProjectToSimplex(v.data(), v.size());

    // On the simplex.
    double sum = 0;
    for (double x : v) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);

    // Idempotent.
    std::vector<double> again = v;
    ProjectToSimplex(again.data(), again.size());
    for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(again[i], v[i], 1e-9);

    // No sampled feasible point is closer to the original (projection
    // minimizes Euclidean distance).
    auto dist2 = [&](const std::vector<double>& p) {
      double d = 0;
      for (size_t i = 0; i < p.size(); ++i) {
        d += (p[i] - original[i]) * (p[i] - original[i]);
      }
      return d;
    };
    const double proj_dist = dist2(v);
    for (int s = 0; s < 20; ++s) {
      std::vector<double> q(static_cast<size_t>(dim));
      for (auto& x : q) x = rng.Uniform(0, 1);
      ProjectToSimplex(q.data(), q.size());  // a feasible point
      EXPECT_LE(proj_dist, dist2(q) + 1e-9);
    }

    // Order-preserving: if original[i] >= original[j], then v[i] >= v[j].
    for (size_t i = 0; i < v.size(); ++i) {
      for (size_t j = 0; j < v.size(); ++j) {
        if (original[i] >= original[j]) {
          EXPECT_GE(v[i], v[j] - 1e-9);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dims, SimplexProperty,
    ::testing::Combine(::testing::Values(2, 3, 4, 8, 40),
                       ::testing::Values(uint64_t{1}, uint64_t{99})));

// ------------------------------- projection and lookup differentials

/// Bit pattern of a double (distinguishes -0.0 from +0.0).
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// The sort-everything projection ProjectToSimplex replaced: sort all n
/// entries, take the largest ρ whose running threshold the ρ-th entry
/// exceeds, shift by θ. The oracle the pre-filtered projection must match
/// bit for bit. Returns θ.
double SortEverythingProjection(double* v, size_t n, double radius) {
  std::vector<double> u(v, v + n);
  std::sort(u.begin(), u.end(), std::greater<double>());
  double cumsum = 0.0;
  size_t rho = 0;
  double running = 0.0;
  for (size_t k = 0; k < n; ++k) {
    running += u[k];
    const double t = (running - radius) / static_cast<double>(k + 1);
    if (u[k] - t > 0.0) {
      rho = k + 1;
      cumsum = running;
    }
  }
  LDB_CHECK_GT(rho, 0u);
  const double theta = (cumsum - radius) / static_cast<double>(rho);
  for (size_t i = 0; i < n; ++i) v[i] = std::max(0.0, v[i] - theta);
  return theta;
}

/// Projects `row` both ways and requires identical bits in every entry.
void ExpectProjectionMatchesOracle(const std::vector<double>& row,
                                   double radius, const char* kind) {
  std::vector<double> got = row;
  std::vector<double> want = row;
  std::vector<double> scratch;
  ProjectToSimplex(got.data(), got.size(), radius, &scratch);
  SortEverythingProjection(want.data(), want.size(), radius);
  for (size_t i = 0; i < row.size(); ++i) {
    ASSERT_EQ(Bits(got[i]), Bits(want[i]))
        << kind << ": n=" << row.size() << " radius=" << radius << " i=" << i
        << " in=" << row[i] << " got=" << got[i] << " want=" << want[i];
  }
}

TEST(SimplexDifferential, MatchesSortEverythingOracleOnRandomRows) {
  Rng rng(17);
  for (const size_t n : {1, 2, 3, 4, 8, 16, 40}) {
    for (const double radius : {1.0, 0.25, 3.0}) {
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> row(n);
        for (double& x : row) x = rng.Uniform(-3, 3);
        ExpectProjectionMatchesOracle(row, radius, "uniform");
        // The same shape at extreme magnitudes.
        for (double& x : row) x *= 1e12;
        ExpectProjectionMatchesOracle(row, radius, "scaled up");
        for (double& x : row) x *= 1e-24;
        ExpectProjectionMatchesOracle(row, radius, "scaled down");
      }
    }
  }
}

TEST(SimplexDifferential, MatchesOracleOnTiesAndSignedZeros) {
  Rng rng(18);
  const double levels[] = {-1.0, -0.0, 0.0, 0.25, 0.5, 1.0};
  for (const size_t n : {1, 2, 5, 16, 40}) {
    for (const double radius : {1.0, 0.5, 2.0}) {
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> row(n);
        for (double& x : row) x = levels[rng.UniformInt(uint64_t{6})];
        ExpectProjectionMatchesOracle(row, radius, "ties");
      }
      ExpectProjectionMatchesOracle(std::vector<double>(n, 0.0), radius,
                                    "all +0");
      ExpectProjectionMatchesOracle(std::vector<double>(n, -0.0), radius,
                                    "all -0");
      ExpectProjectionMatchesOracle(std::vector<double>(n, 0.7), radius,
                                    "all equal");
    }
  }
}

TEST(SimplexDifferential, MatchesOracleOnNearTiesAtTheta) {
  // Entries at θ, one ulp either side of it and a few ulps away: the
  // pre-filter's margin must keep every entry the sorted loop could count.
  Rng rng(19);
  for (const size_t n : {2, 3, 16, 40}) {
    for (const double radius : {1.0, 0.3, 4.0}) {
      for (int trial = 0; trial < 100; ++trial) {
        std::vector<double> row(n);
        for (double& x : row) x = rng.Uniform(-2, 2);
        std::vector<double> projected = row;
        const double theta =
            SortEverythingProjection(projected.data(), n, radius);
        double below = theta, above = theta;
        for (int u = 0; u < 3; ++u) {
          below = std::nextafter(below, -HUGE_VAL);
          above = std::nextafter(above, HUGE_VAL);
        }
        const double near[] = {theta,
                               std::nextafter(theta, -HUGE_VAL),
                               std::nextafter(theta, HUGE_VAL),
                               below,
                               above};
        // Overwrite up to half the entries that sit at or below θ.
        std::vector<double> tied = row;
        size_t placed = 0;
        for (size_t i = 0; i < n && placed < (n + 1) / 2; ++i) {
          if (row[i] <= theta) {
            tied[i] = near[rng.UniformInt(uint64_t{5})];
            ++placed;
          }
        }
        ExpectProjectionMatchesOracle(tied, radius, "near theta");
      }
    }
  }
}

TEST(SimplexDifferential, MatchesOracleOnSolverShapedRows) {
  // The solver's rows: n = 16 targets, ~6 holding the object on the
  // simplex, moved by a step against a nonnegative gradient (so the row
  // leaves the simplex), at step sizes from tiny to large.
  Rng rng(20);
  const size_t n = 16;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<double> row(n, 0.0);
    double sum = 0.0;
    for (int s = 0; s < 6; ++s) {
      const size_t j = static_cast<size_t>(rng.UniformInt(uint64_t{16}));
      row[j] = rng.Uniform(0.05, 1.0);
    }
    for (const double x : row) sum += x;
    for (double& x : row) x /= sum;
    const double step = std::pow(10.0, rng.Uniform(-6, 0));
    for (double& x : row) {
      const double g = rng.Uniform() < 0.2 ? 0.0 : rng.Uniform(0, 2);
      x -= step * g;
    }
    ExpectProjectionMatchesOracle(row, 1.0, "solver-shaped");
  }
}

/// LocateOnAxis as it was written over std::upper_bound: the reference the
/// branch-free knot count must reproduce bit for bit.
void UpperBoundLocate(const std::vector<double>& axis, double x,
                      size_t* index, double* weight) {
  if (axis.size() == 1 || x <= axis.front()) {
    *index = 0;
    *weight = 0.0;
    return;
  }
  if (x >= axis.back()) {
    *index = axis.size() - 2;
    *weight = 1.0;
    return;
  }
  const auto it = std::upper_bound(axis.begin(), axis.end(), x);
  const size_t hi = static_cast<size_t>(it - axis.begin());
  const size_t lo = hi - 1;
  *index = lo;
  *weight = (x - axis[lo]) / (axis[hi] - axis[lo]);
}

TEST(LookupDifferential, LocateOnAxisMatchesUpperBound) {
  Rng rng(21);
  std::vector<std::vector<double>> axes{{5.0}, {-1.0, 2.0}, {0, 0.5, 1, 2, 4}};
  std::vector<double> long_axis{-3.0};
  for (int k = 1; k < 40; ++k) {
    long_axis.push_back(long_axis.back() + rng.Uniform(0.01, 2.0));
  }
  axes.push_back(long_axis);
  for (const std::vector<double>& axis : axes) {
    std::vector<double> xs{-HUGE_VAL, HUGE_VAL, axis.front() - 1.0,
                           axis.back() + 1.0};
    for (size_t k = 0; k < axis.size(); ++k) {
      xs.push_back(axis[k]);
      xs.push_back(std::nextafter(axis[k], -HUGE_VAL));
      xs.push_back(std::nextafter(axis[k], HUGE_VAL));
      if (k + 1 < axis.size()) xs.push_back(0.5 * (axis[k] + axis[k + 1]));
    }
    for (int q = 0; q < 500; ++q) {
      xs.push_back(rng.Uniform(axis.front() - 1.0, axis.back() + 1.0));
    }
    for (const double x : xs) {
      size_t got_i = 99, want_i = 98;
      double got_w = -1.0, want_w = -2.0;
      LocateOnAxis(axis, x, &got_i, &got_w);
      UpperBoundLocate(axis, x, &want_i, &want_w);
      ASSERT_EQ(got_i, want_i) << "axis size " << axis.size() << " x=" << x;
      ASSERT_EQ(Bits(got_w), Bits(want_w))
          << "axis size " << axis.size() << " x=" << x;
    }
  }
}

TEST(LookupDifferential, BatchKernelsMatchRecordedBits) {
  // AtBatch and AtWithGradBatch (value, every axis partial, and the
  // value-kernel rounding through at_out) over a 3-axis grid with uneven
  // knots — a 40-knot middle axis among them — and over one whose middle
  // axis has a single entry, at random points, exact knots and points
  // beyond both ends of every axis. The hash was recorded with the weight
  // slopes divided per query and the cells found by std::upper_bound; the
  // cached reciprocals and the knot count must reproduce it.
  auto compute = [] {
    Rng rng(22);
    std::vector<double> a0{10, 12, 13, 16, 17.5, 20};
    std::vector<double> a1{0.0};
    for (int k = 1; k < 40; ++k) a1.push_back(a1.back() + rng.Uniform(0.1, 1));
    std::vector<double> a2{0, 0.5, 1, 2, 4, 8};
    uint64_t h = Fnv1a(nullptr, 0);
    for (const bool single : {false, true}) {
      const std::vector<double> mid = single ? std::vector<double>{3.0} : a1;
      std::vector<double> values(a0.size() * mid.size() * a2.size());
      for (double& v : values) v = rng.Uniform(0.001, 0.05);
      auto grid = GridInterpolator::Create({a0, mid, a2}, values);
      LDB_CHECK(grid.ok());
      const size_t count = 3000;
      std::vector<double> c[3];
      const std::vector<double>* axes[3] = {&a0, &mid, &a2};
      for (int d = 0; d < 3; ++d) {
        const std::vector<double>& axis = *axes[d];
        for (size_t q = 0; q < count; ++q) {
          const double pick = rng.Uniform();
          if (pick < 0.15) {
            c[d].push_back(axis[rng.UniformInt(uint64_t{axis.size()})]);
          } else if (pick < 0.2) {
            c[d].push_back(axis.front() - rng.Uniform(0, 3));
          } else if (pick < 0.25) {
            c[d].push_back(axis.back() + rng.Uniform(0, 3));
          } else {
            c[d].push_back(rng.Uniform(axis.front(), axis.back()));
          }
        }
      }
      const double* coords[3] = {c[0].data(), c[1].data(), c[2].data()};
      std::vector<double> value(count), at(count), batch(count);
      std::vector<double> g0(count), g1(count), g2(count);
      double* grads[3] = {g0.data(), g1.data(), g2.data()};
      grid->AtWithGradBatch(count, coords, value.data(), grads, at.data());
      grid->AtBatch(count, coords, batch.data());
      for (const std::vector<double>* out :
           {&value, &at, &batch, &g0, &g1, &g2}) {
        h = Fnv1a(out->data(), sizeof(double) * count, h);
      }
    }
    return h;
  };
  ExpectRecordedBits("trilinear batch kernels", 0x3ff32230bb805a2full,
                     compute);
}

// ------------------------------------------------- LVM mapping

class LvmProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, int>> {};

TEST_P(LvmProperty, EveryByteMapsExactlyOnceAndNothingOverlaps) {
  const int64_t stripe = std::get<0>(GetParam());
  const int num_targets = std::get<1>(GetParam());
  // Three objects with sizes that are not stripe multiples.
  const std::vector<int64_t> sizes{5 * stripe + 100, 2 * stripe,
                                   3 * stripe - 7};
  std::vector<std::vector<int>> placements;
  std::vector<int> all(static_cast<size_t>(num_targets));
  std::iota(all.begin(), all.end(), 0);
  placements.push_back(all);
  placements.push_back({0});
  placements.push_back(num_targets > 1 ? std::vector<int>{1, 0}
                                       : std::vector<int>{0});
  auto mgr = StripedVolumeManager::Create(
      sizes, placements,
      std::vector<int64_t>(static_cast<size_t>(num_targets), kGiB), stripe);
  ASSERT_TRUE(mgr.ok());

  // Collect every mapped byte range per target; verify disjointness and
  // total coverage.
  struct Range {
    int64_t lo, hi;
    int object;
  };
  std::vector<std::vector<Range>> per_target(
      static_cast<size_t>(num_targets));
  std::vector<TargetChunk> chunks;
  for (size_t i = 0; i < sizes.size(); ++i) {
    int64_t mapped = 0;
    // Map in odd-sized pieces to exercise splitting.
    const int64_t piece = stripe / 2 + 13;
    for (int64_t off = 0; off < sizes[i]; off += piece) {
      const int64_t len = std::min(piece, sizes[i] - off);
      chunks.clear();
      mgr->Map(static_cast<ObjectId>(i), off, len, &chunks);
      int64_t chunk_total = 0;
      for (const TargetChunk& c : chunks) {
        chunk_total += c.size;
        per_target[static_cast<size_t>(c.target)].push_back(
            Range{c.offset, c.offset + c.size, static_cast<int>(i)});
      }
      EXPECT_EQ(chunk_total, len);
      mapped += len;
    }
    EXPECT_EQ(mapped, sizes[i]);
  }
  for (auto& ranges : per_target) {
    std::sort(ranges.begin(), ranges.end(),
              [](const Range& a, const Range& b) { return a.lo < b.lo; });
    for (size_t r = 1; r < ranges.size(); ++r) {
      EXPECT_LE(ranges[r - 1].hi, ranges[r].lo)
          << "overlap between objects " << ranges[r - 1].object << " and "
          << ranges[r].object;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StripesAndTargets, LvmProperty,
    ::testing::Combine(::testing::Values(int64_t{64} * kKiB, kMiB),
                       ::testing::Values(1, 2, 4)));

// ------------------------------------------------- disk model

}  // namespace

/// Prints a drive as its model name, so the parameterised case names are
/// stable; gtest's default byte dump includes a heap address that changes
/// from run to run. Declared outside the unnamed namespace so that
/// argument-dependent lookup from gtest finds it.
void PrintTo(const DiskParams& params, std::ostream* os) {
  *os << params.model_name;
}

namespace {

class DiskProperty : public ::testing::TestWithParam<DiskParams> {};

TEST_P(DiskProperty, ServiceTimeInvariants) {
  DiskModel disk(GetParam());
  Rng rng(3);
  const int64_t cap = disk.capacity_bytes();
  // Sequential run is never slower than random access at the same size.
  for (int64_t size : {int64_t{8} * kKiB, int64_t{64} * kKiB}) {
    DiskModel seq(GetParam());
    seq.ServiceTime({0, size, false});
    double seq_total = 0;
    for (int r = 1; r <= 16; ++r) seq_total += seq.ServiceTime({r * size, size, false});
    DiskModel rnd(GetParam());
    rnd.ServiceTime({0, size, false});
    double rnd_total = 0;
    for (int r = 0; r < 16; ++r) {
      const int64_t off =
          rng.UniformInt(int64_t{0}, (cap - size) / size) * size;
      rnd_total += rnd.ServiceTime({off, size, false});
    }
    EXPECT_LT(seq_total, rnd_total);
  }
  // All service times positive and bounded by a full stroke + rotation +
  // transfer.
  DiskModel d(GetParam());
  for (int t = 0; t < 200; ++t) {
    const int64_t size = 8 * kKiB;
    const int64_t off = rng.UniformInt(int64_t{0}, (cap - size) / size) * size;
    const double s = d.ServiceTime({off, size, rng.Bernoulli(0.3)});
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, GetParam().max_seek_s + 60.0 / GetParam().rpm + 0.1);
  }
  // Seek time is monotone in distance.
  double prev = -1;
  for (int64_t frac = 1; frac <= 16; ++frac) {
    const double t = d.SeekTime(cap / 16 * frac);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(Drives, DiskProperty,
                         ::testing::Values(Scsi15kParams(),
                                           Nearline7200Params()));

// ------------------------------------------------- layout model (Fig. 7)

class LayoutModelProperty : public ::testing::TestWithParam<double> {};

TEST_P(LayoutModelProperty, TransformConservesRatesAndBoundsRuns) {
  const double q = GetParam();  // object run count
  LvmLayoutModel lm(64 * kKiB);
  WorkloadDesc w;
  w.read_rate = 100;
  w.read_size = 32 * kKiB;
  w.write_rate = 25;
  w.write_size = 8 * kKiB;
  w.run_count = q;
  for (int parts : {1, 2, 3, 4, 8}) {
    const double fraction = 1.0 / parts;
    double read_sum = 0, write_sum = 0;
    for (int p = 0; p < parts; ++p) {
      const PerTargetWorkload t = lm.Transform(w, fraction);
      read_sum += t.read_rate;
      write_sum += t.write_rate;
      // Per-target run count within [1, Q_i].
      EXPECT_GE(t.run_count, 1.0);
      EXPECT_LE(t.run_count, std::max(1.0, q) + 1e-9);
      // Request sizes unchanged by striping.
      EXPECT_DOUBLE_EQ(t.read_size, w.read_size);
      EXPECT_DOUBLE_EQ(t.write_size, w.write_size);
    }
    // Rates are conserved across the stripes.
    EXPECT_NEAR(read_sum, w.read_rate, 1e-9);
    EXPECT_NEAR(write_sum, w.write_rate, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RunCounts, LayoutModelProperty,
                         ::testing::Values(1.0, 2.0, 7.5, 64.0, 1000.0));

// ------------------------------------------------- solver on random problems

class SolverProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverProperty, NeverWorseThanSeedAndAlwaysFeasible) {
  Rng rng(GetParam());
  const int n = 3 + static_cast<int>(rng.UniformInt(uint64_t{5}));
  const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{3}));
  std::vector<double> rates(static_cast<size_t>(n));
  std::vector<double> speeds(static_cast<size_t>(m));
  for (auto& r : rates) r = rng.Uniform(1, 50);
  for (auto& s : speeds) s = rng.Uniform(0.5, 4);

  const LayoutNlpProblem p = MakeLinearProblem(
      rates, speeds, std::vector<int64_t>(static_cast<size_t>(n), kGiB),
      std::vector<int64_t>(static_cast<size_t>(m), 50 * kGiB));

  // Random simplex seed.
  Layout seed(n, m);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) seed.Set(i, j, rng.Uniform(0, 1));
    ProjectToSimplex(seed.Row(i), static_cast<size_t>(m));
  }
  double seed_max = 0;
  for (int j = 0; j < m; ++j) {
    seed_max = std::max(seed_max, p.target_utilization(seed, j));
  }

  SolverOptions fast;
  fast.annealing_rounds = 3;
  fast.max_iterations_per_round = 25;
  ProjectedGradientSolver solver(fast);
  auto r = solver.Solve(p, seed);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->feasible);
  EXPECT_TRUE(r->layout.SatisfiesIntegrity(1e-6));
  EXPECT_LE(r->max_utilization, seed_max + 1e-6);
  // The theoretical optimum spreads total weighted load over total speed.
  const double ideal = std::accumulate(rates.begin(), rates.end(), 0.0) /
                       std::accumulate(speeds.begin(), speeds.end(), 0.0);
  EXPECT_GE(r->max_utilization, ideal - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverProperty,
                         ::testing::Range(uint64_t{10}, uint64_t{20}));

// ------------------------------------------------- analyzer round trip

struct SyntheticWorkload {
  double rate;        // requests/s
  int64_t size;       // request bytes
  int run_length;     // requests per sequential run
  double write_frac;  // fraction of writes
};

/// Prints a shape as its parameters ("200rps-8KiB-run1-w0"), so the
/// parameterised case names are stable; gtest's default byte dump includes
/// the struct's uninitialised padding.
void PrintTo(const SyntheticWorkload& spec, std::ostream* os) {
  *os << spec.rate << "rps-" << spec.size / kKiB << "KiB-run"
      << spec.run_length << "-w" << spec.write_frac;
}

class AnalyzerRoundTrip
    : public ::testing::TestWithParam<SyntheticWorkload> {};

TEST_P(AnalyzerRoundTrip, RecoversKnownParameters) {
  const SyntheticWorkload& spec = GetParam();
  Rng rng(11);
  IoTrace trace;
  const int total = 3000;
  double now = 0;
  int64_t offset = 0;
  int in_run = 0;
  for (int r = 0; r < total; ++r) {
    if (in_run >= spec.run_length) {
      offset = rng.UniformInt(int64_t{0}, int64_t{10000}) * spec.size * 50;
      in_run = 0;
    }
    IoEvent ev;
    ev.submit_time = now;
    ev.complete_time = now + 0.002;
    ev.seq = static_cast<uint64_t>(r);
    ev.object = 0;
    ev.logical_offset = offset;
    ev.offset = offset;
    ev.size = spec.size;
    ev.is_write = rng.Bernoulli(spec.write_frac);
    trace.Add(ev);
    offset += spec.size;
    ++in_run;
    now += 1.0 / spec.rate;
  }
  TraceAnalyzer analyzer;
  auto ws = analyzer.Analyze(trace, 1);
  ASSERT_TRUE(ws.ok());
  const WorkloadDesc& w = (*ws)[0];
  EXPECT_NEAR(w.total_rate(), spec.rate, 0.05 * spec.rate);
  EXPECT_NEAR(w.run_count, spec.run_length,
              std::max(1.0, 0.1 * spec.run_length));
  EXPECT_NEAR(w.write_rate / std::max(1e-9, w.total_rate()),
              spec.write_frac, 0.05);
  EXPECT_DOUBLE_EQ(w.mean_size(), static_cast<double>(spec.size));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AnalyzerRoundTrip,
    ::testing::Values(SyntheticWorkload{200, 8 * kKiB, 1, 0.0},
                      SyntheticWorkload{500, 64 * kKiB, 25, 0.0},
                      SyntheticWorkload{100, 16 * kKiB, 100, 0.5},
                      SyntheticWorkload{50, 128 * kKiB, 8, 1.0}));

// ------------------------------------------------- layout regularity

class LayoutRegularityProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(LayoutRegularityProperty, SetRowRegularAlwaysRegularAndComplete) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    const int m = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    Layout l(n, m);
    for (int i = 0; i < n; ++i) {
      std::vector<int> targets;
      for (int j = 0; j < m; ++j) {
        if (rng.Bernoulli(0.5)) targets.push_back(j);
      }
      if (targets.empty()) targets.push_back(static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(m))));
      l.SetRowRegular(i, targets);
      EXPECT_EQ(l.TargetsOf(i), targets);
    }
    EXPECT_TRUE(l.IsRegular(1e-12));
    EXPECT_TRUE(l.SatisfiesIntegrity(1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutRegularityProperty,
                         ::testing::Values(uint64_t{1}, uint64_t{2},
                                           uint64_t{3}));

// ---------------------------------------- incremental / failure re-layout

const CostModel& PropertyCost() {
  static const CostModel* model = [] {
    std::vector<double> sizes{static_cast<double>(8 * kKiB),
                              static_cast<double>(256 * kKiB)};
    std::vector<double> runs{1, 64};
    std::vector<double> chis{0, 2, 8};
    std::vector<double> reads, writes;
    for (double s : sizes) {
      for (double q : runs) {
        for (double c : chis) {
          const double v =
              0.004 * (0.5 + 0.5 * s / (8 * kKiB)) * (1 + c) / std::sqrt(q);
          reads.push_back(v);
          writes.push_back(0.8 * v);
        }
      }
    }
    auto m = CostModel::Create("pc", sizes, runs, chis, reads, writes);
    LDB_CHECK(m.ok());
    return new CostModel(std::move(m).value());
  }();
  return *model;
}

// A random but always-feasible problem: every target alone could hold all
// the data, so failing one target never makes re-layout infeasible on
// capacity grounds.
LayoutProblem RandomProblem(Rng& rng, int n, int m) {
  LayoutProblem p;
  int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    p.object_names.push_back(StrFormat("obj%d", i));
    p.object_sizes.push_back(
        static_cast<int64_t>(1 + rng.UniformInt(uint64_t{4})) * kGiB);
    total += p.object_sizes.back();
    p.object_kinds.push_back(ObjectKind::kTable);
    WorkloadDesc w;
    w.read_rate = rng.Uniform(1, 200);
    w.read_size = 8 * kKiB;
    if (rng.Bernoulli(0.3)) {
      w.write_rate = rng.Uniform(1, 50);
      w.write_size = 8 * kKiB;
    }
    w.run_count = rng.Bernoulli(0.5) ? 1.0 : 32.0;
    w.overlap.assign(static_cast<size_t>(n), 0.0);
    p.workloads.push_back(std::move(w));
  }
  for (int j = 0; j < m; ++j) {
    p.targets.push_back(AdvisorTarget{StrFormat("t%d", j), 2 * total,
                                      &PropertyCost(), 1, 64 * kKiB});
  }
  return p;
}

Layout RandomRegularLayout(Rng& rng, int n, int m) {
  Layout l(n, m);
  for (int i = 0; i < n; ++i) {
    std::vector<int> targets;
    for (int j = 0; j < m; ++j) {
      if (rng.Bernoulli(0.4)) targets.push_back(j);
    }
    if (targets.empty()) {
      targets.push_back(static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(m))));
    }
    l.SetRowRegular(i, targets);
  }
  return l;
}

class ReplanProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplanProperty, InvariantsHoldOverRandomFailures) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{3}));
    const LayoutProblem p = RandomProblem(rng, n, m);
    const Layout current = RandomRegularLayout(rng, n, m);

    TargetHealth health = TargetHealth::Healthy(m);
    const int victim = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(m)));
    if (rng.Bernoulli(0.7)) health.MarkFailed(victim);
    for (int j = 0; j < m; ++j) {
      if (!health.IsFailed(j) && rng.Bernoulli(0.25)) {
        health.Derate(j, rng.Uniform(0.3, 0.9));
      }
    }

    auto result = ReplanAfterFailure(p, current, health);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const Layout& l = result->layout;

    // Structural invariants.
    EXPECT_TRUE(l.SatisfiesIntegrity(1e-9));
    EXPECT_TRUE(l.IsRegular(1e-9));
    EXPECT_TRUE(l.SatisfiesCapacity(p.object_sizes, p.capacities()));

    // Failed targets end with zero allocation.
    for (int j = 0; j < m; ++j) {
      if (!health.IsFailed(j)) continue;
      for (int i = 0; i < n; ++i) EXPECT_EQ(l.At(i, j), 0.0);
    }

    // Rows untouched by the failure never move.
    for (int i = 0; i < n; ++i) {
      bool movable = false;
      for (int j = 0; j < m; ++j) {
        if (current.At(i, j) > 1e-9 &&
            (health.IsFailed(j) || health.derate[j] < 1.0)) {
          movable = true;
        }
      }
      if (movable) continue;
      for (int j = 0; j < m; ++j) EXPECT_EQ(l.At(i, j), current.At(i, j));
    }

    // Migration accounting matches the layout delta.
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        const double expected =
            std::max(0.0, l.At(i, j) - current.At(i, j)) *
            static_cast<double>(p.object_sizes[i]);
        EXPECT_NEAR(result->migration.moved_in_bytes[i][j], expected, 1.0);
        total += expected;
      }
    }
    EXPECT_NEAR(result->migration.total_bytes, total, 1.0);

    if (health.AllHealthy()) {
      EXPECT_FALSE(result->replanned);
      EXPECT_EQ(result->migration.total_bytes, 0.0);
      EXPECT_EQ(result->migration.objects_moved, 0);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < m; ++j) EXPECT_EQ(l.At(i, j), current.At(i, j));
      }
    }
  }
}

TEST_P(ReplanProperty, RespectsAllowedTargetConstraints) {
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    const int m = 3 + static_cast<int>(rng.UniformInt(uint64_t{2}));
    LayoutProblem p = RandomProblem(rng, n, m);
    const Layout current = RandomRegularLayout(rng, n, m);
    // Allow each object its current targets plus one random extra, so the
    // constraints are satisfiable before and (usually) after failure.
    p.constraints.allowed_targets.assign(static_cast<size_t>(n), {});
    for (int i = 0; i < n; ++i) {
      std::vector<int> allowed = current.TargetsOf(i);
      const int extra = static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(m)));
      if (std::find(allowed.begin(), allowed.end(), extra) == allowed.end()) {
        allowed.push_back(extra);
      }
      std::sort(allowed.begin(), allowed.end());
      p.constraints.allowed_targets[static_cast<size_t>(i)] = allowed;
    }

    TargetHealth health = TargetHealth::Healthy(m);
    health.MarkFailed(static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(m))));

    auto result = ReplanAfterFailure(p, current, health);
    if (!result.ok()) {
      // Legitimate when some object's allowed set has no survivor.
      EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
      continue;
    }
    EXPECT_TRUE(p.constraints.SatisfiedBy(result->layout));
    for (int i = 0; i < n; ++i) {
      for (int j : result->layout.TargetsOf(i)) {
        EXPECT_FALSE(health.IsFailed(j));
      }
    }
  }
}

class IncrementalProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalProperty, FrozenRowsNeverMoveAndNewRowsArePlaced) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{3}));
    const LayoutProblem p = RandomProblem(rng, n, m);
    Layout current = RandomRegularLayout(rng, n, m);
    // Blank a random non-empty subset of rows: these are the "new" objects.
    std::vector<bool> is_new(static_cast<size_t>(n), false);
    for (int i = 0; i < n; ++i) is_new[i] = rng.Bernoulli(0.4);
    is_new[static_cast<size_t>(rng.UniformInt(static_cast<uint64_t>(n)))] =
        true;
    for (int i = 0; i < n; ++i) {
      if (!is_new[i]) continue;
      for (int j = 0; j < m; ++j) current.Set(i, j, 0.0);
    }

    auto result = PlaceIncrementally(p, current);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->SatisfiesIntegrity(1e-9));
    EXPECT_TRUE(result->IsRegular(1e-9));
    EXPECT_TRUE(result->SatisfiesCapacity(p.object_sizes, p.capacities()));
    for (int i = 0; i < n; ++i) {
      if (is_new[i]) {
        EXPECT_FALSE(result->TargetsOf(i).empty());
      } else {
        for (int j = 0; j < m; ++j) {
          EXPECT_EQ(result->At(i, j), current.At(i, j));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplanProperty,
                         ::testing::Values(uint64_t{11}, uint64_t{12},
                                           uint64_t{13}));
INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalProperty,
                         ::testing::Values(uint64_t{21}, uint64_t{22},
                                           uint64_t{23}));

// ------------------------------------------ incremental candidate pricing

// A problem for the regularizer's candidate search: sparse tenant overlap
// rows or dense rows with scattered nonzeros, mixed RAID0 member counts,
// capacities tight enough that some candidates overflow a target, and
// (optionally) allowed-target and separation constraints.
LayoutProblem PricingProblem(Rng& rng, int n, int m, bool sparse,
                             bool constrained) {
  LayoutProblem p;
  int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    p.object_names.push_back(StrFormat("obj%d", i));
    p.object_sizes.push_back(
        static_cast<int64_t>(1 + rng.UniformInt(uint64_t{4})) * kGiB);
    total += p.object_sizes.back();
    p.object_kinds.push_back(ObjectKind::kTable);
    WorkloadDesc w;
    w.read_rate = rng.Uniform(1, 200);
    w.read_size = rng.Bernoulli(0.5) ? 8 * kKiB : 256 * kKiB;
    if (rng.Bernoulli(0.4)) {
      w.write_rate = rng.Uniform(1, 50);
      w.write_size = 8 * kKiB;
    }
    w.run_count = rng.Bernoulli(0.5) ? 1.0 : 32.0;
    if (sparse) {
      const int lo = i / 4 * 4;
      for (int k = lo; k < std::min(n, lo + 4); ++k) {
        w.overlap_index.push_back(k);
        w.overlap_value.push_back(k == i ? rng.Uniform(0.0, 1.5)
                                         : rng.Uniform(0.05, 0.6));
      }
    } else {
      w.overlap.assign(static_cast<size_t>(n), 0.0);
      for (int k = 0; k < n; ++k) {
        if (k == i || rng.Bernoulli(0.5)) {
          w.overlap[static_cast<size_t>(k)] = rng.Uniform(0.0, 0.8);
        }
      }
    }
    p.workloads.push_back(std::move(w));
  }
  for (int j = 0; j < m; ++j) {
    p.targets.push_back(AdvisorTarget{
        StrFormat("t%d", j), total * 2 / m + kGiB, &PropertyCost(),
        1 + static_cast<int>(rng.UniformInt(uint64_t{3})), 64 * kKiB});
  }
  if (constrained) {
    p.constraints.allowed_targets.assign(static_cast<size_t>(n), {});
    for (int i = 0; i < n; ++i) {
      if (!rng.Bernoulli(0.3)) continue;
      std::vector<int>& allowed =
          p.constraints.allowed_targets[static_cast<size_t>(i)];
      for (int j = 0; j < m; ++j) {
        if (rng.Bernoulli(0.6)) allowed.push_back(j);
      }
      if (allowed.size() < 2) allowed = {0, m - 1};
    }
    p.constraints.separate.emplace_back(0, n - 1);
    p.constraints.separate.emplace_back(1, 2);
  }
  return p;
}

// A solver-like layout: fractional rows, some entries at or below the
// regularizer's zero tolerance.
Layout FractionalLayout(Rng& rng, int n, int m) {
  Layout l(n, m);
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<size_t>(m), 0.0);
    for (int j = 0; j < m; ++j) {
      const double u = rng.Uniform();
      row[static_cast<size_t>(j)] = u < 0.3 ? 0.0 : u < 0.45 ? 5e-5 : u;
    }
    row[static_cast<size_t>(rng.UniformInt(static_cast<uint64_t>(m)))] +=
        0.5;
    const double sum = std::accumulate(row.begin(), row.end(), 0.0);
    for (int j = 0; j < m; ++j) l.Set(i, j, row[static_cast<size_t>(j)] / sum);
  }
  return l;
}

// The candidate search as it was before incremental pricing: every
// candidate copies the cache, runs SatisfiesCapacity on the trial layout
// and reprices each touched column from scratch with TargetUtilization.
struct NaiveChoice {
  bool found = false;
  double objective = 0.0;
  std::vector<int> targets;
  std::vector<double> mu;
};

NaiveChoice NaiveBestRow(const LayoutProblem& problem,
                         const TargetModel& model,
                         const RegularizerOptions& options, Layout* current,
                         int i, const std::vector<double>& mu) {
  const int m = problem.num_targets();
  std::vector<bool> was_nonzero(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    was_nonzero[static_cast<size_t>(j)] =
        current->At(i, j) > options.zero_tolerance;
  }
  std::vector<int> universe;
  if (!problem.constraints.empty() &&
      !problem.constraints.AllowedFor(i).empty()) {
    universe = problem.constraints.AllowedFor(i);
  } else {
    universe.resize(static_cast<size_t>(m));
    std::iota(universe.begin(), universe.end(), 0);
  }
  std::vector<int> by_fraction = universe;
  std::stable_sort(by_fraction.begin(), by_fraction.end(), [&](int a, int b) {
    return current->At(i, a) > current->At(i, b);
  });
  std::vector<int> by_load = universe;
  std::stable_sort(by_load.begin(), by_load.end(), [&](int a, int b) {
    return EffectiveTargetUtilization(options, mu[static_cast<size_t>(a)],
                                      a) <
           EffectiveTargetUtilization(options, mu[static_cast<size_t>(b)], b);
  });
  std::vector<std::vector<int>> candidates;
  for (size_t k = 1; k <= universe.size(); ++k) {
    candidates.emplace_back(by_fraction.begin(),
                            by_fraction.begin() + static_cast<long>(k));
    if (options.balancing_candidates) {
      candidates.emplace_back(by_load.begin(),
                              by_load.begin() + static_cast<long>(k));
    }
  }
  const std::vector<double> saved_row(current->Row(i), current->Row(i) + m);
  NaiveChoice best;
  for (const std::vector<int>& targets : candidates) {
    bool ok = true;
    for (const auto& [a, b] : problem.constraints.separate) {
      const int partner = a == i ? b : (b == i ? a : -1);
      if (partner < 0) continue;
      for (int j : targets) {
        if (current->At(partner, j) > options.zero_tolerance) ok = false;
      }
    }
    if (!ok) continue;
    current->SetRowRegular(i, targets);
    if (!current->SatisfiesCapacity(problem.object_sizes,
                                    problem.capacities())) {
      continue;
    }
    std::vector<double> trial_mu = mu;
    double objective = 0.0;
    for (int j = 0; j < m; ++j) {
      if (was_nonzero[static_cast<size_t>(j)] || current->At(i, j) > 0.0) {
        trial_mu[static_cast<size_t>(j)] =
            model.TargetUtilization(problem.workloads, *current, j);
      }
      objective = std::max(
          objective, EffectiveTargetUtilization(
                         options, trial_mu[static_cast<size_t>(j)], j));
    }
    if (!best.found || objective < best.objective) {
      best.found = true;
      best.objective = objective;
      best.targets = targets;
      best.mu = std::move(trial_mu);
    }
  }
  std::copy(saved_row.begin(), saved_row.end(), current->Row(i));
  return best;
}

std::vector<double> ScalarColumns(const LayoutProblem& p,
                                  const TargetModel& model,
                                  const Layout& layout) {
  std::vector<double> mu(static_cast<size_t>(p.num_targets()));
  for (int j = 0; j < p.num_targets(); ++j) {
    mu[static_cast<size_t>(j)] =
        model.TargetUtilization(p.workloads, layout, j);
  }
  return mu;
}

// The naive regularizer: greedy pass plus refinement sweeps.
Result<Layout> NaiveRegularize(const LayoutProblem& p,
                               const TargetModel& model,
                               const RegularizerOptions& options,
                               const Layout& solver_layout) {
  const int n = p.num_objects();
  const int m = p.num_targets();
  std::vector<double> mu_ij;
  model.Utilizations(p.workloads, solver_layout, &mu_ij);
  std::vector<double> load(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      load[static_cast<size_t>(i)] +=
          mu_ij[static_cast<size_t>(i * m + j)];
    }
  }
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return load[static_cast<size_t>(a)] > load[static_cast<size_t>(b)];
  });
  Layout current = solver_layout;
  std::vector<double> mu = ScalarColumns(p, model, current);
  for (int i : order) {
    NaiveChoice c = NaiveBestRow(p, model, options, &current, i, mu);
    if (!c.found) return Status::Infeasible("no candidate");
    current.SetRowRegular(i, c.targets);
    mu = std::move(c.mu);
  }
  for (int pass = 0; pass < options.refinement_passes; ++pass) {
    bool improved = false;
    for (int i : order) {
      const double incumbent = EffectiveMaxUtilization(options, mu);
      NaiveChoice c = NaiveBestRow(p, model, options, &current, i, mu);
      if (c.found && c.objective < incumbent - 1e-12 &&
          current.TargetsOf(i) != c.targets) {
        current.SetRowRegular(i, c.targets);
        mu = std::move(c.mu);
        improved = true;
      }
    }
    if (!improved) break;
  }
  return current;
}

// The naive failure re-layout: displaced rows re-enter by rate, movable
// rows refine, and the solver polish is re-regularized and kept on strict
// improvement.
struct NaiveReplan {
  Layout layout;
  double max_utilization;
};

Result<NaiveReplan> NaiveReplanAfterFailure(const LayoutProblem& problem,
                                            const Layout& current,
                                            const TargetHealth& health,
                                            const ReplanOptions& options) {
  const int n = problem.num_objects();
  const int m = problem.num_targets();
  const TargetModel model = problem.MakeTargetModel();
  const double tol = options.regularize.zero_tolerance;
  LayoutProblem degraded = problem;
  std::vector<std::vector<int>> allowed(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::vector<int>& base = problem.constraints.AllowedFor(i);
    for (int j = 0; j < m; ++j) {
      if (health.IsFailed(j)) continue;
      if (!base.empty() &&
          std::find(base.begin(), base.end(), j) == base.end()) {
        continue;
      }
      allowed[static_cast<size_t>(i)].push_back(j);
    }
    if (allowed[static_cast<size_t>(i)].empty()) {
      return Status::Infeasible("no surviving allowed target");
    }
  }
  degraded.constraints.allowed_targets = std::move(allowed);
  RegularizerOptions ropts = options.regularize;
  ropts.target_derate = health.derate;
  for (int j = 0; j < m; ++j) {
    if (health.IsFailed(j)) ropts.target_derate[static_cast<size_t>(j)] = 0.0;
  }
  std::vector<int> displaced, movable;
  for (int i = 0; i < n; ++i) {
    bool on_failed = false;
    bool on_derated = false;
    for (int j = 0; j < m; ++j) {
      if (current.At(i, j) <= tol) continue;
      if (health.IsFailed(j)) {
        on_failed = true;
      } else if (health.derate[static_cast<size_t>(j)] < 1.0 - 1e-12) {
        on_derated = true;
      }
    }
    if (on_failed) displaced.push_back(i);
    if (on_failed || on_derated) movable.push_back(i);
  }
  Layout layout = current;
  for (int i : displaced) {
    for (int j = 0; j < m; ++j) layout.Set(i, j, 0.0);
  }
  std::stable_sort(displaced.begin(), displaced.end(), [&](int a, int b) {
    return problem.workloads[static_cast<size_t>(a)].total_rate() >
           problem.workloads[static_cast<size_t>(b)].total_rate();
  });
  std::vector<double> mu = ScalarColumns(degraded, model, layout);
  for (int i : displaced) {
    NaiveChoice c = NaiveBestRow(degraded, model, ropts, &layout, i, mu);
    if (!c.found) return Status::Infeasible("no surviving placement");
    layout.SetRowRegular(i, c.targets);
    mu = std::move(c.mu);
  }
  for (int pass = 0; pass < ropts.refinement_passes; ++pass) {
    bool improved = false;
    for (int i : movable) {
      const double incumbent = EffectiveMaxUtilization(ropts, mu);
      NaiveChoice c = NaiveBestRow(degraded, model, ropts, &layout, i, mu);
      if (c.found && c.objective < incumbent - options.improvement_epsilon &&
          layout.TargetsOf(i) != c.targets) {
        layout.SetRowRegular(i, c.targets);
        mu = std::move(c.mu);
        improved = true;
      }
    }
    if (!improved) break;
  }
  if (options.solver_polish && !displaced.empty() &&
      displaced.size() < static_cast<size_t>(n)) {
    LayoutNlpProblem nlp = degraded.MakeNlp(&model);
    nlp.frozen_rows.assign(static_cast<size_t>(n), 1);
    for (int i : displaced) nlp.frozen_rows[static_cast<size_t>(i)] = 0;
    auto column = nlp.make_column_eval;
    nlp.make_column_eval = [column, derate = ropts.target_derate](int j) {
      return DerateColumnEvaluator(column(j),
                                   derate[static_cast<size_t>(j)]);
    };
    nlp.target_utilization = nullptr;
    ProjectedGradientSolver solver(options.solver);
    Result<SolverResult> polished = solver.Solve(nlp, layout);
    if (polished.ok()) {
      Layout candidate = polished->layout;
      std::vector<double> cmu = ScalarColumns(degraded, model, candidate);
      bool regularized = true;
      for (int i : displaced) {
        NaiveChoice c =
            NaiveBestRow(degraded, model, ropts, &candidate, i, cmu);
        if (!c.found) {
          regularized = false;
          break;
        }
        candidate.SetRowRegular(i, c.targets);
        cmu = std::move(c.mu);
      }
      if (regularized &&
          EffectiveMaxUtilization(ropts, cmu) <
              EffectiveMaxUtilization(ropts, mu) -
                  options.improvement_epsilon &&
          candidate.SatisfiesCapacity(problem.object_sizes,
                                      problem.capacities()) &&
          degraded.constraints.SatisfiedBy(candidate)) {
        layout = std::move(candidate);
        mu = std::move(cmu);
      }
    }
  }
  return NaiveReplan{layout, EffectiveMaxUtilization(ropts, mu)};
}

class PricingProperty : public ::testing::TestWithParam<uint64_t> {};

// Every trial and every committed reprice equals TargetUtilization on the
// same layout bit for bit, for sparse and dense overlap rows.
TEST_P(PricingProperty, ColumnTermsMatchScalarUtilizationExactly) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const bool sparse = trial % 2 == 0;
    const int n = 4 + static_cast<int>(rng.UniformInt(uint64_t{12}));
    const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{5}));
    const LayoutProblem p = PricingProblem(rng, n, m, sparse, false);
    const TargetModel model = p.MakeTargetModel();
    Layout layout = FractionalLayout(rng, n, m);
    ColumnTerms terms(&model, &p.workloads, layout);
    for (int j = 0; j < m; ++j) {
      EXPECT_EQ(terms.mu(j), model.TargetUtilization(p.workloads, layout, j));
    }
    // Every regular candidate row of every object, priced on every column.
    for (int i = 0; i < n; ++i) {
      std::vector<int> perm(static_cast<size_t>(m));
      std::iota(perm.begin(), perm.end(), 0);
      for (int k = m - 1; k > 0; --k) {
        std::swap(perm[static_cast<size_t>(k)],
                  perm[rng.UniformInt(uint64_t(k + 1))]);
      }
      for (int k = 1; k <= m; ++k) {
        Layout trial_layout = layout;
        trial_layout.SetRowRegular(
            i, std::vector<int>(perm.begin(), perm.begin() + k));
        for (int j = 0; j < m; ++j) {
          EXPECT_EQ(terms.Trial(j, i, trial_layout.At(i, j)),
                    model.TargetUtilization(p.workloads, trial_layout, j))
              << "object " << i << " column " << j << " k " << k;
        }
      }
    }
    // Committed single-cell changes persist exactly.
    for (int step = 0; step < 3 * n; ++step) {
      const int i = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
      const int j = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(m)));
      const double f = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform();
      layout.Set(i, j, f);
      EXPECT_EQ(terms.Reprice(j, i, f),
                model.TargetUtilization(p.workloads, layout, j));
    }
    for (int j = 0; j < m; ++j) {
      EXPECT_EQ(terms.mu(j), model.TargetUtilization(p.workloads, layout, j));
    }
  }
}

// Step by step, the pricer's search picks what the naive loop picks, with
// the same score and the same per-target cache.
TEST_P(PricingProperty, BestRowMatchesNaiveSearchAtEveryStep) {
  Rng rng(GetParam() + 50);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 4 + static_cast<int>(rng.UniformInt(uint64_t{12}));
    const int m = 3 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    const LayoutProblem p =
        PricingProblem(rng, n, m, trial % 2 == 0, trial % 4 < 2);
    const TargetModel model = p.MakeTargetModel();
    RegularizerOptions options;
    options.balancing_candidates = trial != 5;
    if (trial % 3 != 0) {
      options.target_derate.assign(static_cast<size_t>(m), 1.0);
      options.target_derate[0] = 0.0;  // failed
      options.target_derate[static_cast<size_t>(m - 1)] = 0.6;
    }
    Layout layout = FractionalLayout(rng, n, m);
    RegularRowPricer pricer(&p, &model, options, layout);
    std::vector<double> mu = ScalarColumns(p, model, layout);
    EXPECT_EQ(pricer.mu(), mu);
    for (int step = 0; step < 3 * n; ++step) {
      const int i = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
      const NaiveChoice naive = NaiveBestRow(p, model, options, &layout, i, mu);
      const RegularCandidateChoice choice = pricer.Best(i);
      ASSERT_EQ(choice.found, naive.found) << "step " << step;
      if (!naive.found) continue;
      EXPECT_EQ(choice.objective, naive.objective) << "step " << step;
      ASSERT_EQ(choice.targets, naive.targets) << "step " << step;
      layout.SetRowRegular(i, naive.targets);
      mu = naive.mu;
      pricer.Apply(i, choice.targets);
      ASSERT_EQ(pricer.layout(), layout) << "step " << step;
      ASSERT_EQ(pricer.mu(), mu) << "step " << step;
    }
  }
}

TEST_P(PricingProperty, RegularizeMatchesNaiveLoop) {
  Rng rng(GetParam() + 100);
  int compared = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 4 + static_cast<int>(rng.UniformInt(uint64_t{16}));
    const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    const LayoutProblem p =
        PricingProblem(rng, n, m, trial % 2 == 0, trial % 4 >= 2);
    const TargetModel model = p.MakeTargetModel();
    RegularizerOptions options;
    if (trial % 3 == 1) {
      options.target_derate.assign(static_cast<size_t>(m), 1.0);
      options.target_derate[static_cast<size_t>(m - 1)] = 0.5;
    }
    const Layout solver_layout = FractionalLayout(rng, n, m);
    const Result<Layout> got =
        Regularizer(&p, &model, options).Regularize(solver_layout);
    const Result<Layout> want =
        NaiveRegularize(p, model, options, solver_layout);
    ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString();
    if (!want.ok()) continue;
    EXPECT_EQ(*got, *want) << "trial " << trial;
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST_P(PricingProperty, ReplanMatchesNaiveLoop) {
  Rng rng(GetParam() + 200);
  int compared = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 4 + static_cast<int>(rng.UniformInt(uint64_t{12}));
    const int m = 3 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    LayoutProblem p = PricingProblem(rng, n, m, trial % 2 == 0, false);
    const Layout current = RandomRegularLayout(rng, n, m);
    if (trial % 4 >= 2) {
      // Constraints the current layout satisfies: each object may use its
      // targets plus one more, and the first two objects with disjoint
      // targets are separated.
      p.constraints.allowed_targets.assign(static_cast<size_t>(n), {});
      for (int i = 0; i < n; ++i) {
        std::vector<int> allowed = current.TargetsOf(i);
        const int extra =
            static_cast<int>(rng.UniformInt(static_cast<uint64_t>(m)));
        if (std::find(allowed.begin(), allowed.end(), extra) ==
            allowed.end()) {
          allowed.push_back(extra);
        }
        std::sort(allowed.begin(), allowed.end());
        p.constraints.allowed_targets[static_cast<size_t>(i)] = allowed;
      }
      for (int a = 0; a < n && p.constraints.separate.empty(); ++a) {
        for (int b = a + 1; b < n; ++b) {
          bool disjoint = true;
          for (int j = 0; j < m; ++j) {
            if (current.At(a, j) > 0.0 && current.At(b, j) > 0.0) {
              disjoint = false;
            }
          }
          if (disjoint) {
            p.constraints.separate.emplace_back(a, b);
            break;
          }
        }
      }
    }
    TargetHealth health = TargetHealth::Healthy(m);
    health.MarkFailed(static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(m))));
    for (int j = 0; j < m; ++j) {
      if (!health.IsFailed(j) && rng.Bernoulli(0.3)) {
        health.Derate(j, rng.Uniform(0.3, 0.9));
      }
    }
    ReplanOptions options;
    options.solver_polish = trial % 4 != 3;
    const auto got = ReplanAfterFailure(p, current, health, options);
    const auto want = NaiveReplanAfterFailure(p, current, health, options);
    ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString();
    if (!want.ok()) continue;
    EXPECT_EQ(got->layout, want->layout) << "trial " << trial;
    EXPECT_EQ(got->max_utilization, want->max_utilization);
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST_P(PricingProperty, PlaceIncrementallyMatchesNaiveLoop) {
  Rng rng(GetParam() + 300);
  int compared = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 4 + static_cast<int>(rng.UniformInt(uint64_t{12}));
    const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{5}));
    const LayoutProblem p =
        PricingProblem(rng, n, m, trial % 2 == 0, trial % 4 >= 2);
    const TargetModel model = p.MakeTargetModel();
    Layout current = RandomRegularLayout(rng, n, m);
    std::vector<int> to_place;
    for (int i = 0; i < n; ++i) {
      if (!rng.Bernoulli(0.5) && i != n / 2) continue;
      for (int j = 0; j < m; ++j) current.Set(i, j, 0.0);
      to_place.push_back(i);
    }
    if (!current.SatisfiesCapacity(p.object_sizes, p.capacities())) continue;
    std::stable_sort(to_place.begin(), to_place.end(), [&](int a, int b) {
      return p.workloads[static_cast<size_t>(a)].total_rate() >
             p.workloads[static_cast<size_t>(b)].total_rate();
    });
    const RegularizerOptions options;
    Layout want = current;
    std::vector<double> mu = ScalarColumns(p, model, want);
    bool placed = true;
    for (int i : to_place) {
      NaiveChoice c = NaiveBestRow(p, model, options, &want, i, mu);
      if (!c.found) {
        placed = false;
        break;
      }
      want.SetRowRegular(i, c.targets);
      mu = std::move(c.mu);
    }
    const Result<Layout> got = PlaceIncrementally(p, current);
    ASSERT_EQ(got.ok(), placed) << got.status().ToString();
    if (!placed) continue;
    EXPECT_EQ(*got, want) << "trial " << trial;
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PricingProperty,
                         ::testing::Values(uint64_t{31}, uint64_t{32},
                                           uint64_t{33}, uint64_t{34}));

// ------------------------------------------- analytic utilization gradient

/// Synthetic multi-point cost grid: interior cells and clamped tails on
/// every axis, so the gradient sweep crosses real interpolation kinks.
CostModel MakeGradientCostModel() {
  std::vector<double> sizes{static_cast<double>(8 * kKiB),
                            static_cast<double>(64 * kKiB),
                            static_cast<double>(512 * kKiB)};
  std::vector<double> runs{1, 8, 64};
  std::vector<double> chis{0, 0.5, 1, 2, 4};
  std::vector<double> reads, writes;
  for (double s : sizes) {
    for (double q : runs) {
      for (double c : chis) {
        const double v =
            0.004 * (s / (8 * kKiB)) * (1.0 + 0.7 * c) / std::sqrt(q);
        reads.push_back(v);
        writes.push_back(1.4 * v);
      }
    }
  }
  auto m = CostModel::Create("grad-grid", sizes, runs, chis, reads, writes);
  LDB_CHECK(m.ok());
  return std::move(m).value();
}

struct GradientInstance {
  std::unique_ptr<CostModel> cost;
  std::unique_ptr<TargetModel> model;
  std::unique_ptr<WorkloadSet> workloads;
  LayoutNlpProblem nlp;
};

GradientInstance MakeGradientInstance(int n, int m, Rng* rng) {
  GradientInstance gi;
  gi.cost = std::make_unique<CostModel>(MakeGradientCostModel());
  gi.workloads = std::make_unique<WorkloadSet>(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = (*gi.workloads)[static_cast<size_t>(i)];
    w.read_rate = rng->Uniform(1, 150);
    w.read_size = 64 * kKiB;
    w.write_rate = rng->Uniform(0, 25);
    w.write_size = 8 * kKiB;
    w.run_count = rng->Uniform(1, 60);
    w.overlap.assign(static_cast<size_t>(n), 0.0);
    for (int k = 0; k < n; ++k) {
      w.overlap[static_cast<size_t>(k)] =
          k == i ? rng->Uniform(0, 0.5) : rng->Uniform(0, 1);
    }
  }
  std::vector<TargetModelInfo> infos(
      static_cast<size_t>(m), TargetModelInfo{gi.cost.get(), 1, 64 * kKiB});
  gi.model = std::make_unique<TargetModel>(infos, LvmLayoutModel(64 * kKiB));
  gi.nlp.num_objects = n;
  gi.nlp.num_targets = m;
  gi.nlp.object_sizes.assign(static_cast<size_t>(n), kGiB);
  gi.nlp.target_capacities.assign(static_cast<size_t>(m), 50 * kGiB);
  const TargetModel* model = gi.model.get();
  const WorkloadSet* ws = gi.workloads.get();
  gi.nlp.target_utilization = [model, ws](const Layout& l, int j) {
    return model->TargetUtilization(*ws, l, j);
  };
  gi.nlp.make_column_eval = [model, ws](int j) {
    return model->MakeColumnEvaluator(*ws, j);
  };
  return gi;
}

class GradientProperty : public ::testing::TestWithParam<uint64_t> {};

/// Subgradient containment sweep shared by the dense and sparse overlap
/// representations and the replan polish's derated objective: every
/// analytic Jacobian entry must lie inside the interval spanned by the
/// one-sided difference slopes of the scalar target_utilization.
void CheckGradientContainment(const LayoutNlpProblem& nlp, Layout& layout,
                              int n, int m) {
  std::vector<double> grad(static_cast<size_t>(n) * static_cast<size_t>(m));
  ASSERT_TRUE(nlp.Gradient(layout, grad.data()));

  const double h = 1e-6;
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i < n; ++i) {
      const double g =
          grad[static_cast<size_t>(i) * static_cast<size_t>(m) +
               static_cast<size_t>(j)];
      const double v = layout.At(i, j);
      const double mu0 = nlp.target_utilization(layout, j);
      double d_plus = 0.0, d_minus = 0.0;
      bool have_minus = false;
      {
        layout.Set(i, j, v + h);
        d_plus = (nlp.target_utilization(layout, j) - mu0) / h;
        layout.Set(i, j, v);
      }
      if (v >= h) {
        layout.Set(i, j, v - h);
        d_minus = (mu0 - nlp.target_utilization(layout, j)) / h;
        layout.Set(i, j, v);
        have_minus = true;
      }
      const double lo = have_minus ? std::min(d_plus, d_minus) : d_plus;
      const double hi = have_minus ? std::max(d_plus, d_minus) : d_plus;
      const double scale =
          std::max({1.0, std::fabs(lo), std::fabs(hi), std::fabs(g)});
      EXPECT_GE(g, lo - 1e-3 * scale)
          << "i=" << i << " j=" << j << " v=" << v << " d+=" << d_plus
          << " d-=" << (have_minus ? d_minus : d_plus);
      EXPECT_LE(g, hi + 1e-3 * scale)
          << "i=" << i << " j=" << j << " v=" << v << " d+=" << d_plus
          << " d-=" << (have_minus ? d_minus : d_plus);
    }
  }
}

/// Random simplex layout with occasional exact zeros (absent-object limits).
Layout MakeGradientLayout(int n, int m, Rng* rng) {
  Layout layout(n, m);
  for (int i = 0; i < n; ++i) {
    double* row = layout.Row(i);
    for (int j = 0; j < m; ++j) row[j] = rng->Uniform(0, 1);
    ProjectToSimplex(row, static_cast<size_t>(m));
    if (rng->Uniform() < 0.5) {
      row[rng->UniformInt(static_cast<uint64_t>(m - 1))] = 0.0;
    }
  }
  return layout;
}

TEST_P(GradientProperty, AnalyticMatchesDirectionalDifferences) {
  // The analytic Jacobian entry ∂µ_j/∂L_ij must be a valid (sub)gradient of
  // the piecewise-smooth utilization: at smooth points it matches the
  // central difference; at kinks (interpolation cell boundaries, Transform
  // branch switches, the run ≥ 1 clamp) it must lie inside the interval
  // spanned by the one-sided slopes.
  Rng rng(GetParam());
  const int n = 4 + static_cast<int>(rng.UniformInt(uint64_t{5}));
  const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{3}));
  GradientInstance gi = MakeGradientInstance(n, m, &rng);
  Layout layout = MakeGradientLayout(n, m, &rng);
  CheckGradientContainment(gi.nlp, layout, n, m);

  // The replan polish's objective µ_j / d_j through DerateColumnEvaluator,
  // against the derated scalar. Column 0 is failed (d = 0).
  std::vector<double> derate(static_cast<size_t>(m), 0.0);
  for (int j = 1; j < m; ++j) {
    derate[static_cast<size_t>(j)] = rng.Uniform(0.2, 1.0);
  }
  LayoutNlpProblem derated = gi.nlp;
  derated.target_utilization = [base = gi.nlp.target_utilization, derate](
                                   const Layout& l, int j) {
    const double d = derate[static_cast<size_t>(j)];
    return d <= 0.0 ? 0.0 : base(l, j) / d;
  };
  derated.make_column_eval = [base = gi.nlp.make_column_eval,
                              derate](int j) {
    return DerateColumnEvaluator(base(j), derate[static_cast<size_t>(j)]);
  };
  CheckGradientContainment(derated, layout, n, m);
  // A failed column prices exactly zero with an all-zero gradient.
  const std::unique_ptr<ColumnEvaluator> failed = derated.make_column_eval(0);
  std::vector<double> grad(static_cast<size_t>(n), 1.0);
  EXPECT_EQ(failed->Evaluate(layout), 0.0);
  EXPECT_EQ(failed->EvaluateWithGradient(layout, grad.data()), 0.0);
  for (const double g : grad) EXPECT_EQ(g, 0.0);
}

TEST_P(GradientProperty, SparseAnalyticMatchesDirectionalDifferences) {
  // Same containment property through the sparse-overlap evaluation path:
  // off-diagonals are thinned to genuine zeros, rows are converted to CSR
  // (dropping the dense form), and the analytic Jacobian must still bracket
  // the one-sided slopes.
  Rng rng(GetParam());
  const int n = 4 + static_cast<int>(rng.UniformInt(uint64_t{5}));
  const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{3}));
  GradientInstance gi = MakeGradientInstance(n, m, &rng);
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = (*gi.workloads)[static_cast<size_t>(i)];
    for (int k = 0; k < n; ++k) {
      if (k != i && rng.Uniform() < 0.6) w.overlap[static_cast<size_t>(k)] = 0.0;
    }
  }
  SparsifyOverlap(gi.workloads.get());
  ASSERT_TRUE((*gi.workloads)[0].has_sparse_overlap());
  ASSERT_TRUE((*gi.workloads)[0].overlap.empty());
  Layout layout = MakeGradientLayout(n, m, &rng);
  CheckGradientContainment(gi.nlp, layout, n, m);
}

TEST_P(GradientProperty, BatchedValueMatchesScalarUtilization) {
  // The SoA-batched Evaluate must price µ_j within FP-reassociation noise
  // of the scalar TargetUtilization — same statistics, different summation
  // order.
  Rng rng(GetParam() + 1000);
  const int n = 4 + static_cast<int>(rng.UniformInt(uint64_t{6}));
  const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{3}));
  GradientInstance gi = MakeGradientInstance(n, m, &rng);

  for (int trial = 0; trial < 4; ++trial) {
    Layout layout(n, m);
    for (int i = 0; i < n; ++i) {
      double* row = layout.Row(i);
      for (int j = 0; j < m; ++j) row[j] = rng.Uniform(0, 1);
      ProjectToSimplex(row, static_cast<size_t>(m));
      if (rng.Uniform() < 0.5) {
        row[rng.UniformInt(static_cast<uint64_t>(m - 1))] = 0.0;
      }
    }
    for (int j = 0; j < m; ++j) {
      auto ctx = gi.nlp.make_column_eval(j);
      ASSERT_TRUE(ctx != nullptr);
      const double batched = ctx->Evaluate(layout);
      const double scalar = gi.nlp.target_utilization(layout, j);
      EXPECT_NEAR(batched, scalar, 1e-9 * std::max(1.0, std::fabs(scalar)))
          << "j=" << j << " trial=" << trial;
      EXPECT_GT(ctx->interp_queries(), 0);
    }
  }
}

/// Three targets, one per RAID organization — RAID0 over 4 members, RAID1
/// over 2, RAID5 over 4, whose writes price the three-lookup parity
/// template — with mixed request sizes so some requests span several
/// chunks. Object 0 co-accesses nothing (zero off-diagonal row and
/// column), so it never interferes with anything and nothing interferes
/// with it.
GradientInstance MakeRaidGradientInstance(int n, Rng* rng) {
  GradientInstance gi = MakeGradientInstance(n, 3, rng);
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = (*gi.workloads)[static_cast<size_t>(i)];
    if (i % 2 == 1) w.write_size = 256 * kKiB;
    if (i % 3 == 2) w.read_size = 512 * kKiB;
    if (i != 0) {
      w.overlap[0] = 0.0;
      (*gi.workloads)[0].overlap[static_cast<size_t>(i)] = 0.0;
    }
  }
  const std::vector<TargetModelInfo> infos{
      {gi.cost.get(), 4, 64 * kKiB, RaidLevel::kRaid0},
      {gi.cost.get(), 2, 64 * kKiB, RaidLevel::kRaid1},
      {gi.cost.get(), 4, 64 * kKiB, RaidLevel::kRaid5}};
  gi.model = std::make_unique<TargetModel>(infos, LvmLayoutModel(64 * kKiB));
  const TargetModel* model = gi.model.get();
  const WorkloadSet* ws = gi.workloads.get();
  gi.nlp.target_utilization = [model, ws](const Layout& l, int j) {
    return model->TargetUtilization(*ws, l, j);
  };
  gi.nlp.make_column_eval = [model, ws](int j) {
    return model->MakeColumnEvaluator(*ws, j);
  };
  return gi;
}

TEST_P(GradientProperty, AbsentCellsMatchFreshEvaluatorAndDifferences) {
  // An absent cell (L_ij = 0) takes its gradient from limit prices the
  // evaluator caches at construction: χ clamped when something present
  // interferes with the object (I_i > 0), else the object's diagonal.
  // Layouts, in the order one evaluator per column prices them:
  //   present  every object on every target;
  //   absent   objects 0 and 1 on no target — object 0 has no
  //            interferers, object 1 has co-located ones;
  //   alone    only object 0 on target 0, so every absent object there
  //            (object 1 included) has nothing interfering with it.
  // Each value and gradient of the reused evaluator must equal a fresh
  // evaluator's bit for bit, the fused pass's value must equal the value
  // pass's, and every gradient entry must bracket the one-sided
  // differences.
  Rng rng(GetParam() + 2000);
  const int n = 5 + static_cast<int>(rng.UniformInt(uint64_t{4}));
  const int m = 3;
  GradientInstance gi = MakeRaidGradientInstance(n, &rng);
  Layout present(n, m);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) present.Set(i, j, rng.Uniform(0.1, 1.0));
    ProjectToSimplex(present.Row(i), static_cast<size_t>(m));
    for (int j = 0; j < m; ++j) {
      present.Set(i, j, std::max(present.At(i, j), 0.05));
    }
  }
  Layout absent = present;
  for (int j = 0; j < m; ++j) {
    absent.Set(0, j, 0.0);
    absent.Set(1, j, 0.0);
  }
  Layout alone = absent;
  alone.Set(0, 0, 0.9);
  for (int i = 1; i < n; ++i) alone.Set(i, 0, 0.0);

  const std::vector<const Layout*> sequence{&present, &absent, &present,
                                            &alone, &absent, &alone};
  std::vector<double> grad(static_cast<size_t>(n));
  std::vector<double> fresh_grad(static_cast<size_t>(n));
  for (int j = 0; j < m; ++j) {
    std::unique_ptr<ColumnEvaluator> reused = gi.nlp.make_column_eval(j);
    for (size_t step = 0; step < sequence.size(); ++step) {
      const Layout& layout = *sequence[step];
      const double v = reused->EvaluateWithGradient(layout, grad.data());
      std::unique_ptr<ColumnEvaluator> fresh = gi.nlp.make_column_eval(j);
      EXPECT_EQ(v, fresh->EvaluateWithGradient(layout, fresh_grad.data()))
          << "j=" << j << " step=" << step;
      EXPECT_EQ(v, reused->Evaluate(layout)) << "j=" << j << " step=" << step;
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(grad[static_cast<size_t>(i)],
                  fresh_grad[static_cast<size_t>(i)])
            << "i=" << i << " j=" << j << " step=" << step;
      }
    }
  }
  CheckGradientContainment(gi.nlp, present, n, m);
  CheckGradientContainment(gi.nlp, absent, n, m);
  CheckGradientContainment(gi.nlp, alone, n, m);
}

TEST_P(GradientProperty, PresentListMatchesFreshEvaluator) {
  // The column pass visits present cells only: it lists the objects with
  // L_ij > 0 and an on-target rate above the presence threshold, and of an
  // absent object it learns only whether a present one interferes with it,
  // through the reverse overlap index. Overlap shapes that index must get
  // right:
  //   sparse   tenants of four plus one-way cross links (i names k, k does
  //            not name i), as the fleet generator builds them;
  //   dense    rows with many exact zeros.
  // Each column's reused evaluator must return a fresh evaluator's value
  // and gradient bit for bit, and its value pass the fused pass's value,
  // over layouts with absent cells, a column with nothing present, a
  // column with one object alone, and cells with 0 < L_ij whose rate is at
  // or below the threshold, which must price exactly as L_ij = 0.
  Rng rng(GetParam() + 3000);
  const int n = 9 + static_cast<int>(rng.UniformInt(uint64_t{8}));
  const int m = 3;
  for (const bool sparse : {true, false}) {
    GradientInstance gi = MakeGradientInstance(n, m, &rng);
    WorkloadSet& ws = *gi.workloads;
    for (int i = 0; i < n; ++i) {
      std::vector<double>& row = ws[static_cast<size_t>(i)].overlap;
      for (int k = 0; k < n; ++k) {
        const bool same_tenant = k / 4 == i / 4;
        if (k != i && (sparse ? !same_tenant : rng.Uniform() < 0.6)) {
          row[static_cast<size_t>(k)] = 0.0;
        }
      }
    }
    if (sparse) {
      for (int i = 0; i < n; i += 3) {
        const int k = (i + 5) % n;
        if (k / 4 == i / 4) continue;
        ws[static_cast<size_t>(i)].overlap[static_cast<size_t>(k)] =
            rng.Uniform(0.01, 0.1);
        ws[static_cast<size_t>(k)].overlap[static_cast<size_t>(i)] = 0.0;
      }
      SparsifyOverlap(&ws);
      ASSERT_TRUE(ws[0].has_sparse_overlap());
    }
    ASSERT_TRUE(ValidateWorkloadSet(ws).ok());

    Layout mixed = MakeGradientLayout(n, m, &rng);
    for (int i = 0; i < n; ++i) {
      if (rng.Uniform() < 0.4) mixed.Set(i, static_cast<int>(i % m), 0.0);
    }
    Layout empty_column = mixed;
    for (int i = 0; i < n; ++i) empty_column.Set(i, 1, 0.0);
    Layout alone = mixed;
    for (int i = 1; i < n; ++i) alone.Set(i, 2, 0.0);
    alone.Set(0, 2, 0.5);
    // 1e-16 of a rate below 200 req/s is below the 1e-12 threshold.
    Layout tiny = mixed;
    Layout tiny_zeroed = mixed;
    for (int i = 0; i < n; i += 2) {
      for (int j = 0; j < m; ++j) {
        if (rng.Uniform() < 0.5) {
          tiny.Set(i, j, 1e-16);
          tiny_zeroed.Set(i, j, 0.0);
        }
      }
    }

    const std::vector<const Layout*> sequence{
        &mixed, &empty_column, &tiny, &alone, &mixed, &tiny_zeroed, &tiny};
    std::vector<double> grad(static_cast<size_t>(n));
    std::vector<double> fresh_grad(static_cast<size_t>(n));
    for (int j = 0; j < m; ++j) {
      std::unique_ptr<ColumnEvaluator> reused = gi.nlp.make_column_eval(j);
      for (size_t step = 0; step < sequence.size(); ++step) {
        const Layout& layout = *sequence[step];
        const double v = reused->EvaluateWithGradient(layout, grad.data());
        std::unique_ptr<ColumnEvaluator> fresh = gi.nlp.make_column_eval(j);
        EXPECT_EQ(v, fresh->EvaluateWithGradient(layout, fresh_grad.data()))
            << "sparse=" << sparse << " j=" << j << " step=" << step;
        EXPECT_EQ(v, reused->Evaluate(layout))
            << "sparse=" << sparse << " j=" << j << " step=" << step;
        const double scalar = gi.nlp.target_utilization(layout, j);
        EXPECT_NEAR(v, scalar, 1e-9 * std::max(1.0, std::fabs(scalar)))
            << "sparse=" << sparse << " j=" << j << " step=" << step;
        for (int i = 0; i < n; ++i) {
          EXPECT_EQ(Bits(grad[static_cast<size_t>(i)]),
                    Bits(fresh_grad[static_cast<size_t>(i)]))
              << "sparse=" << sparse << " i=" << i << " j=" << j
              << " step=" << step;
        }
      }
      // Sub-threshold cells are absent: same value and gradient bits as
      // the layout with those cells at exactly 0.
      std::vector<double> zeroed_grad(static_cast<size_t>(n));
      EXPECT_EQ(Bits(reused->EvaluateWithGradient(tiny, grad.data())),
                Bits(reused->EvaluateWithGradient(tiny_zeroed,
                                                  zeroed_grad.data())))
          << "sparse=" << sparse << " j=" << j;
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(Bits(grad[static_cast<size_t>(i)]),
                  Bits(zeroed_grad[static_cast<size_t>(i)]))
            << "sparse=" << sparse << " i=" << i << " j=" << j;
      }
    }
    CheckGradientContainment(gi.nlp, mixed, n, m);
    CheckGradientContainment(gi.nlp, alone, n, m);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradientProperty,
                         ::testing::Range(uint64_t{40}, uint64_t{48}));

// -------------------------------------------- scenario churn snapshots

// Under tenant churn (arrivals mid-run, departures that drive rows to
// zero) the streaming analyzer's sparse CSR snapshots must stay valid
// WorkloadSets at every drift-check boundary — the autopilot hands these
// snapshots straight to the drift detector and the re-advise solver.
class ScenarioChurnProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScenarioChurnProperty, SnapshotsStayValidAcrossChurn) {
  constexpr int kObjects = 8;
  static const ExperimentRig* rig = [] {
    Catalog catalog;
    for (int i = 0; i < kObjects; ++i) {
      catalog.Add({"c" + std::to_string(i), ObjectKind::kTable,
                   int64_t{16} * 1024 * 1024});
    }
    auto r = ExperimentRig::Create(std::move(catalog), {{"d0"}, {"d1"}},
                                   1.0, 5);
    LDB_CHECK(r.ok());
    return new ExperimentRig(std::move(r).value());
  }();

  auto spec = ParseScenarioSpec(
      "duration=10;"
      "tenant=early,objects=0:4,rate=25,write=0.2,depart=5;"
      "tenant=late,objects=4:8,rate=25,arrive=3;"
      "graph=early,communities=2,coaccess=0.6,rewire=2,burst=2");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  spec->seed = GetParam();

  auto segments = BuildTimeline(*spec, kObjects);
  auto problem = rig->MakeProblem(segments.front().workloads);
  ASSERT_TRUE(problem.ok()) << problem.status().ToString();
  const Layout see = Layout::StripeEverythingEverywhere(kObjects, 2);
  auto placements = LayoutToPlacements(*problem, see);
  ASSERT_TRUE(placements.ok());
  auto system = rig->MakeSystem();
  auto volumes = StripedVolumeManager::Create(
      problem->object_sizes, std::move(placements).value(),
      system->capacities(), problem->lvm_stripe_bytes);
  ASSERT_TRUE(volumes.ok());
  PassthroughRouter router(&volumes.value());

  OnlineAnalyzerOptions aopts;
  aopts.half_life_s = 1.0;  // fast decay so departures actually zero rows
  aopts.sparse_overlap = true;
  OnlineAnalyzer analyzer(kObjects, aopts);

  ScenarioPlayer player(system.get(), &router, *spec);
  player.set_logical_observer(
      [&](const IoEvent& ev) { analyzer.Observe(ev); });

  // Snapshot at every simulated drift-check boundary, the way the
  // autopilot's periodic tick does.
  int checks = 0;
  double early_rate_at_depart = -1.0;
  double early_rate_at_end = -1.0;
  for (double t = 0.5; t < spec->duration_s + 1e-9; t += 0.5) {
    system->queue().ScheduleAt(t, [&, t]() {
      const WorkloadSet snap = analyzer.Snapshot();
      ++checks;
      EXPECT_TRUE(ValidateWorkloadSet(snap).ok()) << "t=" << t;
      double early = 0.0;
      for (int i = 0; i < 4; ++i) {
        early += snap[static_cast<size_t>(i)].read_rate +
                 snap[static_cast<size_t>(i)].write_rate;
      }
      if (t == 5.0) early_rate_at_depart = early;
      if (t == 10.0) early_rate_at_end = early;
    });
  }
  auto run = player.Play();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(checks, 20);
  EXPECT_GT(analyzer.events(), 0u);

  // The departed tenant's rows decayed through the sparse path: five
  // half-lives after departure its rates are a small fraction of what
  // they were when it left.
  ASSERT_GE(early_rate_at_depart, 0.0);
  ASSERT_GE(early_rate_at_end, 0.0);
  EXPECT_GT(early_rate_at_depart, 0.0);
  EXPECT_LT(early_rate_at_end, 0.2 * early_rate_at_depart);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioChurnProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

}  // namespace
}  // namespace ldb
