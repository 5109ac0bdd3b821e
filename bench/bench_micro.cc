// Micro-benchmarks (google-benchmark) of the hot kernels: device service
// times, the simulator's event throughput, LVM mapping, cost-model
// interpolation, the target model's utilization computation, the batched
// column evaluator (the solver's inner loop), simplex projection, and a
// small end-to-end solve.
//
// --json[=path] maps onto google-benchmark's JSON reporters, so every
// benchmark binary in this repo shares one machine-readable flag.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/problem.h"
#include "core/regularize.h"
#include "model/calibration.h"
#include "model/target_model.h"
#include "monitor/online_analyzer.h"
#include "solver/projected_gradient.h"
#include "solver/simplex.h"
#include "storage/disk.h"
#include "storage/event_queue.h"
#include "storage/lvm.h"
#include "storage/storage_system.h"
#include "util/random.h"
#include "util/units.h"

namespace ldb {
namespace {

const CostModel& SharedCostModel() {
  static const CostModel* model = [] {
    DiskModel disk(Scsi15kParams());
    CalibrationOptions options;
    options.sample_requests = 64;  // coarse is fine for micro-bench input
    auto m = CalibrateDevice(disk, options);
    LDB_CHECK(m.ok());
    return new CostModel(std::move(m).value());
  }();
  return *model;
}

void BM_DiskServiceTimeSequential(benchmark::State& state) {
  DiskModel disk(Scsi15kParams());
  int64_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.ServiceTime({offset, 64 * kKiB, false}));
    offset += 64 * kKiB;
    if (offset + 64 * kKiB > disk.capacity_bytes()) offset = 0;
  }
}
BENCHMARK(BM_DiskServiceTimeSequential);

void BM_DiskServiceTimeRandom(benchmark::State& state) {
  DiskModel disk(Scsi15kParams());
  Rng rng(1);
  const int64_t slots = disk.capacity_bytes() / (8 * kKiB) - 1;
  for (auto _ : state) {
    const int64_t offset = rng.UniformInt(int64_t{0}, slots) * 8 * kKiB;
    benchmark::DoNotOptimize(disk.ServiceTime({offset, 8 * kKiB, false}));
  }
}
BENCHMARK(BM_DiskServiceTimeRandom);

void BM_CalibrationPoint(benchmark::State& state) {
  // One grid point of the calibration sweep at the heaviest contention
  // level — the unit of work CalibrateDevice parallelizes over.
  DiskModel disk(Scsi15kParams());
  CalibrationOptions options;
  options.size_axis = {64 * kKiB};
  options.run_axis = {16};
  options.contention_axis = {16};
  for (auto _ : state) {
    auto m = CalibrateDevice(disk, options);
    benchmark::DoNotOptimize(m.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalibrationPoint);

void BM_CalibrateDeviceDefaultGrid(benchmark::State& state) {
  // Full default grid (9 sizes x 8 run counts x 7 contention levels) with
  // num_threads = range(0). Arg(1) is the serial baseline; Arg(8) must show
  // the >=3x parallel speedup, with bit-identical tables (see
  // threading_test.cc).
  DiskModel disk(Scsi15kParams());
  CalibrationOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto m = CalibrateDevice(disk, options);
    benchmark::DoNotOptimize(m.ok());
  }
}
BENCHMARK(BM_CalibrateDeviceDefaultGrid)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_SimulatorEventThroughput(benchmark::State& state) {
  DiskModel proto(Scsi15kParams());
  for (auto _ : state) {
    state.PauseTiming();
    StorageSystem sys({{"d0", &proto, 1, 64 * kKiB},
                       {"d1", &proto, 1, 64 * kKiB}});
    state.ResumeTiming();
    int outstanding = 0;
    for (int i = 0; i < 1024; ++i) {
      sys.Submit(i % 2, {(i / 2) * 64 * kKiB, 64 * kKiB, false, 0, 0},
                 nullptr);
      ++outstanding;
    }
    sys.queue().RunUntilIdle();
    benchmark::DoNotOptimize(outstanding);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_EventQueueScheduleDrain(benchmark::State& state) {
  // Bulk schedule-then-drain: stresses the slab/free-list reuse path with
  // many outstanding events. Steady state performs zero callback heap
  // allocations (capture fits the inline buffer).
  const int kEvents = 1024;
  EventQueue q;
  uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < kEvents; ++i) {
      q.ScheduleAfter(static_cast<double>(i % 17) * 1e-6,
                      [&sink, i] { sink += static_cast<uint64_t>(i); });
    }
    q.RunUntilIdle();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EventQueueScheduleDrain);

struct Ticker {
  EventQueue* q;
  uint64_t remaining;
  void Tick() {
    if (remaining-- > 0) q->ScheduleAfter(1e-6, [this] { Tick(); });
  }
};

void BM_EventQueueChainedTimers(benchmark::State& state) {
  // Self-rescheduling timer chain: the simulator's steady-state shape (one
  // completion schedules the next). A single pool slot is recycled for the
  // whole chain with no heap allocation per event.
  const uint64_t kChain = 4096;
  EventQueue q;
  for (auto _ : state) {
    Ticker t{&q, kChain};
    t.Tick();
    q.RunUntilIdle();
    benchmark::DoNotOptimize(t.remaining);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kChain));
}
BENCHMARK(BM_EventQueueChainedTimers);

void BM_LvmMap(benchmark::State& state) {
  auto mgr = StripedVolumeManager::Create(
      {10 * kGiB}, {{0, 1, 2, 3}}, {20 * kGiB, 20 * kGiB, 20 * kGiB, 20 * kGiB},
      64 * kKiB);
  LDB_CHECK(mgr.ok());
  std::vector<TargetChunk> chunks;
  int64_t offset = 0;
  for (auto _ : state) {
    chunks.clear();
    mgr->Map(0, offset, 256 * kKiB, &chunks);
    benchmark::DoNotOptimize(chunks.data());
    offset = (offset + 256 * kKiB) % (9 * kGiB);
  }
}
BENCHMARK(BM_LvmMap);

void BM_OnlineAnalyzerObserve(benchmark::State& state) {
  // The autopilot monitor's I/O hot path: one completion event through the
  // streaming analyzer (rates, sizes, run detection, overlap rings), with
  // a dense concurrent stream so the overlap scans do real work. The cost
  // per event is the monitor's whole per-I/O overhead; the acceptance
  // budget is <2% of a device I/O (hundreds of microseconds), checked
  // end-to-end by bench_autopilot's observer_overhead stage.
  const int n = static_cast<int>(state.range(0));
  OnlineAnalyzer analyzer(n);
  Rng rng(7);
  // ~n active streams at ~1 krps each with overlapping in-flight windows.
  std::vector<IoEvent> events(8192);
  double t = 0.0;
  uint64_t seq = 0;
  for (IoEvent& ev : events) {
    t += 1e-3 / n;
    ev.submit_time = t;
    ev.complete_time = t + 2e-3;
    ev.seq = seq++;
    ev.target = -1;
    ev.object = static_cast<ObjectId>(rng.Uniform(0, n - 1));
    ev.logical_offset = rng.Uniform(0, 1024) * 8192;
    ev.size = 8192;
    ev.is_write = (ev.seq % 4) == 0;
  }
  size_t i = 0;
  double shift = 0.0;
  for (auto _ : state) {
    IoEvent ev = events[i];
    // Keep simulated time moving forward across passes over the buffer.
    ev.submit_time += shift;
    ev.complete_time += shift;
    analyzer.Observe(ev);
    if (++i == events.size()) {
      i = 0;
      shift += events.back().complete_time;
    }
  }
  benchmark::DoNotOptimize(analyzer.events());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnlineAnalyzerObserve)->Arg(4)->Arg(40);

void BM_OnlineAnalyzerSnapshot(benchmark::State& state) {
  // The controller-tick path: fitting the windowed WorkloadSet from the
  // live counters (runs every check_interval_s, not per I/O).
  const int n = 40;
  OnlineAnalyzer analyzer(n);
  Rng rng(7);
  double t = 0.0;
  for (int k = 0; k < 8192; ++k) {
    IoEvent ev;
    t += 1e-3 / n;
    ev.submit_time = t;
    ev.complete_time = t + 2e-3;
    ev.seq = static_cast<uint64_t>(k);
    ev.target = -1;
    ev.object = static_cast<ObjectId>(rng.Uniform(0, n - 1));
    ev.logical_offset = rng.Uniform(0, 1024) * 8192;
    ev.size = 8192;
    analyzer.Observe(ev);
  }
  for (auto _ : state) {
    WorkloadSet ws = analyzer.Snapshot();
    benchmark::DoNotOptimize(ws.data());
  }
}
BENCHMARK(BM_OnlineAnalyzerSnapshot);

void BM_CostModelLookup(benchmark::State& state) {
  const CostModel& model = SharedCostModel();
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ReadCost(rng.Uniform(8192, 262144),
                                            rng.Uniform(1, 100),
                                            rng.Uniform(0, 8)));
  }
}
BENCHMARK(BM_CostModelLookup);

WorkloadSet MakeWorkloads(int n, Rng* rng) {
  WorkloadSet ws(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = ws[static_cast<size_t>(i)];
    w.read_rate = rng->Uniform(1, 200);
    w.read_size = 64 * kKiB;
    w.write_rate = rng->Uniform(0, 20);
    w.write_size = 64 * kKiB;
    w.run_count = rng->Uniform(1, 100);
    w.overlap.assign(static_cast<size_t>(n), 0.0);
    for (int k = 0; k < n; ++k) {
      if (k != i) w.overlap[static_cast<size_t>(k)] = rng->Uniform(0, 1);
    }
  }
  return ws;
}

void BM_TargetModelUtilizations(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int m = 4;
  Rng rng(3);
  WorkloadSet ws = MakeWorkloads(n, &rng);
  std::vector<TargetModelInfo> infos(
      static_cast<size_t>(m),
      TargetModelInfo{&SharedCostModel(), 1, 64 * kKiB});
  TargetModel model(infos, LvmLayoutModel(64 * kKiB));
  Layout layout = Layout::StripeEverythingEverywhere(n, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Utilizations(ws, layout));
  }
}
BENCHMARK(BM_TargetModelUtilizations)->Arg(20)->Arg(40)->Arg(160);

void BM_GridInterpAt(benchmark::State& state) {
  // Baseline for BM_GridInterpAtWithGrad: value-only lookups. A central
  // difference needs 2·dims of these per gradient, the fused pass one.
  const CostModel& model = SharedCostModel();
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ReadCost(rng.Uniform(8192, 262144),
                                            rng.Uniform(1, 100),
                                            rng.Uniform(0, 8)));
  }
}
BENCHMARK(BM_GridInterpAt);

void BM_GridInterpAtWithGrad(benchmark::State& state) {
  // The fused value+gradient lookup: one cell location pass, value plus
  // all three partials. Compare against 1 + 2·dims = 7 At calls for the
  // same information via central differences.
  const CostModel& model = SharedCostModel();
  Rng rng(2);
  double d_run = 0.0, d_chi = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.CostWithGrad(false, rng.Uniform(8192, 262144),
                           rng.Uniform(1, 100), rng.Uniform(0, 8), &d_run,
                           &d_chi));
    benchmark::DoNotOptimize(d_run);
    benchmark::DoNotOptimize(d_chi);
  }
}
BENCHMARK(BM_GridInterpAtWithGrad);

void BM_TargetModelColumnBatched(benchmark::State& state) {
  // The solver's value unit of work: one SoA-batched µ_j pass (same
  // answer as TargetModel::TargetUtilization's scalar loop, restructured
  // over contiguous arrays).
  const int n = static_cast<int>(state.range(0));
  const int m = 4;
  Rng rng(3);
  WorkloadSet ws = MakeWorkloads(n, &rng);
  std::vector<TargetModelInfo> infos(
      static_cast<size_t>(m),
      TargetModelInfo{&SharedCostModel(), 1, 64 * kKiB});
  TargetModel model(infos, LvmLayoutModel(64 * kKiB));
  Layout layout = Layout::StripeEverythingEverywhere(n, m);
  auto ctx = model.MakeColumnEvaluator(ws, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->Evaluate(layout));
  }
}
BENCHMARK(BM_TargetModelColumnBatched)->Arg(20)->Arg(40)->Arg(160);

void BM_TargetModelColumnGradient(benchmark::State& state) {
  // The solver's gradient unit of work: one fused pass returning µ_j and
  // all N partials ∂µ_j/∂L_ij, for N objects on M targets with each object
  // on `on` of them. on == M is SEE (every cell present); the n:160/m:16/
  // on:2 row is the solver's typical sparse iterate, where 7 of every 8
  // cells are absent and their partials come from the evaluator's cached
  // limit prices.
  const int n = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const int on = static_cast<int>(state.range(2));
  Rng rng(3);
  WorkloadSet ws = MakeWorkloads(n, &rng);
  std::vector<TargetModelInfo> infos(
      static_cast<size_t>(m),
      TargetModelInfo{&SharedCostModel(), 1, 64 * kKiB});
  TargetModel model(infos, LvmLayoutModel(64 * kKiB));
  Layout layout(n, m);
  for (int i = 0; i < n; ++i) {
    std::vector<int> targets;
    for (int k = 0; k < on; ++k) targets.push_back((i + k * m / on) % m);
    layout.SetRowRegular(i, targets);
  }
  auto ctx = model.MakeColumnEvaluator(ws, 0);
  std::vector<double> grad(static_cast<size_t>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->EvaluateWithGradient(layout, grad.data()));
    benchmark::DoNotOptimize(grad.data());
  }
}
BENCHMARK(BM_TargetModelColumnGradient)
    ->ArgNames({"n", "m", "on"})
    ->Args({20, 4, 4})
    ->Args({40, 4, 4})
    ->Args({160, 4, 4})
    ->Args({160, 16, 2});

/// Tenant-banded workloads: each object overlaps only its `neighbors`
/// ring neighbours, converted to the CSR representation (dense cleared).
WorkloadSet MakeSparseWorkloads(int n, int neighbors, Rng* rng) {
  WorkloadSet ws(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = ws[static_cast<size_t>(i)];
    w.read_rate = rng->Uniform(1, 200);
    w.read_size = 64 * kKiB;
    w.write_rate = rng->Uniform(0, 20);
    w.write_size = 64 * kKiB;
    w.run_count = rng->Uniform(1, 100);
    w.overlap.assign(static_cast<size_t>(n), 0.0);
    w.overlap[static_cast<size_t>(i)] = rng->Uniform(0, 1.5);
    for (int d = 1; d <= neighbors / 2; ++d) {
      w.overlap[static_cast<size_t>((i + d) % n)] = rng->Uniform(0.05, 1);
      w.overlap[static_cast<size_t>((i - d + n) % n)] = rng->Uniform(0.05, 1);
    }
  }
  SparsifyOverlap(&ws);
  return ws;
}

void BM_DenseInterferenceDot(benchmark::State& state) {
  // The raw interference kernel under the dense representation: one
  // overlap-row · presence-vector dot per object, O(N) each, O(N²) per
  // column evaluation.
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  std::vector<double> row(static_cast<size_t>(n)), x(static_cast<size_t>(n));
  for (auto& v : row) v = rng.Uniform(0, 1);
  for (auto& v : x) v = rng.Uniform(0, 1);
  for (auto _ : state) {
    double acc = 0.0;
    for (int k = 0; k < n; ++k) {
      acc += row[static_cast<size_t>(k)] * x[static_cast<size_t>(k)];
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DenseInterferenceDot)->Arg(160)->Arg(1000)->Arg(10000);

void BM_SparseInterferenceDot(benchmark::State& state) {
  // Same dot against a CSR row with 16 stored entries: the fleet-scale
  // representation, O(nnz) regardless of N.
  const int n = static_cast<int>(state.range(0));
  constexpr int kNnz = 16;
  Rng rng(6);
  std::vector<int32_t> index;
  std::vector<double> value, x(static_cast<size_t>(n));
  for (int e = 0; e < kNnz; ++e) {
    index.push_back(static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(n))));
    value.push_back(rng.Uniform(0, 1));
  }
  for (auto& v : x) v = rng.Uniform(0, 1);
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t e = 0; e < index.size(); ++e) {
      acc += value[e] * x[static_cast<size_t>(index[e])];
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kNnz);
}
BENCHMARK(BM_SparseInterferenceDot)->Arg(160)->Arg(1000)->Arg(10000);

void BM_TargetModelColumnGradientSparse(benchmark::State& state) {
  // The analytic gradient pass over CSR workloads (ring band, 16 stored
  // neighbours per row). Compare against BM_TargetModelColumnGradient:
  // dense scales O(N²) per column, sparse O(N·nnz).
  const int n = static_cast<int>(state.range(0));
  const int m = 4;
  Rng rng(3);
  WorkloadSet ws = MakeSparseWorkloads(n, 16, &rng);
  std::vector<TargetModelInfo> infos(
      static_cast<size_t>(m),
      TargetModelInfo{&SharedCostModel(), 1, 64 * kKiB});
  TargetModel model(infos, LvmLayoutModel(64 * kKiB));
  Layout layout = Layout::StripeEverythingEverywhere(n, m);
  auto ctx = model.MakeColumnEvaluator(ws, 0);
  std::vector<double> grad(static_cast<size_t>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->EvaluateWithGradient(layout, grad.data()));
    benchmark::DoNotOptimize(grad.data());
  }
}
BENCHMARK(BM_TargetModelColumnGradientSparse)->Arg(160)->Arg(640)->Arg(2560);

void BM_RegularizeSparse(benchmark::State& state) {
  // The regularizer's candidate search (greedy pass + refinement sweeps)
  // on a sparse multi-tenant problem: tenants of 8 sharing CSR overlap
  // rows, M = 16 disks with 60% headroom, and a seeded fractional layout
  // (each object spread over 2-5 disks) standing in for the solver's.
  const int n = static_cast<int>(state.range(0));
  constexpr int kTargets = 16;
  constexpr int kTenant = 8;
  Rng rng(9);
  LayoutProblem p;
  int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    p.object_names.push_back("obj" + std::to_string(i));
    p.object_sizes.push_back(rng.UniformInt(int64_t{64}, int64_t{512}) *
                             kMiB);
    total += p.object_sizes.back();
    p.object_kinds.push_back(ObjectKind::kTable);
    WorkloadDesc w;
    const double heat = rng.Uniform();
    w.read_rate = 0.09 * (2.0 + 400.0 * heat * heat * heat);
    w.read_size = 64 * kKiB;
    w.write_rate = w.read_rate * rng.Uniform(0.0, 0.25);
    w.write_size = 64 * kKiB;
    w.run_count = rng.Uniform(1.0, 32.0);
    const int lo = i / kTenant * kTenant;
    for (int k = lo; k < std::min(n, lo + kTenant); ++k) {
      w.overlap_index.push_back(k);
      w.overlap_value.push_back(k == i ? rng.Uniform(0.0, 1.5)
                                       : rng.Uniform(0.05, 0.6));
    }
    p.workloads.push_back(std::move(w));
  }
  for (int j = 0; j < kTargets; ++j) {
    p.targets.push_back(AdvisorTarget{"disk" + std::to_string(j),
                                      total * 8 / (5 * kTargets) + kMiB,
                                      &SharedCostModel()});
  }
  Layout solver_layout(n, kTargets);
  for (int i = 0; i < n; ++i) {
    const int spread = 2 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    double sum = 0.0;
    std::vector<double> w(static_cast<size_t>(spread));
    for (double& v : w) sum += (v = rng.Uniform(0.1, 1.0));
    const int first =
        static_cast<int>(rng.UniformInt(static_cast<uint64_t>(kTargets)));
    for (int s = 0; s < spread; ++s) {
      solver_layout.Set(i, (first + s) % kTargets,
                        w[static_cast<size_t>(s)] / sum);
    }
  }
  const TargetModel model = p.MakeTargetModel();
  const Regularizer regularizer(&p, &model);
  for (auto _ : state) {
    Result<Layout> layout = regularizer.Regularize(solver_layout);
    LDB_CHECK(layout.ok());
    benchmark::DoNotOptimize(layout->Row(0));
  }
}
BENCHMARK(BM_RegularizeSparse)
    ->Arg(160)
    ->Arg(640)
    ->Unit(benchmark::kMillisecond);

void BM_SimplexProjection(benchmark::State& state) {
  // One row projection. solver_row:0 rows are uniform in [-1, 2); the
  // solver_row:1 row is shaped like the rows the solver projects on a
  // 16-target fleet problem: ~6 targets hold the object on the
  // simplex, and a step against a nonnegative gradient moves the row off
  // it, further on the targets not holding the object — those the solver
  // moved it away from, whose gradient entries are the larger ones. Rows
  // come from a pregenerated pool so the timing holds the projection only.
  const size_t n = static_cast<size_t>(state.range(0));
  const bool solver_row = state.range(1) != 0;
  Rng rng(4);
  const size_t pool = 1024;
  std::vector<double> rows(pool * n);
  for (size_t r = 0; r < pool; ++r) {
    double* row = &rows[r * n];
    if (!solver_row) {
      for (size_t j = 0; j < n; ++j) row[j] = rng.Uniform(-1, 2);
      continue;
    }
    std::fill(row, row + n, 0.0);
    for (int s = 0; s < 6; ++s) row[rng.UniformInt(n)] = rng.Uniform(0.05, 1);
    ProjectToSimplex(row, n);
    const double step = std::pow(10.0, rng.Uniform(-5, -1));
    for (size_t j = 0; j < n; ++j) {
      row[j] -= step * (row[j] > 0.0 ? rng.Uniform(0, 1) : rng.Uniform(0.5, 5));
    }
  }
  std::vector<double> v(n);
  std::vector<double> scratch;
  size_t r = 0;
  for (auto _ : state) {
    std::copy_n(&rows[r * n], n, v.data());
    r = r + 1 == pool ? 0 : r + 1;
    ProjectToSimplex(v.data(), n, 1.0, &scratch);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_SimplexProjection)
    ->ArgNames({"n", "solver_row"})
    ->Args({4, 0})
    ->Args({40, 0})
    ->Args({16, 1});

void BM_CostWithGradBatch(benchmark::State& state) {
  // The column pass's lookup kernel: one batch of fused value+gradient
  // cost-table queries (log2 size, log2 run, χ) spread over a calibrated
  // model's axes, some beyond their ends. Items are queries.
  const CostModel& model = SharedCostModel();
  const size_t count = static_cast<size_t>(state.range(0));
  Rng rng(6);
  std::vector<double> log2_size(count), log2_run(count), run(count),
      chi(count);
  for (size_t q = 0; q < count; ++q) {
    log2_size[q] = rng.Uniform(12, 20);
    run[q] = rng.Uniform(1, 128);
    log2_run[q] = std::log2(run[q]);
    chi[q] = rng.Uniform(0, 12);
  }
  std::vector<double> cost(count), d_run(count), d_chi(count),
      value_cost(count);
  for (auto _ : state) {
    model.CostWithGradBatchLog2(false, count, log2_size.data(),
                                log2_run.data(), run.data(), chi.data(),
                                cost.data(), d_run.data(), d_chi.data(),
                                value_cost.data());
    benchmark::DoNotOptimize(cost.data());
    benchmark::DoNotOptimize(value_cost.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(count));
}
BENCHMARK(BM_CostWithGradBatch)->Arg(256);

void BM_SolverSmallProblem(benchmark::State& state) {
  const int n = 10, m = 4;
  Rng rng(5);
  WorkloadSet ws = MakeWorkloads(n, &rng);
  std::vector<TargetModelInfo> infos(
      static_cast<size_t>(m),
      TargetModelInfo{&SharedCostModel(), 1, 64 * kKiB});
  TargetModel model(infos, LvmLayoutModel(64 * kKiB));
  LayoutNlpProblem nlp;
  nlp.num_objects = n;
  nlp.num_targets = m;
  nlp.object_sizes.assign(static_cast<size_t>(n), kGiB);
  nlp.target_capacities.assign(static_cast<size_t>(m), 20 * kGiB);
  nlp.make_column_eval = [&](int j) { return model.MakeColumnEvaluator(ws, j); };
  SolverOptions options;
  options.annealing_rounds = 2;
  options.max_iterations_per_round = 10;
  ProjectedGradientSolver solver(options);
  const Layout seed = Layout::StripeEverythingEverywhere(n, m);
  for (auto _ : state) {
    auto r = solver.Solve(nlp, seed);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_SolverSmallProblem);

}  // namespace
}  // namespace ldb

// Custom main: translate the repo-wide --json[=path] flag onto
// google-benchmark's reporter options, pass everything else through.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  storage.reserve(static_cast<size_t>(argc) + 2);
  for (int a = 0; a < argc; ++a) {
    if (std::strcmp(argv[a], "--json") == 0) {
      storage.emplace_back("--benchmark_format=json");
    } else if (std::strncmp(argv[a], "--json=", 7) == 0) {
      storage.emplace_back(std::string("--benchmark_out=") + (argv[a] + 7));
      storage.emplace_back("--benchmark_out_format=json");
    } else {
      storage.emplace_back(argv[a]);
    }
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
