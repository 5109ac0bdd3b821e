// BlockBackend seam: the sim adapter must be bit-identical to calling the
// simulator directly, and the file backend must move real bytes — probe
// validation, alignment accounting, async submission, the dual-epoch data
// plane, and a full in-process migration whose every byte verifies against
// the deterministic pattern afterward.

#include <unistd.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/harness.h"
#include "core/migrate.h"
#include "core/run.h"
#include "io/backend.h"
#include "io/file_backend.h"
#include "io/pattern.h"
#include "io/sim_backend.h"
#include "model/cost_model.h"
#include "model/layout.h"
#include "storage/disk.h"
#include "storage/fault.h"
#include "storage/lvm.h"
#include "storage/storage_system.h"
#include "util/check.h"
#include "util/table.h"
#include "util/units.h"
#include "workload/catalog.h"
#include "workload/query.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace ldb {
namespace {

std::unique_ptr<StorageSystem> MakeSystem3(const DiskModel& proto) {
  std::vector<TargetSpec> specs{
      {"d0", &proto, 1, 64 * kKiB},
      {"d1", &proto, 1, 64 * kKiB},
      {"d2", &proto, 1, 64 * kKiB},
  };
  return std::make_unique<StorageSystem>(specs);
}

StripedVolumeManager MakeVolumes(std::vector<int64_t> sizes,
                                 std::vector<std::vector<int>> placements,
                                 std::vector<int64_t> capacities) {
  auto v = StripedVolumeManager::Create(std::move(sizes),
                                        std::move(placements),
                                        std::move(capacities), 64 * kKiB);
  LDB_CHECK(v.ok());
  return std::move(v).value();
}

/// Fresh per-test scratch directory under the gtest temp root.
std::string FreshDir(const std::string& name) {
  static int counter = 0;
  std::string dir = testing::TempDir() + "/io_backend_" + name +
                    StrFormat("_%d_%d", static_cast<int>(::getpid()),
                              counter++);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

FileBackendOptions SmallFileOptions(const std::string& dir, int targets,
                                    int64_t capacity) {
  FileBackendOptions o;
  o.dir = dir;
  o.capacity_bytes.assign(static_cast<size_t>(targets), capacity);
  o.quiet = true;  // tmpfs build dirs reject O_DIRECT; that's fine here
  return o;
}

/// A problem over `sizes` on `sys`'s targets, as RunLayout needs one. A
/// migration run reads only its sizes, capacities and stripe; the flat
/// cost model and idle workloads are never consulted.
LayoutProblem ProblemFor(const StorageSystem& sys,
                         const std::vector<int64_t>& sizes) {
  static const CostModel* flat = [] {
    auto m = CostModel::Create("flat", {8192}, {1}, {0}, {0.01}, {0.01});
    LDB_CHECK(m.ok());
    return new CostModel(std::move(m).value());
  }();
  LayoutProblem p;
  for (size_t i = 0; i < sizes.size(); ++i) {
    p.object_names.push_back(StrFormat("obj%zu", i));
    p.object_sizes.push_back(sizes[i]);
    p.object_kinds.push_back(ObjectKind::kTable);
    WorkloadDesc w;
    w.overlap_index = {static_cast<int32_t>(i)};
    w.overlap_value = {0.0};
    p.workloads.push_back(std::move(w));
  }
  for (int j = 0; j < sys.num_targets(); ++j) {
    p.targets.push_back(AdvisorTarget{sys.target(j).name(),
                                      sys.capacities()[j], flat, 1,
                                      64 * kKiB});
  }
  p.lvm_stripe_bytes = 64 * kKiB;
  return p;
}

/// The regular layout placing object i on `placements[i]`.
Layout Placed(const std::vector<std::vector<int>>& placements, int targets) {
  Layout l(static_cast<int>(placements.size()), targets);
  for (size_t i = 0; i < placements.size(); ++i) {
    l.SetRowRegular(static_cast<int>(i), placements[i]);
  }
  return l;
}

// ------------------------------------------------------------- SimBackend

TEST(SimBackendTest, GeometryAndDataPlaneContract) {
  DiskModel proto(Scsi15kParams());
  auto sys = MakeSystem3(proto);
  SimBackend backend(sys.get());
  const BackendGeometry& g = backend.geometry();
  EXPECT_EQ(g.kind, BackendKind::kSim);
  EXPECT_EQ(g.num_targets, 3);
  ASSERT_EQ(g.capacity_bytes.size(), 3u);
  EXPECT_FALSE(g.direct_io);
  // The sim has no bytes to serve.
  char buf[512];
  EXPECT_FALSE(backend.ReadSync(0, 0, 512, buf).ok());
  EXPECT_FALSE(backend.WriteSync(0, 0, 512, buf).ok());
  EXPECT_TRUE(backend.Sync().ok());
  EXPECT_EQ(backend.PumpCompletions(), 0);
  EXPECT_TRUE(backend.Drain().ok());
}

TEST(SimBackendTest, BitIdenticalToDirectSimulatorRun) {
  // The load-bearing differential: the same workload, same seed, run once
  // through the direct submission path and once through the SimBackend
  // seam, must produce *exactly* equal results — same virtual clock, same
  // request count, same per-target utilization to the last bit.
  Catalog cat = Catalog::TpcH(0.01);
  auto spec = MakeOlapSpec(cat, 1, 2, 7);
  ASSERT_TRUE(spec.ok());
  DiskModel proto(Scsi15kParams());

  auto run = [&](bool through_backend) {
    std::vector<TargetSpec> specs;
    for (int j = 0; j < 3; ++j) {
      specs.push_back({StrFormat("disk%d", j), &proto, 1, 64 * kKiB});
    }
    auto sys = std::make_unique<StorageSystem>(specs);
    std::vector<std::vector<int>> placements(
        static_cast<size_t>(cat.num_objects()), std::vector<int>{0, 1, 2});
    auto vol = StripedVolumeManager::Create(cat.sizes(), placements,
                                            sys->capacities(), kMiB);
    LDB_CHECK(vol.ok());
    WorkloadRunner runner(sys.get(), &*vol, /*seed=*/42);
    std::unique_ptr<SimBackend> backend;
    if (through_backend) {
      backend = std::make_unique<SimBackend>(sys.get());
      runner.set_backend(backend.get());
    }
    auto result = runner.RunOlap(*spec);
    LDB_CHECK(result.ok());
    return std::move(result).value();
  };

  const RunResult direct = run(false);
  const RunResult seamed = run(true);
  EXPECT_EQ(seamed.elapsed_seconds, direct.elapsed_seconds);
  EXPECT_EQ(seamed.olap_queries_completed, direct.olap_queries_completed);
  EXPECT_EQ(seamed.total_requests, direct.total_requests);
  ASSERT_EQ(seamed.utilization.size(), direct.utilization.size());
  for (size_t j = 0; j < direct.utilization.size(); ++j) {
    EXPECT_EQ(seamed.utilization[j], direct.utilization[j]) << "target " << j;
  }
}

TEST(SimBackendTest, CountersCountSeamSubmissions) {
  Catalog cat = Catalog::TpcH(0.01);
  auto spec = MakeOlapSpec(cat, 1, 1, 7);
  ASSERT_TRUE(spec.ok());
  DiskModel proto(Scsi15kParams());
  auto sys = MakeSystem3(proto);
  std::vector<std::vector<int>> placements(
      static_cast<size_t>(cat.num_objects()), std::vector<int>{0, 1, 2});
  auto vol = StripedVolumeManager::Create(cat.sizes(), placements,
                                          sys->capacities(), kMiB);
  ASSERT_TRUE(vol.ok());
  WorkloadRunner runner(sys.get(), &*vol);
  SimBackend backend(sys.get());
  runner.set_backend(&backend);
  auto result = runner.RunOlap(*spec);
  ASSERT_TRUE(result.ok());
  const BackendCounters c = backend.counters();
  // Every target-level request flowed through the seam.
  EXPECT_EQ(c.reads + c.writes, result->total_requests);
  EXPECT_GT(c.bytes_read + c.bytes_written, 0);
  EXPECT_EQ(c.errors, 0u);
}

// ------------------------------------------------------------ FileBackend

TEST(FileBackendTest, ProbeRejectsSizeNotMultipleOfBlock) {
  const std::string dir = FreshDir("badsize");
  // Pre-create target 0 with a torn 1000-byte size.
  const std::string path = dir + "/target-000.dat";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::vector<char> junk(1000, 'x');
  ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), f), junk.size());
  std::fclose(f);

  auto opened = FileBackend::Open(SmallFileOptions(dir, 2, 64 * kKiB));
  ASSERT_FALSE(opened.ok());
  const std::string msg = opened.status().message();
  EXPECT_NE(msg.find("backend target clause 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("not a multiple"), std::string::npos) << msg;
}

TEST(FileBackendTest, ProbeRejectsNonRegularTarget) {
  const std::string dir = FreshDir("nonreg");
  ASSERT_EQ(::mkdir((dir + "/target-000.dat").c_str(), 0755), 0);
  auto opened = FileBackend::Open(SmallFileOptions(dir, 1, 64 * kKiB));
  ASSERT_FALSE(opened.ok());
  const std::string msg = opened.status().message();
  EXPECT_NE(msg.find("backend target clause 1"), std::string::npos) << msg;
}

TEST(FileBackendTest, ProbeRejectsNonPositiveCapacity) {
  const std::string dir = FreshDir("zerocap");
  FileBackendOptions o = SmallFileOptions(dir, 2, 64 * kKiB);
  o.capacity_bytes[1] = 0;
  auto opened = FileBackend::Open(o);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("backend target clause 2"),
            std::string::npos)
      << opened.status().message();
}

TEST(FileBackendTest, SyncRoundtripAndAlignmentCounters) {
  const std::string dir = FreshDir("roundtrip");
  auto opened = FileBackend::Open(SmallFileOptions(dir, 1, kMiB));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& b = **opened;
  ASSERT_EQ(b.geometry().num_targets, 1);
  EXPECT_EQ(b.geometry().capacity_bytes[0], kMiB);

  std::vector<char> out(8192), in(8192, 0);
  FillPattern(/*object=*/3, /*offset=*/0, 8192, out.data());
  ASSERT_TRUE(b.WriteSync(0, 4096, 8192, out.data()).ok());
  ASSERT_TRUE(b.Sync().ok());
  ASSERT_TRUE(b.ReadSync(0, 4096, 8192, in.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), in.data(), 8192), 0);

  // An unaligned request is served (buffered fallback) and counted.
  const uint64_t before = b.counters().unaligned_requests;
  ASSERT_TRUE(b.ReadSync(0, 100, 700, in.data()).ok());
  EXPECT_EQ(b.counters().unaligned_requests, before + 1);
  EXPECT_GE(b.counters().writes, 1u);
  EXPECT_GE(b.counters().reads, 2u);
  EXPECT_GE(b.counters().syncs, 1u);
  EXPECT_GE(b.counters().io_time_s, 0.0);
}

TEST(FileBackendTest, AsyncSubmitDeliversCompletionsOnPump) {
  const std::string dir = FreshDir("async");
  auto opened = FileBackend::Open(SmallFileOptions(dir, 2, kMiB));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& b = **opened;

  std::vector<char> data(64 * kKiB);
  FillPattern(/*object=*/1, /*offset=*/0, 64 * kKiB, data.data());
  int fired = 0;
  Status last;
  double when = -1.0;
  TargetRequest req;
  req.offset = 128 * kKiB;
  req.size = 64 * kKiB;
  req.is_write = true;
  b.Submit(1, req, data.data(), [&](double t, const Status& s) {
    ++fired;
    when = t;
    last = s;
  });
  // Timing-only replay: null data moves bytes through worker scratch.
  TargetRequest replay;
  replay.offset = 0;
  replay.size = 64 * kKiB;
  replay.is_write = false;
  b.Submit(0, replay, nullptr, [&](double, const Status& s) {
    ++fired;
    EXPECT_TRUE(s.ok()) << s.ToString();
  });
  ASSERT_TRUE(b.Drain().ok());
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(last.ok()) << last.ToString();
  EXPECT_GE(when, 0.0);

  std::vector<char> back(64 * kKiB, 0);
  ASSERT_TRUE(b.ReadSync(1, 128 * kKiB, 64 * kKiB, back.data()).ok());
  EXPECT_EQ(std::memcmp(data.data(), back.data(), data.size()), 0);
}

TEST(FileBackendTest, OutOfRangeSubmitCompletesWithError) {
  const std::string dir = FreshDir("range");
  auto opened = FileBackend::Open(SmallFileOptions(dir, 1, kMiB));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& b = **opened;
  std::vector<char> buf(4096);
  Status got = Status::Ok();
  TargetRequest req;
  req.offset = kMiB;  // starts exactly at capacity
  req.size = 4096;
  req.is_write = false;
  b.Submit(0, req, buf.data(), [&](double, const Status& s) { got = s; });
  ASSERT_TRUE(b.Drain().ok());
  EXPECT_FALSE(got.ok());
  EXPECT_GE(b.counters().errors, 1u);
}

TEST(FileBackendTest, DualEpochHalvesAreDisjoint) {
  const std::string dir = FreshDir("epoch");
  FileBackendOptions o = SmallFileOptions(dir, 1, kMiB);
  o.dual_epoch = true;
  auto opened = FileBackend::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& b = **opened;
  // Provisioned at 2x; the stride is the single-epoch capacity.
  EXPECT_EQ(b.geometry().capacity_bytes[0], 2 * kMiB);
  ASSERT_EQ(b.geometry().epoch_stride.size(), 1u);
  EXPECT_EQ(b.geometry().epoch_stride[0], kMiB);

  // The same simulated chunk offset lands in different file halves per
  // epoch, so a destination write cannot clobber source bytes.
  const TargetChunk src{/*target=*/0, /*offset=*/0, /*size=*/4096,
                        /*epoch=*/0};
  TargetChunk dst = src;
  dst.epoch = 1;
  EXPECT_EQ(DataPlaneOffset(b.geometry(), src), 0);
  EXPECT_EQ(DataPlaneOffset(b.geometry(), dst), kMiB);

  std::vector<char> a(4096, 'a'), z(4096, 'z'), back(4096);
  ASSERT_TRUE(
      b.WriteSync(0, DataPlaneOffset(b.geometry(), src), 4096, a.data())
          .ok());
  ASSERT_TRUE(
      b.WriteSync(0, DataPlaneOffset(b.geometry(), dst), 4096, z.data())
          .ok());
  ASSERT_TRUE(
      b.ReadSync(0, DataPlaneOffset(b.geometry(), src), 4096, back.data())
          .ok());
  EXPECT_EQ(back[0], 'a');
  ASSERT_TRUE(
      b.ReadSync(0, DataPlaneOffset(b.geometry(), dst), 4096, back.data())
          .ok());
  EXPECT_EQ(back[0], 'z');
}

TEST(FileBackendTest, PatternPopulateThenVerify) {
  const std::string dir = FreshDir("pattern");
  auto opened = FileBackend::Open(SmallFileOptions(dir, 3, 8 * kMiB));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& b = **opened;

  const std::vector<int64_t> sizes{2 * kMiB, kMiB + 64 * kKiB, 512 * kKiB};
  StripedVolumeManager vol =
      MakeVolumes(sizes, {{0, 1}, {2}, {0, 2}}, {8 * kMiB, 8 * kMiB, 8 * kMiB});
  PassthroughRouter router(&vol);

  ASSERT_TRUE(PopulateBackendPattern(&b, &router).ok());
  auto verified = VerifyBackendPattern(&b, &router);
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(*verified, 2 * kMiB + kMiB + 64 * kKiB + 512 * kKiB);

  // Corrupt one block under object 0's first extent: verification must
  // name the mismatch instead of passing.
  std::vector<char> zeros(4096, 0);
  ASSERT_TRUE(b.WriteSync(0, 0, 4096, zeros.data()).ok());
  auto broken = VerifyBackendPattern(&b, &router);
  ASSERT_FALSE(broken.ok());
  EXPECT_NE(broken.status().message().find("pattern mismatch"),
            std::string::npos)
      << broken.status().message();
}

// ------------------------------------------------- real-migration e2e

TEST(RealMigrationTest, MigrationCopiesEveryByteThroughFileBackend) {
  const std::string dir = FreshDir("migrate");
  FileBackendOptions o = SmallFileOptions(dir, 3, 32 * kMiB);
  o.dual_epoch = true;
  auto opened = FileBackend::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  DiskModel proto(Scsi15kParams());
  auto sys = MakeSystem3(proto);
  const std::vector<int64_t> sizes{2 * kMiB, kMiB + 64 * kKiB, 512 * kKiB};

  // A small closed-loop OLTP foreground (with writes) runs while the
  // migration copies real bytes underneath it; sim writes are
  // location-independent pattern-keyed traffic, so the real bytes still
  // verify afterward.
  OltpSpec oltp;
  oltp.name = "tiny";
  QueryStep step;
  step.streams.push_back(
      {/*object=*/0, /*bytes=*/256 * kKiB, /*request_bytes=*/64 * kKiB,
       AccessPattern::kRandom, /*write_fraction=*/0.25});
  step.streams.push_back(
      {/*object=*/2, /*bytes=*/128 * kKiB, /*request_bytes=*/64 * kKiB,
       AccessPattern::kSequential, /*write_fraction=*/0.0});
  oltp.transaction.name = "txn";
  oltp.transaction.steps.push_back(step);
  oltp.terminals = 2;
  oltp.txn_overhead_s = 0.1;

  MigrateOptions mopts;
  mopts.chunk_bytes = kMiB;
  mopts.data_backend = opened->get();
  RunSpec spec(Placed({{0}, {0, 1}, {1}}, 3));
  spec.migrate_to = Placed({{1, 2}, {2}, {0, 2}}, 3);
  spec.migrate = mopts;
  auto report = RunLayout(sys.get(), ProblemFor(*sys, sizes), spec,
                          WorkloadForeground(/*olap=*/nullptr, &oltp,
                                             /*oltp_duration_s=*/10.0,
                                             /*seed=*/42));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, MigrationOutcome::kCompleted);
  EXPECT_TRUE(report->readable.ok()) << report->readable.ToString();
  ASSERT_TRUE(report->real_backend);
  EXPECT_TRUE(report->real_readable.ok()) << report->real_readable.ToString();
  EXPECT_EQ(report->real_bytes_verified, 2 * kMiB + kMiB + 64 * kKiB +
                                             512 * kKiB);
  // Every chunk's bytes crossed the backend: at least one read and one
  // write per copied chunk, plus the populate/verify passes.
  const BackendCounters c = opened->get()->counters();
  EXPECT_GE(c.bytes_written, report->stats.bytes_written);
  EXPECT_GE(c.syncs, 1u);
}

TEST(RealMigrationTest, RealCopyFailureRollsBack) {
  // Undersized backend files: the first destination write past the file
  // end fails, and the executor must roll back rather than report success.
  const std::string dir = FreshDir("rollback");
  FileBackendOptions o = SmallFileOptions(dir, 3, kMiB);
  o.capacity_bytes[0] = 4 * kMiB;  // source fits; destination (t1) does not
  auto opened = FileBackend::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  DiskModel proto(Scsi15kParams());
  auto sys = MakeSystem3(proto);
  const std::vector<int64_t> sizes{2 * kMiB};

  OltpSpec oltp;
  oltp.name = "tiny";
  QueryStep step;
  step.streams.push_back({/*object=*/0, /*bytes=*/64 * kKiB,
                          /*request_bytes=*/64 * kKiB,
                          AccessPattern::kSequential,
                          /*write_fraction=*/0.0});
  oltp.transaction.name = "txn";
  oltp.transaction.steps.push_back(step);
  oltp.terminals = 1;
  oltp.txn_overhead_s = 0.1;

  MigrateOptions mopts;
  mopts.chunk_bytes = kMiB;
  mopts.data_backend = opened->get();
  RunSpec spec(Placed({{0}}, 3));
  spec.migrate_to = Placed({{1}}, 3);
  spec.migrate = mopts;
  auto report = RunLayout(sys.get(), ProblemFor(*sys, sizes), spec,
                          WorkloadForeground(/*olap=*/nullptr, &oltp,
                                             /*oltp_duration_s=*/6.0,
                                             /*seed=*/42));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, MigrationOutcome::kRolledBack);
  // Rollback keeps the source authoritative: bytes still verify there.
  ASSERT_TRUE(report->real_backend);
  EXPECT_TRUE(report->real_readable.ok()) << report->real_readable.ToString();
}

// The autopilot adopts each migration's destination manager wholesale, so
// objects a partial migration leaves on their targets must still move to
// the destination's data epoch: every byte verifies after the run.
TEST(RealMigrationTest, PartialAutopilotMigrationsKeepEveryByte) {
  static const ExperimentRig* rig = [] {
    auto r = ExperimentRig::Create(Catalog::TpcC(0.02),
                                   {{"d0"}, {"d1"}, {"d2"}}, 0.02, 3);
    LDB_CHECK(r.ok());
    return new ExperimentRig(std::move(r).value());
  }();
  auto oltp = MakeOltpSpec(rig->catalog());
  ASSERT_TRUE(oltp.ok());
  const int n = rig->catalog().num_objects();

  const std::string dir = FreshDir("autopilot");
  FileBackendOptions o;
  o.dir = dir;
  o.dual_epoch = true;
  o.quiet = true;
  o.capacity_bytes = rig->MakeSystem()->capacities();
  auto opened = FileBackend::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  // Everything piled on d0/d1 against a reference the live OLTP window
  // cannot resemble: the loop trips, re-advises onto the idle d2, and
  // moves only part of the catalog.
  Layout paired(n, 3);
  for (int i = 0; i < n; ++i) paired.Set(i, i % 2, 1.0);
  WorkloadSet reference(static_cast<size_t>(n));
  for (auto& w : reference) {
    w.read_rate = 1.0;
    w.read_size = 8 * 1024;
    w.overlap.assign(static_cast<size_t>(n), 0.0);
  }
  RunSpec spec(paired);
  spec.autopilot.emplace();
  AutopilotConfig& c = spec.autopilot->config;
  c.analyzer.half_life_s = 10.0;
  c.check_interval_s = 1.0;
  c.drift.threshold = 0.3;
  c.drift.trip_evaluations = 1;
  c.drift.cooldown_s = 5.0;
  c.gate_min_gain = 0.0;
  c.gate_horizon_s = 1e9;
  c.gate_fallback_bandwidth = 1e12;
  spec.autopilot->migrate.data_backend = opened->get();
  auto report = rig->Execute(spec, nullptr, &*oltp, 40.0, reference);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_GE(report->migrations_completed, 1);
  bool partial = false;
  for (const AutopilotDecision& d : report->decisions) {
    int moved = 0;
    if (d.started &&
        std::sscanf(d.note.c_str(), "migration started: %d objects",
                    &moved) == 1) {
      partial = partial || moved < n;
    }
  }
  EXPECT_TRUE(partial) << "no migration left an object in place";
  ASSERT_TRUE(report->real_backend);
  EXPECT_TRUE(report->real_readable.ok()) << report->real_readable.ToString();
  EXPECT_GT(report->real_bytes_verified, 0);
}

}  // namespace
}  // namespace ldb
