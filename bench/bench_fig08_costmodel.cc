// Reproduces paper Figure 8: one slice of the calibrated read-cost model
// for the 15K-RPM disk — the cost of 8 KiB read requests as a function of
// the contention factor, one series per run count (degree of
// sequentiality).
//
// Paper shape to reproduce:
//  * at low contention, sequential requests are much cheaper than random;
//  * the sequential advantage survives small contention (the drive tracks
//    a small number of concurrent streams) and collapses by χ ≈ 2;
//  * the cost of non-sequential requests (run count 1) *decreases* with
//    contention, because device scheduling works better on deeper queues.

#include <cstdio>

#include "bench/bench_common.h"
#include "model/calibration.h"
#include "storage/disk.h"
#include "util/table.h"

using namespace ldb;
using namespace ldb::bench;

int main(int argc, char** argv) {
  const BenchEnv env = ParseBenchEnv(argc, argv);
  PrintHeader("Figure 8",
              "cost model slice: 8 KiB reads vs contention factor", env);

  DiskModel disk(Scsi15kParams());
  CalibrationOptions options;
  options.seed = env.seed;
  auto model = CalibrateDevice(disk, options);
  if (!model.ok()) {
    std::fprintf(stderr, "calibration: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }

  const double run_counts[] = {1, 4, 16, 64, 128};
  const double chis[] = {0, 0.5, 1, 1.5, 2, 3, 4, 8, 16};

  std::vector<std::string> header{"contention"};
  for (double q : run_counts) header.push_back(StrFormat("run=%.0f", q));
  TextTable table(std::move(header));
  for (double chi : chis) {
    std::vector<std::string> row{StrFormat("%.1f", chi)};
    for (double q : run_counts) {
      row.push_back(
          StrFormat("%.2f ms", 1e3 * model->ReadCost(8 * kKiB, q, chi)));
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.ToString().c_str());

  const double seq0 = model->ReadCost(8 * kKiB, 128, 0);
  const double seq1 = model->ReadCost(8 * kKiB, 128, 1);
  const double seq2 = model->ReadCost(8 * kKiB, 128, 2);
  const double rnd0 = model->ReadCost(8 * kKiB, 1, 0);
  const double rnd4 = model->ReadCost(8 * kKiB, 1, 4);
  // Every shape bar holds for the default calibration; a miss fails the
  // run.
  bool all_ok = true;
  const auto check = [&all_ok](bool ok) {
    all_ok = all_ok && ok;
    return ok ? "[ok]" : "[MISS]";
  };
  std::printf("Shape checks (paper Figure 8):\n");
  std::printf("  sequential %.1fx cheaper than random at chi=0  %s\n",
              rnd0 / seq0, check(rnd0 / seq0 > 4));
  std::printf("  sequential advantage at chi=1 still %.1fx       %s\n",
              rnd0 / seq1, check(rnd0 / seq1 > 1.5));
  std::printf("  collapse by chi=2: seq cost grew %.1fx          %s\n",
              seq2 / seq0, check(seq2 / seq0 > 4));
  std::printf("  random cost falls with contention (%.2f -> %.2f ms) %s\n",
              1e3 * rnd0, 1e3 * rnd4, check(rnd4 < rnd0));
  return all_ok ? 0 : 1;
}
