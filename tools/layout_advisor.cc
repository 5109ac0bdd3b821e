// layout_advisor — the standalone database storage layout advisor CLI,
// the deployment mode the paper proposes (Section 8: "the technique could
// be deployed as a standalone storage layout advisor, whose output would
// guide the configuration of both the database system and the storage
// system").
//
// Usage:
//   layout_advisor <problem-file> [--no-regularize] [--seeds=<n>]
//                  [--compare-see] [--threads=<n>]
//                  [--calibration-cache=<dir>]
//                  [--faults=<spec>] [--replan]
//                  [--migrate] [--migrate-throttle=<MB/s>]
//                  [--autopilot[=<spec>]] [--drift-threshold=<x>]
//                  [--autopilot-duration=<s>] [--scenario]
//                  [--journal=<path>] [--resume] [--journal-crash=<spec>]
//                  [--backend=sim|file] [--backend-dir=<dir>]
//
// --faults=<spec> parses a deterministic fault plan (see
// src/storage/fault.h for the grammar, e.g.
// "t=1,target=0,member=0,kind=fail") and reports the surviving health of
// every target. A `faults` directive in the problem file is used when the
// flag is absent (the flag takes precedence). With --replan, the advisor
// additionally runs failure-aware re-layout: the recommended layout is
// replanned around the failed/derated targets and the migration plan
// (bytes to move) is printed. --replan without --faults replans against
// all-healthy targets and must be a no-op (printed as such).
//
// --threads=<n> sets the solver's evaluation-engine parallelism and the
// device-calibration parallelism (0 = one thread per hardware core). The
// recommended layout is identical for every thread count.
//
// Runs. --migrate, --autopilot and --scenario each request one run, and
// each run is one RunSpec (src/core/run.h) executed by the same pipeline
// on a simulated rebuild of the problem's targets (devices reconstructed
// from the calibrated cost models' names) with the SEE baseline deployed
// and the fault plan armed. The foreground is a closed-loop workload
// synthesized from the fitted descriptions, or the problem's scenario.
// Every run ends with the same lines: real-file verification, skipped
// faults, and the journal.
//
// --migrate simulates carrying the recommendation out *online*: a
// chunk-level migration executor copies every moving object from the SEE
// baseline layout to the recommended one in the background while the
// foreground keeps running (src/core/migrate.h).
// --migrate-throttle=<MB/s> rate-limits the copy I/O; composing with
// --faults injects the fault plan into the same run, so a target can die
// mid-copy (the executor rolls back or freezes routing, and the report
// says which).
//
// --autopilot engages the closed-loop layout autopilot: the
// monitor/drift/gate loop re-advises and migrates online while the
// foreground runs (src/core/autopilot.h). The optional <spec> uses the
// ParseAutopilotSpec grammar ("interval=2;threshold=0.25,trip=2"); it
// overrides any `autopilot` directive in the problem file.
// --drift-threshold=<x> (x > 0, `inf` disables tripping) overrides the
// spec's threshold. Composes with
// --faults (same system, so a target can die mid-loop) and
// --migrate-throttle (rate-limits autopilot-started copies and prices the
// gate). --autopilot-duration=<s> sets the simulated foreground duration.
//
// --scenario makes the problem file's `scenario` directive (a declarative
// time-varying multi-tenant workload; see src/scenario/scenario.h for the
// grammar) the foreground: played statically on its own, or under the
// closed autopilot loop when combined with --autopilot.
//
// --journal=<path> makes the migration/autopilot control plane durable: a
// crash-recoverable WAL (src/util/wal.h) records every migration journal
// entry before it takes effect, plus autopilot intent/checkpoint records.
// Requires --migrate or --autopilot (with or without --scenario). --resume
// recovers the journal and continues: a --migrate run resumes the
// recorded migration from its last committed chunk; an --autopilot run
// deploys the last checkpointed (or committed-but-uncheckpointed) layout
// and drift reference. Resuming a journal recorded for a different
// problem or plan is refused with a digest diagnostic. --journal-crash=
// <spec> arms deterministic crash injection on the journal writer
// (grammar "after=N[,torn=K]" / "syncs=S", see ParseWalCrashPolicy); a
// fired crash exits with status 3 and prints the resume command: this
// invocation's arguments without --journal-crash, plus --resume. A
// resumed --scenario run restarts the player at the journal's clock.
//
// --backend=<sim|file> selects the execution backend for migration data
// (src/io/backend.h). `sim` (the default) keeps everything on the event-
// queue simulator, bit-identical to builds before the seam existed.
// `file` opens a real-I/O FileBackend under --backend-dir=<dir> (one
// `target-NNN.dat` file per target, O_DIRECT when the filesystem supports
// it, buffered + a warning otherwise): migration chunks are then *really
// copied* between the files while the simulator still drives timing, and
// the run ends by re-reading every object byte through the final routing
// and checking it against the seeded pattern (autopilot migrations then
// copy every object, since each adopted layout's extents live in the
// other file half). Requires --migrate or --autopilot; composes with
// --journal/--resume — a killed real-file migration resumes against the
// same directory and recopies only what the journal does not pin as
// committed.
//
// --calibration-cache=<dir> persists calibrated device cost models across
// invocations (keyed by device parameters + calibration options), so
// repeated runs skip the Section 5.2.2 measurement entirely.
//
// The problem file describes objects, workloads, targets and constraints;
// see src/core/problem_io.h for the format and examples/data/ for a
// sample.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/baselines.h"
#include "core/journal.h"
#include "core/problem_io.h"
#include "core/replan.h"
#include "core/run.h"
#include "core/sim_setup.h"
#include "io/file_backend.h"
#include "monitor/autopilot_spec.h"
#include "scenario/sim.h"
#include "storage/fault.h"
#include "util/wal.h"

namespace {

using namespace ldb;

double MiB(double bytes) { return bytes / (1024.0 * 1024.0); }

void PrintDecisions(const RunReport& r) {
  for (const AutopilotDecision& d : r.decisions) {
    std::printf(
        "  t=%7.2f drift=%.3f max-util %.1f%% -> %.1f%%, %.1f MB to move: "
        "%s\n",
        d.time, d.score, 100 * d.current_max_util, 100 * d.advised_max_util,
        MiB(d.migration_bytes), d.note.c_str());
  }
  std::printf(
      "  migrations: %d started, %d completed, %d suppressed by gate, %d "
      "rolled back, %d frozen; %.1f MB copied\n",
      r.migrations_started, r.migrations_completed, r.migrations_suppressed,
      r.migrations_rolled_back, r.migrations_aborted, MiB(r.bytes_copied));
}

void PrintMigration(const RunReport& r) {
  const double duration = r.stats.end_time >= 0.0 && r.stats.start_time >= 0.0
                              ? r.stats.end_time - r.stats.start_time
                              : -1.0;
  std::printf(
      "Migration (SEE -> recommended): %s in %.2f s simulated; %lld/%lld "
      "chunks committed (%lld recopied), %.1f MB copied, %zu journal "
      "records\n",
      MigrationOutcomeName(r.outcome), duration,
      static_cast<long long>(r.stats.chunks_committed),
      static_cast<long long>(r.stats.chunks_total),
      static_cast<long long>(r.stats.chunks_recopied), MiB(r.bytes_copied),
      r.journal.size());
  if (r.failed_target >= 0 || !r.failure_reason.empty()) {
    std::printf("  failure: %s\n", r.failure_reason.c_str());
  }
  std::printf(
      "  foreground during migration: %llu requests, mean %.2f ms, p99 %.2f "
      "ms\n",
      static_cast<unsigned long long>(r.fg_requests),
      1e3 * r.fg_mean_latency_s, 1e3 * r.fg_p99_s);
  std::printf("  every byte readable at end: %s\n",
              r.readable.ok() ? "yes" : r.readable.ToString().c_str());
}

void PrintAutopilot(const AutopilotConfig& config, const RunReport& r) {
  std::printf(
      "Autopilot (%s): %llu ticks, %llu monitored completions over %.2f s "
      "simulated\n",
      AutopilotConfigToString(config).c_str(),
      static_cast<unsigned long long>(r.ticks),
      static_cast<unsigned long long>(r.monitor_events),
      r.run.elapsed_seconds);
  PrintDecisions(r);
  std::printf(
      "  foreground: %llu requests, mean %.2f ms; final drift score %.3f\n",
      static_cast<unsigned long long>(r.fg_requests),
      1e3 * r.fg_mean_latency_s, r.final_drift_score);
}

void PrintScenario(const LayoutProblem& problem, const ScenarioSpec& spec,
                   const ScenarioPlayStats& play, const RunReport& r,
                   bool autopilot) {
  std::printf(
      "Scenario (%s, %s): %llu arrivals, %llu requests submitted (%llu "
      "shed), %llu completed over %.2f s simulated\n",
      ScenarioToString(spec).c_str(), autopilot ? "autopilot" : "static",
      static_cast<unsigned long long>(play.arrivals),
      static_cast<unsigned long long>(play.requests),
      static_cast<unsigned long long>(play.shed),
      static_cast<unsigned long long>(r.run.total_requests),
      r.run.elapsed_seconds);
  for (size_t j = 0; j < r.run.utilization.size(); ++j) {
    std::printf("  target %-12s measured utilization %.1f%%\n",
                problem.targets[j].name.c_str(), 100 * r.run.utilization[j]);
  }
  if (autopilot) PrintDecisions(r);
}

/// Single-quotes an argument for a POSIX shell unless it is plainly safe.
std::string ShellQuote(const std::string& arg) {
  const bool safe =
      !arg.empty() && arg.find_first_not_of(
                          "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                          "0123456789_-+=/.,:@%") == std::string::npos;
  if (safe) return arg;
  std::string out = "'";
  for (char c : arg) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

/// This invocation as a resume command: the same arguments minus the crash
/// injection, plus --resume.
std::string ResumeCommand(int argc, char** argv) {
  std::string cmd;
  for (int a = 0; a < argc; ++a) {
    if (std::strncmp(argv[a], "--journal-crash=", 16) == 0 ||
        std::strcmp(argv[a], "--resume") == 0) {
      continue;
    }
    if (!cmd.empty()) cmd += ' ';
    cmd += ShellQuote(argv[a]);
  }
  return cmd + " --resume";
}

/// The lines every run ends with: real-file verification, skipped faults,
/// and the journal (with the resume command after an injected crash).
/// Returns the exit status: 3 after a journal crash, 1 when the real files
/// do not verify, else 0.
int PrintRunTail(const RunReport& r, const std::string& journal_path,
                 int argc, char** argv) {
  if (r.real_backend) {
    std::printf(
        "  every object byte readable on real files: %s (%.1f MB verified)\n",
        r.real_readable.ok() ? "yes" : r.real_readable.ToString().c_str(),
        MiB(r.real_bytes_verified));
  }
  for (const std::string& s : r.run.skipped_faults) {
    std::printf("  skipped fault: %s\n", s.c_str());
  }
  if (!journal_path.empty()) {
    std::printf(
        "  journal: %lld records (%lld recovered), %lld bytes at %s%s\n",
        static_cast<long long>(r.journal_records),
        static_cast<long long>(r.resumed_records),
        static_cast<long long>(r.journal_bytes), journal_path.c_str(),
        r.resumed_from_journal ? " (resumed from journal)" : "");
    if (r.journal_crashed) {
      std::printf(
          "  journal crash injected (%s); control plane frozen, durable "
          "state kept\n"
          "  resume with: %s\n",
          r.journal_error.c_str(), ResumeCommand(argc, argv).c_str());
      return 3;
    }
  }
  return r.real_backend && !r.real_readable.ok() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <problem-file> [--no-regularize] [--seeds=<n>] "
                 "[--compare-see] [--threads=<n>] "
                 "[--calibration-cache=<dir>] [--faults=<spec>] [--replan] "
                 "[--migrate] [--migrate-throttle=<MB/s>] "
                 "[--autopilot[=<spec>]] [--scenario] "
                 "[--journal=<path>] [--resume] [--journal-crash=<spec>] "
                 "[--backend=sim|file] [--backend-dir=<dir>]\n",
                 argv[0]);
    return 2;
  }
  AdvisorOptions options;
  ProblemIoOptions io_options;
  bool compare_see = false;
  bool replan = false;
  bool migrate = false;
  bool autopilot = false;
  bool scenario = false;
  bool has_autopilot_spec = false;
  bool has_drift_threshold = false;
  double migrate_throttle_mbps = 0.0;
  double drift_threshold = 0.0;
  double autopilot_duration_s = 30.0;
  std::string autopilot_spec;
  std::string faults_spec;
  std::string journal_path;
  std::string journal_crash_spec;
  bool resume = false;
  bool backend_file = false;
  std::string backend_dir;
  std::string path;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--no-regularize") == 0) {
      options.regularize = false;
    } else if (std::strncmp(argv[a], "--seeds=", 8) == 0) {
      options.extra_random_seeds = std::atoi(argv[a] + 8);
    } else if (std::strcmp(argv[a], "--compare-see") == 0) {
      compare_see = true;
    } else if (std::strncmp(argv[a], "--threads=", 10) == 0) {
      options.solver.num_threads = std::atoi(argv[a] + 10);
      io_options.calibration.num_threads = options.solver.num_threads;
    } else if (std::strncmp(argv[a], "--calibration-cache=", 20) == 0) {
      io_options.calibration.cache_dir = argv[a] + 20;
    } else if (std::strncmp(argv[a], "--faults=", 9) == 0) {
      faults_spec = argv[a] + 9;
    } else if (std::strcmp(argv[a], "--replan") == 0) {
      replan = true;
    } else if (std::strcmp(argv[a], "--migrate") == 0) {
      migrate = true;
    } else if (std::strncmp(argv[a], "--migrate-throttle=", 19) == 0) {
      migrate = true;
      migrate_throttle_mbps = std::atof(argv[a] + 19);
      if (migrate_throttle_mbps <= 0.0) {
        std::fprintf(stderr, "--migrate-throttle needs a rate > 0 (MB/s)\n");
        return 2;
      }
    } else if (std::strncmp(argv[a], "--autopilot=", 12) == 0) {
      autopilot = true;
      has_autopilot_spec = true;
      autopilot_spec = argv[a] + 12;
    } else if (std::strcmp(argv[a], "--autopilot") == 0) {
      autopilot = true;
    } else if (std::strcmp(argv[a], "--scenario") == 0) {
      scenario = true;
    } else if (std::strncmp(argv[a], "--journal=", 10) == 0) {
      journal_path = argv[a] + 10;
      if (journal_path.empty()) {
        std::fprintf(stderr, "--journal needs a non-empty path\n");
        return 2;
      }
    } else if (std::strcmp(argv[a], "--resume") == 0) {
      resume = true;
    } else if (std::strncmp(argv[a], "--journal-crash=", 16) == 0) {
      journal_crash_spec = argv[a] + 16;
    } else if (std::strncmp(argv[a], "--backend=", 10) == 0) {
      const char* b = argv[a] + 10;
      if (std::strcmp(b, "sim") == 0) {
        backend_file = false;
      } else if (std::strcmp(b, "file") == 0) {
        backend_file = true;
      } else {
        std::fprintf(stderr, "--backend must be 'sim' or 'file', got '%s'\n",
                     b);
        return 2;
      }
    } else if (std::strncmp(argv[a], "--backend-dir=", 14) == 0) {
      backend_dir = argv[a] + 14;
    } else if (std::strncmp(argv[a], "--autopilot-duration=", 21) == 0) {
      autopilot = true;
      autopilot_duration_s = std::atof(argv[a] + 21);
      if (!(autopilot_duration_s > 0.0) ||
          !std::isfinite(autopilot_duration_s)) {
        std::fprintf(stderr,
                     "--autopilot-duration needs a finite duration > 0 (s)\n");
        return 2;
      }
    } else if (std::strncmp(argv[a], "--drift-threshold=", 18) == 0) {
      autopilot = true;
      has_drift_threshold = true;
      char* end = nullptr;
      drift_threshold = std::strtod(argv[a] + 18, &end);
      if (end == argv[a] + 18 || *end != '\0' || std::isnan(drift_threshold) ||
          drift_threshold <= 0.0) {
        // Mirrors the spec parser: > 0 required, inf allowed (disables
        // tripping), nan and garbage rejected.
        std::fprintf(stderr,
                     "--drift-threshold: threshold must be > 0 "
                     "(inf disables tripping), got '%s'\n",
                     argv[a] + 18);
        return 2;
      }
    } else if (argv[a][0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", argv[a]);
      return 2;
    } else {
      path = argv[a];
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "no problem file given\n");
    return 2;
  }
  // Journal flag consistency, ParseFaultPlan-style: each misuse names the
  // offending flag and what it needs.
  WalCrashPolicy journal_crash;
  if (resume && journal_path.empty()) {
    std::fprintf(stderr,
                 "--resume requires --journal=<path> (there is no journal "
                 "to recover without one)\n");
    return 2;
  }
  if (!journal_crash_spec.empty() && journal_path.empty()) {
    std::fprintf(stderr,
                 "--journal-crash requires --journal=<path> (crash "
                 "injection targets the journal writer)\n");
    return 2;
  }
  if (!journal_path.empty() && !migrate && !autopilot) {
    std::fprintf(stderr,
                 "--journal requires --migrate or --autopilot (only the "
                 "migration/autopilot control plane journals state)\n");
    return 2;
  }
  if (!journal_crash_spec.empty()) {
    auto parsed = ParseWalCrashPolicy(journal_crash_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--journal-crash: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    journal_crash = *parsed;
  }
  if (migrate && autopilot && !journal_path.empty()) {
    std::fprintf(stderr,
                 "--journal cannot serve --migrate and --autopilot in one "
                 "run (two control planes, one journal); pick one\n");
    return 2;
  }
  if (backend_file && backend_dir.empty()) {
    std::fprintf(stderr,
                 "--backend=file requires --backend-dir=<dir> (where the "
                 "target files live)\n");
    return 2;
  }
  if (!backend_dir.empty() && !backend_file) {
    std::fprintf(stderr,
                 "--backend-dir only applies with --backend=file (the sim "
                 "backend has no files)\n");
    return 2;
  }
  if (backend_file && !migrate && !autopilot) {
    std::fprintf(stderr,
                 "--backend=file requires --migrate or --autopilot (the "
                 "real data plane carries migration copies)\n");
    return 2;
  }

  auto loaded = LoadProblemFile(path, io_options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("Loaded %d objects onto %d targets from %s\n",
              loaded->problem.num_objects(), loaded->problem.num_targets(),
              path.c_str());

  LayoutAdvisor advisor(options);
  auto result = advisor.Recommend(loaded->problem);
  if (!result.ok()) {
    std::fprintf(stderr, "advisor: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", FormatAdvisorReport(loaded->problem, *result).c_str());

  if (compare_see) {
    const TargetModel model = loaded->problem.MakeTargetModel();
    const Layout see = SeeBaseline(loaded->problem);
    std::printf(
        "SEE baseline estimated max utilization: %.1f%% (optimized: "
        "%.1f%%)\n",
        100 * model.MaxUtilization(loaded->problem.workloads, see),
        100 * result->max_utilization_final);
  }

  if (!faults_spec.empty() || loaded->has_faults || replan || migrate ||
      autopilot || scenario) {
    TargetHealth health =
        TargetHealth::Healthy(loaded->problem.num_targets());
    FaultPlan plan;
    if (!faults_spec.empty() || loaded->has_faults) {
      if (!faults_spec.empty()) {
        // The CLI flag takes precedence over a `faults` directive.
        auto parsed = ParseFaultPlan(faults_spec);
        if (!parsed.ok()) {
          std::fprintf(stderr, "--faults: %s\n",
                       parsed.status().ToString().c_str());
          return 1;
        }
        plan = *parsed;
      } else {
        plan = loaded->faults;
      }
      health = HealthFromFaultPlan(plan, loaded->problem.targets);
      std::printf("Fault plan: %s\n", FaultPlanToString(plan).c_str());
      for (int j = 0; j < loaded->problem.num_targets(); ++j) {
        if (health.IsFailed(j)) {
          std::printf("  target %-12s FAILED\n",
                      loaded->problem.targets[j].name.c_str());
        } else if (health.derate[j] < 1.0) {
          std::printf("  target %-12s derated to %.0f%% of healthy\n",
                      loaded->problem.targets[j].name.c_str(),
                      100 * health.derate[j]);
        }
      }
    }
    if (replan) {
      ReplanOptions ropts;
      ropts.solver = options.solver;
      auto replanned = ReplanAfterFailure(loaded->problem,
                                          result->final_layout, health,
                                          ropts);
      if (!replanned.ok()) {
        std::fprintf(stderr, "replan: %s\n",
                     replanned.status().ToString().c_str());
        return 1;
      }
      if (!replanned->replanned) {
        std::printf(
            "Replan: all targets healthy; layout unchanged, 0 bytes to "
            "move\n");
      } else {
        std::printf(
            "Replan: %d object(s) move, %.1f MB migration; estimated max "
            "effective utilization %.1f%% (was %.1f%%)\n",
            replanned->migration.objects_moved,
            replanned->migration.total_bytes / (1024.0 * 1024.0),
            100 * replanned->max_utilization,
            replanned->previous_max_utilization > 1e11
                ? 999.9
                : 100 * replanned->previous_max_utilization);
      }
    }
    std::unique_ptr<FileBackend> file_backend;
    if (backend_file) {
      FileBackendOptions fopts;
      fopts.dir = backend_dir;
      // Migration runs keep two layouts' extents live at once (source and
      // destination epochs), so each file is provisioned at 2x capacity.
      fopts.dual_epoch = true;
      for (const auto& t : loaded->problem.targets) {
        fopts.capacity_bytes.push_back(t.capacity_bytes);
      }
      auto fb = FileBackend::Open(fopts);
      if (!fb.ok()) {
        std::fprintf(stderr, "--backend=file: %s\n",
                     fb.status().ToString().c_str());
        return 1;
      }
      file_backend = std::move(*fb);
      const BackendGeometry& g = file_backend->geometry();
      std::printf(
          "Real-I/O backend: %d target file(s) under %s (%s, block %lld "
          "B)\n",
          g.num_targets, backend_dir.c_str(),
          g.direct_io ? "O_DIRECT" : "buffered",
          static_cast<long long>(g.logical_block_bytes));
    }

    // The run half: one RunSpec per requested run, each deploying the SEE
    // baseline with the fault plan armed. `execute` runs one and prints
    // its report; a nonzero result is the exit status.
    const Layout see = SeeBaseline(loaded->problem);
    MigrateOptions mopts;
    mopts.data_backend = file_backend.get();
    if (migrate_throttle_mbps > 0.0) {
      mopts.bandwidth_bytes_per_s = migrate_throttle_mbps * 1024.0 * 1024.0;
    }
    mopts.max_bg_share = 0.5;
    const auto execute = [&](const char* flag, RunSpec spec,
                             bool play_scenario) -> int {
      spec.faults = plan;
      const bool ap = spec.autopilot.has_value();
      ScenarioPlayStats play;
      OltpSpec synthetic;  // the workload driver points at it
      ForegroundDriver foreground;
      if (play_scenario) {
        ScenarioPlayerOptions popts;
        if (resume) {
          // Read-only peek at the journal's scenario clock so the player
          // restarts where the dead process left off; the autopilot's own
          // recovery (layout, drift reference) happens inside the run.
          auto rec = RecoverControlState(journal_path);
          if (!rec.ok()) {
            std::fprintf(stderr, "--resume: %s\n",
                         rec.status().ToString().c_str());
            return 1;
          }
          if (rec->has_scenario_position) {
            popts.start_offset_s = rec->scenario_position_s;
            std::printf("Resuming scenario at t=%.2f s (journal clock)\n",
                        rec->scenario_position_s);
          }
        }
        // Journaled scenario runs record the scenario clock every tick.
        if (ap && !journal_path.empty()) {
          spec.autopilot->scenario_position_offset_s = popts.start_offset_s;
        }
        foreground = ScenarioForeground(loaded->scenario, popts, &play);
      } else {
        auto fg = SyntheticForeground(
            loaded->problem, ap ? "autopilot-fg" : "migrate-fg",
            ap ? "autopilot" : "migrate");
        if (!fg.ok()) {
          std::fprintf(stderr, "%s: %s\n", flag,
                       fg.status().ToString().c_str());
          return 1;
        }
        synthetic = std::move(fg).value();
        foreground = WorkloadForeground(
            nullptr, &synthetic, ap ? autopilot_duration_s : 30.0, 42);
      }
      auto report = SimulateProblem(loaded->problem, spec, foreground);
      if (!report.ok()) {
        std::fprintf(stderr, "%s: %s\n", flag,
                     report.status().ToString().c_str());
        return 1;
      }
      if (spec.migrate_to) {
        PrintMigration(*report);
      } else if (play_scenario) {
        PrintScenario(loaded->problem, loaded->scenario, play, *report, ap);
      } else {
        PrintAutopilot(spec.autopilot->config, *report);
      }
      return PrintRunTail(*report, journal_path, argc, argv);
    };
    if (migrate) {
      RunSpec spec(see);
      spec.migrate_to = result->final_layout;
      spec.migrate = mopts;
      spec.migrate.journal_path = journal_path;
      spec.migrate.journal_crash = journal_crash;
      spec.migrate.resume = resume;
      if (const int rc = execute("--migrate", std::move(spec), false)) {
        return rc;
      }
    }
    if (autopilot || scenario) {
      RunSpec spec(see);
      if (autopilot) {
        AutopilotOptions aopts;
        if (has_autopilot_spec) {
          auto cfg = ParseAutopilotSpec(autopilot_spec);
          if (!cfg.ok()) {
            std::fprintf(stderr, "--autopilot: %s\n",
                         cfg.status().ToString().c_str());
            return 2;
          }
          aopts.config = *cfg;
        } else if (loaded->has_autopilot) {
          aopts.config = loaded->autopilot;
        }
        if (has_drift_threshold) {
          aopts.config.drift.threshold = drift_threshold;
        }
        aopts.migrate = mopts;
        aopts.advisor = options;
        aopts.journal_path = journal_path;
        aopts.journal_crash = journal_crash;
        aopts.resume = resume;
        spec.autopilot = std::move(aopts);
      }
      if (scenario && !loaded->has_scenario) {
        std::fprintf(stderr,
                     "--scenario: the problem file has no scenario "
                     "directive\n");
        return 2;
      }
      return execute(scenario ? "--scenario" : "--autopilot", std::move(spec),
                     scenario);
    }
  }
  return 0;
}
