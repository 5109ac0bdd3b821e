#include "core/run.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/journal.h"
#include "core/sim_setup.h"
#include "io/pattern.h"
#include "util/table.h"

namespace ldb {

std::string RunReport::Fingerprint() const {
  std::string out = StrFormat(
      "elapsed=%.17g;requests=%llu;olap=%llu;oltp=%llu;tpm=%.17g;events=%llu",
      run.elapsed_seconds, static_cast<unsigned long long>(run.total_requests),
      static_cast<unsigned long long>(run.olap_queries_completed),
      static_cast<unsigned long long>(run.oltp_transactions), run.tpm,
      static_cast<unsigned long long>(monitor_events));
  out += ";util";
  for (double u : run.utilization) out += StrFormat("|%.17g", u);
  for (const AutopilotDecision& d : decisions) {
    out += StrFormat(";d:t=%.17g,s=%.17g,g=%d,st=%d,b=%.17g", d.time, d.score,
                     d.gate_passed ? 1 : 0, d.started ? 1 : 0,
                     d.migration_bytes);
  }
  out += ";layout";
  for (int i = 0; i < final_layout.num_objects(); ++i) {
    out += '|';
    for (int t : final_layout.TargetsOf(i)) out += StrFormat("%d,", t);
  }
  return out;
}

ForegroundDriver WorkloadForeground(const OlapSpec* olap, const OltpSpec* oltp,
                                    double oltp_duration_s, uint64_t seed) {
  return [=](StorageSystem* system, VolumeRouter* router,
             const StorageSystem::Observer& observe,
             const std::function<void()>& on_finished) -> Result<RunResult> {
    WorkloadRunner runner(system, router, seed);
    runner.set_on_finished(on_finished);
    runner.set_logical_observer(observe);
    if (olap != nullptr && oltp != nullptr) {
      return runner.RunMixed(*olap, *oltp);
    }
    if (olap != nullptr) return runner.RunOlap(*olap);
    if (oltp != nullptr) return runner.RunOltp(*oltp, oltp_duration_s);
    return Status::InvalidArgument("no workload given");
  };
}

namespace {

Result<std::unique_ptr<StripedVolumeManager>> Deploy(
    const StorageSystem& system, const LayoutProblem& problem,
    std::vector<std::vector<int>> placements) {
  auto volumes = StripedVolumeManager::Create(
      problem.object_sizes, std::move(placements), system.capacities(),
      problem.lvm_stripe_bytes);
  if (!volumes.ok()) return volumes.status();
  return std::make_unique<StripedVolumeManager>(std::move(volumes).value());
}

}  // namespace

Result<RunReport> RunLayout(StorageSystem* system, const LayoutProblem& problem,
                            const RunSpec& spec,
                            const ForegroundDriver& foreground) {
  LDB_RETURN_IF_ERROR(problem.Validate());
  if (spec.migrate_to.has_value() && spec.autopilot.has_value()) {
    return Status::InvalidArgument(
        "run: migrate_to and autopilot are two controllers; a run installs "
        "at most one");
  }
  // The installed controller's executor and data-plane knobs, and where its
  // durable control journal lives.
  const MigrateOptions& mopts =
      spec.autopilot ? spec.autopilot->migrate : spec.migrate;
  const std::string& journal_path =
      spec.autopilot ? spec.autopilot->journal_path : mopts.journal_path;
  const WalCrashPolicy& journal_crash =
      spec.autopilot ? spec.autopilot->journal_crash : mopts.journal_crash;
  const bool resume = spec.autopilot ? spec.autopilot->resume : mopts.resume;
  if (resume && journal_path.empty()) {
    return Status::InvalidArgument("run: --resume requires a journal path");
  }

  // A migration's destination must honor placement policy; the deployed
  // source is physics only. The plan digest binds the journal to the move.
  std::vector<std::vector<int>> to_placements;
  uint64_t plan_digest = 0;
  if (spec.migrate_to.has_value()) {
    auto from = LayoutToPlacements(problem, spec.layout,
                                   /*check_placement_constraints=*/false);
    if (!from.ok()) return from.status();
    auto to = LayoutToPlacements(problem, *spec.migrate_to);
    if (!to.ok()) return to.status();
    plan_digest = MigrationPlanDigest(problem.object_sizes, *from, *to,
                                      mopts.chunk_bytes);
    to_placements = std::move(to).value();
  }

  RunReport report;
  // Durable control plane: a resumed migration recovers (and digest-checks)
  // its records before the writer truncates a torn tail.
  std::unique_ptr<ControlJournal> journal;
  MigrationJournal recovered;
  if (!journal_path.empty()) {
    if (spec.migrate_to.has_value() && resume) {
      auto prior = RecoverMigrationJournal(journal_path, plan_digest);
      if (!prior.ok()) return prior.status();
      recovered = std::move(prior).value();
      report.resumed_records = static_cast<int64_t>(recovered.size());
    }
    auto opened = ControlJournal::Open(journal_path, journal_crash);
    if (!opened.ok()) return opened.status();
    journal = std::move(opened).value();
  }
  // The autopilot binds the journal to the problem and, on resume, deploys
  // the journal's layout instead of the caller's.
  std::unique_ptr<AutopilotController> pilot;
  if (spec.autopilot.has_value()) {
    auto created = AutopilotController::Create(
        system, &problem, spec.layout, &*spec.autopilot, journal.get(),
        &report);
    if (!created.ok()) return created.status();
    pilot = std::move(created).value();
  }

  // Deploy.
  const Layout& deployed = pilot ? pilot->deployed() : spec.layout;
  auto placements = LayoutToPlacements(problem, deployed,
                                       /*check_placement_constraints=*/false);
  if (!placements.ok()) return placements.status();
  auto source = Deploy(*system, problem, std::move(placements).value());
  if (!source.ok()) return source.status();
  report.initial_layout = deployed;
  report.final_layout = deployed;
  PassthroughRouter passthrough(source->get());
  // Real data plane: a fresh run lays every object's verification pattern
  // down at its deployed location. A resumed run inherits the bytes the
  // killed process wrote (committed chunks already live at the
  // destination, which re-populating would clobber).
  if (mopts.data_backend != nullptr && !resume) {
    LDB_RETURN_IF_ERROR(PopulateBackendPattern(mopts.data_backend,
                                               &passthrough));
  }

  // Install the controller; the foreground routes through it.
  VolumeRouter* router = &passthrough;
  std::unique_ptr<StripedVolumeManager> destination;
  std::unique_ptr<MigrationExecutor> exec;
  if (spec.migrate_to.has_value()) {
    auto dest = Deploy(*system, problem, std::move(to_placements));
    if (!dest.ok()) return dest.status();
    destination = std::move(dest).value();
    // Both managers allocate simulated offsets from 0, so on real media
    // the destination's extents live in the other epoch (same assignment
    // on resume, where the dead process put the committed chunks).
    if (mopts.data_backend != nullptr) destination->set_data_epoch(1);
    Result<std::unique_ptr<MigrationExecutor>> made = Status::Internal("");
    if (resume) {
      made = MigrationExecutor::Resume(system, source->get(),
                                       destination.get(), mopts, recovered);
    } else {
      if (journal != nullptr) {
        const Status bind = journal->AppendPlanBinding(plan_digest);
        // A simulated crash during binding means the process died at t=0:
        // the run proceeds and freezes on the executor's first record.
        if (!bind.ok() && !journal->crashed()) return bind;
      }
      made = MigrationExecutor::Create(system, source->get(),
                                       destination.get(), mopts);
    }
    if (!made.ok()) return made.status();
    exec = std::move(made).value();
    if (journal != nullptr) exec->set_journal_sink(journal.get());
    router = exec.get();
  } else if (pilot) {
    router = pilot->Install(std::move(source).value());
  }

  // Arm before the controller starts and the foreground runs: fault times
  // are run-start-relative, and the foreground's target Reset preserves
  // fault RNG seeds and retry policy.
  FaultInjector injector(system, spec.faults);
  LDB_RETURN_IF_ERROR(injector.Arm());
  if (exec != nullptr) {
    // Via the queue, so copying begins after the foreground's quiescent
    // reset, with foreground traffic already flowing.
    MigrationExecutor* e = exec.get();
    system->queue().ScheduleAfter(mopts.start_delay_s, [e]() { e->Start(); });
  }
  if (pilot) pilot->Start();

  std::vector<double> latencies;
  AutopilotController* ap = pilot.get();
  Result<RunResult> run = foreground(
      system, router,
      [ap, &latencies, &spec](const IoEvent& ev) {
        if (ap != nullptr) ap->Observe(ev);
        latencies.push_back(ev.complete_time - ev.submit_time);
        if (spec.logical_observer) spec.logical_observer(ev);
      },
      [ap]() {
        if (ap != nullptr) ap->Stop();
      });
  if (!run.ok()) return run.status();

  // Account.
  report.run = std::move(run).value();
  report.run.skipped_faults = injector.skipped();
  if (pilot) pilot->Finish();
  if (exec != nullptr) {
    report.outcome = exec->outcome();
    report.stats = exec->stats();
    report.journal = exec->journal();
    report.failed_target = exec->failed_target();
    report.failure_reason = exec->failure_reason();
    report.readable = exec->CheckReadable();
    report.bytes_copied = report.stats.bytes_written;
    if (report.outcome == MigrationOutcome::kCompleted) {
      report.final_layout = *spec.migrate_to;
    }
  }
  if (journal != nullptr) {
    const bool exec_failed = exec != nullptr && exec->journal_failed();
    report.journal_crashed = journal->crashed() || exec_failed;
    report.journal_records = journal->records_total();
    report.journal_bytes = journal->file_bytes();
    if (exec_failed) {
      report.journal_error = exec->journal_failure().message();
    } else if (journal->crashed()) {
      report.journal_error = "wal: simulated crash";
    }
  }
  // "Every byte readable" on real media: read the whole object space back
  // through the foreground's routing and check the pattern.
  if (mopts.data_backend != nullptr) {
    report.real_backend = true;
    auto verified = VerifyBackendPattern(mopts.data_backend, router);
    if (verified.ok()) {
      report.real_readable = Status::Ok();
      report.real_bytes_verified = *verified;
    } else {
      report.real_readable = verified.status();
    }
  }
  report.fg_requests = static_cast<uint64_t>(latencies.size());
  if (!latencies.empty()) {
    double sum = 0.0;
    for (double l : latencies) sum += l;
    report.fg_mean_latency_s = sum / static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    const auto quantile = [&latencies](double q) {
      const size_t idx = static_cast<size_t>(
          q * static_cast<double>(latencies.size() - 1) + 0.5);
      return latencies[std::min(idx, latencies.size() - 1)];
    };
    report.fg_p50_s = quantile(0.50);
    report.fg_p99_s = quantile(0.99);
  }
  return report;
}

Result<RunReport> SimulateProblem(const LayoutProblem& problem,
                                  const RunSpec& spec,
                                  const ForegroundDriver& foreground) {
  auto rebuilt = BuildSystemForProblem(problem);
  if (!rebuilt.ok()) return rebuilt.status();
  return RunLayout(rebuilt->system.get(), problem, spec, foreground);
}

}  // namespace ldb
