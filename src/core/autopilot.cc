#include "core/autopilot.h"

#include <algorithm>
#include <utility>

#include "core/journal.h"
#include "core/replan.h"
#include "core/run.h"
#include "core/sim_setup.h"
#include "util/table.h"

namespace ldb {

AutopilotController::AutopilotController(StorageSystem* system,
                                         const LayoutProblem* problem,
                                         const AutopilotOptions* options,
                                         const Layout& layout,
                                         WorkloadSet reference,
                                         RunReport* report)
    : system_(system),
      problem_(problem),
      options_(options),
      report_(report),
      model_(problem->MakeTargetModel()),
      analyzer_(problem->num_objects(), options->config.analyzer),
      detector_(reference, options->config.drift, system->queue().Now()),
      current_layout_(layout),
      pending_layout_(layout),
      pending_reference_(std::move(reference)) {}

Result<std::unique_ptr<AutopilotController>> AutopilotController::Create(
    StorageSystem* system, const LayoutProblem* problem, const Layout& layout,
    const AutopilotOptions* options, ControlJournal* journal,
    RunReport* report) {
  LDB_RETURN_IF_ERROR(options->config.Validate());
  if (options->resume && options->migrate.data_backend != nullptr) {
    // The recovered layout's data-plane epoch is not journaled, so a
    // resumed run cannot know which file half holds the live bytes.
    // Kill/resume with real files is exercised through --migrate, whose
    // epoch assignment (source 0, destination 1) is static.
    return Status::FailedPrecondition(
        "autopilot: resuming with a real data backend is not supported; "
        "use the file backend with a --migrate resume instead");
  }

  // Durable control plane: recover the deployed layout + drift reference
  // from the journal (resume), and bind the journal to this problem so a
  // later --resume against a different problem file is rejected.
  Layout deployed = layout;
  WorkloadSet reference = problem->workloads;
  bool resumed = false;
  if (journal != nullptr) {
    const uint64_t digest = ProblemStateDigest(*problem);
    const RecoveredControlState& rec = journal->recovered();
    if (options->resume) {
      if (rec.has_problem && rec.problem_digest != digest) {
        return Status::FailedPrecondition(StrFormat(
            "journal %s was recorded for a different problem (journal "
            "digest %llx, problem digest %llx); refusing to resume",
            journal->path().c_str(),
            static_cast<unsigned long long>(rec.problem_digest),
            static_cast<unsigned long long>(digest)));
      }
      Layout recovered_layout(1, 1);
      WorkloadSet recovered_reference;
      if (ResolveDeployedState(rec, &recovered_layout,
                               &recovered_reference)) {
        if (recovered_layout.num_objects() != problem->num_objects() ||
            recovered_layout.num_targets() != problem->num_targets()) {
          return Status::FailedPrecondition(StrFormat(
              "journal %s checkpoints a %dx%d layout but the problem is "
              "%dx%d; refusing to resume",
              journal->path().c_str(), recovered_layout.num_objects(),
              recovered_layout.num_targets(), problem->num_objects(),
              problem->num_targets()));
        }
        deployed = std::move(recovered_layout);
        reference = std::move(recovered_reference);
        resumed = true;
      }
    }
    if (!rec.has_problem || rec.problem_digest != digest) {
      const Status bind = journal->AppendProblemBinding(digest);
      // A simulated crash during binding means the process died at t=0;
      // the run proceeds with a frozen control plane.
      if (!bind.ok() && !journal->crashed()) return bind;
    }
  }

  std::unique_ptr<AutopilotController> c(new AutopilotController(
      system, problem, options, deployed, std::move(reference), report));
  c->journal_ = journal;
  c->frozen_ = journal != nullptr && journal->crashed();
  report->resumed_from_journal = resumed;
  return c;
}

VolumeRouter* AutopilotController::Install(
    std::unique_ptr<StripedVolumeManager> volumes) {
  managers_.push_back(std::move(volumes));
  passthroughs_.push_back(
      std::make_unique<PassthroughRouter>(managers_.front().get()));
  router_.set_delegate(passthroughs_.front().get());
  return &router_;
}

void AutopilotController::Start() {
  // First tick one interval in; reschedules itself until the workload
  // logically finishes. Ticks never submit I/O or touch the foreground's
  // RNG, so with drift disabled the run is bit-identical to a plain one.
  system_->queue().ScheduleAfter(options_->config.check_interval_s,
                                 [this]() { Tick(); });

  // Layout sampling: pure reads of controller state at fixed times. Like
  // ticks they submit no I/O and touch no RNG, so the foreground is
  // byte-for-byte unaffected by the sampling schedule.
  report_->sampled_layouts.reserve(options_->layout_sample_times.size());
  for (double t : options_->layout_sample_times) {
    system_->queue().ScheduleAt(t, [this, t]() {
      report_->sampled_layouts.push_back(LayoutSample{t, current_layout_});
    });
  }
}

void AutopilotController::Observe(const IoEvent& ev) { analyzer_.Observe(ev); }

void AutopilotController::Finish() {
  // A migration still in flight at the last tick drains inside the
  // foreground's event loop; account for its terminal state here.
  Settle();
  report_->final_layout = current_layout_;
  report_->final_drift_score = detector_.last_score();
  report_->monitor_events = analyzer_.events();
  for (const auto& exec : executors_) {
    report_->bytes_copied += exec->stats().bytes_written;
  }
}

void AutopilotController::Settle() {
  if (active_ == nullptr) return;
  if (active_->journal_failed()) {
    // The executor froze on a journal crash mid-migration. Its per-chunk
    // routing is the last consistent view, so it stays spliced in; the
    // control plane stops acting (recovery is a restarted process's job).
    frozen_ = true;
    active_ = nullptr;
    return;
  }
  switch (active_->outcome()) {
    case MigrationOutcome::kNotStarted:
    case MigrationOutcome::kRunning:
      break;  // copy still in flight; sensing continues, deciding waits
    case MigrationOutcome::kCompleted:
      AdoptCompleted();
      break;
    case MigrationOutcome::kRolledBack:
      HandleRollback();
      break;
    case MigrationOutcome::kAborted:
      HandleAbort();
      break;
  }
}

void AutopilotController::AdoptCompleted() {
  if (journal_ != nullptr) {
    // Checkpoint before adopting (write-ahead). A failed append is
    // process death: the in-memory adoption still happens — the commit
    // record already switched authority durably, and the intent record
    // carries the same layout — but the controller stops acting.
    const Status ckpt = journal_->AppendCheckpoint(
        system_->queue().Now(), pending_layout_, pending_reference_);
    if (!ckpt.ok()) frozen_ = true;
  }
  current_layout_ = pending_layout_;
  current_manager_ = pending_manager_;
  router_.set_delegate(passthroughs_[current_manager_].get());
  detector_.Rearm(std::move(pending_reference_), system_->queue().Now());
  active_ = nullptr;
  ++report_->migrations_completed;
}

void AutopilotController::HandleRollback() {
  // The old layout is authoritative again; route around the executor and
  // take a fresh cooldown before trying anything else.
  router_.set_delegate(passthroughs_[current_manager_].get());
  detector_.Rearm(detector_.reference(), system_->queue().Now());
  active_ = nullptr;
  ++report_->migrations_rolled_back;
}

void AutopilotController::HandleAbort() {
  // Source lost mid-copy: the executor's per-chunk routing is the only
  // consistent view of where data lives, so it stays in the path and the
  // autopilot stops acting (failure-aware re-layout is the replan tool's
  // job, not the drift loop's).
  frozen_ = true;
  active_ = nullptr;
  ++report_->migrations_aborted;
}

void AutopilotController::Decide(WorkloadSet live, double now) {
  AutopilotDecision d;
  d.time = now;
  d.score = detector_.last_score();

  LayoutProblem live_problem = *problem_;
  live_problem.workloads = live;
  AdvisorOptions adv = options_->advisor;
  adv.warm_seeds.push_back(current_layout_);
  const auto suppress = [&](std::string note, bool count) {
    d.note = std::move(note);
    if (count) ++report_->migrations_suppressed;
    // Keep the old reference: the workload drifted but we are not moving,
    // and the cooldown stops the same trip from re-firing every tick.
    detector_.Rearm(detector_.reference(), now);
    report_->decisions.push_back(std::move(d));
  };

  auto advised = LayoutAdvisor(adv).Recommend(live_problem);
  if (!advised.ok()) {
    suppress(StrFormat("re-advise failed: %s",
                       advised.status().message().c_str()),
             /*count=*/false);
    return;
  }
  const Layout& candidate = advised.value().final_layout;
  const std::vector<double> mu_old = model_.Utilizations(live, current_layout_);
  d.current_max_util = *std::max_element(mu_old.begin(), mu_old.end());
  d.advised_max_util = advised.value().max_utilization_final;

  const MigrationPlan plan =
      PriceMigration(live_problem, current_layout_, candidate,
                     adv.regularizer.zero_tolerance);
  const double bandwidth = options_->migrate.bandwidth_bytes_per_s > 0.0
                               ? options_->migrate.bandwidth_bytes_per_s
                               : options_->config.gate_fallback_bandwidth;
  d.migration_bytes = plan.total_bytes;
  d.migration_seconds = plan.total_bytes / bandwidth;

  if (plan.objects_moved == 0) {
    // The deployed layout is already (near-)optimal for the new workload:
    // adopt the live window as the reference so drift stops firing.
    d.note = "re-advise kept the deployed layout";
    detector_.Rearm(std::move(live), now);
    report_->decisions.push_back(std::move(d));
    return;
  }

  const double gain = d.current_max_util - d.advised_max_util;
  d.gate_passed = gain >= options_->config.gate_min_gain &&
                  gain * options_->config.gate_horizon_s >= d.migration_seconds;
  if (!d.gate_passed) {
    suppress(StrFormat("gate: gain %.4f does not amortize %.1f MiB "
                       "(%.1f s copy) within %.0f s horizon",
                       gain, plan.total_bytes / (1024.0 * 1024.0),
                       d.migration_seconds, options_->config.gate_horizon_s),
             /*count=*/true);
    return;
  }

  // Act: build the destination and splice a migration executor in.
  auto to_placements = LayoutToPlacements(live_problem, candidate);
  if (!to_placements.ok()) {
    suppress(StrFormat("destination rejected: %s",
                       to_placements.status().message().c_str()),
             /*count=*/true);
    return;
  }
  uint64_t plan_digest = 0;
  if (journal_ != nullptr) {
    std::vector<std::vector<int>> from_placements;
    from_placements.reserve(problem_->object_sizes.size());
    for (size_t i = 0; i < problem_->object_sizes.size(); ++i) {
      from_placements.push_back(
          managers_[current_manager_]->targets_of(static_cast<int>(i)));
    }
    plan_digest = MigrationPlanDigest(problem_->object_sizes, from_placements,
                                      to_placements.value(),
                                      options_->migrate.chunk_bytes);
  }
  auto dest = StripedVolumeManager::Create(
      problem_->object_sizes, std::move(to_placements).value(),
      system_->capacities(), problem_->lvm_stripe_bytes);
  if (!dest.ok()) {
    suppress(StrFormat("destination rejected: %s",
                       dest.status().message().c_str()),
             /*count=*/true);
    return;
  }
  managers_.push_back(
      std::make_unique<StripedVolumeManager>(std::move(dest).value()));
  // Real data plane: ping-pong the epoch so the live layout's extents and
  // the new destination's occupy disjoint file halves during the copy (at
  // most two layouts are ever live, so two epochs suffice forever). The
  // destination manager is adopted wholesale on completion, so every
  // object's bytes must move to its epoch — unmoved objects included.
  const bool real_data = options_->migrate.data_backend != nullptr;
  if (real_data) {
    managers_.back()->set_data_epoch(
        1 - managers_[current_manager_]->data_epoch());
  }
  auto created = MigrationExecutor::Create(
      system_, managers_[current_manager_].get(), managers_.back().get(),
      options_->migrate, /*copy_every_object=*/real_data);
  if (!created.ok()) {
    managers_.pop_back();
    suppress(StrFormat("executor rejected: %s",
                       created.status().message().c_str()),
             /*count=*/true);
    return;
  }
  passthroughs_.push_back(
      std::make_unique<PassthroughRouter>(managers_.back().get()));
  executors_.push_back(std::move(created).value());
  if (journal_ != nullptr) {
    // Durable intent before any copy I/O: a restarted process can tell a
    // committed-but-uncheckpointed migration (intent + commit record ->
    // deploy the intent layout) from an abandoned one (source is still
    // authoritative -> deploy the last checkpoint).
    const Status intent = journal_->AppendIntent(plan_digest, candidate, live);
    if (!intent.ok()) {
      // Process death before the migration started: nothing was copied,
      // the deployed layout stands. Freeze the control plane.
      frozen_ = true;
      executors_.pop_back();
      passthroughs_.pop_back();
      managers_.pop_back();
      d.note = StrFormat("journal crash before migration start: %s",
                         intent.message().c_str());
      report_->decisions.push_back(std::move(d));
      return;
    }
    executors_.back()->set_journal_sink(journal_);
  }
  active_ = executors_.back().get();
  pending_layout_ = candidate;
  pending_manager_ = managers_.size() - 1;
  pending_reference_ = std::move(live);
  router_.set_delegate(active_);
  if (options_->migrate.start_delay_s > 0.0) {
    MigrationExecutor* exec = active_;
    system_->queue().ScheduleAfter(options_->migrate.start_delay_s,
                                   [exec]() { exec->Start(); });
  } else {
    active_->Start();
  }
  d.started = true;
  d.note = StrFormat("migration started: %d objects, %.1f MiB",
                     plan.objects_moved, plan.total_bytes / (1024.0 * 1024.0));
  ++report_->migrations_started;
  report_->decisions.push_back(std::move(d));
}

/// The periodic sense->decide->act tick. Self-rescheduling; stops once the
/// workload logically finishes so the queue can idle (a still-running
/// migration keeps its own events alive until it terminates).
void AutopilotController::Tick() {
  if (!run_active_) return;
  ++report_->ticks;
  const double now = system_->queue().Now();

  // Scenario-clock heartbeat: record the absolute scenario position so a
  // kill after this instant resumes within one tick of it. Appended (and
  // synced) before any control decision this tick, mirroring write-ahead
  // order; a failed append is process death — freeze like the executor.
  if (journal_ != nullptr && !frozen_ &&
      options_->scenario_position_offset_s >= 0.0) {
    const Status appended = journal_->AppendScenarioPosition(
        options_->scenario_position_offset_s + now);
    if (!appended.ok()) frozen_ = true;
  }

  if (active_ != nullptr) {
    Settle();
  } else if (!frozen_) {
    WorkloadSet live = analyzer_.Snapshot();
    if (detector_.Evaluate(live, now)) Decide(std::move(live), now);
  }

  system_->queue().ScheduleAfter(options_->config.check_interval_s,
                                 [this]() { Tick(); });
}

}  // namespace ldb
