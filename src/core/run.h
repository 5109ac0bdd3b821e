#ifndef LAYOUTDB_CORE_RUN_H_
#define LAYOUTDB_CORE_RUN_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/autopilot.h"
#include "core/migrate.h"
#include "core/problem.h"
#include "model/layout.h"
#include "storage/fault.h"
#include "storage/lvm.h"
#include "storage/storage_system.h"
#include "util/status.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace ldb {

/// Declarative description of one simulated run: the layout deployed at
/// t=0 and what happens to it while the foreground runs. At most one
/// controller is installed: an online migration (`migrate_to`) or the
/// closed-loop autopilot (`autopilot`); with neither, the layout stays put.
struct RunSpec {
  explicit RunSpec(Layout layout_in) : layout(std::move(layout_in)) {}

  /// Deployed at t=0. Pre-existing physical state: it must be regular and
  /// fit capacity, but need not honor pin/separate policy (that can be why
  /// a migration or the autopilot moves it).
  Layout layout;
  /// Migrate online to this layout (which must honor the problem's
  /// placement constraints) under `migrate`. Equal to `layout` it is an
  /// empty plan: the run reproduces the plain run bit for bit.
  std::optional<Layout> migrate_to;
  /// Engage the closed-loop autopilot, with the problem's workloads as the
  /// drift reference. Its migrations run under `autopilot->migrate`, and
  /// its journal under `autopilot->journal_path`.
  std::optional<AutopilotOptions> autopilot;
  /// Executor, journal and data-plane knobs of the `migrate_to` migration.
  MigrateOptions migrate;
  /// Armed on the system before the foreground starts; fault times are
  /// relative to run start. Skipped faults land in RunResult.
  FaultPlan faults;
  /// Receives every object-level completion (trace fitting, scenario
  /// calibration passes).
  StorageSystem::Observer logical_observer;
};

/// Everything a run reports. The foreground, latency, layout and
/// data-plane fields apply to every run; the migration block to
/// `migrate_to` runs; the decision/tick block and the migration counters
/// to autopilot runs; the journal block to journaled runs.
struct RunReport {
  RunResult run;
  /// Foreground object-level request latencies.
  uint64_t fg_requests = 0;
  double fg_mean_latency_s = 0.0;
  double fg_p50_s = 0.0;
  double fg_p99_s = 0.0;
  /// Deployed at t=0 (the journal's layout when an autopilot run resumed).
  Layout initial_layout;
  /// In effect when the run ended. A rolled-back or aborted migration
  /// leaves the source here (an aborted one serves committed chunks from
  /// the destination).
  Layout final_layout;
  int64_t bytes_copied = 0;  ///< copy writes issued by all migrations

  /// `migrate_to` runs: the executor's terminal state.
  MigrationOutcome outcome = MigrationOutcome::kNotStarted;
  MigrationStats stats;
  MigrationJournal journal;
  int failed_target = -1;
  std::string failure_reason;
  Status readable = Status::Ok();  ///< CheckReadable() at end of run

  /// Autopilot runs.
  std::vector<AutopilotDecision> decisions;  ///< one per drift trip
  uint64_t ticks = 0;           ///< drift evaluations performed
  uint64_t monitor_events = 0;  ///< completions the analyzer ingested
  int migrations_started = 0;
  int migrations_completed = 0;
  int migrations_suppressed = 0;  ///< tripped, moved bytes priced, gate said no
  int migrations_rolled_back = 0;
  int migrations_aborted = 0;
  double final_drift_score = 0.0;
  /// One entry per AutopilotOptions::layout_sample_times, in order.
  std::vector<LayoutSample> sampled_layouts;
  /// True when --resume recovered a deployed layout from the journal.
  bool resumed_from_journal = false;

  /// Durable journal accounting (zero without a journal path).
  /// `journal_crashed` means the injected crash policy fired and the
  /// control plane froze mid-run; `journal_error` carries the reason.
  bool journal_crashed = false;
  int64_t journal_records = 0;  ///< records in the WAL at end of run
  int64_t journal_bytes = 0;    ///< WAL file size at end of run
  int64_t resumed_records = 0;  ///< migration records recovered on resume
  std::string journal_error;

  /// Real data plane (MigrateOptions::data_backend runs only).
  bool real_backend = false;        ///< a data backend carried the bytes
  Status real_readable;             ///< end-of-run pattern verification
  int64_t real_bytes_verified = 0;  ///< bytes checked against the pattern

  RunReport() : initial_layout(1, 1), final_layout(1, 1) {}

  /// Deterministic digest of everything observable: run metrics, the
  /// decision log, and the final layout. Two runs with equal fingerprints
  /// behaved identically — the bit-identity tests compare these.
  std::string Fingerprint() const;
};

/// The report of an autopilot run (the name predates the shared pipeline).
using AutopilotReport = RunReport;

/// The foreground half of a run. RunLayout deploys the layout and installs
/// the controller, then calls the driver exactly once: it must submit all
/// foreground I/O through `router` (the seam migrations splice into),
/// report every logical completion to `observe`, invoke `on_finished` when
/// the workload logically completes (so periodic controller events stop and
/// the event queue can idle), and pump the event loop to completion.
using ForegroundDriver = std::function<Result<RunResult>(
    StorageSystem* system, VolumeRouter* router,
    const StorageSystem::Observer& observe,
    const std::function<void()>& on_finished)>;

/// The closed-loop WorkloadRunner foreground, seeded by `seed`: OLAP to
/// completion, OLTP for `oltp_duration_s`, or both under the consolidation
/// protocol (exactly one of `olap`/`oltp` may be null). The specs must
/// outlive the run.
ForegroundDriver WorkloadForeground(const OlapSpec* olap, const OltpSpec* oltp,
                                    double oltp_duration_s, uint64_t seed);

/// Runs `spec` on `system` (fresh or Reset, so measurements cover this run
/// only): deploys spec.layout, installs at most one controller (a migration
/// executor or the autopilot), arms the faults, runs the foreground, and
/// accounts for everything in one report. Every simulated run in the
/// repository goes through here. With no controller and an empty fault
/// plan the run is bit-identical to driving the foreground directly over
/// the deployed volumes; an empty migration plan, and an autopilot with
/// drift disabled (threshold = inf), reproduce that run too.
Result<RunReport> RunLayout(StorageSystem* system, const LayoutProblem& problem,
                            const RunSpec& spec,
                            const ForegroundDriver& foreground);

/// RunLayout on a simulated rebuild of the problem's targets
/// (BuildSystemForProblem): the execution half of the layout_advisor CLI.
Result<RunReport> SimulateProblem(const LayoutProblem& problem,
                                  const RunSpec& spec,
                                  const ForegroundDriver& foreground);

}  // namespace ldb

#endif  // LAYOUTDB_CORE_RUN_H_
