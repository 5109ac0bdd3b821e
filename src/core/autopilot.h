#ifndef LAYOUTDB_CORE_AUTOPILOT_H_
#define LAYOUTDB_CORE_AUTOPILOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/migrate.h"
#include "core/problem.h"
#include "model/layout.h"
#include "model/target_model.h"
#include "monitor/autopilot_spec.h"
#include "monitor/drift.h"
#include "monitor/online_analyzer.h"
#include "storage/lvm.h"
#include "storage/storage_system.h"
#include "util/status.h"

namespace ldb {

/// Everything the closed-loop autopilot needs: the monitor/gate
/// configuration (sensor), the re-advise knobs (decision), and the
/// migration executor knobs (actuator).
struct AutopilotOptions {
  AutopilotConfig config;
  /// Throttle/backpressure of migrations the autopilot starts. Its
  /// bandwidth also prices the cost-benefit gate (the fallback bandwidth
  /// in `config` applies when unthrottled).
  MigrateOptions migrate;
  /// Re-advise configuration. The solver's num_threads is honored with
  /// bit-identical results across thread counts (solver guarantee), so
  /// autopilot runs are deterministic for any --threads. The current
  /// layout is automatically added to `advisor.warm_seeds` on every
  /// re-advise.
  AdvisorOptions advisor;
  /// Simulated times (seconds) at which the controller's deployed layout
  /// is sampled into RunReport::sampled_layouts. The sampling events
  /// submit no I/O and touch no RNG, so they never perturb the foreground
  /// — bench_scenarios uses them to score the autopilot per scenario
  /// segment. Times past the end of the run record the final layout.
  std::vector<double> layout_sample_times;
  /// Durable control plane: path of the WAL the controller checkpoints
  /// adopted layouts (and the executor journals transitions) into. Empty =
  /// no durability; state lives and dies with the process.
  std::string journal_path;
  /// Deterministic crash injection for the journal writer (tests/CLI).
  WalCrashPolicy journal_crash;
  /// Recover `journal_path` on startup: deploy the last checkpointed (or
  /// committed-but-uncheckpointed) layout and its drift reference instead
  /// of the caller's initial layout. Requires a non-empty journal_path.
  bool resume = false;
  /// Scenario-clock recording: when >= 0 (and a journal is open), every
  /// tick appends an `spos` record carrying `offset + now` — the absolute
  /// scenario position — so a mid-scenario kill/resume can restart the
  /// player where the dead process left off. The offset is the position
  /// the scenario was resumed *at* (0 for a fresh run). < 0 disables
  /// recording (plain workload runs have no scenario clock).
  double scenario_position_offset_s = -1.0;
};

/// One controller decision, recorded at every drift trip.
struct AutopilotDecision {
  double time = 0.0;   ///< simulated seconds since run start
  double score = 0.0;  ///< drift score that tripped
  double current_max_util = 0.0;  ///< model max-util of the deployed layout
                                  ///< under the live window
  double advised_max_util = 0.0;  ///< model max-util of the re-advised one
  double migration_bytes = 0.0;   ///< priced data movement
  double migration_seconds = 0.0; ///< copy time under the gate bandwidth
  bool gate_passed = false;
  bool started = false;  ///< a migration was actually launched
  std::string note;      ///< human-readable gate verdict
};

/// The deployed layout observed at one requested sample time.
struct LayoutSample {
  double time;
  Layout layout;
};

struct RunReport;
class ControlJournal;

/// The closed sense->decide->act loop RunLayout installs for
/// RunSpec::autopilot. A streaming analyzer taps the foreground's
/// object-level completions, a drift detector compares the live window
/// against the reference (the problem's workloads, the set the deployed
/// layout was advised for), and on a trip the advisor is re-run —
/// warm-started from the deployed layout — with the resulting migration
/// executed through MigrationExecutor iff the cost-benefit gate passes:
///
///   (mu_old - mu_new) >= gate_min_gain   and
///   (mu_old - mu_new) * gate_horizon_s >= total_bytes / bandwidth.
///
/// Ticks and layout samples submit no I/O and touch no RNG, so with drift
/// disabled (threshold = inf) the run is bit-identical to the same run
/// without the autopilot.
class AutopilotController {
 public:
  /// Validates the options and, with a journal (the run's open control
  /// journal, or null), binds it to the problem; on options.resume the
  /// deployed layout and drift reference are recovered from it. Decisions
  /// and counters land in `*report`. Every pointer must outlive the
  /// controller.
  static Result<std::unique_ptr<AutopilotController>> Create(
      StorageSystem* system, const LayoutProblem* problem,
      const Layout& layout, const AutopilotOptions* options,
      ControlJournal* journal, RunReport* report);
  // Scheduled ticks and samples hold `this`.
  AutopilotController(const AutopilotController&) = delete;
  AutopilotController& operator=(const AutopilotController&) = delete;

  /// The layout to deploy at t=0: the caller's, or the journal's on resume.
  const Layout& deployed() const { return current_layout_; }

  /// Takes over the deployed layout's volumes and returns the foreground
  /// router: the seam migrations are spliced into.
  VolumeRouter* Install(std::unique_ptr<StripedVolumeManager> volumes);

  /// Schedules the first tick (one interval in) and the layout samples.
  void Start();
  /// Feeds one logical completion to the streaming analyzer.
  void Observe(const IoEvent& ev);
  /// The workload logically finished: ticks stop rescheduling.
  void Stop() { run_active_ = false; }
  /// After the foreground returned: accounts for a migration that drained
  /// after the last tick and fills the report's loop fields.
  void Finish();

 private:
  AutopilotController(StorageSystem* system, const LayoutProblem* problem,
                      const AutopilotOptions* options, const Layout& layout,
                      WorkloadSet reference, RunReport* report);

  void Tick();
  /// Reacts to the active executor's terminal state, if it has one.
  void Settle();
  void AdoptCompleted();
  void HandleRollback();
  void HandleAbort();
  /// A drift trip: re-advise for the live window (warm-started from the
  /// deployed layout), price the move, and act iff the gate passes.
  void Decide(WorkloadSet live, double now);

  StorageSystem* system_;
  const LayoutProblem* problem_;
  const AutopilotOptions* options_;
  RunReport* report_;
  ControlJournal* journal_ = nullptr;  ///< durable control plane, or null
  TargetModel model_;
  OnlineAnalyzer analyzer_;
  DriftDetector detector_;

  /// Deployed-state chain: every adopted layout keeps its volume manager
  /// (and passthrough router) alive because in-flight and journaled state
  /// may still reference it.
  std::vector<std::unique_ptr<StripedVolumeManager>> managers_;
  std::vector<std::unique_ptr<PassthroughRouter>> passthroughs_;
  std::vector<std::unique_ptr<MigrationExecutor>> executors_;
  SwitchableRouter router_{nullptr};  ///< foreground splice seam

  MigrationExecutor* active_ = nullptr;  ///< copy in flight, or null
  size_t current_manager_ = 0;           ///< index into `managers_`
  size_t pending_manager_ = 0;
  Layout current_layout_;
  Layout pending_layout_;
  WorkloadSet pending_reference_;  ///< live window the pending layout fits

  bool run_active_ = true;  ///< workload still logically running
  bool frozen_ = false;     ///< an abort or journal crash froze routing
};

}  // namespace ldb

#endif  // LAYOUTDB_CORE_AUTOPILOT_H_
