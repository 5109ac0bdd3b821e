#ifndef LAYOUTDB_SCENARIO_SIM_H_
#define LAYOUTDB_SCENARIO_SIM_H_

#include <string>

#include "core/problem.h"
#include "core/run.h"
#include "model/layout.h"
#include "scenario/player.h"
#include "scenario/scenario.h"
#include "storage/fault.h"
#include "storage/storage_system.h"
#include "util/status.h"

namespace ldb {

/// The ScenarioPlayer foreground for RunLayout: plays `spec` open-loop
/// through the pipeline's router. The player's counters land in `*play`
/// (when non-null) once the run returns. `spec` and `play` must outlive
/// the run.
ForegroundDriver ScenarioForeground(const ScenarioSpec& spec,
                                    ScenarioPlayerOptions popts = {},
                                    ScenarioPlayStats* play = nullptr);

/// A scenario run: the pipeline's report plus the player's counters.
struct ScenarioOutcome {
  RunResult run;  ///< the foreground half (== autopilot.run)
  ScenarioPlayStats play;
  bool has_autopilot = false;
  /// The full pipeline report; its controller fields are meaningful for
  /// autopilot runs (has_autopilot).
  AutopilotReport autopilot;

  /// Digest of the foreground-observable half only (run metrics,
  /// per-target utilization, player counters) — the part a static run and
  /// an autopilot run can be compared on. An autopilot run with drift
  /// disabled (threshold = inf) matches the static run's RunFingerprint
  /// bit-for-bit.
  std::string RunFingerprint() const;

  /// Full digest: RunFingerprint plus, when present, the autopilot
  /// report's own fingerprint (decision log, final layout). The
  /// thread-count bit-identity checks compare these.
  std::string Fingerprint() const;
};

/// Plays `spec` on `system` under `run`: RunLayout with the
/// ScenarioForeground driver. A journaled autopilot run records the
/// scenario clock (AutopilotOptions::scenario_position_offset_s defaults
/// to where this play starts), so a mid-scenario kill can resume the
/// player where the dead process left off.
Result<ScenarioOutcome> PlayScenario(StorageSystem* system,
                                     const LayoutProblem& problem,
                                     RunSpec run, const ScenarioSpec& spec,
                                     ScenarioPlayerOptions popts = {});

/// PlayScenario with `initial_layout` deployed, `faults` armed and the
/// autopilot engaged under `options`. Kept as a forwarding call for
/// existing callers; new code builds the RunSpec itself.
Result<ScenarioOutcome> PlayScenarioAutopilot(
    StorageSystem* system, const LayoutProblem& problem,
    const Layout& initial_layout, const ScenarioSpec& spec,
    const FaultPlan& faults, const AutopilotOptions& options,
    ScenarioPlayerOptions popts = {});

}  // namespace ldb

#endif  // LAYOUTDB_SCENARIO_SIM_H_
