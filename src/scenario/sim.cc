#include "scenario/sim.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/table.h"

namespace ldb {

std::string ScenarioOutcome::RunFingerprint() const {
  std::string out = StrFormat(
      "elapsed=%.17g;requests=%llu;arrivals=%llu;submitted=%llu;shed=%llu",
      run.elapsed_seconds, static_cast<unsigned long long>(run.total_requests),
      static_cast<unsigned long long>(play.arrivals),
      static_cast<unsigned long long>(play.requests),
      static_cast<unsigned long long>(play.shed));
  out += ";util";
  for (double u : run.utilization) out += StrFormat("|%.17g", u);
  out += StrFormat(";faults=%llu,%llu,%llu",
                   static_cast<unsigned long long>(run.faults.faults_injected),
                   static_cast<unsigned long long>(run.faults.transient_errors),
                   static_cast<unsigned long long>(run.faults.failed_requests));
  return out;
}

std::string ScenarioOutcome::Fingerprint() const {
  std::string out = RunFingerprint();
  if (has_autopilot) out += ";ap:" + autopilot.Fingerprint();
  return out;
}

ForegroundDriver ScenarioForeground(const ScenarioSpec& spec,
                                    ScenarioPlayerOptions popts,
                                    ScenarioPlayStats* play) {
  return [&spec, popts, play](StorageSystem* system, VolumeRouter* router,
                              const StorageSystem::Observer& observe,
                              const std::function<void()>& on_finished)
             -> Result<RunResult> {
    ScenarioPlayer player(system, router, spec, popts);
    player.set_logical_observer(observe);
    player.set_on_finished(on_finished);
    auto run = player.Play();
    if (play != nullptr) *play = player.stats();
    return run;
  };
}

Result<ScenarioOutcome> PlayScenario(StorageSystem* system,
                                     const LayoutProblem& problem,
                                     RunSpec run, const ScenarioSpec& spec,
                                     ScenarioPlayerOptions popts) {
  if (run.autopilot.has_value() && !run.autopilot->journal_path.empty() &&
      run.autopilot->scenario_position_offset_s < 0.0) {
    run.autopilot->scenario_position_offset_s =
        std::max(0.0, popts.start_offset_s);
  }
  ScenarioOutcome outcome;
  auto report = RunLayout(system, problem, run,
                          ScenarioForeground(spec, popts, &outcome.play));
  if (!report.ok()) return report.status();
  outcome.run = report->run;
  outcome.has_autopilot = run.autopilot.has_value();
  outcome.autopilot = std::move(report).value();
  return outcome;
}

Result<ScenarioOutcome> PlayScenarioAutopilot(
    StorageSystem* system, const LayoutProblem& problem,
    const Layout& initial_layout, const ScenarioSpec& spec,
    const FaultPlan& faults, const AutopilotOptions& options,
    ScenarioPlayerOptions popts) {
  RunSpec run(initial_layout);
  run.faults = faults;
  run.autopilot = options;
  return PlayScenario(system, problem, std::move(run), spec, popts);
}

}  // namespace ldb
