// Closed-loop layout autopilot benchmark: phase-shift scenarios where the
// live workload departs from what the deployed layout was advised for, and
// the autopilot must notice, re-advise, and migrate online.
//
// Protocol (consolidated TPC-H + TPC-C catalog on four disks):
//   1. Day/night alternation: the layout is advised for the OLTP "day";
//      then the workload flips to the OLAP "night" and back, twice. After
//      every phase the autopilot's deployed layout is scored (model max
//      utilization under that phase's fitted workloads) against an oracle
//      that re-advises per phase, and against the static day layout.
//      Acceptance: autopilot within 5% of the oracle after every phase;
//      the static layout measurably worse on the night phases.
//   2. Consolidation ramp: the layout is advised for OLAP alone; OLTP
//      terminals then ramp in alongside it. Same scoring.
//   3. Cost-benefit gate: with an impossibly high gain bar the autopilot
//      trips, prices the migration, and suppresses it — the deployed
//      layout must survive untouched (the gate working as designed).
//   4. Determinism: one full drift->migrate phase repeated with solver
//      threads 1/2/8 must produce bit-identical reports (fingerprints).
//   5. Monitor overhead: with drift disabled the autopilot is a pure
//      observer — the run must match plain Execute bit for bit, and the
//      wall-clock overhead of the streaming analyzer stays small (the
//      per-event cost is pinned by bench_micro's BM_OnlineAnalyzerObserve).
//
// --json emits machine-readable rows for all five stages.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/autopilot.h"
#include "model/target_model.h"
#include "util/table.h"

using namespace ldb;
using namespace ldb::bench;

namespace {

// Fast-reacting loop for short benchmark phases: two consecutive
// above-threshold evaluations to trip and a generous amortization
// horizon so genuinely better layouts pass the gate. The analyzer
// window tracks the testbed scale: OLAP phase length is proportional
// to data volume, and a window tuned for the default 0.05 scale would
// straddle whole phases at smaller smoke scales.
AutopilotOptions LoopOptions(const BenchEnv& env) {
  AutopilotOptions o;
  o.config.analyzer.half_life_s = std::max(5.0, 25.0 * (env.scale / 0.05));
  o.config.check_interval_s = 2.0;
  o.config.drift.threshold = 0.3;
  o.config.drift.trip_evaluations = 2;
  o.config.drift.cooldown_s = 10.0;
  o.config.gate_min_gain = 0.01;
  o.config.gate_horizon_s = 2000.0;
  o.advisor.solver.num_threads = env.num_threads;
  return o;
}

// The rig's autopilot run: `layout` deployed, advised for `reference`.
Result<RunReport> RunAutopilot(const ExperimentRig& rig, const Layout& layout,
                               const WorkloadSet& reference,
                               const OlapSpec* olap, const OltpSpec* oltp,
                               const AutopilotOptions& options,
                               double duration_s) {
  RunSpec spec(layout);
  spec.autopilot = options;
  return rig.Execute(spec, olap, oltp, duration_s, reference);
}

struct PhaseScore {
  double autopilot_util = 0.0;
  double oracle_util = 0.0;
  double static_util = 0.0;
  bool within = false;
};

PhaseScore ScorePhase(const TargetModel& model, const WorkloadSet& phase_ws,
                      const Layout& autopilot_layout,
                      const Layout& static_layout, double oracle_util) {
  PhaseScore s;
  s.autopilot_util = model.MaxUtilization(phase_ws, autopilot_layout);
  s.oracle_util = oracle_util;
  s.static_util = model.MaxUtilization(phase_ws, static_layout);
  // Within 5% of the oracle, with a small absolute slack so near-zero
  // utilizations do not produce false misses.
  s.within = s.autopilot_util <= s.oracle_util * 1.05 + 0.01;
  return s;
}

double WallSeconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = ParseBenchEnv(argc, argv);
  PrintHeader("Autopilot",
              "closed-loop drift detection and cost-gated online re-layout",
              env);

  Catalog merged = Catalog::Merge(Catalog::TpcH(env.scale),
                                  Catalog::TpcC(env.scale), "", "C_");
  auto rig = MakeRig(env, merged,
                     {{"disk0"}, {"disk1"}, {"disk2"}, {"disk3"}});
  if (!rig.ok()) {
    std::fprintf(stderr, "rig: %s\n", rig.status().ToString().c_str());
    return 1;
  }
  const int n = rig->catalog().num_objects();
  const Layout see = SeeLayout(*rig);

  auto olap = MakeOlapSpec(rig->catalog(), 1, 1, env.seed);
  auto oltp = MakeOltpSpec(rig->catalog(), "C_", 9, /*warmup_s=*/0.0);
  auto oltp_light = MakeOltpSpec(rig->catalog(), "C_", 3, /*warmup_s=*/0.0);
  if (!olap.ok() || !oltp.ok() || !oltp_light.ok()) return 1;
  constexpr double kDayS = 60.0;

  // Fit each phase's workload description once (under SEE, the tracing
  // layout) and advise the per-phase oracle layouts.
  auto ws_day = rig->FitWorkloads(see, nullptr, &*oltp, kDayS);
  auto ws_night = rig->FitWorkloads(see, &*olap, nullptr);
  auto ws_mix_light = rig->FitWorkloads(see, &*olap, &*oltp_light);
  auto ws_mix_heavy = rig->FitWorkloads(see, &*olap, &*oltp);
  if (!ws_day.ok() || !ws_night.ok() || !ws_mix_light.ok() ||
      !ws_mix_heavy.ok()) {
    std::fprintf(stderr, "workload fit failed\n");
    return 1;
  }

  AdvisorOptions adv_options;
  adv_options.solver.num_threads = env.num_threads;
  LayoutAdvisor advisor(adv_options);
  struct Oracle {
    Layout layout;
    double max_util = 0.0;
    Oracle() : layout(1, 1) {}
  };
  auto advise = [&](const WorkloadSet& ws) -> Result<Oracle> {
    auto problem = rig->MakeProblem(ws);
    if (!problem.ok()) return problem.status();
    auto r = advisor.Recommend(*problem);
    if (!r.ok()) return r.status();
    Oracle o;
    o.layout = r->final_layout;
    o.max_util = r->max_utilization_final;
    return o;
  };
  auto day_adv = advise(*ws_day);
  auto night_adv = advise(*ws_night);
  auto mix_light_adv = advise(*ws_mix_light);
  auto mix_heavy_adv = advise(*ws_mix_heavy);
  if (!day_adv.ok() || !night_adv.ok() || !mix_light_adv.ok() ||
      !mix_heavy_adv.ok()) {
    std::fprintf(stderr, "oracle advise failed\n");
    return 1;
  }
  auto problem_day = rig->MakeProblem(*ws_day);
  if (!problem_day.ok()) return 1;
  const TargetModel model = problem_day->MakeTargetModel();

  JsonRows json;
  bool all_ok = true;
  // Phase lengths scale with data volume, so the oracle-tracking bars
  // are only meaningful when phases are long enough for the loop's time
  // constants — enforce them at the default scale and above, report
  // them otherwise. Structural checks (static-worse, gate suppression,
  // determinism, bit-identity, overhead) hold at any scale.
  const bool enforce_quality_bars = env.scale >= 0.05 - 1e-12;
  if (!enforce_quality_bars) {
    std::printf(
        "note: scale %.3f < 0.05 — oracle-tracking bars reported, not "
        "enforced (phases too short for the loop's window)\n",
        env.scale);
  }

  // ---- 1. OLTP-day / OLAP-night alternation. ----
  struct Phase {
    const char* name;
    const OlapSpec* olap;
    const OltpSpec* oltp;
    double duration_s;
    const WorkloadSet* ws;
    const Oracle* oracle;
  };
  {
    std::printf("\nDay/night alternation (deployed: day-advised layout)\n");
    const std::vector<Phase> phases = {
        {"night-1", &*olap, nullptr, 0.0, &*ws_night, &*night_adv},
        {"day-2", nullptr, &*oltp, kDayS, &*ws_day, &*day_adv},
        {"night-2", &*olap, nullptr, 0.0, &*ws_night, &*night_adv},
    };
    TextTable table({"Phase", "oracle max-util", "autopilot", "static(day)",
                     "migrations", "within 5%"});
    Layout current = day_adv->layout;
    WorkloadSet reference = *ws_day;
    bool static_worse_somewhere = false;
    for (const Phase& ph : phases) {
      auto ap = RunAutopilot(*rig, current, reference, ph.olap, ph.oltp,
                             LoopOptions(env), ph.duration_s);
      if (!ap.ok()) {
        std::fprintf(stderr, "%s: %s\n", ph.name,
                     ap.status().ToString().c_str());
        return 1;
      }
      const PhaseScore s = ScorePhase(model, *ph.ws, ap->final_layout,
                                      day_adv->layout, ph.oracle->max_util);
      all_ok = all_ok && (s.within || !enforce_quality_bars);
      static_worse_somewhere =
          static_worse_somewhere ||
          s.static_util > s.oracle_util * 1.05 + 0.02;
      table.AddRow({ph.name, StrFormat("%.1f%%", 100 * s.oracle_util),
                    StrFormat("%.1f%%", 100 * s.autopilot_util),
                    StrFormat("%.1f%%", 100 * s.static_util),
                    StrFormat("%d/%d", ap->migrations_started,
                              ap->migrations_completed),
                    s.within ? "yes" : "NO"});
      json.BeginRow();
      json.Field("stage", "day_night");
      json.Field("phase", ph.name);
      json.Field("oracle_max_util", s.oracle_util);
      json.Field("autopilot_max_util", s.autopilot_util);
      json.Field("static_max_util", s.static_util);
      json.Field("within_5pct", s.within);
      json.Field("migrations_started", ap->migrations_started);
      json.Field("migrations_completed", ap->migrations_completed);
      json.Field("migrations_suppressed", ap->migrations_suppressed);
      json.Field("bytes_copied", ap->bytes_copied);
      json.Field("decisions", static_cast<int>(ap->decisions.size()));
      json.Field("elapsed_simulated_s", ap->run.elapsed_seconds);
      current = ap->final_layout;
      if (ap->migrations_completed > 0) reference = *ph.ws;
    }
    std::printf("%s", table.ToString().c_str());
    std::printf("static day layout measurably worse on some phase: %s\n",
                static_worse_somewhere ? "yes" : "NO");
    all_ok = all_ok && static_worse_somewhere;
  }

  // ---- 2. Consolidation ramp: OLTP joins a steady OLAP workload. ----
  {
    std::printf("\nConsolidation ramp (deployed: OLAP-advised layout)\n");
    const std::vector<Phase> phases = {
        {"olap+oltp3", &*olap, &*oltp_light, 0.0, &*ws_mix_light,
         &*mix_light_adv},
        {"olap+oltp9", &*olap, &*oltp, 0.0, &*ws_mix_heavy, &*mix_heavy_adv},
    };
    TextTable table({"Phase", "oracle max-util", "autopilot", "static(olap)",
                     "migrations", "within 5%"});
    Layout current = night_adv->layout;
    WorkloadSet reference = *ws_night;
    for (const Phase& ph : phases) {
      auto ap = RunAutopilot(*rig, current, reference, ph.olap, ph.oltp,
                             LoopOptions(env), ph.duration_s);
      if (!ap.ok()) {
        std::fprintf(stderr, "%s: %s\n", ph.name,
                     ap.status().ToString().c_str());
        return 1;
      }
      const PhaseScore s = ScorePhase(model, *ph.ws, ap->final_layout,
                                      night_adv->layout,
                                      ph.oracle->max_util);
      all_ok = all_ok && (s.within || !enforce_quality_bars);
      table.AddRow({ph.name, StrFormat("%.1f%%", 100 * s.oracle_util),
                    StrFormat("%.1f%%", 100 * s.autopilot_util),
                    StrFormat("%.1f%%", 100 * s.static_util),
                    StrFormat("%d/%d", ap->migrations_started,
                              ap->migrations_completed),
                    s.within ? "yes" : "NO"});
      json.BeginRow();
      json.Field("stage", "consolidation_ramp");
      json.Field("phase", ph.name);
      json.Field("oracle_max_util", s.oracle_util);
      json.Field("autopilot_max_util", s.autopilot_util);
      json.Field("static_max_util", s.static_util);
      json.Field("within_5pct", s.within);
      json.Field("migrations_started", ap->migrations_started);
      json.Field("migrations_completed", ap->migrations_completed);
      json.Field("bytes_copied", ap->bytes_copied);
      current = ap->final_layout;
      if (ap->migrations_completed > 0) reference = *ph.ws;
    }
    std::printf("%s", table.ToString().c_str());
  }

  // ---- 3. The gate suppresses an unprofitable migration. ----
  {
    AutopilotOptions gated = LoopOptions(env);
    gated.config.gate_min_gain = 0.9;  // no re-layout can gain 90 points
    auto ap = RunAutopilot(*rig, night_adv->layout, *ws_night, nullptr, &*oltp,
                           gated, kDayS);
    if (!ap.ok()) {
      std::fprintf(stderr, "gate stage: %s\n",
                   ap.status().ToString().c_str());
      return 1;
    }
    const bool suppressed =
        ap->migrations_suppressed >= 1 && ap->migrations_started == 0 &&
        ap->bytes_copied == 0;
    std::printf(
        "\nGate (min gain 0.9): %d trip(s), %d suppressed, %d started: %s\n",
        static_cast<int>(ap->decisions.size()), ap->migrations_suppressed,
        ap->migrations_started,
        suppressed ? "[ok: unprofitable migration suppressed]"
                   : "[MISS: gate did not suppress]");
    if (!ap->decisions.empty()) {
      std::printf("  first verdict: %s\n",
                  ap->decisions.front().note.c_str());
    }
    all_ok = all_ok && suppressed;
    json.BeginRow();
    json.Field("stage", "gate");
    json.Field("trips", static_cast<int>(ap->decisions.size()));
    json.Field("gate_suppressed", ap->migrations_suppressed);
    json.Field("migrations_started", ap->migrations_started);
    json.Field("suppressed_ok", suppressed);
  }

  // ---- 4. Bit-identical across solver thread counts. ----
  {
    std::vector<std::string> prints;
    int started = 0;
    for (int threads : {1, 2, 8}) {
      AutopilotOptions o = LoopOptions(env);
      o.advisor.solver.num_threads = threads;
      auto ap = RunAutopilot(*rig, night_adv->layout, *ws_night, nullptr,
                             &*oltp, o, kDayS);
      if (!ap.ok()) {
        std::fprintf(stderr, "determinism stage: %s\n",
                     ap.status().ToString().c_str());
        return 1;
      }
      prints.push_back(ap->Fingerprint());
      started = ap->migrations_started;
    }
    const bool identical =
        prints[0] == prints[1] && prints[0] == prints[2];
    std::printf(
        "\nThreads 1/2/8 fingerprints identical: %s (%d migration(s) in "
        "the run)\n",
        identical ? "yes" : "NO", started);
    all_ok = all_ok && identical;
    json.BeginRow();
    json.Field("stage", "determinism");
    json.Field("threads_identical", identical);
    json.Field("migrations_started", started);
  }

  // ---- 5. Disabled autopilot: bit-identity and monitor overhead. ----
  {
    constexpr double kLongDayS = 600.0;
    constexpr int kReps = 3;
    double base_wall = std::numeric_limits<double>::infinity();
    double ap_wall = std::numeric_limits<double>::infinity();
    Result<RunReport> base = Status::Internal("unset");
    Result<AutopilotReport> ap = Status::Internal("unset");
    for (int r = 0; r < kReps; ++r) {
      auto t0 = std::chrono::steady_clock::now();
      base = rig->Execute(RunSpec(day_adv->layout), nullptr, &*oltp, kLongDayS);
      base_wall = std::min(base_wall, WallSeconds(t0));
      if (!base.ok()) return 1;
    }
    AutopilotOptions off = LoopOptions(env);
    off.config.drift.threshold = std::numeric_limits<double>::infinity();
    for (int r = 0; r < kReps; ++r) {
      auto t0 = std::chrono::steady_clock::now();
      ap = RunAutopilot(*rig, day_adv->layout, *ws_day, nullptr, &*oltp, off,
                        kLongDayS);
      ap_wall = std::min(ap_wall, WallSeconds(t0));
      if (!ap.ok()) return 1;
    }
    bool identical =
        base->run.elapsed_seconds == ap->run.elapsed_seconds &&
        base->run.total_requests == ap->run.total_requests &&
        base->run.tpm == ap->run.tpm;
    for (size_t j = 0; identical && j < base->run.utilization.size(); ++j) {
      identical = base->run.utilization[j] == ap->run.utilization[j];
    }
    // The hot-path budget: in deployment the analyzer rides on real I/O
    // completions, so its per-event CPU cost is measured against the mean
    // foreground I/O latency of the modeled testbed (<2% of the I/O path).
    const double per_event_s =
        ap->monitor_events > 0
            ? std::max(0.0, ap_wall - base_wall) /
                  static_cast<double>(ap->monitor_events)
            : 0.0;
    const double io_fraction = ap->fg_mean_latency_s > 0.0
                                   ? per_event_s / ap->fg_mean_latency_s
                                   : 0.0;
    const bool cheap = io_fraction < 0.02;
    std::printf(
        "\nDisabled autopilot vs plain Execute: %s; monitor cost %.0f ns "
        "per completion = %.4f%% of the %.2f ms mean I/O latency "
        "(budget 2%%): %s\n",
        identical ? "[ok: bit-identical]" : "[MISS: runs diverge]",
        1e9 * per_event_s, 100 * io_fraction, 1e3 * ap->fg_mean_latency_s,
        cheap ? "[ok]" : "[MISS]");
    all_ok = all_ok && identical && cheap;
    json.BeginRow();
    json.Field("stage", "observer_overhead");
    json.Field("identical", identical);
    json.Field("base_wall_s", base_wall);
    json.Field("autopilot_wall_s", ap_wall);
    json.Field("monitor_ns_per_event", 1e9 * per_event_s);
    json.Field("fraction_of_io_latency", io_fraction);
    json.Field("hot_path_within_budget", cheap);
    json.Field("monitor_events",
               static_cast<int64_t>(ap->monitor_events));
  }

  (void)n;
  if (env.json && !json.WriteTo(env.json_path)) return 1;
  std::printf("\n%s\n", all_ok ? "AUTOPILOT BENCH: all checks passed"
                               : "AUTOPILOT BENCH: CHECKS FAILED");
  return all_ok ? 0 : 1;
}
