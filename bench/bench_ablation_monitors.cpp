// Ablation — the attribution monitors of §3.3 scored against the
// ground-truth oracle.
//
// Rebuilt on sim::SweepRunner: the scenario grid executes as
// independent share-nothing jobs, each carrying a GroundTruthShadow
// observer that records the oracle's intrinsic rates next to what the
// monitor actually charged.  The accuracy layer
// (sim/monitor_accuracy.hpp) reduces each run to per-tick error,
// polluter-ranking agreement (à la Fig 4) and time-to-detect.
//
// Two scenario families:
//
//  * attribution (VMs unbooked): steady contention, exactly the
//    attribution problem of §3.3 — no punishment ever interferes, so
//    direct PMCs stay contaminated while dedication campaigns and
//    McSim replays converge to the intrinsic rate.  Scores error and
//    ranking.
//  * protection (VMs booked): Fig-5 end-to-end check — every monitor
//    must let KS4Xen protect the victim, and must put the polluter on
//    top of its ranking within a few ticks (time-to-detect).
//
// Monitors under test: the paper's three estimators (direct PMC,
// socket dedication, McSim replay) plus GroundTruthMonitor itself —
// the oracle used as a scheduler input, whose accuracy against its
// own shadow must be exact (the self-check that pins the harness).
//
// The grid runs at lanes {1, 2, 4}; its outcomes and shadow
// recordings must be byte-identical at every lane count.  Every gate
// (that agreement, ranking accuracy, error bounds, protection) is a
// simulated value; the bench reads no clock.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "kyoto/ground_truth.hpp"
#include "kyoto/ks4xen.hpp"
#include "sim/monitor_accuracy.hpp"
#include "sim/sweep_runner.hpp"
#include "workloads/catalog.hpp"

using namespace kyoto;

namespace {

struct MonitorDef {
  const char* name;
  sim::MonitorFactory make;
};

std::vector<MonitorDef> monitor_defs() {
  return {
      {"direct-pmc",
       []() -> std::unique_ptr<core::PollutionMonitor> {
         return std::make_unique<core::DirectPmcMonitor>();
       }},
      {"socket-dedication",
       []() -> std::unique_ptr<core::PollutionMonitor> {
         return std::make_unique<core::SocketDedicationMonitor>();
       }},
      {"mcsim-replay",
       []() -> std::unique_ptr<core::PollutionMonitor> {
         return std::make_unique<core::McSimMonitor>();
       }},
      {"ground-truth",
       []() -> std::unique_ptr<core::PollutionMonitor> {
         return std::make_unique<core::GroundTruthMonitor>();
       }},
  };
}

/// One VM mix of the grid.  The victim (index 0) is always gcc, the
/// paper's sensitive tenant; the aggressor the oracle must rank first
/// is named so the ranking gate is explicit.
struct ScenarioDef {
  const char* name;
  std::vector<const char*> apps;  // one per core, index = pinned core
  std::size_t aggressor_index;    // into apps
};

const std::vector<ScenarioDef> kScenarios = {
    {"gcc_lbm", {"gcc", "lbm"}, 1},                       // Fig 5 pair
    {"gcc_blockie", {"gcc", "blockie"}, 1},               // Fig 5 pair
    {"gcc_mcf", {"gcc", "mcf"}, 1},                       // Fig 5 pair
    {"fig4_mix", {"gcc", "omnetpp", "lbm", "hmmer"}, 2},  // Fig 4-style 4-VM ranking
};

/// Everything one instrumented grid job publishes from its lane.
struct JobCapture {
  std::unique_ptr<core::GroundTruthShadow> shadow;
  std::int64_t dedication_migrations = -1;  // -1: not a dedication run
  std::int64_t dedication_skips = -1;
};

/// Accuracy + protection, aggregated per monitor over the grid.
struct MonitorReport {
  std::string name;
  // Attribution family (unbooked, steady contention).
  double mean_abs_error = 0.0;     // mean of per-scenario means, miss/ms
  double mean_rel_error = 0.0;
  double victim_abs_error = 0.0;   // gcc charged-vs-true gap, mean over scenarios
  double top1_agreement = 0.0;     // mean over scenarios
  double rank_tau_min = 1.0;       // worst scenario
  bool aggressor_first_all = true; // final ranking puts the aggressor first, everywhere
  // Protection family (booked Fig-5 pair).
  double victim_norm_perf = 0.0;   // gcc IPC vs solo under KS4Xen
  Tick time_to_detect = -1;        // ticks from run start; -1 = never
  std::int64_t migrations = -1;    // dedication only
  std::int64_t skips = -1;
};

/// Where one instrumented job's results live: `outcome` indexes the
/// run() vector (the value add() returned), `series` the capture
/// vector.  Stored at submission so scoring can never desync from the
/// submission order.
struct JobRef {
  std::size_t outcome = 0;
  std::size_t series = 0;
};

struct BatchResult {
  std::vector<sim::RunOutcome> outcomes;
  /// Shadow series per instrumented job, in submission order of the
  /// instrumented jobs (solos excluded).
  std::vector<std::vector<std::vector<core::GroundTruthShadow::Sample>>> series;
  std::vector<JobRef> attribution;        // m * kScenarios.size() + s
  std::vector<JobRef> protection;         // per monitor
  std::vector<std::size_t> protection_solo;  // per monitor, outcome index
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = bench::quick_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      std::cerr << "usage: bench_ablation_monitors [--quick]\n";
      return 2;
    }
  }

  bench::header("Ablation B", "attribution monitors scored against the ground-truth oracle",
                "every monitor ranks the polluter first; dedication/McSim charge the "
                "victim nearer its intrinsic rate than direct PMCs do; the ground-truth "
                "monitor matches its own shadow exactly; all monitors protect the victim");

  sim::RunSpec spec;
  spec.machine = hv::scaled_numa_machine();  // dedication needs >= 2 sockets
  spec.warmup_ticks = 4;
  spec.measure_ticks = quick ? 26 : bench::ticks(90);
  const auto mem = spec.machine.mem;
  auto factory = [&mem](const std::string& name) {
    return [name, mem](std::uint64_t s) { return workloads::make_app(name, mem, s); };
  };

  // Permit for the protection family: comfortably above gcc's
  // intrinsic rate, far below any disruptor's.
  const auto gcc_solo = sim::run_solo(spec, factory("gcc"), "gcc");
  const double permit = gcc_solo.llc_cap_act * 1.5 + 8.0;
  std::cout << "gcc solo: IPC " << fmt_double(gcc_solo.ipc, 3) << ", Equation-1 rate "
            << fmt_double(gcc_solo.llc_cap_act, 1)
            << " miss/ms; booked permit (protection family): " << fmt_double(permit, 1)
            << " miss/ms\n\n";

  const auto monitors = monitor_defs();

  // --- submit + run the grid once per lane count -------------------------
  // Instrumented-job order: per monitor, the attribution scenarios,
  // then the booked protection pair — the scoring pass below walks the
  // same order.
  auto run_batch = [&](int lanes) {
    sim::SweepRunner sweep(lanes);
    BatchResult result;
    std::vector<std::unique_ptr<JobCapture>> captures;
    auto add_instrumented = [&](const MonitorDef& mon, const ScenarioDef& scenario,
                                double llc_cap, const std::string& label) {
      std::vector<sim::VmPlan> plans;
      for (std::size_t core = 0; core < scenario.apps.size(); ++core) {
        sim::VmPlan plan;
        plan.config.name = scenario.apps[core];
        plan.config.llc_cap = llc_cap;
        plan.config.loop_workload = true;
        plan.workload = factory(scenario.apps[core]);
        plan.pinned_cores = {static_cast<int>(core)};
        plans.push_back(std::move(plan));
      }
      sim::RunSpec job_spec = spec;
      auto make = mon.make;
      job_spec.scheduler = [make]() -> std::unique_ptr<hv::Scheduler> {
        return std::make_unique<core::Ks4Xen>(make());
      };
      captures.push_back(std::make_unique<JobCapture>());
      JobCapture* capture = captures.back().get();
      const auto attach_shadow = sim::shadow_observer(&capture->shadow);
      const std::size_t outcome = sweep.add(
          job_spec, std::move(plans),
          [capture, attach_shadow](hv::Hypervisor& hv) {
            attach_shadow(hv);
            core::PollutionMonitor* monitor = nullptr;
            if (auto* ks = dynamic_cast<core::Ks4Xen*>(&hv.scheduler())) {
              monitor = &ks->kyoto().monitor();
            }
            if (auto* ded = dynamic_cast<core::SocketDedicationMonitor*>(monitor)) {
              // Monitor state dies with the lane's hypervisor, so
              // mirror the cost counters out every tick.
              hv.add_tick_hook([capture, ded](hv::Hypervisor&, Tick) {
                capture->dedication_migrations = ded->migrations_performed();
                capture->dedication_skips = ded->isolations_skipped();
              });
            }
          },
          label);
      return JobRef{outcome, captures.size() - 1};
    };
    for (const auto& mon : monitors) {
      for (const auto& scenario : kScenarios) {
        result.attribution.push_back(add_instrumented(
            mon, scenario, 0.0, std::string(mon.name) + "/" + scenario.name));
      }
      // Protection pair: booked, normalized against the memoized solo.
      result.protection_solo.push_back(sweep.add_solo(spec, factory("gcc"), "gcc", "gcc"));
      result.protection.push_back(add_instrumented(
          mon, kScenarios[0], permit, std::string(mon.name) + "/protection"));
    }
    result.outcomes = sweep.run();
    for (auto& capture : captures) result.series.push_back(capture->shadow->samples());
    return std::pair<BatchResult, std::vector<std::unique_ptr<JobCapture>>>(
        std::move(result), std::move(captures));
  };

  std::vector<BatchResult> batches;
  std::vector<std::unique_ptr<JobCapture>> serial_captures;
  for (const int lanes : {1, 2, 4}) {
    auto [batch, captures] = run_batch(lanes);
    batches.push_back(std::move(batch));
    if (lanes == 1) serial_captures = std::move(captures);
  }
  const BatchResult& serial = batches.front();

  // Sharded agreement: outcomes AND shadow recordings byte-identical
  // at every lane count.
  bool agree = true;
  for (const BatchResult& batch : batches) {
    agree &= batch.outcomes == serial.outcomes;
    agree &= batch.series == serial.series;
  }

  // --- score -------------------------------------------------------------
  // Scoring covers the run from tick 0 (no warm-up skip): the load
  // phase is where detection happens, and monitor accuracy does not
  // need a warm cache.  All indices below are the ones submission
  // recorded (JobRef), never reconstructed arithmetically.
  std::vector<MonitorReport> reports;
  for (std::size_t m = 0; m < monitors.size(); ++m) {
    MonitorReport report;
    report.name = monitors[m].name;
    for (std::size_t s = 0; s < kScenarios.size(); ++s) {
      const auto& scenario = kScenarios[s];
      const JobRef& job = serial.attribution[m * kScenarios.size() + s];
      const auto accuracy = sim::score_monitor_accuracy(serial.series[job.series]);
      report.mean_abs_error += accuracy.mean_abs_error / kScenarios.size();
      report.mean_rel_error += accuracy.mean_rel_error / kScenarios.size();
      report.victim_abs_error +=
          std::abs(accuracy.estimator_mean_rate[0] - accuracy.true_mean_rate[0]) /
          kScenarios.size();
      report.top1_agreement += accuracy.top1_agreement / kScenarios.size();
      report.rank_tau_min = std::min(report.rank_tau_min, accuracy.rank_tau);
      const bool oracle_names_aggressor =
          accuracy.true_aggressor == static_cast<int>(scenario.aggressor_index);
      const std::size_t est_top = static_cast<std::size_t>(std::distance(
          accuracy.estimator_mean_rate.begin(),
          std::max_element(accuracy.estimator_mean_rate.begin(),
                           accuracy.estimator_mean_rate.end())));
      report.aggressor_first_all &=
          oracle_names_aggressor && est_top == scenario.aggressor_index;
    }
    // Protection pair.
    const JobRef& prot = serial.protection[m];
    const auto protection = sim::score_monitor_accuracy(serial.series[prot.series]);
    report.time_to_detect = protection.time_to_detect;
    const auto& outcome = serial.outcomes[prot.outcome];
    const auto& solo = serial.outcomes[serial.protection_solo[m]];
    report.victim_norm_perf = outcome.vms[0].ipc / solo.vms[0].ipc;
    reports.push_back(std::move(report));
  }
  // Dedication cost, mirrored out of the lanes by the tick hooks.
  const std::size_t captures_per_monitor = kScenarios.size() + 1;
  for (std::size_t j = 0; j < serial_captures.size(); ++j) {
    if (serial_captures[j]->dedication_migrations < 0) continue;
    MonitorReport& report = reports[j / captures_per_monitor];
    report.migrations = std::max(report.migrations, std::int64_t{0}) +
                        serial_captures[j]->dedication_migrations;
    report.skips = std::max(report.skips, std::int64_t{0}) +
                   serial_captures[j]->dedication_skips;
  }

  TextTable table({"monitor", "abs err (miss/ms)", "rel err", "victim err", "top-1 agree",
                   "tau (min)", "detect (ticks)", "victim norm perf", "cost"});
  for (const MonitorReport& r : reports) {
    std::string cost = "none";
    if (r.name == "socket-dedication") {
      cost = fmt_count(r.migrations) + " migr, " + fmt_count(r.skips) + " skips";
    } else if (r.name == "mcsim-replay") {
      cost = "replays on sim host";
    } else if (r.name == "ground-truth") {
      cost = "simulator oracle";
    }
    table.add_row({r.name, fmt_double(r.mean_abs_error, 2), fmt_double(r.mean_rel_error, 2),
                   fmt_double(r.victim_abs_error, 2), fmt_double(r.top1_agreement, 2),
                   fmt_double(r.rank_tau_min, 2),
                   r.time_to_detect >= 0 ? std::to_string(r.time_to_detect) : "never",
                   fmt_double(r.victim_norm_perf, 2), cost});
  }
  std::cout << kScenarios.size() << " attribution scenarios + 1 protection pair x "
            << monitors.size() << " monitors (+ memoized gcc solos), " << spec.warmup_ticks
            << "+" << spec.measure_ticks << " ticks/job\n\n" << table << '\n';

  // --- gates -------------------------------------------------------------
  const MonitorReport& direct = reports[0];
  const MonitorReport& dedication = reports[1];
  const MonitorReport& mcsim = reports[2];
  const MonitorReport& truth = reports[3];

  bool all_ok = true;
  all_ok &= bench::check(
      "sharded outcomes AND shadow recordings byte-identical to the serial batch at "
      "lanes {1,2,4}",
      agree);
  all_ok &= bench::check("every monitor ranks the true aggressor first in every scenario",
                         direct.aggressor_first_all && dedication.aggressor_first_all &&
                             mcsim.aggressor_first_all && truth.aggressor_first_all);
  all_ok &= bench::check("ground-truth monitor matches its own shadow exactly "
                         "(mean abs error < 1e-9 miss/ms)",
                         truth.mean_abs_error < 1e-9);
  all_ok &= bench::check(
      "under steady contention the clean monitors charge the victim nearer truth than "
      "direct PMCs (documented bounds: dedication < 0.9x, McSim < 0.5x of direct's "
      "victim error)",
      dedication.victim_abs_error < direct.victim_abs_error * 0.9 &&
          mcsim.victim_abs_error < direct.victim_abs_error * 0.5);
  all_ok &= bench::check("every monitor lets KS4Xen protect the victim (norm >= 0.85)",
                         direct.victim_norm_perf >= 0.85 &&
                             dedication.victim_norm_perf >= 0.85 &&
                             mcsim.victim_norm_perf >= 0.85 &&
                             truth.victim_norm_perf >= 0.85);
  all_ok &= bench::check(
      "every monitor puts the polluter on top within 6 ticks of the booked run",
      [&] {
        for (const MonitorReport& r : reports) {
          if (r.time_to_detect < 0 || r.time_to_detect > 6) return false;
        }
        return true;
      }());

  return bench::verdict(all_ok);
}
