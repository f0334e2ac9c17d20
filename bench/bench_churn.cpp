// BENCH churn — cloud-churn scenario engine (not a paper figure).
//
// The paper evaluates Kyoto on static VM placements; this harness
// exercises sim::ChurnEngine, which streams tenants through a live
// hypervisor from a deterministic arrival/departure trace.  Three
// phases:
//
//  1. Isolation under churn: a static cache-sensitive victim shares
//     the Table-1 machine with a churning stream of polluter tenants.
//     Under vanilla XCS the victim degrades; under KS4Xen the
//     controller punishes each arriving polluter and the victim
//     recovers most of its solo throughput.  Gated: Kyoto strictly
//     reduces the churn-induced degradation.
//
//  2. Time-to-detect: an explicit single-event trace drops one known
//     polluter into a quiet machine at a known tick; per monitor, the
//     latency from admission to the controller's first punishment is
//     the time-to-detect figure (ChurnEngine::TenantMetrics::
//     first_punished_tick - admitted_tick).  Gated: every monitor
//     detects the polluter, and the direct-PMC path detects within a
//     few ticks.
//
//  3. Long-horizon drill: >= 1000 tenants stream through the
//     2x4 NUMA machine in one run.  Gated: the admitted count.  That
//     the run is byte-identical across tick threads and sweep lanes is
//     tests/sim/churn_equivalence_test.cpp's gate.
//
// Every gate is a simulated value; the bench reads no clock.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "kyoto/ks4xen.hpp"
#include "kyoto/monitor.hpp"
#include "sim/churn_engine.hpp"
#include "sim/experiment.hpp"
#include "workloads/catalog.hpp"

using namespace kyoto;

namespace {

sim::WorkloadFactory app(const char* name, const hv::MachineConfig& machine) {
  const auto mem = machine.mem;
  return [name, mem](std::uint64_t seed) { return workloads::make_app(name, mem, seed); };
}

// --- phase 1: isolation under churn ----------------------------------

struct IsolationRun {
  const char* scheduler;
  double throughput = 0.0;
  double degradation = 0.0;  // % vs the victim's solo run
};

sim::VmPlan victim_plan(const hv::MachineConfig& machine, double llc_cap) {
  sim::VmPlan victim;
  victim.config.name = "victim";
  victim.config.llc_cap = llc_cap;
  victim.config.loop_workload = true;
  victim.workload = app("gcc", machine);
  victim.pinned_cores = {0};
  return victim;
}

std::shared_ptr<sim::ChurnPlan> polluter_churn(const hv::MachineConfig& machine,
                                               double llc_cap, Tick horizon) {
  auto plan = std::make_shared<sim::ChurnPlan>();
  plan->trace.kind = sim::ChurnTraceConfig::Kind::kPoisson;
  plan->trace.arrival_rate = 0.3;
  plan->trace.mean_lifetime_ticks = 12.0;
  plan->trace.horizon_ticks = horizon;
  plan->trace.seed = 5;
  plan->tenant_config.name = "polluter";
  plan->tenant_config.llc_cap = llc_cap;
  plan->tenant_config.loop_workload = true;
  plan->apps = {app("lbm", machine), app("mcf", machine)};
  plan->app_ids = {"lbm", "mcf"};
  return plan;
}

// --- phase 2: time-to-detect an arriving polluter --------------------

struct DetectionRun {
  std::string monitor;
  Tick admitted = -1;
  Tick first_punished = -1;
  Tick latency() const { return first_punished < 0 ? -1 : first_punished - admitted; }
};

DetectionRun detect_with(std::unique_ptr<core::PollutionMonitor> monitor, Tick run_ticks) {
  DetectionRun result;
  result.monitor = monitor->name();

  sim::RunSpec spec;
  spec.machine = hv::scaled_numa_machine();
  auto shared = std::make_shared<std::unique_ptr<core::PollutionMonitor>>(std::move(monitor));
  spec.scheduler = [shared] {
    return std::make_unique<core::Ks4Xen>(std::move(*shared));
  };

  sim::ChurnPlan plan;
  plan.explicit_trace = {sim::ChurnEvent{6, 0}};  // one polluter, arrives, stays
  plan.tenant_config.name = "polluter";
  plan.tenant_config.llc_cap = 25.0;
  plan.tenant_config.loop_workload = true;
  plan.apps = {app("lbm", spec.machine)};
  plan.app_ids = {"lbm"};

  auto hv = sim::build_scenario(spec, {victim_plan(spec.machine, 30.0)});
  sim::ChurnEngine engine(*hv, plan, /*seed=*/9);
  hv->run_ticks(run_ticks);
  engine.finalize();

  const auto& tenant = engine.tenants().at(0);
  result.admitted = tenant.admitted_tick;
  result.first_punished = tenant.first_punished_tick;
  return result;
}

// --- phase 3: long-horizon determinism drill -------------------------

sim::RunSpec drill_spec(Tick measure) {
  sim::RunSpec spec;
  spec.machine = hv::scaled_numa_machine();
  spec.scheduler = [] {
    return std::make_unique<core::Ks4Xen>(std::make_unique<core::DirectPmcMonitor>());
  };
  spec.warmup_ticks = 2;
  spec.measure_ticks = measure;

  auto plan = std::make_shared<sim::ChurnPlan>();
  plan->trace.kind = sim::ChurnTraceConfig::Kind::kPoisson;
  plan->trace.arrival_rate = 0.95;
  plan->trace.mean_lifetime_ticks = 6.0;
  plan->trace.horizon_ticks = measure;
  plan->trace.seed = 33;
  plan->tenant_config.name = "tenant";
  plan->tenant_config.llc_cap = 20.0;
  plan->tenant_config.loop_workload = true;
  plan->apps = {app("gcc", spec.machine), app("mcf", spec.machine)};
  plan->app_ids = {"gcc", "mcf"};
  spec.churn = plan;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = bench::quick_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      std::cerr << "usage: bench_churn [--quick]\n";
      return 2;
    }
  }

  bench::header("BENCH churn", "cloud-churn scenario engine (not a paper figure)",
                "KS4Xen preserves a static victim's throughput under a churning "
                "polluter stream, every monitor detects an arriving polluter, and "
                "a >= 1000-tenant stream runs through one hypervisor");

  bool all_ok = true;

  // Phase 1: isolation under churn (Table-1 1x4 machine, scaled).
  const Tick iso_measure = quick ? 40 : 120;
  const Tick iso_warmup = 4;
  sim::RunSpec iso;
  iso.machine = hv::scaled_machine();
  iso.warmup_ticks = iso_warmup;
  iso.measure_ticks = iso_measure;

  const sim::RunOutcome solo = run_scenario(iso, {victim_plan(iso.machine, 0.0)});
  const double solo_tput = solo.vms.at(0).throughput;
  // Paper-style booking (same formula as the Fig-5 driver): the
  // victim's intrinsic rate plus headroom.  Arriving polluters vastly
  // exceed this permit and get punished; the victim stays under it.
  const double permit = solo.vms.at(0).llc_cap_act * 1.5 + 8.0;

  std::vector<IsolationRun> iso_runs;
  {
    sim::RunSpec xcs = iso;
    xcs.churn = polluter_churn(iso.machine, 0.0, iso_warmup + iso_measure);
    const sim::RunOutcome out = run_scenario(xcs, {victim_plan(iso.machine, 0.0)});
    iso_runs.push_back({"xcs", out.vms.at(0).throughput,
                        sim::degradation_pct(solo_tput, out.vms.at(0).throughput)});
  }
  {
    sim::RunSpec ks = iso;
    ks.scheduler = [] {
      return std::make_unique<core::Ks4Xen>(std::make_unique<core::DirectPmcMonitor>());
    };
    // The victim books no permit (llc_cap 0 = never punished — its
    // direct-PMC rate is contention-inflated under churn and must not
    // trip its own quota); every arriving tenant gets the strict one.
    ks.churn = polluter_churn(iso.machine, permit, iso_warmup + iso_measure);
    const sim::RunOutcome out = run_scenario(ks, {victim_plan(iso.machine, 0.0)});
    iso_runs.push_back({"ks4xen", out.vms.at(0).throughput,
                        sim::degradation_pct(solo_tput, out.vms.at(0).throughput)});
  }

  TextTable iso_table({"scheduler", "victim tput (inst/tick)", "vs solo"});
  iso_table.add_row({"(solo)", fmt_double(solo_tput, 0), "—"});
  for (const IsolationRun& run : iso_runs) {
    iso_table.add_row({run.scheduler, fmt_double(run.throughput, 0),
                       "-" + fmt_double(run.degradation, 1) + " %"});
  }
  std::cout << "  Phase 1 — static gcc victim vs churning lbm/mcf stream ("
            << iso_warmup << "+" << iso_measure << " ticks)\n\n"
            << iso_table << '\n';
  const double xcs_deg = iso_runs[0].degradation;
  const double ks_deg = iso_runs[1].degradation;
  all_ok &= bench::check("churning polluters visibly hurt the victim under XCS "
                         "(degradation >= 5 %)",
                         xcs_deg >= 5.0);
  all_ok &= bench::check("KS4Xen cuts the churn-induced degradation at least in half",
                         ks_deg <= xcs_deg * 0.5);

  // Phase 2: time-to-detect an arriving polluter, per monitor.
  const Tick detect_ticks = quick ? 60 : 100;
  std::vector<DetectionRun> detection;
  detection.push_back(
      detect_with(std::make_unique<core::DirectPmcMonitor>(), detect_ticks));
  detection.push_back(detect_with(std::make_unique<core::McSimMonitor>(), detect_ticks));
  detection.push_back(
      detect_with(std::make_unique<core::SocketDedicationMonitor>(), detect_ticks));

  TextTable det_table({"monitor", "admitted", "first punished", "latency (ticks)"});
  for (const DetectionRun& run : detection) {
    det_table.add_row({run.monitor, std::to_string(run.admitted),
                       std::to_string(run.first_punished),
                       run.latency() < 0 ? "never" : std::to_string(run.latency())});
  }
  std::cout << "  Phase 2 — lbm polluter arrives at tick 6 on the 2x4 NUMA machine ("
            << detect_ticks << " ticks)\n\n"
            << det_table << '\n';
  for (const DetectionRun& run : detection) {
    all_ok &= bench::check(run.monitor + " detects the arriving polluter",
                           run.latency() >= 0);
  }
  all_ok &= bench::check("direct-pmc time-to-detect <= 4 ticks",
                         detection[0].latency() >= 0 && detection[0].latency() <= 4);

  // Phase 3: long-horizon drill — one run streams the tenant count.
  const Tick drill_measure = quick ? 240 : 1200;
  const std::int64_t min_admitted = quick ? 180 : 1000;

  sim::ChurnEngine::Stats drill_stats;
  {
    const sim::RunSpec spec = drill_spec(drill_measure);
    auto hv = sim::build_scenario(spec, {});
    sim::ChurnEngine engine(*hv, *spec.churn, /*seed=*/7);
    hv->run_ticks(spec.warmup_ticks + spec.measure_ticks);
    engine.finalize();
    drill_stats = engine.stats();
  }
  std::cout << "  Phase 3 — " << drill_stats.arrivals << " arrivals / "
            << drill_stats.admitted << " admitted / " << drill_stats.deferred
            << " deferred / " << drill_stats.rejected << " rejected over " << drill_measure
            << " ticks on the 2x4 NUMA machine (peak live " << drill_stats.peak_live
            << ")\n\n";
  all_ok &= bench::check("long-horizon run streams >= " + std::to_string(min_admitted) +
                             " admitted tenants (" + std::to_string(drill_stats.admitted) +
                             ")",
                         drill_stats.admitted >= min_admitted);

  return bench::verdict(all_ok);
}
