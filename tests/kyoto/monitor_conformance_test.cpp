// Monitor-conformance suite: the contract between the estimators, the
// ground-truth oracle and shadow mode.
//
// Three families of guarantees, all gated here:
//
//  * Ground truth and shadow mode are pure observers.  Two equalities,
//    each *byte-identical* over every trace the experiment layer can
//    read — per-tick virtualized PMCs, scheduler decisions, Kyoto
//    quota/punishment state, idle ticks, and the end-of-run LLC
//    totals and footprints — for the serial engine, the parallel tick
//    engine (threads=2/4) and SweepRunner lanes (1/2/4):
//      - observing ground truth (MemorySystem::observe_ground_truth)
//        leaves the run as it is with observation off;
//      - attaching a GroundTruthShadow (and its account/tick hooks)
//        leaves the run as it is when observed bare, the LLC's per-VM
//        oracle counters (stats and pollution) included.
//    Never weaken these comparisons to tolerances: an oracle that
//    perturbs scheduling by one tick is a broken oracle.
//
//  * Every estimator must agree with the oracle on WHO pollutes: on a
//    fig4-style mix the polluter is ranked first, and the charged
//    rates stay within the documented error bounds relative to
//    direct-PMC contamination (dedication < 0.9x, McSim replay
//    < 0.5x of direct's victim error; ground truth exact).
//
//  * GroundTruthMonitor used as a scheduler input is self-consistent:
//    the rate it charges equals the rate its own shadow records,
//    tick for tick, exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kyoto/ground_truth.hpp"
#include "kyoto/ks4xen.hpp"
#include "sim/monitor_accuracy.hpp"
#include "sim/sweep_runner.hpp"
#include "test_util.hpp"
#include "workloads/catalog.hpp"

namespace kyoto {
namespace {

using core::GroundTruthShadow;

/// One instrumented scenario: outcome plus the shadow recordings.
struct ShadowRun {
  sim::RunOutcome outcome;
  std::vector<std::vector<GroundTruthShadow::Sample>> series;  // by vm id
};

/// Runs `plans` under KS4Xen built around `monitor` (overriding
/// spec.scheduler), with a ground-truth shadow attached from tick 0
/// (it records, and score_monitor_accuracy scores, warm-up too).
ShadowRun run_with_shadow(const sim::RunSpec& base, const std::vector<sim::VmPlan>& plans,
                          const sim::MonitorFactory& monitor) {
  sim::RunSpec spec = base;
  spec.scheduler = [monitor]() -> std::unique_ptr<hv::Scheduler> {
    return std::make_unique<core::Ks4Xen>(monitor());
  };
  std::unique_ptr<GroundTruthShadow> shadow;
  ShadowRun run;
  run.outcome = sim::run_scenario(spec, plans, sim::shadow_observer(&shadow));
  run.series = shadow->samples();
  return run;
}

struct MonitorCase {
  std::string name;
  sim::MonitorFactory make;
  /// Length of the traced run (run_trace).
  Tick trace_ticks = 18;
};

std::vector<MonitorCase> all_monitors() {
  return {
      {"direct",
       []() -> std::unique_ptr<core::PollutionMonitor> {
         return std::make_unique<core::DirectPmcMonitor>();
       }},
      {"dedication",
       []() -> std::unique_ptr<core::PollutionMonitor> {
         return std::make_unique<core::SocketDedicationMonitor>();
       },
       40},  // two whole campaigns at the 12-tick period
      {"mcsim",
       []() -> std::unique_ptr<core::PollutionMonitor> {
         return std::make_unique<core::McSimMonitor>();
       }},
      {"ground-truth",
       []() -> std::unique_ptr<core::PollutionMonitor> {
         return std::make_unique<core::GroundTruthMonitor>();
       }},
  };
}

/// The fig4-style conformance mix: the sensitive tenant on core 0,
/// the polluter on core 1, a moderate and a quiet app beside them —
/// on the NUMA machine so socket dedication can campaign.
std::vector<sim::VmPlan> conformance_mix(const hv::MachineConfig& machine, double llc_cap) {
  const std::vector<std::string> apps = {"gcc", "lbm", "omnetpp", "hmmer"};
  std::vector<sim::VmPlan> plans;
  for (std::size_t core = 0; core < apps.size(); ++core) {
    sim::VmPlan plan;
    plan.config.name = apps[core];
    plan.config.llc_cap = llc_cap;
    plan.config.loop_workload = true;
    plan.workload = test::app_factory(apps[core], machine);
    plan.pinned_cores = {static_cast<int>(core)};
    plans.push_back(std::move(plan));
  }
  return plans;
}
constexpr std::size_t kPolluterIndex = 1;  // lbm

void append_u64(std::vector<std::uint64_t>& blob, std::uint64_t v) { blob.push_back(v); }
void append_f64(std::vector<std::uint64_t>& blob, double v) {
  blob.push_back(std::bit_cast<std::uint64_t>(v));
}

/// What a traced run attaches and what its blob carries.
struct TraceMode {
  bool shadow = false;   // attach a GroundTruthShadow (which observes ground truth)
  bool observe = false;  // observe ground truth without a shadow
  bool oracle = false;   // append the LLCs' per-VM oracle counters (needs observation)
};

/// Runs the conformance mix under KS4Xen(mc.make()) for mc.trace_ticks
/// and serializes every scheduler/LLC observable into a flat word blob
/// — optionally with ground truth observed or a shadow attached, whose
/// presence the blob must never betray.
std::vector<std::uint64_t> run_trace(const MonitorCase& mc, int threads, TraceMode mode) {
  const hv::MachineConfig machine = test::test_numa_machine();
  auto hv = std::make_unique<hv::Hypervisor>(machine, std::make_unique<core::Ks4Xen>(mc.make()));
  hv->set_execution_threads(threads);
  for (auto& plan : conformance_mix(machine, 25.0)) {
    std::vector<std::unique_ptr<workloads::Workload>> workloads;
    workloads.push_back(plan.workload(7));
    hv->create_vm(plan.config, std::move(workloads), plan.pinned_cores);
  }
  const auto& controller = static_cast<core::Ks4Xen&>(hv->scheduler()).kyoto();
  std::unique_ptr<GroundTruthShadow> shadow;
  if (mode.shadow) shadow = std::make_unique<GroundTruthShadow>(*hv, &controller);
  if (mode.observe) hv->machine().memory().observe_ground_truth();

  std::vector<std::uint64_t> blob;
  hv->add_tick_hook([&blob, &controller](hv::Hypervisor& h, Tick now) {
    append_u64(blob, static_cast<std::uint64_t>(now));
    for (hv::Vm* vm : h.vms()) {
      const pmc::CounterSet counters = vm->counters();
      for (unsigned c = 0; c < pmc::kCounterCount; ++c) append_u64(blob, counters.values[c]);
      for (const auto& vcpu : vm->vcpus()) {
        append_u64(blob, static_cast<std::uint64_t>(h.sched_ticks(*vcpu)));
        append_u64(blob, static_cast<std::uint64_t>(vcpu->pinned_core()));
      }
      const auto& st = controller.state(*vm);
      append_f64(blob, st.quota);
      append_f64(blob, st.last_rate);
      append_u64(blob, st.punished ? 1 : 0);
      append_u64(blob, static_cast<std::uint64_t>(st.punished_ticks));
    }
    for (int core = 0; core < h.machine().topology().total_cores(); ++core) {
      append_u64(blob, static_cast<std::uint64_t>(h.idle_ticks(core)));
    }
  });
  hv->run_ticks(mc.trace_ticks);
  // A dedication trace must hold two whole campaigns, out and back:
  // the migrations are what a shadow or the oracle could perturb.
  if (const auto* dedication =
          dynamic_cast<const core::SocketDedicationMonitor*>(&controller.monitor())) {
    EXPECT_GE(test::completed_campaigns(*dedication), 2);
  }

  // End-of-run LLC state: totals and footprints, plus (mode.oracle)
  // the ground-truth counters — a shadow (or estimator) must never
  // alter the oracle.
  auto& memory = hv->machine().memory();
  for (int socket = 0; socket < machine.topology.sockets; ++socket) {
    const auto& llc = memory.llc(socket);
    const auto& totals = llc.stats();
    append_u64(blob, totals.accesses);
    append_u64(blob, totals.hits);
    append_u64(blob, totals.misses);
    append_u64(blob, totals.evictions);
    append_u64(blob, totals.writebacks);
    append_u64(blob, llc.footprint_lines(-1));
    for (int vm = 0; vm < hv->vm_count(); ++vm) {
      append_u64(blob, llc.footprint_lines(vm));
      if (!mode.oracle) continue;
      const auto& stats = llc.stats_for_vm(vm);
      append_u64(blob, stats.accesses);
      append_u64(blob, stats.misses);
      append_u64(blob, stats.evictions);
      const auto& pollution = llc.pollution_for_vm(vm);
      append_u64(blob, pollution.cross_evictions_inflicted);
      append_u64(blob, pollution.cross_evictions_suffered);
      append_u64(blob, pollution.contention_misses);
    }
    append_f64(blob, llc.occupancy());
  }
  return blob;
}

/// Word-for-word blob equality, reporting the first divergent word.
void expect_same_trace(const std::vector<std::uint64_t>& want,
                       const std::vector<std::uint64_t>& got, const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  std::size_t first_diff = want.size();
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i] != got[i]) {
      first_diff = i;
      break;
    }
  }
  EXPECT_EQ(first_diff, want.size()) << label << ": first divergent word at " << first_diff;
}

// --------------------------------------------------------------------
// Shadow mode is invisible
// --------------------------------------------------------------------

TEST(ShadowConformance, ShadowLeavesTracesByteIdenticalAllMonitorsAllThreadCounts) {
  // The bare run observes ground truth, so both blobs carry (and
  // compare) every LLC oracle counter.
  for (const auto& mc : all_monitors()) {
    const std::vector<std::uint64_t> bare =
        run_trace(mc, 1, {.observe = true, .oracle = true});
    ASSERT_FALSE(bare.empty()) << mc.name;
    for (const int threads : {1, 2, 4}) {
      const std::vector<std::uint64_t> shadowed =
          run_trace(mc, threads, {.shadow = true, .oracle = true});
      expect_same_trace(bare, shadowed,
                        mc.name + " threads=" + std::to_string(threads) +
                            ": shadow perturbed the run");
    }
  }
}

TEST(ShadowConformance, ObservingGroundTruthLeavesTracesByteIdentical) {
  // The oracle runs only on demand; turning it on must not move one
  // simulated event.  (The ground-truth monitor observes on attach,
  // so its "off" run observes too and the case checks determinism.)
  for (const auto& mc : all_monitors()) {
    for (const int threads : {1, 2, 4}) {
      const std::vector<std::uint64_t> off = run_trace(mc, threads, {});
      ASSERT_FALSE(off.empty()) << mc.name;
      const std::vector<std::uint64_t> on = run_trace(mc, threads, {.observe = true});
      expect_same_trace(off, on,
                        mc.name + " threads=" + std::to_string(threads) +
                            ": observing ground truth perturbed the run");
    }
  }
}

TEST(ShadowConformance, ShadowRecordingsIdenticalAcrossThreadCounts) {
  // The shadow's own recordings must not depend on the engine width
  // either: per-tick samples are part of the deterministic contract.
  for (const auto& mc : all_monitors()) {
    sim::RunSpec spec;
    spec.machine = test::test_numa_machine();
    spec.warmup_ticks = 3;
    spec.measure_ticks = 12;
    const auto plans = conformance_mix(spec.machine, 25.0);
    auto run = [&](int threads) {
      sim::RunSpec tspec = spec;
      tspec.threads = threads;
      return run_with_shadow(tspec, plans, mc.make).series;
    };
    const auto serial = run(1);
    ASSERT_FALSE(serial.empty()) << mc.name;
    EXPECT_EQ(serial, run(2)) << mc.name;
    EXPECT_EQ(serial, run(4)) << mc.name;
  }
}

TEST(ShadowConformance, SweepLanesPreserveOutcomesAndShadowSeries) {
  // Ablation-shaped instrumented jobs across SweepRunner lanes: the
  // outcomes must equal both the lanes=1 batch AND the uninstrumented
  // batch; the shadow series must be identical at every lane count.
  sim::RunSpec spec;
  spec.machine = test::test_numa_machine();
  spec.warmup_ticks = 3;
  spec.measure_ticks = 9;
  auto submit = [&](sim::SweepRunner& sweep, bool instrumented,
                    std::vector<std::unique_ptr<GroundTruthShadow>>* shadows) {
    // Observer lambdas capture slot addresses: size the vector up
    // front so later push_backs cannot reallocate under them.
    if (shadows != nullptr) shadows->reserve(all_monitors().size());
    for (const auto& mc : all_monitors()) {
      sim::RunSpec job_spec = spec;
      auto make = mc.make;
      job_spec.scheduler = [make]() -> std::unique_ptr<hv::Scheduler> {
        return std::make_unique<core::Ks4Xen>(make());
      };
      auto plans = conformance_mix(spec.machine, 25.0);
      if (!instrumented) {
        sweep.add(job_spec, std::move(plans), mc.name);
        continue;
      }
      shadows->push_back(nullptr);
      sweep.add(job_spec, std::move(plans), sim::shadow_observer(&shadows->back()),
                mc.name);
    }
  };

  sim::SweepRunner bare(1);
  submit(bare, false, nullptr);
  const auto bare_outcomes = bare.run();

  std::vector<std::vector<std::vector<GroundTruthShadow::Sample>>> serial_series;
  std::vector<sim::RunOutcome> serial_outcomes;
  for (const int lanes : {1, 2, 4}) {
    sim::SweepRunner sweep(lanes);
    std::vector<std::unique_ptr<GroundTruthShadow>> shadows;
    submit(sweep, true, &shadows);
    const auto outcomes = sweep.run();
    EXPECT_EQ(outcomes, bare_outcomes) << "lanes=" << lanes
                                       << ": observers changed job outcomes";
    std::vector<std::vector<std::vector<GroundTruthShadow::Sample>>> series;
    for (const auto& shadow : shadows) {
      ASSERT_NE(shadow, nullptr) << "lanes=" << lanes;
      series.push_back(shadow->samples());
    }
    if (lanes == 1) {
      serial_series = series;
      serial_outcomes = outcomes;
    } else {
      EXPECT_EQ(series, serial_series) << "lanes=" << lanes;
      EXPECT_EQ(outcomes, serial_outcomes) << "lanes=" << lanes;
    }
  }
}

// --------------------------------------------------------------------
// Estimators vs the oracle
// --------------------------------------------------------------------

TEST(MonitorConformance, EveryEstimatorRanksThePolluterFirstWithinBounds) {
  // Steady contention (no permits): the attribution problem of §3.3.
  sim::RunSpec spec;
  spec.machine = test::test_numa_machine();
  spec.warmup_ticks = 3;
  spec.measure_ticks = 27;
  const auto plans = conformance_mix(spec.machine, 0.0);

  std::vector<sim::MonitorAccuracy> scores;
  for (const auto& mc : all_monitors()) {
    const auto run = run_with_shadow(spec, plans, mc.make);
    const auto accuracy = sim::score_monitor_accuracy(run.series);
    // The oracle itself must identify lbm as the aggressor…
    ASSERT_EQ(accuracy.true_aggressor, static_cast<int>(kPolluterIndex)) << mc.name;
    // …and every estimator's mean-rate ranking must agree.
    std::size_t est_top = 0;
    for (std::size_t vm = 1; vm < accuracy.estimator_mean_rate.size(); ++vm) {
      if (accuracy.estimator_mean_rate[vm] > accuracy.estimator_mean_rate[est_top]) {
        est_top = vm;
      }
    }
    EXPECT_EQ(est_top, kPolluterIndex) << mc.name << " ranked the wrong VM first";
    EXPECT_GT(accuracy.top1_agreement, 0.75) << mc.name;
    EXPECT_GT(accuracy.scored_ticks, 0) << mc.name;
    scores.push_back(accuracy);
  }

  // Documented error bounds, relative to direct-PMC contamination of
  // the victim (gcc, index 0): socket dedication below 0.9x, McSim
  // below 0.5x, ground truth exact.
  auto victim_error = [](const sim::MonitorAccuracy& a) {
    return std::abs(a.estimator_mean_rate[0] - a.true_mean_rate[0]);
  };
  const double direct_err = victim_error(scores[0]);
  EXPECT_GT(direct_err, 1.0) << "direct PMCs should visibly inflate the victim here";
  EXPECT_LT(victim_error(scores[1]), direct_err * 0.9) << "dedication bound";
  EXPECT_LT(victim_error(scores[2]), direct_err * 0.5) << "mcsim bound";
  EXPECT_LT(scores[3].mean_abs_error, 1e-9) << "ground truth must be exact";
}

TEST(MonitorConformance, GroundTruthMonitorMatchesItsOwnShadowExactly) {
  // The self-check that pins the whole harness: when the scheduler's
  // monitor IS the oracle, the charged rate and the shadow's true
  // rate are the same number, tick for tick, on every VM that ran.
  sim::RunSpec spec;
  spec.machine = test::test_numa_machine();
  spec.warmup_ticks = 0;
  spec.measure_ticks = 20;
  const auto run = run_with_shadow(spec, conformance_mix(spec.machine, 25.0), [] {
    return std::make_unique<core::GroundTruthMonitor>();
  });
  int ran_samples = 0;
  for (const auto& series : run.series) {
    for (const auto& sample : series) {
      if (!sample.ran) continue;
      ++ran_samples;
      EXPECT_DOUBLE_EQ(sample.estimator_rate, sample.true_rate)
          << "tick " << sample.tick;
    }
  }
  EXPECT_GT(ran_samples, 30);
}

TEST(MonitorConformance, GroundTruthMonitorDrivesPunishmentOfThePolluter) {
  // Usable as a scheduler input: with ground-truth attribution the
  // polluter pays and the victim never does.
  sim::RunSpec spec;
  spec.machine = test::test_numa_machine();
  spec.warmup_ticks = 3;
  spec.measure_ticks = 24;
  sim::RunSpec job_spec = spec;
  job_spec.scheduler = []() -> std::unique_ptr<hv::Scheduler> {
    return std::make_unique<core::Ks4Xen>(std::make_unique<core::GroundTruthMonitor>());
  };
  const auto outcome = sim::run_scenario(job_spec, conformance_mix(spec.machine, 25.0));
  EXPECT_GT(outcome.vms[kPolluterIndex].punished_ticks, 5);
  EXPECT_EQ(outcome.vms[0].punished_ticks, 0) << "victim punished under ground truth";
}

TEST(MonitorConformance, ShadowSupportsNonKyotoRuns) {
  // Shadowing a vanilla credit-scheduler run records the oracle
  // columns; the estimator column stays unset.
  sim::RunSpec spec = test::quick_spec(2, 8);
  std::unique_ptr<GroundTruthShadow> shadow;
  sim::VmPlan gcc;
  gcc.config.name = "gcc";
  gcc.config.loop_workload = true;
  gcc.workload = test::app_factory("gcc", spec.machine);
  gcc.pinned_cores = {0};
  sim::VmPlan lbm;
  lbm.config.name = "lbm";
  lbm.config.loop_workload = true;
  lbm.workload = test::app_factory("lbm", spec.machine);
  lbm.pinned_cores = {1};
  sim::run_scenario(spec, {gcc, lbm}, [&shadow](hv::Hypervisor& hv) {
    shadow = std::make_unique<GroundTruthShadow>(hv);
  });
  ASSERT_EQ(shadow->samples().size(), 2u);
  std::uint64_t lbm_inflicted = 0;
  for (const auto& sample : shadow->samples_for(1)) {
    EXPECT_EQ(sample.estimator_rate, -1.0);
    lbm_inflicted += sample.cross_evictions_inflicted;
  }
  EXPECT_GT(lbm_inflicted, 0u) << "the polluter must inflict cross-VM evictions";
}

}  // namespace
}  // namespace kyoto
