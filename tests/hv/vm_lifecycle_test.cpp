// VM destruction (churn departures) against the teardown contract:
// schedulers must forget the vCPUs, freed cores must be reusable, LLC
// attribution must stay exact against the O(lines) recount oracles
// with the inflicted == suffered conservation law intact, and an
// in-flight socket-dedication campaign must abort cleanly when its
// target (or a displaced co-runner) departs.
#include <gtest/gtest.h>

#include <memory>

#include "hv/cfs_scheduler.hpp"
#include "hv/credit_scheduler.hpp"
#include "hv/hypervisor.hpp"
#include "hv/pisces.hpp"
#include "kyoto/ks4xen.hpp"
#include "kyoto/monitor.hpp"
#include "sim/churn_engine.hpp"
#include "support/counter_ledger.hpp"
#include "test_util.hpp"
#include "workloads/catalog.hpp"

namespace kyoto::hv {
namespace {

std::unique_ptr<workloads::Workload> app(const char* name, const MachineConfig& machine,
                                         std::uint64_t seed) {
  return workloads::make_app(name, machine.mem, seed);
}

VmConfig looping(const std::string& name) {
  VmConfig config;
  config.name = name;
  config.loop_workload = true;
  return config;
}

/// Sums inflicted/suffered cross-evictions over every VM id ever
/// allocated (pollution records outlive their VMs) and every socket.
std::pair<std::uint64_t, std::uint64_t> conservation_sums(Hypervisor& hv) {
  std::uint64_t inflicted = 0, suffered = 0;
  const auto& topo = hv.machine().topology();
  for (int socket = 0; socket < topo.sockets; ++socket) {
    const cache::SetAssocCache& llc = hv.machine().memory().llc(socket);
    for (int id = 0; id < hv.vm_count(); ++id) {
      const cache::VmPollution& p = llc.pollution_for_vm(id);
      inflicted += p.cross_evictions_inflicted;
      suffered += p.cross_evictions_suffered;
    }
  }
  return {inflicted, suffered};
}

void expect_oracles_exact(Hypervisor& hv) {
  const auto& topo = hv.machine().topology();
  const auto& geometry = hv.machine().config().mem.llc;
  const double total_lines = static_cast<double>(geometry.size / geometry.line);
  for (int socket = 0; socket < topo.sockets; ++socket) {
    const cache::SetAssocCache& llc = hv.machine().memory().llc(socket);
    // Incremental valid-line counter (behind occupancy()) vs recount.
    EXPECT_DOUBLE_EQ(llc.occupancy(),
                     static_cast<double>(llc.recount_valid_lines()) / total_lines);
    for (int id = -1; id < hv.vm_count(); ++id) {
      EXPECT_EQ(llc.footprint_lines(id), llc.recount_footprint_lines(id))
          << "socket " << socket << " vm " << id;
    }
  }
}

template <typename SchedulerT>
void admit_evict_cycles() {
  const MachineConfig machine = test::test_machine();
  Hypervisor hv(machine, std::make_unique<SchedulerT>());
  for (int core = 0; core < 4; ++core) {
    hv.create_vm(looping("gen0-" + std::to_string(core)),
                 app("gcc", machine, 10 + static_cast<std::uint64_t>(core)), core);
  }
  hv.run_ticks(6);

  // Three generations of churn over cores 1 and 3.
  int next_seed = 100;
  int on_core1 = 1, on_core3 = 3;
  for (int gen = 0; gen < 3; ++gen) {
    const int evict_a = on_core1;
    const int evict_b = on_core3;
    hv.destroy_vm(evict_a);
    hv.destroy_vm(evict_b);
    EXPECT_EQ(hv.find_vm(evict_a), nullptr);
    EXPECT_EQ(hv.live_vm_count(), 2);
    hv.run_ticks(3);  // scheduler must not pick the departed vCPUs

    Vm& a = hv.create_vm(looping("gen" + std::to_string(gen + 1) + "-1"),
                         app("mcf", machine, static_cast<std::uint64_t>(next_seed++)), 1);
    Vm& b = hv.create_vm(looping("gen" + std::to_string(gen + 1) + "-3"),
                         app("gcc", machine, static_cast<std::uint64_t>(next_seed++)), 3);
    on_core1 = a.id();
    on_core3 = b.id();
    hv.run_ticks(6);
    EXPECT_GT(a.counters().get(pmc::Counter::kInstructions), 0u);
    EXPECT_GT(b.counters().get(pmc::Counter::kInstructions), 0u);
    EXPECT_EQ(hv.live_vm_count(), 4);
  }
  EXPECT_EQ(hv.vm_count(), 4 + 3 * 2);  // ids are never reused
}

TEST(VmLifecycle, CreditSchedulerSurvivesAdmitEvictCycles) {
  admit_evict_cycles<CreditScheduler>();
}

TEST(VmLifecycle, CfsSchedulerSurvivesAdmitEvictCycles) {
  admit_evict_cycles<CfsScheduler>();
}

TEST(VmLifecycle, PiscesSchedulerSurvivesAdmitEvictCycles) {
  admit_evict_cycles<PiscesScheduler>();
}

TEST(VmLifecycle, LlcAttributionStaysExactAcrossChurn) {
  const MachineConfig machine = test::test_machine();
  Hypervisor hv(machine, std::make_unique<CreditScheduler>());
  hv.machine().memory().observe_ground_truth();  // the pollution counters are read
  for (int core = 0; core < 4; ++core) {
    hv.create_vm(looping("vm" + std::to_string(core)),
                 app(core % 2 == 0 ? "mcf" : "gcc", machine,
                     20 + static_cast<std::uint64_t>(core)),
                 core);
  }
  hv.run_ticks(9);
  expect_oracles_exact(hv);

  // Destroy a polluter: its lines vanish with exact bookkeeping, its
  // pollution record survives as statistics, and the conservation law
  // is untouched (release generates no cross-eviction events).
  const auto [inflicted_before, suffered_before] = conservation_sums(hv);
  EXPECT_EQ(inflicted_before, suffered_before);
  EXPECT_GT(inflicted_before, 0u) << "scenario did not contend; the gate is vacuous";
  hv.destroy_vm(0);
  expect_oracles_exact(hv);
  for (int socket = 0; socket < machine.topology.sockets; ++socket) {
    EXPECT_EQ(hv.machine().memory().llc(socket).footprint_lines(0), 0u);
  }
  const auto [inflicted_mid, suffered_mid] = conservation_sums(hv);
  EXPECT_EQ(inflicted_mid, inflicted_before);
  EXPECT_EQ(suffered_mid, suffered_before);

  // Keep running with a replacement tenant: the law must keep holding
  // while the freed ways are re-filled.
  hv.create_vm(looping("tenant"), app("mcf", machine, 99), 0);
  hv.run_ticks(9);
  expect_oracles_exact(hv);
  const auto [inflicted_after, suffered_after] = conservation_sums(hv);
  EXPECT_EQ(inflicted_after, suffered_after);
  EXPECT_GT(inflicted_after, inflicted_mid);
}

TEST(VmLifecycle, DedicationCampaignAbortsWhenTargetDeparts) {
  const MachineConfig machine = test::test_numa_machine();
  auto scheduler = std::make_unique<core::Ks4Xen>(
      std::make_unique<core::SocketDedicationMonitor>());
  Hypervisor hv(machine, std::move(scheduler));
  // Two loud VMs sharing socket 0: the round-robin campaign targets
  // vm0 first and displaces vm1 to socket 1.
  Vm& vm0 = hv.create_vm(looping("target"), app("mcf", machine, 1), 0);
  Vm& vm1 = hv.create_vm(looping("corunner"), app("mcf", machine, 2), 1);
  (void)vm0;

  // First campaign step fires at tick 12 (default sample period).
  hv.run_ticks(13);
  const int cores_per_socket = machine.topology.cores_per_socket;
  ASSERT_GE(vm1.vcpu(0).pinned_core(), cores_per_socket)
      << "campaign did not displace the co-runner; the abort path is untested";

  // Target departs mid-campaign: the displaced co-runner must come
  // home immediately, not after a window that can never finish.
  hv.destroy_vm(0);
  EXPECT_EQ(vm1.vcpu(0).pinned_core(), 1);
  hv.run_ticks(30);  // monitor keeps cycling without the departed VM
  EXPECT_GT(vm1.counters().get(pmc::Counter::kInstructions), 0u);
}

TEST(VmLifecycle, DedicationSurvivesDisplacedVmDeparting) {
  const MachineConfig machine = test::test_numa_machine();
  Hypervisor hv(machine, std::make_unique<core::Ks4Xen>(
                             std::make_unique<core::SocketDedicationMonitor>()));
  Vm& vm0 = hv.create_vm(looping("target"), app("mcf", machine, 1), 0);
  hv.create_vm(looping("departing"), app("mcf", machine, 2), 1);

  hv.run_ticks(13);
  // Destroy the displaced vCPU's VM while it is parked on socket 1:
  // the monitor must forget it (never migrate it back).
  hv.destroy_vm(1);
  hv.run_ticks(30);
  EXPECT_GT(vm0.counters().get(pmc::Counter::kInstructions), 0u);
  EXPECT_EQ(hv.live_vm_count(), 1);
}

// The run_scenario reporting fix: VMs that departed mid-window are
// excluded, VMs admitted mid-window get a zero baseline, and the
// static VM's row is still present and keyed correctly.
TEST(VmLifecycle, RunScenarioToleratesMidWindowChurn) {
  sim::RunSpec spec = test::quick_spec(/*warmup=*/3, /*measure=*/24);
  auto churn = std::make_shared<sim::ChurnPlan>();
  // One tenant alive across the window start that departs inside the
  // window, and one arriving inside the window that stays.
  churn->explicit_trace = {{0, 12}, {15, 0}};
  churn->tenant_config.loop_workload = true;
  churn->apps = {test::app_factory("gcc", spec.machine)};
  churn->app_ids = {"gcc"};
  spec.churn = churn;

  sim::VmPlan victim;
  victim.config = looping("victim");
  victim.workload = test::app_factory("gcc", spec.machine);
  victim.pinned_cores = {0};

  const sim::RunOutcome outcome = sim::run_scenario(spec, {victim});
  ASSERT_EQ(outcome.vms.size(), 2u);  // victim + the surviving tenant
  EXPECT_EQ(outcome.vms[0].name, "victim");
  EXPECT_EQ(outcome.vms[1].name, "tenant-1");
  EXPECT_GT(outcome.vms[0].instructions, 0u);
  // The late tenant was measured only from admission (zero baseline),
  // over at most 12 of the 24 window ticks on an identical core — so
  // its window total must stay below the victim's.
  EXPECT_GT(outcome.vms[1].instructions, 0u);
  EXPECT_LT(outcome.vms[1].instructions, outcome.vms[0].instructions);
}

// --- identity-switch fast path edge cases ----------------------------
//
// The hypervisor leaves a steady-state vCPU switched in across ticks
// (lazy PMU delta).  Every event that consumes or invalidates that
// delta — destroy_vm, migrate, a monitor-style counter read, a churn
// arrival onto the vacated core — must leave each VM's counters equal
// to the sum of the per-tick deltas it was charged.  A CounterLedger
// checks that at every tick boundary and at every destroy_vm; the
// tests add checks around migrate and use identity_switch_ticks() to
// prove the fast path was actually engaged (not vacuously skipped).

/// A hypervisor with a counter ledger attached from tick 0.
struct LedgeredHost {
  Hypervisor hv;
  test::CounterLedger ledger;
  explicit LedgeredHost(std::unique_ptr<Scheduler> scheduler =
                            std::make_unique<CreditScheduler>())
      : hv(test::test_machine(), std::move(scheduler)), ledger(hv) {}
  Vm& spawn(const VmConfig& config, const char* workload, std::uint64_t seed, int core) {
    return hv.create_vm(config, app(workload, test::test_machine(), seed), core);
  }
  Vm& spawn(const std::string& name, const char* workload, std::uint64_t seed, int core) {
    return spawn(looping(name), workload, seed, core);
  }
  void expect_ledger_held() const {
    const auto& bad = ledger.violations();
    EXPECT_TRUE(bad.empty()) << bad.size() << " violation(s), first: " << bad.front();
  }
};

TEST(VmLifecycle, DepartedBookedTenantQuotaIsFrozen) {
  // The controller keeps a departed tenant's slot as its final
  // accounting record: after destroy_vm its quota must stop earning
  // at slice ends, while the live booked tenant's accounting carries
  // on.
  const MachineConfig machine = test::test_machine();
  Hypervisor hv(machine, std::make_unique<core::Ks4Xen>());
  VmConfig polluter = looping("polluter");
  polluter.llc_cap = 1.0;  // tight: driven into debt within a few slices
  VmConfig neighbor = looping("neighbor");
  neighbor.llc_cap = 5000.0;  // generous: keeps running and being debited
  const int departing = hv.create_vm(polluter, app("mcf", machine, 1), 0).id();
  const int staying = hv.create_vm(neighbor, app("lbm", machine, 2), 1).id();
  hv.run_ticks(12);
  const auto& kyoto = static_cast<core::Ks4Xen&>(hv.scheduler()).kyoto();
  ASSERT_GT(kyoto.state_by_id(departing).booked, 0.0);
  ASSERT_LT(kyoto.state_by_id(departing).quota, 0.0) << "polluter never went into debt";

  hv.destroy_vm(departing);
  const double frozen_quota = kyoto.state_by_id(departing).quota;
  const std::int64_t frozen_ticks = kyoto.state_by_id(departing).punished_ticks;
  const double staying_before = kyoto.state_by_id(staying).debited_total;
  hv.run_ticks(3 * static_cast<int>(kTicksPerSlice));
  EXPECT_EQ(kyoto.state_by_id(departing).quota, frozen_quota);
  EXPECT_EQ(kyoto.state_by_id(departing).punished_ticks, frozen_ticks);
  EXPECT_FALSE(kyoto.state_by_id(departing).punished);
  EXPECT_GT(kyoto.state_by_id(staying).debited_total, staying_before);
}

TEST(IdentitySwitch, FastPathEngagesInSteadyState) {
  // A single looping VM keeps its core every tick: every pick after
  // the first is an identity switch.
  LedgeredHost host;
  host.spawn("steady", "gcc", 1, 0);
  host.hv.run_ticks(12);
  EXPECT_EQ(host.hv.identity_switch_ticks(), 11);
  EXPECT_EQ(host.ledger.checks(), 12u);
  host.expect_ledger_held();
}

TEST(IdentitySwitch, DestroyVmMidSteadyStateFlushesLazyDelta) {
  LedgeredHost host;
  host.spawn("resident", "mcf", 1, 0);
  host.spawn("bystander", "gcc", 2, 1);
  host.hv.run_ticks(8);
  ASSERT_GT(host.hv.identity_switch_ticks(), 0);
  // Destroy while resident: the multi-tick in-flight delta must land
  // in the final accounting record (checked by the ledger's
  // vm-removed hook), not evaporate.
  host.hv.destroy_vm(0);
  host.hv.run_ticks(5);
  host.expect_ledger_held();
}

TEST(IdentitySwitch, MigrateAfterIdentityTicksFlushesAgainstOldCore) {
  LedgeredHost host;
  Vm& mover = host.spawn("mover", "mcf", 1, 0);
  host.hv.run_ticks(7);
  const auto before = host.hv.identity_switch_ticks();
  ASSERT_GT(before, 0);
  // Migrate off the fast-path core: the lazy delta folds against the
  // OLD core's PMU before the pin changes.
  host.ledger.check("before migrate");
  host.hv.migrate(mover.vcpu(0), 2);
  host.ledger.check("right after migrate");
  host.hv.run_ticks(7);
  host.expect_ledger_held();
  // The vCPU re-enters the fast path on its new core.
  EXPECT_GT(host.hv.identity_switch_ticks(), before);
}

TEST(IdentitySwitch, CounterReadsSeeInFlightLazyDelta) {
  // The ledger reads Vm::counters() at every tick boundary — exactly
  // where monitors read — while the resident vCPU's delta spans
  // several ticks.
  LedgeredHost host;
  host.spawn("watched", "mcf", 1, 0);
  host.hv.run_ticks(9);
  EXPECT_EQ(host.ledger.checks(), 9u);
  EXPECT_GT(host.hv.identity_switch_ticks(), 0);
  host.expect_ledger_held();
}

TEST(IdentitySwitch, ChurnArrivalOntoFastPathCore) {
  LedgeredHost host;
  host.spawn("incumbent", "mcf", 1, 0);
  host.spawn("neighbor", "gcc", 2, 1);
  host.hv.run_ticks(8);
  ASSERT_GT(host.hv.identity_switch_ticks(), 0);
  // Churn: the incumbent departs, a new tenant lands on the same core
  // (the scheduler now alternates picks on core 0 while the arrival
  // warms up — a real switch, then steady state again).
  host.hv.destroy_vm(0);
  host.spawn("arrival", "gcc", 3, 0);
  const auto at_arrival = host.hv.identity_switch_ticks();
  host.hv.run_ticks(8);
  host.expect_ledger_held();
  // The arrival reaches the fast path too.
  EXPECT_GT(host.hv.identity_switch_ticks(), at_arrival);
}

TEST(IdentitySwitch, KyotoPunishmentKeepsTheLedger) {
  // KS4Xen with a tightly booked polluter: punish transitions block
  // and release the polluter's core while the fast path is engaged on
  // both cores, and the per-tick deltas the controller was charged
  // must still sum to the counters.
  LedgeredHost host(std::make_unique<core::Ks4Xen>());
  VmConfig booked = looping("polluter");
  booked.llc_cap = 1.0;  // tight: punish oscillation within a few slices
  host.spawn(booked, "mcf", 1, 0);
  host.spawn("victim", "gcc", 2, 1);
  host.hv.run_ticks(18);
  ASSERT_GT(host.hv.identity_switch_ticks(), 0);
  const auto& kyoto = static_cast<core::Ks4Xen&>(host.hv.scheduler()).kyoto();
  EXPECT_GT(kyoto.state_by_id(0).punish_events, 0) << "polluter never punished; gate vacuous";
  host.expect_ledger_held();
}

}  // namespace
}  // namespace kyoto::hv
