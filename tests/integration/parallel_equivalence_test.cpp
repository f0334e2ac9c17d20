// Acceptance gate of the per-socket parallel tick engine: a parallel
// run is not "close to" the serial run, it IS the serial run.
//
// Every scenario below is executed once with the serial engine
// (threads=1) and once per parallel lane count (threads=2, 4), and
// the runs must produce *byte-identical* traces: per-VM virtualized
// PMC counters captured every tick, the scheduler trace (per-vCPU
// scheduled-tick counts, per-core idle ticks, tick-by-tick), Kyoto
// monitor/controller readings (quota, punishment state, attributed
// rates), and the end-of-run cache-engine state (per-socket LLC
// totals, per-VM ground-truth attribution, per-VM footprints, bus
// queue cycles, prefetch counts).  Coverage spans all six LLC
// replacement policies, both base schedulers (Xen credit and CFS),
// the three Kyoto monitors (including socket dedication, which
// migrates vCPUs across sockets between ticks), and 1/2/4-socket
// Table-1 machines — the geometry ROADMAP's later scaling PRs build
// on.
//
// If this suite fails, the parallel engine is wrong — never widen the
// comparison tolerance; it is exact equality by design.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hv/cfs_scheduler.hpp"
#include "hv/credit_scheduler.hpp"
#include "kyoto/ks4xen.hpp"
#include "sim/experiment.hpp"
#include "test_util.hpp"
#include "workloads/catalog.hpp"

namespace kyoto {
namespace {

/// Table-1 socket (4 cores) replicated `sockets` times, scaled memory
/// system so runs stay fast.
hv::MachineConfig table1_machine(int sockets) {
  hv::MachineConfig config;  // scaled Table 1 defaults
  config.topology = cache::Topology{sockets, 4};
  return config;
}

struct Scenario {
  hv::MachineConfig machine;
  sim::SchedulerFactory scheduler;
  Tick ticks = 9;
  bool kyoto = false;  // capture controller state per tick
};

void append_u64(std::vector<std::uint64_t>& blob, std::uint64_t v) { blob.push_back(v); }
void append_f64(std::vector<std::uint64_t>& blob, double v) {
  blob.push_back(std::bit_cast<std::uint64_t>(v));
}

void append_cache_stats(std::vector<std::uint64_t>& blob, const cache::CacheStats& s) {
  append_u64(blob, s.accesses);
  append_u64(blob, s.hits);
  append_u64(blob, s.misses);
  append_u64(blob, s.evictions);
  append_u64(blob, s.writebacks);
}

/// Runs `scenario` with the given engine width and serializes
/// everything an experiment could ever read into one flat word blob.
std::vector<std::uint64_t> run_trace(const Scenario& scenario, int threads) {
  auto hv = std::make_unique<hv::Hypervisor>(scenario.machine, scenario.scheduler());
  hv->set_execution_threads(threads);
  // The blob carries the LLCs' per-VM oracle counters too.
  hv->machine().memory().observe_ground_truth();

  // One single-vCPU VM per core, mixing sensitive and disruptive
  // apps so LLC contention, punishment and migration all trigger.
  const std::vector<std::string> apps = {"gcc", "lbm", "mcf", "omnetpp"};
  const int cores = scenario.machine.topology.total_cores();
  for (int core = 0; core < cores; ++core) {
    hv::VmConfig config;
    config.name = apps[static_cast<std::size_t>(core) % apps.size()] + std::to_string(core);
    config.loop_workload = true;
    config.llc_cap = scenario.kyoto ? 25.0 : 0.0;
    config.home_node = scenario.machine.topology.socket_of(core);
    hv->create_vm(config,
                  workloads::make_app(apps[static_cast<std::size_t>(core) % apps.size()],
                                      scenario.machine.mem,
                                      /*seed=*/1000 + static_cast<std::uint64_t>(core)),
                  core);
  }

  const auto* controller = [&]() -> const core::PollutionController* {
    if (auto* ks = dynamic_cast<core::Ks4Xen*>(&hv->scheduler())) return &ks->kyoto();
    return nullptr;
  }();

  std::vector<std::uint64_t> blob;
  hv->add_tick_hook([&blob, controller](hv::Hypervisor& h, Tick now) {
    append_u64(blob, static_cast<std::uint64_t>(now));
    for (hv::Vm* vm : h.vms()) {
      const pmc::CounterSet counters = vm->counters();
      for (unsigned c = 0; c < pmc::kCounterCount; ++c) append_u64(blob, counters.values[c]);
      for (const auto& vcpu : vm->vcpus()) {
        append_u64(blob, static_cast<std::uint64_t>(h.sched_ticks(*vcpu)));
        append_u64(blob, static_cast<std::uint64_t>(vcpu->pinned_core()));
        append_u64(blob, static_cast<std::uint64_t>(vcpu->retired_total()));
        append_u64(blob, static_cast<std::uint64_t>(vcpu->cpu_cycles()));
      }
      if (controller != nullptr) {
        const auto& st = controller->state(*vm);
        append_f64(blob, st.quota);
        append_f64(blob, st.last_rate);
        append_f64(blob, st.debited_total);
        append_u64(blob, st.punished ? 1 : 0);
        append_u64(blob, static_cast<std::uint64_t>(st.punish_events));
        append_u64(blob, static_cast<std::uint64_t>(st.punished_ticks));
      }
    }
    const int total_cores = h.machine().topology().total_cores();
    for (int core = 0; core < total_cores; ++core) {
      append_u64(blob, static_cast<std::uint64_t>(h.idle_ticks(core)));
    }
  });

  hv->run_ticks(scenario.ticks);
  if (controller != nullptr) {
    // A dedication window must hold two whole campaigns, out and back:
    // their migrations reshape the partition the engine splits.
    if (const auto* dedication =
            dynamic_cast<const core::SocketDedicationMonitor*>(&controller->monitor())) {
      EXPECT_GE(test::completed_campaigns(*dedication), 2) << "threads=" << threads;
    }
  }

  // End-of-run cache-engine state: the merge must leave every
  // attribution slot exactly where the serial engine leaves it.
  auto& memory = hv->machine().memory();
  const auto& topo = scenario.machine.topology;
  for (int socket = 0; socket < topo.sockets; ++socket) {
    const auto& llc = memory.llc(socket);
    append_cache_stats(blob, llc.stats());
    for (int vm = 0; vm < hv->vm_count(); ++vm) {
      append_cache_stats(blob, llc.stats_for_vm(vm));
      append_u64(blob, llc.footprint_lines(vm));
    }
    append_f64(blob, llc.occupancy());
    append_u64(blob, static_cast<std::uint64_t>(memory.bus_queue_cycles(socket)));
  }
  for (int core = 0; core < topo.total_cores(); ++core) {
    append_cache_stats(blob, memory.l1(core).stats());
    append_cache_stats(blob, memory.l2(core).stats());
    append_u64(blob, memory.prefetches_issued(core));
  }
  return blob;
}

void expect_identical(const Scenario& scenario, const std::string& label) {
  const std::vector<std::uint64_t> serial = run_trace(scenario, 1);
  ASSERT_FALSE(serial.empty()) << label;
  for (const int threads : {2, 4}) {
    const std::vector<std::uint64_t> parallel = run_trace(scenario, threads);
    ASSERT_EQ(serial.size(), parallel.size()) << label << " threads=" << threads;
    std::size_t first_diff = serial.size();
    for (std::size_t i = 0; i < serial.size(); ++i) {
      if (serial[i] != parallel[i]) {
        first_diff = i;
        break;
      }
    }
    EXPECT_EQ(first_diff, serial.size())
        << label << " threads=" << threads << ": first divergent word at index "
        << first_diff;
  }
}

sim::SchedulerFactory credit_factory() {
  return [] { return std::unique_ptr<hv::Scheduler>(std::make_unique<hv::CreditScheduler>()); };
}

sim::SchedulerFactory cfs_factory() {
  return [] { return std::unique_ptr<hv::Scheduler>(std::make_unique<hv::CfsScheduler>()); };
}

TEST(ParallelEquivalence, AllReplacementPoliciesOnTwoSockets) {
  for (const cache::ReplacementKind policy :
       {cache::ReplacementKind::kLru, cache::ReplacementKind::kPlru,
        cache::ReplacementKind::kRandom, cache::ReplacementKind::kLip,
        cache::ReplacementKind::kBip, cache::ReplacementKind::kDip}) {
    Scenario scenario;
    scenario.machine = table1_machine(2);
    scenario.machine.mem.llc_replacement = policy;
    scenario.scheduler = credit_factory();
    expect_identical(scenario,
                     std::string("policy=") + cache::replacement_name(policy));
  }
}

TEST(ParallelEquivalence, SocketCountsAndSchedulers) {
  for (const int sockets : {1, 2, 4}) {
    for (const bool cfs : {false, true}) {
      Scenario scenario;
      scenario.machine = table1_machine(sockets);
      scenario.scheduler = cfs ? cfs_factory() : credit_factory();
      scenario.ticks = sockets == 4 ? 7 : 9;
      expect_identical(scenario, "sockets=" + std::to_string(sockets) +
                                     (cfs ? " sched=cfs" : " sched=credit"));
    }
  }
}

TEST(ParallelEquivalence, KyotoMonitorsSeeMergedState) {
  // Each Kyoto monitor runs on the merged (post-epilogue) state; the
  // socket-dedication monitor additionally migrates vCPUs across
  // sockets between ticks, reshaping the partition every campaign.
  struct MonitorCase {
    std::string name;
    std::function<std::unique_ptr<core::PollutionMonitor>()> make;
    Tick ticks;
  };
  const std::vector<MonitorCase> monitors = {
      {"direct", [] { return std::make_unique<core::DirectPmcMonitor>(); }, 12},
      // Long enough for two whole campaigns at the 12-tick period.
      {"dedication", [] { return std::make_unique<core::SocketDedicationMonitor>(); }, 40},
      {"mcsim", [] { return std::make_unique<core::McSimMonitor>(); }, 12},
  };
  for (const auto& mc : monitors) {
    Scenario scenario;
    scenario.machine = table1_machine(2);
    scenario.kyoto = true;
    scenario.ticks = mc.ticks;
    auto make = mc.make;
    scenario.scheduler = [make] {
      return std::unique_ptr<hv::Scheduler>(std::make_unique<core::Ks4Xen>(make()));
    };
    expect_identical(scenario, "monitor=" + mc.name);
  }
}

TEST(ParallelEquivalence, BusAndPrefetcherExtensions) {
  // The optional per-socket memory bus and the hardware prefetcher
  // exercise memory_miss_extras — the cold path that touches the
  // per-socket bus clock and per-core prefetch counters from inside
  // the partitions.
  Scenario scenario;
  scenario.machine = table1_machine(4);
  scenario.machine.mem.bus.enabled = true;
  scenario.machine.mem.prefetch.enabled = true;
  scenario.scheduler = credit_factory();
  scenario.ticks = 6;
  expect_identical(scenario, "bus+prefetch");
}

TEST(ParallelEquivalence, ThreadsExceedingSocketsClampCleanly) {
  Scenario scenario;
  scenario.machine = table1_machine(2);
  scenario.scheduler = credit_factory();
  scenario.ticks = 6;
  const auto serial = run_trace(scenario, 1);
  const auto wide = run_trace(scenario, 16);  // > sockets, > host cores
  EXPECT_EQ(serial, wide);
}

}  // namespace
}  // namespace kyoto
