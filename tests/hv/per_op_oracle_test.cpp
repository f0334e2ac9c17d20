// The machine's ref-batch vCPU loop against the frozen per-op engine.
//
// Twin hypervisors host identical tenants; one executes bursts through
// Machine::run_vcpu, the other through test::PerOpEngine, in the same
// random order with the same random budgets.  After every burst the
// RunResult, the core's PMU counters and the vCPU's run bookkeeping
// must be equal.  For v1 streams the library opens its lookahead
// blocks where the per-op engine refilled its 256-instruction block,
// so at the block end the generators agree: the next 1000 ops of the
// library vCPU's clone_at_block_end() — what the McSim monitor
// replays — must equal those of the per-op engine's raw clone().  The
// McSim replay loop is checked the same way against the per-op replay.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "hv/credit_scheduler.hpp"
#include "hv/hypervisor.hpp"
#include "mcsim/replay.hpp"
#include "mem/patterns.hpp"
#include "support/per_op_engine.hpp"
#include "support/pin_tracer.hpp"
#include "test_util.hpp"
#include "workloads/catalog.hpp"
#include "workloads/pattern_workload.hpp"

namespace kyoto::hv {
namespace {

using workloads::StreamVersion;

struct Tenant {
  const char* name;
  int core;
  bool loop;
  StreamVersion stream;
  /// 0: the catalog application `app`; otherwise a Zipf workload of
  /// this many instructions per run.
  Instructions length;
  const char* app;
};

std::unique_ptr<workloads::Workload> make_tenant(const Tenant& t, const MachineConfig& mc,
                                                 std::uint64_t seed) {
  if (t.length == 0) return workloads::make_app(t.app, mc.mem, seed, t.stream);
  workloads::WorkloadSpec spec;
  spec.name = t.name;
  spec.mem_ratio = 0.4;
  spec.write_ratio = 0.3;
  spec.mlp = 1.7;
  spec.length = t.length;
  spec.stream = t.stream;
  return std::make_unique<workloads::PatternWorkload>(
      spec, std::make_unique<mem::ZipfPattern>(mc.mem.llc.size, 0.9, seed), seed);
}

std::vector<mem::Op> future_ops(std::unique_ptr<workloads::Workload> clone, std::size_t n) {
  std::vector<mem::Op> ops(n);
  clone->next_batch(ops.data(), n);
  return ops;
}

void expect_twins_agree(const std::vector<Tenant>& tenants, int bursts, std::uint64_t seed) {
  const MachineConfig mc = test::test_machine();
  Hypervisor lib(mc, std::make_unique<CreditScheduler>());
  Hypervisor ref(mc, std::make_unique<CreditScheduler>());
  std::vector<Vcpu*> lib_vcpus;
  std::vector<Vcpu*> ref_vcpus;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const Tenant& t = tenants[i];
    const VmConfig config{.name = t.name, .loop_workload = t.loop};
    lib_vcpus.push_back(&lib.create_vm(config, make_tenant(t, mc, seed + i), t.core).vcpu(0));
    ref_vcpus.push_back(&ref.create_vm(config, make_tenant(t, mc, seed + i), t.core).vcpu(0));
  }
  test::PerOpEngine oracle(ref.machine());
  std::vector<std::int64_t> wall(static_cast<std::size_t>(mc.topology.total_cores()), 0);
  Rng rng(seed);
  for (int burst = 0; burst < bursts; ++burst) {
    const std::size_t i = rng.below(tenants.size());
    const int core = tenants[i].core;
    // Mix tiny budgets (stops inside a compute gap), mid-size ones and
    // whole ticks.
    const Cycles budget = rng.chance(0.3) ? static_cast<Cycles>(1 + rng.below(40))
                          : rng.chance(0.5) ? static_cast<Cycles>(1 + rng.below(5'000))
                                            : static_cast<Cycles>(1 + rng.below(60'000));
    const auto c = static_cast<std::size_t>(core);
    Vcpu& a = *lib_vcpus[i];
    Vcpu& b = *ref_vcpus[i];
    const Machine::RunResult got = lib.machine().run_vcpu(a, core, budget, wall[c]);
    const Machine::RunResult want = oracle.run_vcpu(b, core, budget, wall[c]);
    wall[c] += got.cycles_used;
    const auto where = [&] {
      return std::string(tenants[i].name) + " burst " + std::to_string(burst);
    };
    ASSERT_EQ(got.cycles_used, want.cycles_used) << where();
    ASSERT_EQ(got.instructions, want.instructions) << where();
    ASSERT_EQ(got.llc_misses, want.llc_misses) << where();
    ASSERT_EQ(got.vcpu_halted, want.vcpu_halted) << where();
    ASSERT_EQ(lib.machine().pmu(core).read(), ref.machine().pmu(core).read()) << where();
    ASSERT_EQ(a.retired_in_run(), b.retired_in_run()) << where();
    ASSERT_EQ(a.retired_total(), b.retired_total()) << where();
    ASSERT_EQ(a.completed_runs(), b.completed_runs()) << where();
    ASSERT_EQ(a.first_completion_wall_cycle(), b.first_completion_wall_cycle()) << where();
    // An open block is always partly generated between bursts.
    const std::size_t lookahead = a.workload().stream_version() == StreamVersion::kV1
                                      ? Vcpu::RefBuffer::kV1MaxOps
                                      : Vcpu::RefBuffer::kMaxOps;
    ASSERT_LT(a.ref_buffer().block_left, lookahead) << where();
    if (tenants[i].stream == StreamVersion::kV1) {
      const auto fa = future_ops(a.clone_at_block_end(), 1000);
      const auto fb = future_ops(b.workload().clone(), 1000);
      for (std::size_t k = 0; k < fa.size(); ++k) {
        ASSERT_EQ(fa[k].kind, fb[k].kind) << where() << " clone op " << k;
        ASSERT_EQ(fa[k].addr, fb[k].addr) << where() << " clone op " << k;
      }
    }
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    EXPECT_GT(lib_vcpus[i]->retired_total(), 0) << tenants[i].name;
    // Short finite runs must really complete (the completion path is
    // part of the gate); a non-looping one ends halted.
    if (tenants[i].length > 0) {
      EXPECT_GT(lib_vcpus[i]->completed_runs(), 0) << tenants[i].name;
      EXPECT_EQ(lib_vcpus[i]->done(), !tenants[i].loop) << tenants[i].name;
    }
  }
}

TEST(PerOpOracle, V1BurstsAndClonesMatchPerOpEngine) {
  const std::vector<Tenant> tenants = {
      {"gcc", 0, true, StreamVersion::kV1, 0, "gcc"},
      {"lbm", 1, true, StreamVersion::kV1, 0, "lbm"},
      {"mcf", 2, true, StreamVersion::kV1, 0, "mcf"},
      // Short finite runs: one restarts on completion, one halts.
      {"looping", 3, true, StreamVersion::kV1, 20'011, nullptr},
      {"halting", 0, false, StreamVersion::kV1, 90'001, nullptr},
  };
  expect_twins_agree(tenants, 1500, 5);
}

TEST(PerOpOracle, FiniteRunsCompleteInsideBursts) {
  // Completion bookkeeping lands mid-burst on both engines: a looping
  // run restarts and a non-looping one halts the vCPU for good.
  const std::vector<Tenant> tenants = {
      {"looping", 0, true, StreamVersion::kV1, 3'001, nullptr},
      {"halting", 1, false, StreamVersion::kV1, 40'000, nullptr},
      {"looping-v2", 2, true, StreamVersion::kV2, 5'003, nullptr},
  };
  expect_twins_agree(tenants, 600, 17);
}

TEST(PerOpOracle, V2BurstsMatchPerOpEngine) {
  // v2 refills by a larger lookahead, so only the executed simulation
  // (not the generator position) is compared.
  const std::vector<Tenant> tenants = {
      {"soplex", 0, true, StreamVersion::kV2, 0, "soplex"},
      {"blockie", 1, true, StreamVersion::kV2, 0, "blockie"},
      {"omnetpp", 2, true, StreamVersion::kV2, 0, "omnetpp"},
      {"halting", 3, false, StreamVersion::kV2, 70'001, nullptr},
  };
  expect_twins_agree(tenants, 1200, 29);
}

TEST(PerOpOracle, ReplayMatchesPerOpReplay) {
  const MachineConfig mc = test::test_machine();
  for (const StreamVersion stream : {StreamVersion::kV1, StreamVersion::kV2}) {
    for (const char* app : {"soplex", "lbm", "blockie", "gcc"}) {
      const auto live = workloads::make_app(app, mc.mem, 23, stream);
      mcsim::ReplaySimulator sim(mc.mem, mc.freq_khz);
      const Instructions n = 200'003;
      const auto trace = test::PinTracer::capture(*live, n);
      const mcsim::ReplayResult want = test::per_op_replay(
          mc.mem, /*seed=*/99, /*warmup_fraction=*/0.25, live->spec(), trace);
      for (const mcsim::ReplayResult& got :
           {sim.replay_live(*live, n), test::replay_trace(sim, trace, live->spec())}) {
        EXPECT_EQ(got.instructions, want.instructions) << app;
        EXPECT_EQ(got.cycles, want.cycles) << app;
        EXPECT_EQ(got.llc_references, want.llc_references) << app;
        EXPECT_EQ(got.llc_misses, want.llc_misses) << app;
      }
      EXPECT_GT(want.instructions, 0u) << app;
    }
  }
}

}  // namespace
}  // namespace kyoto::hv
