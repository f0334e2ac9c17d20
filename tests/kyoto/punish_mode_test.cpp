// Punish semantics: a punished VM is blocked — "deprived of the
// processor" (Fig 5) — whether or not anyone else wants its core, and
// under both the credit (KS4Xen) and CFS (KS4Linux) schedulers.
#include <gtest/gtest.h>

#include <memory>

#include "kyoto/ks4linux.hpp"
#include "kyoto/ks4xen.hpp"
#include "test_util.hpp"
#include "workloads/catalog.hpp"

namespace kyoto::core {
namespace {

std::unique_ptr<workloads::Workload> app(const char* name, std::uint64_t seed = 1) {
  return workloads::make_app(name, test::test_machine().mem, seed);
}

hv::VmConfig booked(const char* name, double cap) {
  hv::VmConfig c{.name = name};
  c.llc_cap = cap;
  c.loop_workload = true;
  return c;
}

TEST(PunishMode, BlockStarvesPunishedVmOnIdleCore) {
  hv::Hypervisor hv(test::test_machine(), std::make_unique<Ks4Xen>());
  hv::Vm& vm = hv.create_vm(booked("lbm", 1.0), app("lbm"), 0);
  hv.run_ticks(60);
  // Core 0 has nothing else to do, yet the punished VM may not run.
  EXPECT_LT(hv.sched_ticks(vm.vcpu(0)), 12);
  EXPECT_GT(hv.idle_ticks(0), 45);
}

TEST(PunishMode, BlockedVmStaysPunishedWhileItsCoreIdles) {
  hv::Hypervisor hv(test::test_machine(), std::make_unique<Ks4Xen>());
  hv::Vm& vm = hv.create_vm(booked("lbm", 1.0), app("lbm"), 0);
  hv.run_ticks(60);
  const auto& ctl = static_cast<Ks4Xen&>(hv.scheduler()).kyoto();
  // Idle time earns no pardon: the quota stays negative, so the VM is
  // still punished and its deprived ticks keep counting.
  EXPECT_TRUE(ctl.state(vm).punished);
  EXPECT_GT(ctl.state(vm).punished_ticks, 30);
}

TEST(PunishMode, BlockHandsContendedCoreToCompetitor) {
  // With a competitor on the same core the punished VM gets
  // (almost) no CPU; the unpunished competitor takes the core.
  hv::Hypervisor hv(test::test_machine(), std::make_unique<Ks4Xen>());
  hv::Vm& dis = hv.create_vm(booked("lbm", 1.0), app("lbm", 1), 0);
  hv::Vm& competitor = hv.create_vm(booked("povray", 0.0), app("povray", 2), 0);
  hv.run_ticks(90);
  EXPECT_GT(hv.sched_ticks(competitor.vcpu(0)), 80);
  EXPECT_LT(hv.sched_ticks(dis.vcpu(0)), 10);
}

TEST(PunishMode, BlockWorksUnderCfsToo) {
  hv::Hypervisor hv(test::test_machine(), std::make_unique<Ks4Linux>());
  hv::Vm& dis = hv.create_vm(booked("lbm", 1.0), app("lbm", 1), 0);
  hv::Vm& competitor = hv.create_vm(booked("gcc", 0.0), app("gcc", 2), 0);
  hv.run_ticks(90);
  EXPECT_GT(hv.sched_ticks(competitor.vcpu(0)), 75);
  EXPECT_LT(hv.sched_ticks(dis.vcpu(0)), 15);
}

}  // namespace
}  // namespace kyoto::core
