#include "kyoto/controller.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "kyoto/ks4xen.hpp"
#include "kyoto/pollution.hpp"
#include "test_util.hpp"
#include "workloads/catalog.hpp"

namespace kyoto::core {
namespace {

std::unique_ptr<workloads::Workload> app(const char* name, std::uint64_t seed = 1) {
  return workloads::make_app(name, test::test_machine().mem, seed);
}

hv::VmConfig booked(const char* name, double llc_cap, bool loop = true) {
  hv::VmConfig c{.name = name};
  c.llc_cap = llc_cap;
  c.loop_workload = loop;
  return c;
}

TEST(Equation1, MatchesPaperFormula) {
  // 1000 misses over 2.8e6 cycles at 2.8 GHz (2.8e6 kHz): the VM ran
  // 1 ms, so the rate is 1000 misses/ms.
  EXPECT_DOUBLE_EQ(equation1(1000, 2'800'000, 2'800'000), 1000.0);
  EXPECT_DOUBLE_EQ(equation1(0, 2'800'000, 1'000'000), 0.0);
  EXPECT_DOUBLE_EQ(equation1(500, 2'800'000, 0), 0.0);  // no cycles
}

TEST(Equation1, CounterSetOverload) {
  pmc::CounterSet delta;
  delta.set(pmc::Counter::kLlcMisses, 100);
  delta.set(pmc::Counter::kUnhaltedCycles, 43'750);  // 1 ms at scaled freq
  EXPECT_NEAR(equation1(delta, 43'750), 100.0, 1e-9);
}

TEST(Controller, RejectsBadConstruction) {
  EXPECT_THROW(PollutionController(nullptr), std::logic_error);
}

TEST(Controller, UnbookedVmIsNeverPunished) {
  hv::Hypervisor hv(test::test_machine(), std::make_unique<Ks4Xen>());
  hv::Vm& vm = hv.create_vm(booked("lbm", /*llc_cap=*/0.0), app("lbm"), 0);
  hv.run_ticks(30);
  const auto& ctl = static_cast<Ks4Xen&>(hv.scheduler()).kyoto();
  EXPECT_EQ(ctl.state(vm).punish_events, 0);
  EXPECT_FALSE(ctl.state(vm).punished);
  EXPECT_EQ(hv.sched_ticks(vm.vcpu(0)), 30);
}

TEST(Controller, HeavyPolluterWithTinyPermitIsPunished) {
  hv::Hypervisor hv(test::test_machine(), std::make_unique<Ks4Xen>());
  hv::Vm& vm = hv.create_vm(booked("lbm", 1.0), app("lbm"), 0);
  hv.run_ticks(30);
  const auto& ctl = static_cast<Ks4Xen&>(hv.scheduler()).kyoto();
  EXPECT_GE(ctl.state(vm).punish_events, 1);
  EXPECT_GT(ctl.state(vm).punished_ticks, 15);
  EXPECT_LT(hv.sched_ticks(vm.vcpu(0)), 10);
}

TEST(Controller, QuotaDebitEqualsMeasuredMissesWithDirectMonitor) {
  hv::Hypervisor hv(test::test_machine(), std::make_unique<Ks4Xen>());
  // Huge permit so the VM never gets punished and keeps running.
  hv::Vm& vm = hv.create_vm(booked("lbm", 1e9), app("lbm"), 0);
  hv.run_ticks(9);
  const auto& ctl = static_cast<Ks4Xen&>(hv.scheduler()).kyoto();
  const double debited = ctl.state(vm).debited_total;
  const double misses =
      static_cast<double>(vm.counters().get(pmc::Counter::kLlcMisses));
  // rate × on-CPU ms == misses exactly (up to fp rounding).
  EXPECT_NEAR(debited, misses, misses * 1e-9 + 1e-6);
}

TEST(Controller, QuotaRecoversAndPunishmentLifts) {
  hv::Hypervisor hv(test::test_machine(), std::make_unique<Ks4Xen>());
  // Permit roughly an order below lbm's rate: punish, starve, recover,
  // run again — the Fig 5 duty cycle.
  hv::Vm& vm = hv.create_vm(booked("lbm", 60.0), app("lbm"), 0);
  const auto& ctl = static_cast<Ks4Xen&>(hv.scheduler()).kyoto();
  hv.run_ticks(200);
  EXPECT_GE(ctl.state(vm).punish_events, 2);  // punished more than once => recovered between
  const auto sched = hv.sched_ticks(vm.vcpu(0));
  EXPECT_GT(sched, 2);    // it does run sometimes
  EXPECT_LT(sched, 150);  // but far from always
}

TEST(Controller, BankClampLimitsSavedQuota) {
  hv::Hypervisor hv(test::test_machine(), std::make_unique<Ks4Xen>());
  // hmmer is LLC-resident: it pollutes ~nothing, so its 10-slice
  // start-up grace shrinks to the bank at the first slice end and
  // stays there — 3 slices' worth of earning, right after a slice end.
  hv::Vm& vm = hv.create_vm(booked("hmmer", 100.0), app("hmmer"), 0);
  const auto& ctl = static_cast<Ks4Xen&>(hv.scheduler()).kyoto();
  hv.run_ticks(60);
  const double slice_earn = 100.0 * static_cast<double>(kTickMs * kTicksPerSlice);
  EXPECT_EQ(ctl.state(vm).punish_events, 0);
  EXPECT_EQ(ctl.state(vm).quota, 3.0 * slice_earn);
}

TEST(Controller, InitialBankGivesStartupGrace) {
  // A freshly booked VM starts with 10 slices' worth of quota: after
  // its first accounting the quota is that grace minus the debit.
  hv::Hypervisor hv(test::test_machine(), std::make_unique<Ks4Xen>());
  hv::Vm& vm = hv.create_vm(booked("gcc", 15.0), app("gcc"), 0);
  const auto& ctl = static_cast<Ks4Xen&>(hv.scheduler()).kyoto();
  hv.run_ticks(1);
  const auto& st = ctl.state(vm);
  EXPECT_GT(st.debited_total, 0.0);
  EXPECT_EQ(st.quota, 15.0 * static_cast<double>(kTickMs * kTicksPerSlice) * 10.0 -
                          st.debited_total);
  // The grace covers gcc's one-off data-loading burst at a permit
  // near its steady rate.
  hv.run_ticks(11);
  EXPECT_EQ(ctl.state(vm).punish_events, 0);
}

TEST(Controller, StateOfUnknownVmIsEmpty) {
  hv::Hypervisor hv(test::test_machine(), std::make_unique<Ks4Xen>());
  hv::Vm& vm = hv.create_vm(booked("gcc", 100.0), app("gcc"), 0);
  const auto& ctl = static_cast<Ks4Xen&>(hv.scheduler()).kyoto();
  // Before any tick, no state was created yet.
  EXPECT_EQ(ctl.state(vm).punish_events, 0);
  EXPECT_FALSE(ctl.state(vm).punished);
}

TEST(Controller, PunishedVmGetsZeroCpu) {
  hv::Hypervisor hv(test::test_machine(), std::make_unique<Ks4Xen>());
  hv::Vm& dis = hv.create_vm(booked("lbm", 0.5), app("lbm", 1), 0);
  hv::Vm& other = hv.create_vm(booked("gcc", 0.0, true), app("gcc", 2), 0);
  hv.run_ticks(60);
  const auto& ctl = static_cast<Ks4Xen&>(hv.scheduler()).kyoto();
  EXPECT_TRUE(ctl.state(dis).punished);
  // The co-located unbooked VM absorbs the freed CPU (work conserving).
  EXPECT_GT(hv.sched_ticks(other.vcpu(0)), 50);
}

}  // namespace
}  // namespace kyoto::core
