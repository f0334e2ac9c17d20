#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "kyoto/ks4xen.hpp"
#include "test_util.hpp"
#include "workloads/catalog.hpp"

namespace kyoto::sim {
namespace {

TEST(DegradationPct, Basics) {
  EXPECT_DOUBLE_EQ(degradation_pct(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(degradation_pct(1.0, 0.5), 50.0);
  EXPECT_NEAR(degradation_pct(2.0, 2.2), -10.0, 1e-9);  // speedups are negative
  EXPECT_DOUBLE_EQ(degradation_pct(0.0, 1.0), 0.0);    // guarded
}

TEST(RunScenario, CollectsPerVmMetrics) {
  RunSpec spec = test::quick_spec(3, 12);
  VmPlan a;
  a.config.name = "gcc";
  a.config.loop_workload = true;
  a.workload = test::app_factory("gcc", spec.machine);
  a.pinned_cores = {0};
  VmPlan b;
  b.config.name = "lbm";
  b.config.loop_workload = true;
  b.workload = test::app_factory("lbm", spec.machine);
  b.pinned_cores = {1};

  const auto outcome = run_scenario(spec, {a, b});
  ASSERT_EQ(outcome.vms.size(), 2u);
  EXPECT_EQ(outcome.vms[0].name, "gcc");
  EXPECT_GT(outcome.vms[0].instructions, 0u);
  EXPECT_GT(outcome.vms[0].ipc, 0.0);
  EXPECT_GT(outcome.vms[1].llc_misses, 0u);
  EXPECT_GT(outcome.vms[1].llc_cap_act, 0.0);
  EXPECT_GT(outcome.vms[0].throughput, 0.0);
  EXPECT_EQ(outcome.measured_ticks, 12);
}

TEST(RunScenario, ValidatesPlans) {
  RunSpec spec = test::quick_spec();
  VmPlan bad;
  bad.config.name = "x";
  bad.pinned_cores = {};
  EXPECT_THROW(run_scenario(spec, {bad}), std::logic_error);
  VmPlan no_factory;
  no_factory.config.name = "y";
  EXPECT_THROW(run_scenario(spec, {no_factory}), std::logic_error);
}

TEST(RunSolo, MeasuresSingleVm) {
  RunSpec spec = test::quick_spec(3, 12);
  const auto m = run_solo(spec, test::app_factory("hmmer", spec.machine), "hmmer");
  EXPECT_EQ(m.name, "hmmer");
  EXPECT_GT(m.ipc, 0.3);            // ILC-resident: high IPC
  EXPECT_LT(m.llc_cap_act, 10.0);   // nearly no LLC pollution
}

TEST(RunScenario, KyotoCountersExposed) {
  RunSpec spec = test::quick_spec(3, 30);
  spec.scheduler = [] { return std::make_unique<core::Ks4Xen>(); };
  VmPlan dis;
  dis.config.name = "lbm";
  dis.config.llc_cap = 1.0;  // tiny permit: punished immediately
  dis.config.loop_workload = true;
  dis.workload = test::app_factory("lbm", spec.machine);
  dis.pinned_cores = {0};
  const auto outcome = run_scenario(spec, {dis});
  EXPECT_GT(outcome.vms[0].punished_ticks, 10);
}

TEST(RunToCompletion, ReturnsExecutionTime) {
  RunSpec spec = test::quick_spec();
  VmPlan plan;
  plan.config.name = "hmmer";
  plan.workload = test::app_factory("hmmer", spec.machine);
  plan.pinned_cores = {0};
  const double ms = run_to_completion(spec, {plan}, 0, 20'000).completion_ms;
  EXPECT_GT(ms, 0.0);
  // hmmer: ~6M instructions at IPC ~0.5-1 on a 43.75 cycles/us core.
  EXPECT_LT(ms, 2'000.0);
}

TEST(RunToCompletion, TimesOutGracefully) {
  RunSpec spec = test::quick_spec();
  VmPlan plan;
  plan.config.name = "milc";  // far too long for 5 ticks
  plan.workload = test::app_factory("milc", spec.machine);
  plan.pinned_cores = {0};
  EXPECT_LT(run_to_completion(spec, {plan}, 0, 5).completion_ms, 0.0);
}

TEST(RunToCompletion, EndlessWorkloadRejected) {
  RunSpec spec = test::quick_spec();
  VmPlan plan;
  plan.config.name = "micro";
  const auto mem = spec.machine.mem;
  plan.workload = [mem](std::uint64_t seed) {
    return workloads::micro_representative(workloads::MicroClass::kC2, mem, seed);
  };
  plan.pinned_cores = {0};
  EXPECT_THROW(run_to_completion(spec, {plan}, 0, 10), std::logic_error);
}

TEST(TimelineSampler, RecordsPerTickSeries) {
  auto spec = test::quick_spec();
  auto hv = build_scenario(spec, [&] {
    VmPlan plan;
    plan.config.name = "lbm";
    plan.config.loop_workload = true;
    plan.workload = test::app_factory("lbm", spec.machine);
    plan.pinned_cores = {0};
    return std::vector<VmPlan>{plan};
  }());
  TimelineSampler sampler(*hv, *hv->vms()[0]);
  hv->run_ticks(10);
  ASSERT_EQ(sampler.samples().size(), 10u);
  for (Tick t = 0; t < 10; ++t) {
    const auto& s = sampler.samples()[static_cast<std::size_t>(t)];
    EXPECT_EQ(s.tick, t);
    EXPECT_TRUE(s.ran);
    EXPECT_GT(s.cycles, 0u);
  }
  // lbm misses continuously (working set >> LLC).
  EXPECT_GT(sampler.samples()[5].llc_misses, 100u);
}

TEST(TimelineSampler, TracksQuotaWithController) {
  auto spec = test::quick_spec();
  spec.scheduler = [] { return std::make_unique<core::Ks4Xen>(); };
  VmPlan plan;
  plan.config.name = "lbm";
  plan.config.llc_cap = 50.0;
  plan.config.loop_workload = true;
  plan.workload = test::app_factory("lbm", spec.machine);
  plan.pinned_cores = {0};
  auto hv = build_scenario(spec, {plan});
  auto& ks = static_cast<core::Ks4Xen&>(hv->scheduler());
  TimelineSampler sampler(*hv, *hv->vms()[0], &ks.kyoto());
  hv->run_ticks(30);
  bool saw_negative_quota = false;
  bool saw_punished = false;
  for (const auto& s : sampler.samples()) {
    saw_negative_quota |= s.quota < 0.0;
    saw_punished |= s.punished;
  }
  EXPECT_TRUE(saw_negative_quota);
  EXPECT_TRUE(saw_punished);
}

}  // namespace
}  // namespace kyoto::sim
