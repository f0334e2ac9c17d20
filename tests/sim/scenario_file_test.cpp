#include "sim/scenario_file.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <string>

#include "cache/config.hpp"
#include "hv/credit_scheduler.hpp"
#include "kyoto/ks4xen.hpp"
#include "sim/churn_engine.hpp"
#include "sim/sweep_runner.hpp"

namespace kyoto::sim {
namespace {

constexpr const char* kBasic = R"(
# two tenants under KS4Xen
[machine]
topology = 1x4
scale = 64

[scheduler]
kind = ks4xen
monitor = direct

[vm tenant-a]
app = gcc
cores = 0
llc_cap = 20
loop = true

[vm noisy]
app = lbm
cores = 1
llc_cap = 20
loop = true

[run]
warmup_ticks = 3
measure_ticks = 12
)";

TEST(ScenarioFile, ParsesBasicScenario) {
  const Scenario s = parse_scenario(kBasic);
  EXPECT_EQ(s.plans.size(), 2u);
  EXPECT_EQ(s.vm_names[0], "tenant-a");
  EXPECT_EQ(s.plans[0].config.llc_cap, 20.0);
  EXPECT_TRUE(s.plans[1].config.loop_workload);
  EXPECT_EQ(s.plans[1].pinned_cores, std::vector<int>{1});
  EXPECT_EQ(s.spec.warmup_ticks, 3);
  EXPECT_EQ(s.spec.measure_ticks, 12);
  EXPECT_EQ(s.spec.machine.topology.total_cores(), 4);
  EXPECT_EQ(s.spec.machine.mem.llc.size, 160_KiB);  // paper/64
  // The scheduler factory builds a Ks4Xen.
  auto sched = s.spec.scheduler();
  EXPECT_NE(dynamic_cast<core::Ks4Xen*>(sched.get()), nullptr);
}

TEST(ScenarioFile, RunsEndToEnd) {
  const Scenario s = parse_scenario(kBasic);
  const auto report = run_scenario_report(s);
  EXPECT_NE(report.find("tenant-a"), std::string::npos);
  EXPECT_NE(report.find("noisy"), std::string::npos);
}

TEST(ScenarioFile, SweptScenariosMatchSerialReports) {
  // The scenario_runner path: several files executed as one sharded
  // sweep must render exactly the reports the serial path renders.
  const Scenario a = parse_scenario(kBasic);
  const Scenario b = parse_scenario(
      "[machine]\ntopology = 1x4\nscale = 64\n[vm solo]\napp = hmmer\n"
      "[run]\nwarmup_ticks = 3\nmeasure_ticks = 9\n");
  SweepRunner sweep(2);
  sweep.add(a.spec, a.plans, "a");
  sweep.add(b.spec, b.plans, "b");
  const auto outcomes = sweep.run();
  EXPECT_EQ(scenario_report(a, outcomes.at(0)), run_scenario_report(a));
  EXPECT_EQ(scenario_report(b, outcomes.at(1)), run_scenario_report(b));
  // The formatter refuses an outcome that does not belong to the
  // scenario (wrong VM count).
  EXPECT_THROW(scenario_report(a, outcomes.at(1)), std::logic_error);
}

TEST(ScenarioFile, ThreadsKeyWiresRunSpec) {
  const Scenario s = parse_scenario(
      "[vm a]\napp = gcc\n[run]\nthreads = 4\nmeasure_ticks = 6\n");
  EXPECT_EQ(s.spec.threads, 4);
  EXPECT_EQ(s.spec.measure_ticks, 6);
  EXPECT_EQ(parse_scenario("[vm a]\napp = gcc\n").spec.threads, 1);
}

TEST(ScenarioFile, DefaultsWhenSectionsOmitted) {
  const Scenario s = parse_scenario("[vm solo]\napp = hmmer\n");
  EXPECT_EQ(s.plans.size(), 1u);
  EXPECT_EQ(s.plans[0].pinned_cores, std::vector<int>{0});  // auto-assigned
  auto sched = s.spec.scheduler();
  EXPECT_NE(dynamic_cast<hv::CreditScheduler*>(sched.get()), nullptr);
}

TEST(ScenarioFile, MicroWorkloads) {
  const Scenario s = parse_scenario(
      "[vm rep]\napp = micro:c2rep\n[vm dis]\napp = micro:c3dis\ncores = 1\n");
  auto rep = s.plans[0].workload(1);
  auto dis = s.plans[1].workload(2);
  EXPECT_EQ(rep->spec().name, "v2rep");
  EXPECT_EQ(dis->spec().name, "v3dis");
}

TEST(ScenarioFile, MachineFeatures) {
  const Scenario s = parse_scenario(
      "[machine]\ntopology = 2x2\nprefetch = on:4\nbus = on:16\nllc_replacement = DIP\n"
      "[vm a]\napp = gcc\n");
  EXPECT_EQ(s.spec.machine.topology.sockets, 2);
  EXPECT_TRUE(s.spec.machine.mem.prefetch.enabled);
  EXPECT_EQ(s.spec.machine.mem.prefetch.degree, 4u);
  EXPECT_TRUE(s.spec.machine.mem.bus.enabled);
  EXPECT_EQ(s.spec.machine.mem.bus.transfer_cycles, 16);
  EXPECT_EQ(s.spec.machine.mem.llc_replacement, cache::ReplacementKind::kDip);
}

TEST(ScenarioFile, ExplicitFreqWinsOverScaleInEitherOrder) {
  for (const char* keys : {"scale = 64\nfreq_khz = 10\n", "freq_khz = 10\nscale = 64\n"}) {
    const Scenario s =
        parse_scenario(std::string("[machine]\n") + keys + "[vm a]\napp = gcc\n");
    EXPECT_EQ(s.spec.machine.freq_khz, 10) << keys;
    EXPECT_EQ(s.spec.machine.mem.llc.size, hv::scaled_machine().mem.llc.size) << keys;
  }
  // Without an explicit clock, scale still sets it.
  EXPECT_EQ(parse_scenario("[machine]\nscale = 64\n[vm a]\napp = gcc\n").spec.machine.freq_khz,
            hv::scaled_machine().freq_khz);
}

TEST(ScenarioFile, ScaleMustKeepPowerOfTwoSetsAndNamesItsLine) {
  // Scales the cache engine can build parse, each level keeping a
  // power-of-two set count.
  for (const int scale : {1, 32, 64}) {
    const Scenario s = parse_scenario("[machine]\ntopology = 1x2\nscale = " +
                                      std::to_string(scale) + "\n[vm a]\napp = gcc\n");
    const cache::MemSystemConfig& mem = s.spec.machine.mem;
    EXPECT_EQ(mem.llc.size, cache::paper_mem_system().llc.size / scale) << scale;
    for (const cache::CacheGeometry& g : {mem.l1, mem.l2, mem.llc}) {
      EXPECT_TRUE(std::has_single_bit(g.sets())) << scale;
    }
  }
  // 3 and 48 leave fractional capacities, 128 half an L1 set: a parse
  // error on the scale line, not a failure later in the simulator.
  for (const int scale : {0, 3, 48, 128}) {
    try {
      parse_scenario("[machine]\ntopology = 1x2\nscale = " + std::to_string(scale) +
                     "\n[vm a]\napp = gcc\n");
      FAIL() << "scale " << scale << " parsed";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("at line 3:"), std::string::npos) << what;
      EXPECT_NE(what.find("power-of-two"), std::string::npos) << what;
    }
  }
}

struct BadCase {
  const char* name;
  const char* text;
  const char* expect_substr;
};

class ScenarioErrorTest : public ::testing::TestWithParam<BadCase> {};

TEST_P(ScenarioErrorTest, RejectsWithUsefulMessage) {
  try {
    parse_scenario(GetParam().text);
    FAIL() << "expected parse failure for " << GetParam().name;
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().expect_substr), std::string::npos)
        << "actual message: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllErrors, ScenarioErrorTest,
    ::testing::Values(
        BadCase{"unknown_section", "[warp]\n", "unknown section"},
        BadCase{"key_outside_section", "x = 1\n", "outside any section"},
        BadCase{"missing_equals", "[machine]\ntopology\n", "expected key"},
        BadCase{"unknown_machine_key", "[machine]\ncolour = red\n", "unknown [machine]"},
        BadCase{"bad_topology", "[machine]\ntopology = 4\n", "SxC"},
        BadCase{"bad_number", "[machine]\nfreq_khz = fast\n", "number"},
        BadCase{"unknown_app", "[vm a]\napp = doom\n", "unknown application"},
        BadCase{"bad_micro", "[vm a]\napp = micro:c9rep\n", "micro"},
        BadCase{"missing_app", "[vm a]\nllc_cap = 5\n", "missing app"},
        BadCase{"core_out_of_range", "[vm a]\napp = gcc\ncores = 9\n", "out of range"},
        BadCase{"unknown_sched", "[scheduler]\nkind = warp\n[vm a]\napp = gcc\n",
                "unknown scheduler"},
        BadCase{"bad_punish", "[scheduler]\npunish = block\n",
                "line 2: unknown [scheduler] key"},
        BadCase{"no_vms", "[machine]\ntopology = 1x4\n", "no [vm]"},
        BadCase{"bad_bool", "[vm a]\napp = gcc\nloop = perhaps\n", "boolean"},
        BadCase{"bad_threads", "[vm a]\napp = gcc\n[run]\nthreads = 0\n",
                "threads must be >= 1"},
        BadCase{"bad_replacement", "[machine]\nllc_replacement = FIFO\n",
                "replacement"},
        BadCase{"bad_stream", "[workload]\nstream = v3\n[vm a]\napp = gcc\n",
                "stream must be v1 or v2"},
        BadCase{"bad_workload_key", "[workload]\nspeed = fast\n[vm a]\napp = gcc\n",
                "unknown [workload] key"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(ScenarioFile, WorkloadStreamKeySelectsV2) {
  const Scenario s = parse_scenario(
      "[workload]\nstream = v2\n[vm a]\napp = blockie\n[vm b]\napp = micro:c2dis\n");
  EXPECT_EQ(s.stream, workloads::StreamVersion::kV2);
  // Factories were built with the opted-in version.
  for (const auto& plan : s.plans) {
    const auto w = plan.workload(7);
    EXPECT_EQ(w->stream_version(), workloads::StreamVersion::kV2);
  }
}

TEST(ScenarioFile, WorkloadStreamAppliesWhereverTheSectionAppears) {
  // Factories are built after the whole file is parsed, so a
  // [workload] section after the [vm] sections still applies.
  const Scenario s = parse_scenario("[vm a]\napp = lbm\n[workload]\nstream = v2\n");
  EXPECT_EQ(s.plans[0].workload(3)->stream_version(), workloads::StreamVersion::kV2);
}

TEST(ScenarioFile, WorkloadStreamDefaultsToV1) {
  const Scenario s = parse_scenario("[vm a]\napp = gcc\n");
  EXPECT_EQ(s.stream, workloads::StreamVersion::kV1);
  EXPECT_EQ(s.plans[0].workload(3)->stream_version(), workloads::StreamVersion::kV1);
}

/// Parses `text`, expecting a parse error that names `line` and
/// contains `needle`.
void expect_parse_error(const std::string& text, int line, const std::string& needle) {
  try {
    parse_scenario(text);
    FAIL() << "parsed:\n" << text;
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at line " + std::to_string(line) + ":"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(ScenarioFile, UnknownMonitorIsAParseErrorOnItsLine) {
  // Rejected when the file is parsed (so a farm refuses it at
  // Farm::add), not when a job builds its hypervisor.
  expect_parse_error("[scheduler]\nkind = ks4xen\nmonitor = crystal\n[vm a]\napp = gcc\n", 3,
                     "monitor must be direct | mcsim | dedication");
  for (const char* monitor : {"direct", "mcsim", "dedication", "McSim"}) {
    const Scenario s = parse_scenario(std::string("[scheduler]\nkind = ks4xen\nmonitor = ") +
                                      monitor + "\n[vm a]\napp = gcc\n");
    EXPECT_NE(s.spec.scheduler(), nullptr) << monitor;
  }
}

TEST(ScenarioFile, ChurnValuesTheEngineRejectsAreParseErrorsOnTheirLine) {
  const std::string head = "[vm a]\napp = gcc\n[churn]\napps = gcc\n";  // lines 1-4
  expect_parse_error(head + "rate = 1.5\n", 5, "rate is a per-tick probability");
  expect_parse_error(head + "rate = 1\n", 5, "rate is a per-tick probability");
  expect_parse_error(head + "rate = -0.1\n", 5, "rate is a per-tick probability");
  expect_parse_error(head + "horizon = -1\n", 5, "horizon must be >= 0");
  expect_parse_error(head + "defer_queue = -1\n", 5, "defer_queue must be >= 0");
  expect_parse_error(head + "weight = 0\n", 5, "weight must be >= 1");
  expect_parse_error(head + "cap = -5\n", 5, "cap must be >= 0");
  expect_parse_error(head + "trace = diurnal\nperiod = 0\n", 6, "period must be positive");
  expect_parse_error(head + "period = -5\ntrace = diurnal\n", 5, "period must be positive");
  expect_parse_error(head + "trace = diurnal\namplitude = 1.5\n", 6,
                     "amplitude must be in [0, 1]");
  expect_parse_error(head + "trace = diurnal\namplitude = -0.1\n", 6,
                     "amplitude must be in [0, 1]");
  expect_parse_error(head + "trace = bursty\nburst_rate = 1\n", 6,
                     "burst_rate is a per-tick probability");
  expect_parse_error(head + "trace = bursty\nburst_size = 0\n", 6,
                     "burst_size must be positive");
  // Boundary values the engine accepts parse, and a key only another
  // trace kind reads is not held against this one (as in the engine).
  for (const std::string& ok :
       {std::string("rate = 0\nhorizon = 0\ndefer_queue = 0\nweight = 1\ncap = 0\n"),
        std::string("trace = diurnal\namplitude = 1\n"),
        std::string("trace = diurnal\namplitude = 0\nperiod = 1\n"),
        std::string("trace = bursty\nburst_rate = 0\nburst_size = 1\n"),
        std::string("trace = poisson\nperiod = 0\nburst_size = 0\n")}) {
    EXPECT_NO_THROW(parse_scenario(head + ok)) << ok;
  }
}

// Negative values used to parse and run: measure_ticks = -5 printed
// an all-zero table and exited 0.  Each is an error on its own line;
// the documented zeros stay legal.
TEST(ScenarioFile, NegativeWarmupTicksIsAParseErrorOnItsLine) {
  expect_parse_error("[vm a]\napp = gcc\n[run]\nwarmup_ticks = -3\n", 4,
                     "warmup_ticks must be >= 0");
  EXPECT_EQ(parse_scenario("[vm a]\napp = gcc\n[run]\nwarmup_ticks = 0\n").spec.warmup_ticks, 0);
}

TEST(ScenarioFile, NonPositiveMeasureTicksIsAParseErrorOnItsLine) {
  expect_parse_error("[vm a]\napp = gcc\n[run]\nmeasure_ticks = -5\n", 4,
                     "measure_ticks must be >= 1");
  expect_parse_error("[vm a]\napp = gcc\n[run]\nmeasure_ticks = 0\n", 4,
                     "measure_ticks must be >= 1");
  EXPECT_EQ(parse_scenario("[vm a]\napp = gcc\n[run]\nmeasure_ticks = 1\n").spec.measure_ticks,
            1);
}

TEST(ScenarioFile, NegativeVmLlcCapIsAParseErrorOnItsLine) {
  expect_parse_error("[vm a]\napp = gcc\nllc_cap = -5\n", 3, "llc_cap must be >= 0");
  expect_parse_error("[vm a]\napp = gcc\nllc_cap = nan\n", 3, "llc_cap must be >= 0");
  EXPECT_NO_THROW(parse_scenario("[vm a]\napp = gcc\nllc_cap = 0\n"));  // unbooked
}

TEST(ScenarioFile, NegativeChurnLlcCapIsAParseErrorOnItsLine) {
  const std::string head = "[vm a]\napp = gcc\n[churn]\napps = gcc\n";  // lines 1-4
  expect_parse_error(head + "llc_cap = -5\n", 5, "llc_cap must be >= 0");
  EXPECT_NO_THROW(parse_scenario(head + "llc_cap = 0\n"));
}

TEST(ScenarioFile, NegativeMeanLifetimeIsAParseErrorOnItsLine) {
  const std::string head = "[vm a]\napp = gcc\n[churn]\napps = gcc\n";
  expect_parse_error(head + "mean_lifetime = -10\n", 5, "mean_lifetime must be >= 0");
  expect_parse_error(head + "mean_lifetime = nan\n", 5, "mean_lifetime must be >= 0");
  EXPECT_NO_THROW(parse_scenario(head + "mean_lifetime = 0\n"));  // never leave
}

TEST(ScenarioFile, NegativeMaxTenantsIsAParseErrorOnItsLine) {
  const std::string head = "[vm a]\napp = gcc\n[churn]\napps = gcc\n";
  expect_parse_error(head + "max_tenants = -3\n", 5, "max_tenants must be >= 0");
  EXPECT_NO_THROW(parse_scenario(head + "max_tenants = 0\n"));  // core-bounded
}

TEST(ScenarioFile, VmCpuKeysAreCheckedOnTheirLine) {
  const std::string head = "[machine]\ntopology = 1x2\n[vm a]\napp = gcc\n";  // lines 1-4
  expect_parse_error(head + "weight = 0\n", 5, "weight must be >= 1");
  expect_parse_error(head + "weight = -3\n", 5, "weight must be >= 1");
  expect_parse_error(head + "cap = -1\n", 5, "cap must be >= 0");
  // home_node is checked against the topology, which may come later
  // in the file; the error still names the home_node line and the VM.
  expect_parse_error(head + "home_node = 7\n", 5, "[vm a] home_node 7 out of range");
  expect_parse_error("[vm a]\napp = gcc\nhome_node = -1\n[machine]\ntopology = 2x2\n", 3,
                     "home_node -1 out of range");
  // Valid values parse: any positive weight, cap 0 (uncapped), and
  // every socket of the machine as home_node, whatever the key order.
  const Scenario s = parse_scenario(
      "[vm a]\napp = gcc\nweight = 1\ncap = 0\nhome_node = 3\n"
      "[vm b]\napp = lbm\nweight = 512\ncap = 80\nhome_node = 0\n"
      "[machine]\ntopology = 4x4\n");
  EXPECT_EQ(s.plans[0].config.weight, 1);
  EXPECT_EQ(s.plans[0].config.cpu_cap_percent, 0);
  EXPECT_EQ(s.plans[0].config.home_node, 3);
  EXPECT_EQ(s.plans[1].config.weight, 512);
  EXPECT_EQ(s.plans[1].config.cpu_cap_percent, 80);
}

TEST(ScenarioFile, ChurnSectionBuildsAPlan) {
  const Scenario s = parse_scenario(
      "[churn]\n"
      "trace = diurnal\n"
      "rate = 0.1\n"
      "mean_lifetime = 30\n"
      "horizon = 90\n"
      "period = 60\n"
      "amplitude = 0.5\n"
      "seed = 9\n"
      "apps = gcc, micro:c2dis\n"
      "vcpus = 1\n"
      "max_tenants = 3\n"
      "defer_queue = 2\n"
      "llc_cap = 12\n"
      "loop = true\n");
  ASSERT_NE(s.spec.churn, nullptr);
  EXPECT_TRUE(s.plans.empty());  // churn-only scenarios need no [vm]
  const ChurnPlan& plan = *s.spec.churn;
  EXPECT_EQ(plan.trace.kind, ChurnTraceConfig::Kind::kDiurnal);
  EXPECT_DOUBLE_EQ(plan.trace.arrival_rate, 0.1);
  EXPECT_EQ(plan.trace.horizon_ticks, 90);
  EXPECT_EQ(plan.trace.seed, 9u);
  ASSERT_EQ(plan.apps.size(), 2u);
  EXPECT_EQ(plan.app_ids[1], "micro:c2dis");
  EXPECT_EQ(plan.max_tenants, 3);
  EXPECT_EQ(plan.defer_queue, 2);
  EXPECT_DOUBLE_EQ(plan.tenant_config.llc_cap, 12.0);
  EXPECT_TRUE(plan.tenant_config.loop_workload);
  // The plan is runnable end to end (smoke; short window).
  RunSpec spec = s.spec;
  spec.warmup_ticks = 2;
  spec.measure_ticks = 6;
  const RunOutcome outcome = run_scenario(spec, s.plans);
  EXPECT_EQ(outcome.measured_ticks, 6);
}

TEST(ScenarioFile, ChurnTraceFileReplays) {
  const std::string path = ::testing::TempDir() + "/kyoto_churn_trace.txt";
  {
    std::ofstream out(path);
    out << "# two tenants\n0 5\n3 0\n";
  }
  const Scenario s = parse_scenario("[churn]\ntrace = file:" + path +
                                    "\napps = gcc\n[vm a]\napp = mcf\ncores = 0\n");
  ASSERT_NE(s.spec.churn, nullptr);
  ASSERT_EQ(s.spec.churn->explicit_trace.size(), 2u);
  EXPECT_EQ(s.spec.churn->explicit_trace[0], (ChurnEvent{0, 5}));
  std::remove(path.c_str());
}

TEST(ScenarioFile, ChurnRejectsBadInput) {
  EXPECT_THROW(parse_scenario("[churn]\ntrace = lunar\napps = gcc\n"), std::logic_error);
  EXPECT_THROW(parse_scenario("[churn]\nrate = 0.1\n"), std::logic_error);  // no apps
  EXPECT_THROW(parse_scenario("[churn]\napps = nosuchapp\n"), std::logic_error);
  EXPECT_THROW(parse_scenario(""), std::logic_error);  // still no [vm] and no [churn]
}

TEST(ScenarioFile, LoadFromDisk) {
  const std::string path = ::testing::TempDir() + "/kyoto_scenario_test.kyoto";
  {
    std::ofstream out(path);
    out << kBasic;
  }
  const Scenario s = load_scenario_file(path);
  EXPECT_EQ(s.plans.size(), 2u);
  std::remove(path.c_str());
  EXPECT_THROW(load_scenario_file(path), std::logic_error);
}

}  // namespace
}  // namespace kyoto::sim
