// v1 scenario-outcome golden pins.
//
// FNV-1a fingerprints of farm::encode_outcome for v1 scenarios (and
// two v2 short-burst McSim mixes).
//
// Fig-1-shaped mixes on the scaled 1x4 machine: one
// sensitive/disruptive mix (soplex + lbm) under XCS, KS4Xen with the
// direct monitor and KS4Xen with McSim replay, plus a mix whose finite
// application completes mid-window.  These values were recorded from
// the per-op vCPU engine that preceded the single ref-batch
// consumption loop.  The McSim attach point itself is pinned burst by
// burst in tests/hv/per_op_oracle_test.cpp: these outcomes are not
// sensitive enough to a shift of a few hundred instructions to catch
// one.
//
// Short-burst McSim mixes are: at 10 to 100 kHz a tick is a few
// hundred or thousand cycles, so McSim samples some tenants while the
// vCPU's first lookahead block is still being generated in pieces,
// and attaching anywhere but the block end changes who is punished.
// Their values were recorded from the loop that generated every block
// whole, and include v2 variants whose 4096-instruction blocks end at
// their 256th reference.
//
// Execution-order mixes pin the tick's sub-quantum interleaving
// (Hypervisor::execute_partition): which core goes first in each
// sub-quantum, and which cores are still visited once others have
// spent their budget or halted.  A 2x5 machine at freq_khz = 10 has a
// 1-cycle chunk, so cores run out of budget at different sub-quanta
// and the rotation origin (0..9) falls both inside and outside each
// socket's block; its tenants include a capped VM (max_burst below
// the tick budget), short finite applications that halt mid-tick,
// an idle core, and L1-resident next to memory-bound tenants.  The
// same tenants run again at a mid-size chunk, and a 1x70 socket is
// wider than one 64-bit word.  These values were recorded from the
// loop that visited every core of the rotated block in every
// sub-quantum.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "sim/experiment.hpp"
#include "sim/farm_codec.hpp"
#include "sim/scenario_file.hpp"
#include "workloads/catalog.hpp"

namespace kyoto::sim {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// soplex (sensitive, finite) on core 0 against a looping lbm on
/// core 1.  Under the Kyoto roles both tenants book permits below
/// their contended rates, so the direct and McSim monitors punish at
/// different moments and the two roles pin different outcomes.
std::string fig1_mix(const char* kind, const char* monitor) {
  std::string text = "[machine]\ntopology = 1x4\nscale = 64\n\n[scheduler]\nkind = ";
  text += kind;
  text += "\n";
  if (monitor != nullptr) text += std::string("monitor = ") + monitor + "\n";
  const bool kyoto = monitor != nullptr;
  text += "\n[vm soplex]\napp = soplex\ncores = 0\n";
  if (kyoto) text += "llc_cap = 150\n";
  text += "\n[vm lbm]\napp = lbm\ncores = 1\nloop = true\n";
  if (kyoto) text += "llc_cap = 400\n";
  text += "\n[run]\nwarmup_ticks = 4\nmeasure_ticks = 40\nseed = 7\n";
  return text;
}

/// povray (6M instructions, not looping) completes inside the window
/// while blockie keeps polluting; McSim replays both tenants.
std::string completion_mix() {
  return "[machine]\ntopology = 1x4\nscale = 64\n\n"
         "[scheduler]\nkind = ks4xen\nmonitor = mcsim\n\n"
         "[vm povray]\napp = povray\ncores = 0\nllc_cap = 60\n\n"
         "[vm blockie]\napp = blockie\ncores = 1\nloop = true\nllc_cap = 400\n\n"
         "[run]\nwarmup_ticks = 2\nmeasure_ticks = 36\nseed = 11\n";
}

struct GoldenCase {
  const char* name;
  std::string text;
  const char* fingerprint;
};

TEST(V1OutcomeGolden, Fig1MixAndCompletionAreByteIdentical) {
  const GoldenCase cases[] = {
      {"soplex_lbm/xcs", fig1_mix("xcs", nullptr), "cd03d0df97cefb40"},
      {"soplex_lbm/ks4xen-direct", fig1_mix("ks4xen", "direct"), "7d0a7128f4096349"},
      {"soplex_lbm/ks4xen-mcsim", fig1_mix("ks4xen", "mcsim"), "f10e991e43915884"},
      {"povray_blockie/ks4xen-mcsim-completion", completion_mix(), "6a7ba752c66b0f50"},
  };
  for (const auto& c : cases) {
    const Scenario scenario = parse_scenario(c.text);
    ASSERT_EQ(scenario.stream, workloads::StreamVersion::kV1) << c.name;
    const RunOutcome outcome = run_scenario(scenario.spec, scenario.plans);
    EXPECT_EQ(hex(fnv1a(farm::encode_outcome(0, outcome))), c.fingerprint) << c.name;
  }
}

TEST(V1OutcomeGolden, CompletionCaseReallyCompletesMidWindow) {
  // The finite tenant halts inside the window, so the completion path
  // (run-length-clamped refills, note_run_complete) is part of the pin.
  const Scenario scenario = parse_scenario(completion_mix());
  const RunOutcome outcome = run_scenario(scenario.spec, scenario.plans);
  ASSERT_EQ(outcome.vms.size(), 2u);
  EXPECT_GT(outcome.vms[0].cpu_share_pct, 10.0);
  EXPECT_LT(outcome.vms[0].cpu_share_pct, 90.0);
}

/// McSim samples taken while a tenant's bursts are still short: at a
/// low frequency a tick is a few hundred cycles, so soplex and lbm
/// share core 0 in bursts that end inside the vCPU's first lookahead
/// block, and the replay's attach point is the block end, not the
/// execution position.  Every tenant books `permit` except mcf, which
/// books three times as much.  The v2 cases pin the same attach point
/// for a 4096-instruction block, which here ends at its 256th
/// reference rather than at its last instruction: attaching at the
/// generator position, or at the block's last instruction, changes
/// both of their outcomes.
std::string short_burst_mix(int freq_khz, double permit, const char* stream) {
  const auto cap = [](double p) { return "llc_cap = " + std::to_string(p) + "\n"; };
  std::string text = "[machine]\ntopology = 1x4\nscale = 64\nfreq_khz = ";
  text += std::to_string(freq_khz);
  text += "\n\n[scheduler]\nkind = ks4xen\nmonitor = mcsim\n\n";
  text += "[vm soplex]\napp = soplex\ncores = 0\n" + cap(permit) + "\n";
  text += "[vm lbm]\napp = lbm\ncores = 0\nloop = true\n" + cap(permit) + "\n";
  text += "[vm gcc]\napp = gcc\ncores = 1\nloop = true\n" + cap(permit) + "\n";
  text += "[vm mcf]\napp = mcf\ncores = 2\nloop = true\n" + cap(3 * permit) + "\n";
  text += "[run]\nwarmup_ticks = 4\nmeasure_ticks = 120\nseed = 7\n";
  text += std::string("\n[workload]\nstream = ") + stream + "\n";
  return text;
}

TEST(V1OutcomeGolden, McSimAtShortBurstsIsByteIdentical) {
  const struct {
    const char* name;
    int freq_khz;
    double permit;
    const char* stream;
    const char* fingerprint;
  } cases[] = {
      {"short-burst/10khz", 10, 0.01, "v1", "483ee611dc37e94e"},
      {"short-burst/100khz", 100, 0.05, "v1", "31339cc0c4a2f289"},
      {"short-burst/30khz-v2", 30, 0.02, "v2", "0ea8215bac44daaa"},
      {"short-burst/100khz-v2", 100, 0.005, "v2", "0a0560e843193d5d"},
  };
  for (const auto& c : cases) {
    const Scenario scenario =
        parse_scenario(short_burst_mix(c.freq_khz, c.permit, c.stream));
    ASSERT_EQ(scenario.stream == workloads::StreamVersion::kV2, std::string(c.stream) == "v2")
        << c.name;
    const RunOutcome outcome = run_scenario(scenario.spec, scenario.plans);
    // The McSim sample decides something: some tenant is punished.
    std::int64_t punished = 0;
    for (const VmMetrics& vm : outcome.vms) punished += vm.punished_ticks;
    EXPECT_GT(punished, 0) << c.name;
    EXPECT_EQ(hex(fnv1a(farm::encode_outcome(0, outcome))), c.fingerprint) << c.name;
  }
}

/// Tenants on a 2x5 machine: socket 0 is cores 0-4, socket 1 is
/// cores 5-9.  Core 3 has no vCPU.  lbm (core 9) runs under a CPU cap,
/// so its burst budget drops below the tick budget once its slice
/// allowance runs low.
std::string order_mix(int freq_khz) {
  std::string text = "[machine]\ntopology = 2x5\nscale = 64\nfreq_khz = ";
  text += std::to_string(freq_khz);
  text += "\nbus = on\n\n[scheduler]\nkind = xcs\n\n";
  text += "[vm povray]\napp = povray\ncores = 0\nloop = true\n\n"
          "[vm lbm]\napp = lbm\ncores = 1\nloop = true\n\n"
          "[vm hmmer]\napp = hmmer\ncores = 2\nloop = true\n\n"
          "[vm blockie]\napp = blockie\ncores = 4\nloop = true\n\n"
          "[vm mcf]\napp = mcf\ncores = 5\nloop = true\n\n"
          "[vm gcc]\napp = gcc\ncores = 6\nloop = true\n\n"
          "[vm soplex]\napp = soplex\ncores = 6\nloop = true\n\n"
          "[vm milc]\napp = milc\ncores = 8\nloop = true\n\n"
          "[vm capped-lbm]\napp = lbm\ncores = 9\nloop = true\ncap = 40\n\n"
          "[run]\nwarmup_ticks = 2\nmeasure_ticks = 40\nseed = 5\n";
  return text;
}

/// Adds two short, non-looping povray runs, on core 2 (beside hmmer)
/// and on core 7, that halt partway through a tick inside the window.
void add_finite_tenants(Scenario& scenario, Instructions length) {
  workloads::AppProfile profile = workloads::app_profile("povray");
  profile.length = length;
  for (const int core : {2, 7}) {
    VmPlan plan;
    plan.config.name = "finite-" + std::to_string(core);
    plan.workload = [profile, mem = scenario.spec.machine.mem](std::uint64_t seed) {
      return workloads::make_app(profile, mem, seed);
    };
    plan.pinned_cores = {core};
    scenario.plans.push_back(std::move(plan));
  }
}

Scenario order_scenario(int freq_khz, Instructions finite_length) {
  Scenario scenario = parse_scenario(order_mix(freq_khz));
  add_finite_tenants(scenario, finite_length);
  return scenario;
}

/// One 70-core socket: tenants on both sides of core 64, one capped.
std::string wide_socket_mix() {
  return "[machine]\ntopology = 1x70\nscale = 64\nfreq_khz = 10\nbus = on\n\n"
         "[scheduler]\nkind = xcs\n\n"
         "[vm lbm]\napp = lbm\ncores = 0\nloop = true\n\n"
         "[vm povray]\napp = povray\ncores = 1\nloop = true\n\n"
         "[vm blockie]\napp = blockie\ncores = 62\nloop = true\n\n"
         "[vm mcf]\napp = mcf\ncores = 63\nloop = true\ncap = 40\n\n"
         "[vm gcc]\napp = gcc\ncores = 64\nloop = true\n\n"
         "[vm milc]\napp = milc\ncores = 65\nloop = true\n\n"
         "[vm soplex]\napp = soplex\ncores = 69\nloop = true\n\n"
         "[run]\nwarmup_ticks = 2\nmeasure_ticks = 40\nseed = 9\n";
}

/// (freq_khz, finite tenant length): a 1-cycle and a 312-cycle chunk.
constexpr std::pair<int, Instructions> kOrderCases[] = {{10, 300}, {2'000, 200'000}};

TEST(V1OutcomeGolden, SubQuantumExecutionOrderIsByteIdentical) {
  const struct {
    const char* name;
    Scenario scenario;
    const char* fingerprint;
  } cases[] = {
      {"order/2x5-chunk1", order_scenario(kOrderCases[0].first, kOrderCases[0].second),
       "2964be28ea9c596a"},
      {"order/2x5-chunk312", order_scenario(kOrderCases[1].first, kOrderCases[1].second),
       "2a63ca74f693921c"},
      {"order/1x70-chunk1", parse_scenario(wide_socket_mix()), "1ed35c3812c197c6"},
  };
  for (const auto& c : cases) {
    const RunOutcome outcome = run_scenario(c.scenario.spec, c.scenario.plans);
    EXPECT_EQ(hex(fnv1a(farm::encode_outcome(0, outcome))), c.fingerprint) << c.name;
  }
}

TEST(V1OutcomeGolden, OrderMixesExerciseEveryKindOfSlot) {
  // Each order mix really has finite tenants that halt partway through
  // a tick inside the window, a capped tenant held below its uncapped
  // twin, and an idle core.
  for (const auto& [freq_khz, length] : kOrderCases) {
    const Scenario scenario = order_scenario(freq_khz, length);
    const Tick ticks = scenario.spec.warmup_ticks + scenario.spec.measure_ticks;
    const auto hv = build_scenario(scenario.spec, scenario.plans);
    hv->run_ticks(ticks);
    const Cycles cpt = hv->machine().cycles_per_tick();
    for (const hv::Vm* vm : hv->vms()) {
      if (vm->config().name.rfind("finite-", 0) != 0) continue;
      const hv::Vcpu& vcpu = *vm->vcpus()[0];
      ASSERT_TRUE(vcpu.done()) << vm->config().name << " at " << freq_khz;
      const std::int64_t halt = vcpu.first_completion_wall_cycle();
      EXPECT_GE(halt, scenario.spec.warmup_ticks * cpt) << vm->config().name;
      EXPECT_NE(halt % cpt, 0) << vm->config().name;
    }
    EXPECT_EQ(hv->idle_ticks(3), ticks);
    const RunOutcome outcome = run_scenario(scenario.spec, scenario.plans);
    ASSERT_EQ(outcome.vms[8].name, "capped-lbm");
    EXPECT_LT(outcome.vms[8].cpu_share_pct, outcome.vms[1].cpu_share_pct);
  }
}

}  // namespace
}  // namespace kyoto::sim
