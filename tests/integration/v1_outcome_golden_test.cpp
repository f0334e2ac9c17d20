// v1 scenario-outcome golden pins.
//
// FNV-1a fingerprints of farm::encode_outcome for Fig-1-shaped v1
// scenarios on the scaled 1x4 machine: one sensitive/disruptive mix
// (soplex + lbm) under XCS, KS4Xen with the direct monitor and KS4Xen
// with McSim replay, plus a mix whose finite application completes
// mid-window.  The values were recorded from the per-op vCPU engine
// that preceded the single ref-batch consumption loop.  The McSim
// clone() attach point itself is pinned burst by burst in
// tests/hv/per_op_oracle_test.cpp: these outcomes are not sensitive
// enough to a shift of a few hundred instructions to catch one.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/experiment.hpp"
#include "sim/farm_codec.hpp"
#include "sim/scenario_file.hpp"

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

}  // namespace
}  // namespace kyoto::sim
