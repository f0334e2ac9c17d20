// Calibration guards: the catalog's cache behaviour, measured on the
// replay simulator, must keep the orderings the paper's figures rely
// on.  These are fast unit-level versions of what bench_fig4 measures
// end-to-end, so a profile edit that silently breaks a figure fails
// CI here first.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "cache/config.hpp"
#include "mcsim/replay.hpp"
#include "workloads/catalog.hpp"

namespace kyoto::workloads {
namespace {

const cache::MemSystemConfig kMem = cache::scaled_mem_system();
constexpr KHz kFreq = 43'750;

/// Intrinsic Equation-1 rate via a private replay (solo, warm).
double intrinsic_rate(const std::string& name) {
  static std::map<std::string, double> cache;
  const auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  mcsim::ReplaySimulator sim(kMem, kFreq);
  const auto app = make_app(name, kMem, 11);
  const double rate = sim.replay_live(*app, 250'000).llc_cap_act(kFreq);
  cache.emplace(name, rate);
  return rate;
}

TEST(Calibration, DisruptorsOutPolluteSensitiveApps) {
  double min_dis = 1e18;
  for (const auto& d : disruptive_apps()) min_dis = std::min(min_dis, intrinsic_rate(d));
  // Every sensitive app pollutes less than every disruptor; gcc and
  // omnetpp by a wide margin.  (soplex is only just below — in the
  // paper's Fig 4 it is the 4th most aggressive app while still being
  // a Table-2 "sensitive" VM, so a narrow gap is the correct shape.)
  for (const auto& s : sensitive_apps()) {
    EXPECT_LT(intrinsic_rate(s), min_dis) << s;
  }
  EXPECT_LT(intrinsic_rate("gcc"), min_dis / 2.0);
  EXPECT_LT(intrinsic_rate("omnetpp"), min_dis / 2.0);
}

TEST(Calibration, LbmAndBlockieLeadTheRateOrder) {
  // Fig 4's o3 head: lbm and blockie above milc, milc above mcf/soplex.
  EXPECT_GT(intrinsic_rate("lbm"), intrinsic_rate("milc"));
  EXPECT_GT(intrinsic_rate("blockie"), intrinsic_rate("milc"));
  EXPECT_GT(intrinsic_rate("milc"), intrinsic_rate("mcf"));
  EXPECT_GT(intrinsic_rate("milc"), intrinsic_rate("soplex"));
}

TEST(Calibration, MilcHasTheLargestPerRunMissVolume) {
  // Fig 4's o2 head: LLCM(total) = rate-ish x run length; milc's long
  // streaming run must dominate every other total.
  std::map<std::string, double> volume;
  for (const auto& name : fig4_apps()) {
    mcsim::ReplaySimulator sim(kMem, kFreq);
    const auto app = make_app(name, kMem, 11);
    const auto r = sim.replay_live(*app, 150'000);
    const double miss_per_instr =
        static_cast<double>(r.llc_misses) / static_cast<double>(r.instructions);
    volume[name] = miss_per_instr * static_cast<double>(app_profile(name).length);
  }
  for (const auto& [name, v] : volume) {
    if (name == "milc") continue;
    EXPECT_GT(volume["milc"], v) << name;
  }
}

TEST(Calibration, IlcResidentAppsPolluteAlmostNothing) {
  EXPECT_LT(intrinsic_rate("hmmer"), 5.0);
  EXPECT_LT(intrinsic_rate("povray"), 5.0);
  // ...which is what makes them skip-eligible (Fig 10) and
  // overhead-probe material (Fig 12).
}

TEST(Calibration, SensitiveAppsActuallyUseTheLlc) {
  // A "sensitive" app must hold LLC-resident state worth stealing:
  // its working set exceeds the private caches.
  for (const auto& name : sensitive_apps()) {
    const auto app = make_app(name, kMem, 1);
    EXPECT_GT(app->spec().working_set, kMem.l2.size * 4) << name;
  }
}

TEST(Calibration, MicroClassesSeparateCleanly) {
  // The three class representatives must produce clearly distinct
  // pollution levels: C1 ~ none, C2 moderate (fits LLC), C3 heavy.
  mcsim::ReplaySimulator sim(kMem, kFreq);
  const auto c1 = sim.replay_live(*micro_representative(MicroClass::kC1, kMem, 1), 200'000);
  const auto c3d = sim.replay_live(*micro_disruptive(MicroClass::kC3, kMem, 1), 200'000);
  EXPECT_LT(c1.llc_cap_act(kFreq), 2.0);
  EXPECT_GT(c3d.llc_cap_act(kFreq), 100.0);
}

}  // namespace
}  // namespace kyoto::workloads
