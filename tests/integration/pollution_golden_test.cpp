// Ground-truth pollution golden pin.
//
// The LLC's contention-miss classification (a re-miss on a line some
// other requester displaced) rests on the displaced-line index inside
// SetAssocCache.  The outcome fingerprints and the walk oracles all
// run the library's own index, so none of them would notice an index
// that drops or invents entries.  This test pins an FNV-1a fingerprint
// of every LLC's per-VM VmPollution counters and footprints after a
// fixed 2-socket, 6-VM KS4Xen scenario in which one VM is destroyed
// mid-run (release_vm purges its bits from the index).  The value was
// recorded from the node-based index that preceded the flat table.
// The LLC keeps these counters only while ground truth is observed,
// so the test observes from power-on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "hv/hypervisor.hpp"
#include "kyoto/ks4xen.hpp"
#include "test_util.hpp"
#include "workloads/catalog.hpp"

namespace kyoto::hv {
namespace {

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

VmConfig tenant(const char* name, double llc_cap) {
  VmConfig config;
  config.name = name;
  config.loop_workload = true;
  config.llc_cap = llc_cap;
  return config;
}

TEST(PollutionGolden, TwoSocketKs4XenWithMidRunDestroy) {
  const MachineConfig machine = test::test_numa_machine();
  Hypervisor hv(machine, std::make_unique<core::Ks4Xen>());
  hv.machine().memory().observe_ground_truth();
  struct Spec {
    const char* app;
    int core;
    double llc_cap;
  };
  // Three tenants per socket: a polluter, a sensitive application and
  // a middle-weight one, so every LLC sees cross-VM evictions in both
  // directions.  Socket 1's polluter (vm 3) is the one destroyed.
  const Spec specs[] = {
      {"lbm", 0, 400.0},   {"soplex", 1, 150.0}, {"gcc", 2, 150.0},
      {"mcf", 4, 300.0},   {"omnetpp", 5, 150.0}, {"blockie", 6, 400.0},
  };
  std::uint64_t seed = 21;
  for (const Spec& s : specs) {
    hv.create_vm(tenant(s.app, s.llc_cap), workloads::make_app(s.app, machine.mem, seed++),
                 s.core);
  }
  hv.run_ticks(30);
  hv.destroy_vm(3);
  hv.run_ticks(30);

  Fnv1a fp;
  std::uint64_t contention_misses = 0;
  for (int socket = 0; socket < machine.topology.sockets; ++socket) {
    const cache::SetAssocCache& llc = hv.machine().memory().llc(socket);
    fp.add(llc.footprint_lines(-1));
    for (int id = 0; id < hv.vm_count(); ++id) {
      const cache::VmPollution& p = llc.pollution_for_vm(id);
      fp.add(p.cross_evictions_inflicted);
      fp.add(p.cross_evictions_suffered);
      fp.add(p.contention_misses);
      fp.add(llc.footprint_lines(id));
      contention_misses += p.contention_misses;
    }
  }
  // Non-vacuity: the scenario really exercises the index.
  EXPECT_GT(contention_misses, 0u);
  EXPECT_EQ("2a78e58a61eccbe7", hex(fp.h));
}

}  // namespace
}  // namespace kyoto::hv
