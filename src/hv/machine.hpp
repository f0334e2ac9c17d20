// The physical machine: execution engine, caches and PMUs.
//
// Machine executes a vCPU's instruction stream against the shared
// memory system for a bounded cycle budget, updating the core's PMU
// exactly as hardware counters would (instructions, unhalted cycles,
// LLC references/misses attributed to the issuing core).  It is the
// only component that advances architectural state; schedulers decide
// *who* runs, the machine decides *what happens* when they run.
#pragma once

#include <memory>
#include <vector>

#include "cache/config.hpp"
#include "cache/memory_system.hpp"
#include "cache/topology.hpp"
#include "common/units.hpp"
#include "hv/vm.hpp"
#include "pmc/pmu.hpp"

namespace kyoto::hv {

/// Full machine configuration.  The default is the paper's Table 1
/// machine geometrically scaled by 1/64 (see cache::MemSystemConfig):
/// same associativities and latencies, sizes and clock divided by 64,
/// so cache-load times relate to the 30 ms slice exactly as on the
/// real 2.8 GHz part while per-instruction simulation stays fast.
struct MachineConfig {
  cache::Topology topology = cache::paper_topology();
  cache::MemSystemConfig mem = cache::scaled_mem_system();
  /// Clock in kHz (cycles per millisecond).  2.8 GHz / 64.
  KHz freq_khz = 43'750;
  std::uint64_t seed = 1;
};

/// Table 1 machine at full fidelity (slow to simulate; used by tests
/// that validate geometry, not by the benches).
inline MachineConfig paper_machine() {
  return MachineConfig{cache::paper_topology(), cache::paper_mem_system(), 2'800'000, 1};
}

/// Default experimentation machine (1 socket, 4 cores, scaled).
inline MachineConfig scaled_machine() { return MachineConfig{}; }

/// The 2-socket NUMA machine of Fig 9, scaled.
inline MachineConfig scaled_numa_machine() {
  MachineConfig config;
  config.topology = cache::numa_topology();
  return config;
}

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const { return config_; }
  const cache::Topology& topology() const { return config_.topology; }
  KHz freq_khz() const { return config_.freq_khz; }
  /// Cycles a core executes per 10 ms scheduler tick.
  Cycles cycles_per_tick() const { return kyoto::cycles_per_tick(config_.freq_khz); }

  cache::MemorySystem& memory() { return *memory_; }
  const cache::MemorySystem& memory() const { return *memory_; }

  pmc::CorePmu& pmu(int core);
  const pmc::CorePmu& pmu(int core) const;

  /// Result of one bounded execution burst.
  struct RunResult {
    Cycles cycles_used = 0;
    Instructions instructions = 0;
    std::uint64_t llc_misses = 0;
    bool vcpu_halted = false;  // vCPU completed a non-looping workload
  };

  /// Runs `vcpu` on `core` for at most `budget` cycles (the final
  /// instruction may overshoot by its own latency, as on real
  /// hardware).  `wall_cycle_base` is the virtual wall-clock cycle at
  /// which the burst starts, used to timestamp run completion.  Both
  /// stream formats are consumed as geometric-skip ref batches through
  /// the vCPU's RefBuffer (storage attached by the hypervisor); the
  /// simulation equals a per-op replay of the same stream exactly.
  RunResult run_vcpu(Vcpu& vcpu, int core, Cycles budget, std::int64_t wall_cycle_base);

 private:
  MachineConfig config_;
  std::unique_ptr<cache::MemorySystem> memory_;
  std::vector<pmc::CorePmu> pmus_;
};

}  // namespace kyoto::hv
