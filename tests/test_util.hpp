// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <memory>

#include "hv/machine.hpp"
#include "kyoto/monitor.hpp"
#include "sim/experiment.hpp"
#include "workloads/catalog.hpp"

namespace kyoto::test {

/// Default experimentation machine (1-socket, scaled Table 1).
inline hv::MachineConfig test_machine() { return hv::scaled_machine(); }

/// 2-socket NUMA machine (Fig 9 style).
inline hv::MachineConfig test_numa_machine() { return hv::scaled_numa_machine(); }

/// A RunSpec with short windows to keep tests fast.
inline sim::RunSpec quick_spec(Tick warmup = 3, Tick measure = 15) {
  sim::RunSpec spec;
  spec.machine = test_machine();
  spec.warmup_ticks = warmup;
  spec.measure_ticks = measure;
  return spec;
}

/// Workload factory for a named application profile on `machine`.
inline sim::WorkloadFactory app_factory(const std::string& name,
                                        const hv::MachineConfig& machine) {
  const auto mem = machine.mem;
  return [name, mem](std::uint64_t seed) { return workloads::make_app(name, mem, seed); };
}

/// Socket-dedication campaigns a run completed, out and back: every
/// isolation begun, less the one still in flight.
inline std::int64_t completed_campaigns(const core::SocketDedicationMonitor& monitor) {
  return monitor.isolations_performed() - (monitor.campaign_active() ? 1 : 0);
}

}  // namespace kyoto::test
