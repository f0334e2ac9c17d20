// McSimA+-style replay simulation (Ahn et al., ISPASS 2013 [12]).
//
// The paper's second monitoring strategy runs a microarchitectural
// simulator on a *dedicated machine*: a pin tool [13] captures the
// VM's instruction stream, the simulator replays it against a private
// model of the production machine's caches, and returns uncontended
// PMCs from which KS4Xen computes the VM's intrinsic llc_cap_act —
// no socket dedication, no migration cost on the production host.
//
// Here the pin tool is Workload::clone(): cloning the live workload
// mid-run captures its exact future reference stream.
// ReplaySimulator runs the clone through a private single-core cache
// hierarchy with the same geometry as the production machine,
// consumed as geometric-skip ref batches by one replay loop.  Every
// replay runs one schedule: a fresh hierarchy seeded kReplaySeed, of
// which the first kReplayWarmupFraction of the window is executed but
// not counted.
#pragma once

#include <cstdint>
#include <memory>

#include "cache/config.hpp"
#include "cache/memory_system.hpp"
#include "common/units.hpp"
#include "mem/access.hpp"
#include "workloads/workload.hpp"

namespace kyoto::mcsim {

/// Seed of every replay's fresh private hierarchy.
inline constexpr std::uint64_t kReplaySeed = 99;
/// Leading share of each replayed window that warms the cold private
/// caches and is not counted — otherwise the one-off loading burst
/// would inflate the intrinsic rate of small-footprint applications
/// (exactly the kind of VM that must NOT be over-charged).
inline constexpr double kReplayWarmupFraction = 0.25;

/// Counters returned by a replay ("the simulator ... sends PMCs back
/// to KS4Xen", §3.3).
struct ReplayResult {
  Instructions instructions = 0;
  Cycles cycles = 0;
  std::uint64_t llc_references = 0;
  std::uint64_t llc_misses = 0;

  /// Equation 1 on the replayed counters: intrinsic misses/ms.
  double llc_cap_act(KHz freq_khz) const {
    if (cycles <= 0) return 0.0;
    return static_cast<double>(llc_misses) * static_cast<double>(freq_khz) /
           static_cast<double>(cycles);
  }
  double ipc() const {
    return cycles > 0 ? static_cast<double>(instructions) / static_cast<double>(cycles) : 0.0;
  }
};

class ReplaySimulator {
 public:
  /// A private one-core machine with the production geometry `mem`
  /// running at `freq_khz`.
  ReplaySimulator(const cache::MemSystemConfig& mem, KHz freq_khz);

  /// Clones `live` (pin-attach) and replays its next `n` instructions
  /// from a cold private cache.  The live workload is not modified.
  ReplayResult replay_live(const workloads::Workload& live, Instructions n);

  /// Replays the next `n` instructions of `clone` from a cold private
  /// cache, consuming it: the caller picks the attach point
  /// (McSimMonitor clones at the end of a vCPU's lookahead block).
  ReplayResult run(workloads::Workload& clone, Instructions n);

  KHz freq_khz() const { return freq_khz_; }

 private:
  cache::MemSystemConfig mem_config_;
  KHz freq_khz_;
};

}  // namespace kyoto::mcsim
