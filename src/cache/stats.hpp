// Counter bundles exported by the cache simulator.
//
// Per-cache totals, plus — for an LLC observing ground truth — per-VM
// attribution (the oracle in kyoto/ground_truth.hpp).  The PMC layer
// does not read these: it counts LLC events from each access's
// AccessResult on the core that issued it, which is what perfctr-xen
// virtualizes per vCPU.
#pragma once

#include <cstdint>

namespace kyoto::cache {

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;         // valid lines displaced by fills
  std::uint64_t writebacks = 0;        // dirty lines displaced by fills

  double miss_ratio() const {
    return accesses ? static_cast<double>(misses) / static_cast<double>(accesses) : 0.0;
  }

  void clear() { *this = CacheStats{}; }

  CacheStats& operator+=(const CacheStats& o) {
    accesses += o.accesses;
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    writebacks += o.writebacks;
    return *this;
  }
};

}  // namespace kyoto::cache
