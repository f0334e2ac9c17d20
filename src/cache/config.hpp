// Cache-hierarchy geometry and latency configuration.
//
// Defaults reproduce the paper's experimental machine (Table 1: Dell /
// Intel Xeon E5-1603 v3) and its lmbench-measured latencies (§2.2.4:
// ~4 cycles L1, 12 L2, 45 LLC, 180 main memory).  Because the
// simulator executes instructions one at a time, experiments use a
// geometrically scaled copy of the machine (same associativities and
// latencies, sizes divided by `scale`) so working sets load within a
// scheduler slice exactly as they do on the real machine.
#pragma once

#include <bit>
#include <cstdint>

#include "common/check.hpp"
#include "common/units.hpp"
#include "mem/access.hpp"

namespace kyoto::cache {

/// Replacement / insertion policy of a set-associative cache.
/// kLru is the baseline used throughout the paper's evaluation; the
/// others implement the related-work policies (§6: DIP/BIP [17,19])
/// for the replacement-policy ablation bench.
enum class ReplacementKind : unsigned char {
  kLru,     // exact least-recently-used
  kPlru,    // bit-PLRU (MRU-bit approximation)
  kRandom,  // uniform random victim
  kLip,     // LRU-insertion policy (insert at LRU position)
  kBip,     // bimodal insertion [17]: LIP with occasional MRU insertion
  kDip,     // dynamic insertion [17]: set-dueling between LRU and BIP
};

const char* replacement_name(ReplacementKind kind);

/// Geometry of one cache level.
struct CacheGeometry {
  Bytes size = 0;        // total capacity in bytes
  unsigned ways = 1;     // associativity
  Bytes line = mem::kLineBytes;

  unsigned sets() const {
    KYOTO_CHECK_MSG(line > 0 && ways > 0, "cache needs a positive line size and way count");
    KYOTO_CHECK_MSG(size % (line * ways) == 0,
                    "cache size must be a multiple of line*ways");
    return static_cast<unsigned>(size / (line * ways));
  }
};

/// Where an access was served from.
enum class CacheLevel : unsigned char { kL1, kL2, kLlc, kMemLocal, kMemRemote };

const char* cache_level_name(CacheLevel level);

/// Per-core hardware next-line prefetcher (optional extension; the
/// calibrated paper experiments run with it off and model latency
/// hiding through the per-workload MLP factor instead).
struct PrefetchConfig {
  bool enabled = false;
  /// Lines fetched ahead on each demand miss that reaches the LLC.
  unsigned degree = 2;
};

/// Shared per-socket memory bus (optional extension): each line
/// transferred from DRAM occupies the bus for `transfer_cycles`, so
/// concurrent miss streams from different cores queue behind each
/// other — the bandwidth-contention channel (FSB/QPI in §2.1) that
/// pure cache modelling misses.
struct MemoryBusConfig {
  bool enabled = false;
  Cycles transfer_cycles = 8;
};

/// Full memory-system configuration for one machine.
struct MemSystemConfig {
  CacheGeometry l1{32_KiB, 8};    // L1D 32 KB, 8-way (Table 1)
  CacheGeometry l2{256_KiB, 8};   // L2 unified 256 KB, 8-way
  CacheGeometry llc{10240_KiB, 20};  // LLC 10 MB, 20-way
  Cycles lat_l1 = 4;
  Cycles lat_l2 = 12;
  Cycles lat_llc = 45;
  Cycles lat_mem_local = 180;
  Cycles lat_mem_remote = 300;    // remote NUMA access (PowerEdge R420, Fig 9)
  ReplacementKind llc_replacement = ReplacementKind::kLru;  // L1/L2 are always LRU
  PrefetchConfig prefetch;
  MemoryBusConfig bus;

  /// True when dividing every capacity by `factor` leaves each level
  /// a whole, power-of-two number of sets (the only geometry the
  /// cache engine builds).
  bool scales_by(Bytes factor) const {
    const auto fits = [factor](const CacheGeometry& g) {
      const Bytes set_bytes = g.line * g.ways;
      return g.size % factor == 0 && (g.size / factor) % set_bytes == 0 &&
             std::has_single_bit(g.size / factor / set_bytes);
    };
    return factor > 0 && fits(l1) && fits(l2) && fits(llc);
  }

  /// Returns a copy with all capacities divided by `factor` (geometry
  /// preserved: associativity and line size unchanged, so the set
  /// count shrinks).  Latencies are unchanged — the scaled machine is
  /// "the same silicon with fewer sets".
  MemSystemConfig scaled(unsigned factor) const {
    KYOTO_CHECK_MSG(scales_by(factor), "scale factor " << factor
                                           << " leaves a cache without a whole, "
                                              "power-of-two number of sets");
    MemSystemConfig c = *this;
    c.l1.size /= factor;
    c.l2.size /= factor;
    c.llc.size /= factor;
    return c;
  }

  /// Latency for an access served at `level`.
  Cycles latency(CacheLevel level) const {
    switch (level) {
      case CacheLevel::kL1: return lat_l1;
      case CacheLevel::kL2: return lat_l2;
      case CacheLevel::kLlc: return lat_llc;
      case CacheLevel::kMemLocal: return lat_mem_local;
      case CacheLevel::kMemRemote: return lat_mem_remote;
    }
    return lat_mem_local;
  }
};

/// The paper's experimental machine, full size (Table 1).
inline MemSystemConfig paper_mem_system() { return MemSystemConfig{}; }

/// The default experimentation machine: Table 1 scaled 1/64 so that
/// working-set load times relate to the 30 ms slice as on real
/// hardware while per-instruction simulation stays fast.
/// (L1 512 B, L2 4 KB, LLC 160 KB.)
inline MemSystemConfig scaled_mem_system() { return MemSystemConfig{}.scaled(64); }

}  // namespace kyoto::cache
