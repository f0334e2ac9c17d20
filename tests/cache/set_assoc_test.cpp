#include "cache/set_assoc_cache.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mem/access.hpp"
#include "support/reference_cache.hpp"

namespace kyoto::cache {
namespace {

constexpr Bytes kLine = mem::kLineBytes;

/// 4 sets x 4 ways x 64 B lines = 1 KiB toy cache.
CacheGeometry toy_geometry() { return CacheGeometry{1024, 4, kLine}; }

Address line(unsigned set, unsigned n, unsigned sets = 4) {
  // n-th distinct line mapping to `set`.
  return (static_cast<Address>(n) * sets + set) * kLine;
}

TEST(SetAssocCache, ColdMissThenHit) {
  SetAssocCache c("t", toy_geometry(), ReplacementKind::kLru);
  const Requester req{0, 0};
  EXPECT_FALSE(c.access(0, false, req).hit);
  EXPECT_TRUE(c.access(0, false, req).hit);
  EXPECT_TRUE(c.access(63, false, req).hit);   // same line
  EXPECT_FALSE(c.access(64, false, req).hit);  // next line
}

TEST(SetAssocCache, GeometrySetsComputed) {
  EXPECT_EQ(toy_geometry().sets(), 4u);
  EXPECT_EQ((CacheGeometry{10240_KiB, 20, 64}).sets(), 8192u);
  EXPECT_THROW((CacheGeometry{1000, 3, 64}).sets(), std::logic_error);
  EXPECT_THROW((CacheGeometry{4096, 0, 64}).sets(), std::logic_error);  // not a SIGFPE
  EXPECT_THROW(SetAssocCache("no-ways", CacheGeometry{4096, 0, 64}, ReplacementKind::kLru),
               std::logic_error);
}

TEST(SetAssocCache, NonPowerOfTwoGeometryRejected) {
  // Set index and tag are one shift and one mask, so the constructor
  // refuses set counts and line sizes that are not powers of two, and
  // names the cache it refused.
  try {
    SetAssocCache("three-sets", CacheGeometry{3 * 4 * 64, 4, 64}, ReplacementKind::kLru);
    FAIL() << "a 3-set cache was built";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("three-sets"), std::string::npos) << e.what();
  }
  EXPECT_THROW(SetAssocCache("l48", CacheGeometry{4 * 4 * 48, 4, 48}, ReplacementKind::kLru),
               std::logic_error);
  EXPECT_NO_THROW(SetAssocCache("one-set", CacheGeometry{8 * 64, 8, 64}, ReplacementKind::kLru));
}

TEST(SetAssocCache, AssociativityHoldsWaysLines) {
  SetAssocCache c("t", toy_geometry(), ReplacementKind::kLru);
  const Requester req{0, 0};
  // Fill one set with exactly `ways` lines: all must coexist.
  for (unsigned n = 0; n < 4; ++n) c.access(line(1, n), false, req);
  for (unsigned n = 0; n < 4; ++n) EXPECT_TRUE(c.access(line(1, n), false, req).hit);
}

TEST(SetAssocCache, LruEvictsLeastRecentlyUsed) {
  SetAssocCache c("t", toy_geometry(), ReplacementKind::kLru);
  const Requester req{0, 0};
  for (unsigned n = 0; n < 4; ++n) c.access(line(0, n), false, req);
  // Touch 0..2 so line 3 is LRU... actually touch 1,2,3 so 0 is LRU.
  c.access(line(0, 1), false, req);
  c.access(line(0, 2), false, req);
  c.access(line(0, 3), false, req);
  // New line evicts line 0.
  const auto result = c.access(line(0, 4), false, req);
  EXPECT_FALSE(result.hit);
  ASSERT_TRUE(result.evicted.has_value());
  EXPECT_EQ(*result.evicted, line(0, 0));
  EXPECT_FALSE(c.probe(line(0, 0)));
  EXPECT_TRUE(c.probe(line(0, 1)));
}

TEST(SetAssocCache, ProbeDoesNotDisturbState) {
  SetAssocCache c("t", toy_geometry(), ReplacementKind::kLru);
  const Requester req{0, 0};
  for (unsigned n = 0; n < 4; ++n) c.access(line(0, n), false, req);
  // Probing the LRU line must not refresh it.
  EXPECT_TRUE(c.probe(line(0, 0)));
  c.access(line(0, 4), false, req);
  EXPECT_FALSE(c.probe(line(0, 0)));
  const auto before = c.stats();
  c.probe(line(0, 1));
  EXPECT_EQ(c.stats().accesses, before.accesses);  // probe not counted
}

TEST(SetAssocCache, StatsCountHitsAndMisses) {
  SetAssocCache c("t", toy_geometry(), ReplacementKind::kLru);
  const Requester req{0, 0};
  c.access(0, false, req);
  c.access(0, false, req);
  c.access(64, false, req);
  EXPECT_EQ(c.stats().accesses, 3u);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 2u);
  EXPECT_NEAR(c.stats().miss_ratio(), 2.0 / 3.0, 1e-12);
}

TEST(SetAssocCache, PerVmAttributionAndFootprint) {
  SetAssocCache c("llc", toy_geometry(), ReplacementKind::kLru);
  c.observe_ground_truth();
  c.access(0, false, Requester{0, 0});
  c.access(64, false, Requester{0, 1});
  c.access(128, false, Requester{0, 1});
  EXPECT_EQ(c.stats_for_vm(0).misses, 1u);
  EXPECT_EQ(c.stats_for_vm(1).misses, 2u);
  EXPECT_EQ(c.footprint_lines(0), 1u);
  EXPECT_EQ(c.footprint_lines(1), 2u);
}

TEST(SetAssocCache, NegativeVmIdSkipsVmAttribution) {
  SetAssocCache c("llc", toy_geometry(), ReplacementKind::kLru);
  c.observe_ground_truth();
  c.access(0, false, Requester{0, -1});
  EXPECT_EQ(c.stats().accesses, 1u);
  EXPECT_EQ(c.stats_for_vm(0).accesses, 0u);
}

TEST(SetAssocCache, DirtyEvictionCountsWriteback) {
  SetAssocCache c("t", toy_geometry(), ReplacementKind::kLru);
  const Requester req{0, 0};
  c.access(line(0, 0), true, req);  // dirty line
  for (unsigned n = 1; n <= 4; ++n) c.access(line(0, n), false, req);
  EXPECT_EQ(c.stats().writebacks, 1u);
  EXPECT_GE(c.stats().evictions, 1u);
}

TEST(SetAssocCache, WriteHitMarksDirty) {
  SetAssocCache c("t", toy_geometry(), ReplacementKind::kLru);
  const Requester req{0, 0};
  c.access(line(0, 0), false, req);
  c.access(line(0, 0), true, req);  // dirty via write hit
  for (unsigned n = 1; n <= 4; ++n) c.access(line(0, n), false, req);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(SetAssocCache, InvalidateAllDropsLines) {
  SetAssocCache c("t", toy_geometry(), ReplacementKind::kLru);
  const Requester req{0, 0};
  for (unsigned n = 0; n < 8; ++n) c.access(n * kLine, false, req);
  EXPECT_GT(c.occupancy(), 0.0);
  c.invalidate_all();
  EXPECT_DOUBLE_EQ(c.occupancy(), 0.0);
  EXPECT_FALSE(c.probe(0));
  // Stats survive invalidation.
  EXPECT_EQ(c.stats().accesses, 8u);
}

TEST(SetAssocCache, InvalidateSingleLine) {
  SetAssocCache c("t", toy_geometry(), ReplacementKind::kLru);
  const Requester req{0, 0};
  c.access(0, false, req);
  c.access(64, false, req);
  c.invalidate(0);
  EXPECT_FALSE(c.probe(0));
  EXPECT_TRUE(c.probe(64));
}

TEST(SetAssocCache, ClearStats) {
  SetAssocCache c("t", toy_geometry(), ReplacementKind::kLru);
  c.observe_ground_truth();
  c.access(0, false, Requester{2, 3});
  c.clear_stats();
  EXPECT_EQ(c.stats().accesses, 0u);
  EXPECT_EQ(c.stats_for_vm(3).accesses, 0u);
}

// --- on-demand ground truth -------------------------------------------

TEST(GroundTruthObservation, ObservingAfterTheFirstAccessThrows) {
  SetAssocCache c("llc", toy_geometry(), ReplacementKind::kLru);
  c.access(0, false, Requester{0, 0});
  EXPECT_THROW(c.observe_ground_truth(), std::logic_error);
  EXPECT_FALSE(c.observes_ground_truth());
  // A flush does not make the history observable either.
  c.invalidate_all();
  EXPECT_THROW(c.observe_ground_truth(), std::logic_error);
}

TEST(GroundTruthObservation, ObservingIsIdempotentAndExactFromPowerOn) {
  SetAssocCache c("llc", toy_geometry(), ReplacementKind::kLru);
  c.reserve_vm_slots(2);
  c.observe_ground_truth();
  c.access(line(0, 0), false, Requester{0, 0});
  c.observe_ground_truth();  // a second consumer attaching: no-op
  for (unsigned n = 1; n <= 4; ++n) c.access(line(0, n), false, Requester{1, 1});
  c.access(line(0, 0), false, Requester{0, 0});  // re-miss after vm 1 displaced it
  EXPECT_EQ(c.stats_for_vm(0).misses, 2u);
  EXPECT_EQ(c.stats_for_vm(1).misses, 4u);
  EXPECT_EQ(c.pollution_for_vm(1).cross_evictions_inflicted, 1u);
  EXPECT_EQ(c.pollution_for_vm(0).cross_evictions_suffered, 1u);
  EXPECT_EQ(c.pollution_for_vm(0).contention_misses, 1u);
}

// --- way partitioning -------------------------------------------------

TEST(WayPartition, FillsRestrictedToOwnWays) {
  SetAssocCache c("llc", toy_geometry(), ReplacementKind::kLru);
  c.set_partition(0, 0, 2);  // VM 0: ways 0-1
  c.set_partition(1, 2, 2);  // VM 1: ways 2-3
  // VM 0 streams many lines through set 0; VM 1's lines must survive.
  c.access(line(0, 10), false, Requester{1, 1});
  c.access(line(0, 11), false, Requester{1, 1});
  for (unsigned n = 0; n < 8; ++n) c.access(line(0, n), false, Requester{0, 0});
  EXPECT_TRUE(c.probe(line(0, 10)));
  EXPECT_TRUE(c.probe(line(0, 11)));
  // VM 0 can hold at most 2 lines of set 0.
  unsigned resident = 0;
  for (unsigned n = 0; n < 8; ++n) resident += c.probe(line(0, n)) ? 1 : 0;
  EXPECT_EQ(resident, 2u);
}

TEST(WayPartition, LookupHitsAcrossPartitions) {
  SetAssocCache c("llc", toy_geometry(), ReplacementKind::kLru);
  c.access(line(0, 0), false, Requester{0, 1});  // VM 1 fills unrestricted
  c.set_partition(0, 0, 2);
  // VM 0 can still *hit* VM 1's line (way partitioning restricts
  // allocation, not lookup).
  EXPECT_TRUE(c.access(line(0, 0), false, Requester{0, 0}).hit);
}

TEST(WayPartition, ClearRestoresFullAssociativity) {
  SetAssocCache c("llc", toy_geometry(), ReplacementKind::kLru);
  c.set_partition(0, 0, 1);
  c.clear_partitions();
  const Requester req{0, 0};
  for (unsigned n = 0; n < 4; ++n) c.access(line(0, n), false, req);
  for (unsigned n = 0; n < 4; ++n) EXPECT_TRUE(c.probe(line(0, n)));
}

TEST(WayPartition, InvalidRangesThrow) {
  SetAssocCache c("llc", toy_geometry(), ReplacementKind::kLru);
  EXPECT_THROW(c.set_partition(0, 3, 2), std::logic_error);  // beyond ways
  EXPECT_THROW(c.set_partition(0, 0, 0), std::logic_error);  // empty
  EXPECT_THROW(c.set_partition(-1, 0, 1), std::logic_error); // no vm
}

// --- replacement policies ---------------------------------------------

TEST(Replacement, NamesAreStable) {
  EXPECT_STREQ(replacement_name(ReplacementKind::kLru), "LRU");
  EXPECT_STREQ(replacement_name(ReplacementKind::kPlru), "PLRU");
  EXPECT_STREQ(replacement_name(ReplacementKind::kRandom), "random");
  EXPECT_STREQ(replacement_name(ReplacementKind::kLip), "LIP");
  EXPECT_STREQ(replacement_name(ReplacementKind::kBip), "BIP");
  EXPECT_STREQ(replacement_name(ReplacementKind::kDip), "DIP");
}

TEST(Replacement, PlruEvictsSomethingValid) {
  SetAssocCache c("t", toy_geometry(), ReplacementKind::kPlru);
  const Requester req{0, 0};
  for (unsigned n = 0; n < 4; ++n) c.access(line(0, n), false, req);
  const auto result = c.access(line(0, 4), false, req);
  EXPECT_FALSE(result.hit);
  ASSERT_TRUE(result.evicted.has_value());
  // PLRU must not evict the most recently used line.
  EXPECT_NE(*result.evicted, line(0, 3));
}

TEST(Replacement, RandomEventuallyEvictsEveryWay) {
  SetAssocCache c("t", toy_geometry(), ReplacementKind::kRandom, 123);
  const Requester req{0, 0};
  for (unsigned n = 0; n < 4; ++n) c.access(line(0, n), false, req);
  std::set<Address> victims;
  for (unsigned n = 4; n < 200; ++n) {
    const auto r = c.access(line(0, n), false, req);
    if (r.evicted) victims.insert(*r.evicted % (4 * kLine * 4));
  }
  EXPECT_GE(victims.size(), 3u);
}

TEST(Replacement, LruThrashesOnCyclicOverflow) {
  // Cyclic working set one line larger than associativity: LRU misses
  // every access (the classic pathological case motivating BIP).
  SetAssocCache c("t", toy_geometry(), ReplacementKind::kLru);
  const Requester req{0, 0};
  for (int lap = 0; lap < 10; ++lap) {
    for (unsigned n = 0; n < 5; ++n) c.access(line(0, n), false, req);
  }
  // After warm-up laps, hits stay at zero for LRU.
  EXPECT_EQ(c.stats().hits, 0u);
}

TEST(Replacement, BipRetainsPartOfCyclicOverflow) {
  SetAssocCache lru("lru", toy_geometry(), ReplacementKind::kLru, 1);
  SetAssocCache bip("bip", toy_geometry(), ReplacementKind::kBip, 1);
  const Requester req{0, 0};
  for (int lap = 0; lap < 200; ++lap) {
    for (unsigned n = 0; n < 6; ++n) {
      lru.access(line(0, n), false, req);
      bip.access(line(0, n), false, req);
    }
  }
  // BIP keeps a fraction of the set resident; LRU keeps nothing.
  EXPECT_EQ(lru.stats().hits, 0u);
  EXPECT_GT(bip.stats().hits, 100u);
}

TEST(Replacement, DipTracksBetterPolicyUnderThrash) {
  SetAssocCache dip("dip", CacheGeometry{64 * 64 * 4, 4, 64}, ReplacementKind::kDip, 1);
  const Requester req{0, 0};
  // Thrash every set cyclically (ws = ways+2 per set): BIP wins, DIP
  // should converge towards BIP-like hit rates rather than LRU's zero.
  const unsigned sets = 64;
  for (int lap = 0; lap < 300; ++lap) {
    for (unsigned n = 0; n < 6; ++n) {
      for (unsigned s = 0; s < sets; ++s) {
        dip.access(line(s, n, sets), false, req);
      }
    }
  }
  const double hit_rate = static_cast<double>(dip.stats().hits) /
                          static_cast<double>(dip.stats().accesses);
  EXPECT_GT(hit_rate, 0.10);
}

// --- golden equivalence vs the frozen pre-SoA engine --------------------
//
// The SoA rewrite must be *behaviorally invisible*: for every
// replacement policy, the hit/miss/eviction sequence over a recorded
// op trace must match the original array-of-structs engine line for
// line (tests/support/reference_cache.hpp keeps that engine frozen).  These tests
// are the license to keep optimizing the hot path.

struct GoldenOp {
  Address addr;
  bool write;
  int core;
  int vm;
};

/// A deterministic mixed trace: streaming, strided and random phases
/// over a working set several times the cache, from several cores/VMs.
std::vector<GoldenOp> golden_trace(std::size_t n, std::uint64_t seed, Bytes span) {
  Rng rng(seed);
  std::vector<GoldenOp> trace;
  trace.reserve(n);
  Address cursor = 0;
  const std::uint64_t span_lines = span / kLine;
  for (std::size_t i = 0; i < n; ++i) {
    GoldenOp op;
    switch ((i / 64) % 3) {
      case 0:  // stream
        cursor = (cursor + 1) % span_lines;
        op.addr = cursor * kLine;
        break;
      case 1:  // stride 7 lines
        cursor = (cursor + 7) % span_lines;
        op.addr = cursor * kLine;
        break;
      default:  // uniform random
        op.addr = rng.below(span_lines) * kLine;
        break;
    }
    op.write = rng.chance(0.3);
    op.core = static_cast<int>(rng.below(4));
    op.vm = static_cast<int>(rng.below(3));
    trace.push_back(op);
  }
  return trace;
}

void expect_stats_equal(const CacheStats& a, const CacheStats& b, const char* what) {
  EXPECT_EQ(a.accesses, b.accesses) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.evictions, b.evictions) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
}

/// Replays the trace through both engines and asserts identical
/// hit/miss/eviction sequences and identical observable state.
void run_golden(ReplacementKind kind, bool with_partitions = false) {
  // 16 KiB, 8-way: large enough for interesting set behaviour, small
  // enough that the trace overflows it constantly.
  const CacheGeometry geometry{16_KiB, 8, kLine};
  SetAssocCache soa("soa", geometry, kind, /*seed=*/123);
  soa.observe_ground_truth();
  ReferenceSetAssocCache ref("ref", geometry, kind, /*seed=*/123);
  if (with_partitions) {
    soa.set_partition(0, 0, 3);
    soa.set_partition(1, 3, 5);
    ref.set_partition(0, 0, 3);
    ref.set_partition(1, 3, 5);
  }

  const auto trace = golden_trace(60'000, /*seed=*/7, /*span=*/64_KiB);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const GoldenOp& op = trace[i];
    const Requester req{op.core, op.vm};
    const LookupResult a = soa.access(op.addr, op.write, req);
    const LookupResult b = ref.access(op.addr, op.write, req);
    ASSERT_EQ(a.hit, b.hit) << replacement_name(kind) << " op " << i;
    ASSERT_EQ(a.evicted.has_value(), b.evicted.has_value())
        << replacement_name(kind) << " op " << i;
    if (a.evicted.has_value()) {
      ASSERT_EQ(*a.evicted, *b.evicted) << replacement_name(kind) << " op " << i;
    }
    // Interleave the occasional invalidation and probe so those paths
    // stay equivalent too.
    if (i % 4096 == 4095) {
      soa.invalidate(op.addr);
      ref.invalidate(op.addr);
    }
    if (i % 1024 == 1023) {
      ASSERT_EQ(soa.probe(trace[i / 2].addr), ref.probe(trace[i / 2].addr));
    }
  }

  expect_stats_equal(soa.stats(), ref.stats(), replacement_name(kind));
  for (int vm = 0; vm < 3; ++vm) {
    expect_stats_equal(soa.stats_for_vm(vm), ref.stats_for_vm(vm), "vm");
    EXPECT_EQ(soa.footprint_lines(vm), ref.footprint_lines(vm))
        << replacement_name(kind) << " footprint vm " << vm;
  }
  EXPECT_DOUBLE_EQ(soa.occupancy(), ref.occupancy()) << replacement_name(kind);
}

TEST(GoldenEquivalence, Lru) { run_golden(ReplacementKind::kLru); }
TEST(GoldenEquivalence, Plru) { run_golden(ReplacementKind::kPlru); }
TEST(GoldenEquivalence, Random) { run_golden(ReplacementKind::kRandom); }
TEST(GoldenEquivalence, Lip) { run_golden(ReplacementKind::kLip); }
TEST(GoldenEquivalence, Bip) { run_golden(ReplacementKind::kBip); }
TEST(GoldenEquivalence, Dip) { run_golden(ReplacementKind::kDip); }
TEST(GoldenEquivalence, LruWithWayPartitions) {
  run_golden(ReplacementKind::kLru, /*with_partitions=*/true);
}
TEST(GoldenEquivalence, DipWithWayPartitions) {
  run_golden(ReplacementKind::kDip, /*with_partitions=*/true);
}

TEST(SetAssocCache, AttributionFreeModeKeepsTotalsOnly) {
  SetAssocCache c("l1", toy_geometry(), ReplacementKind::kLru, 1, /*track_attribution=*/false);
  EXPECT_THROW(c.observe_ground_truth(), std::logic_error);
  c.reserve_vm_slots(8);  // no-op: a private cache keeps no per-VM slots
  c.access(0, false, Requester{2, 3});
  c.access(0, false, Requester{2, 3});
  EXPECT_EQ(c.stats().accesses, 2u);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_FALSE(c.tracks_attribution());
  EXPECT_THROW(c.stats_for_vm(3), std::logic_error);
  EXPECT_EQ(c.footprint_lines(3), 0u);
  EXPECT_EQ(c.release_vm(3), 0u);
}

TEST(Replacement, LipInsertsAtLruPosition) {
  SetAssocCache c("lip", toy_geometry(), ReplacementKind::kLip);
  const Requester req{0, 0};
  for (unsigned n = 0; n < 4; ++n) {
    c.access(line(0, n), false, req);
    c.access(line(0, n), false, req);  // promote to MRU via hit
  }
  // A newly inserted line sits at LRU and is the next victim.
  c.access(line(0, 9), false, req);
  const auto r = c.access(line(0, 10), false, req);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(*r.evicted, line(0, 9));
}

TEST(FillFastPaths, SelectedByPolicyAndPartitionState) {
  // The pruned LRU fill runs exactly when the cache is plain LRU with
  // no partition installed; installing a partition drops to the
  // general fill and clearing it re-arms the fast path.
  SetAssocCache lru("lru", CacheGeometry{8 * 64 * 4, 4}, ReplacementKind::kLru);
  EXPECT_TRUE(lru.fast_fill());
  lru.set_partition(0, 0, 2);
  EXPECT_FALSE(lru.fast_fill());
  lru.clear_partitions();
  EXPECT_TRUE(lru.fast_fill());
  SetAssocCache plru("plru", CacheGeometry{8 * 64 * 4, 4}, ReplacementKind::kPlru);
  EXPECT_FALSE(plru.fast_fill());
  plru.clear_partitions();
  EXPECT_FALSE(plru.fast_fill());
}

}  // namespace
}  // namespace kyoto::cache
