// Property-style randomized oracle: the SoA SetAssocCache must equal
// the frozen pre-overhaul engine (tests/support/reference_cache.hpp)
// on *arbitrary* configurations, not just the hand-picked shapes of
// the golden suite in set_assoc_test.cpp.
//
// ~200 random (sets, ways, policy, partition) configurations are
// generated from one master seed; for each, a random op stream
// (mixed loads/stores, several requester cores and VMs, address span
// chosen to produce real conflict pressure, interleaved probes and
// single-line invalidations) is replayed through both engines and
// every observable is compared exactly: hit/miss outcome, evicted
// address, aggregate and per-core/per-VM statistics, per-VM
// footprints and occupancy.  Any divergence prints the config tuple
// so the shape can be frozen into the golden suite.
//
// Two further sections: MemorySystem's multi-level walk against an
// independent serial walk (tests/support/serial_walk.hpp), and the
// 20-way order5 victim layout against the frozen engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/memory_system.hpp"
#include "cache/set_assoc_cache.hpp"
#include "cache/topology.hpp"
#include "common/rng.hpp"
#include "mem/access.hpp"
#include "support/reference_cache.hpp"
#include "support/serial_walk.hpp"

namespace kyoto::cache {
namespace {

struct RandomConfig {
  CacheGeometry geometry;
  ReplacementKind policy = ReplacementKind::kLru;
  std::uint64_t engine_seed = 1;
  std::uint64_t stream_seed = 1;
  int cores = 2;
  int vms = 3;
  /// Way partitions to apply, one optional entry per VM (n_ways == 0
  /// means the VM stays unrestricted).
  std::vector<std::pair<unsigned, unsigned>> partitions;  // (first_way, n_ways) by vm

  std::string describe() const {
    std::string s = "sets=" + std::to_string(geometry.sets()) +
                    " ways=" + std::to_string(geometry.ways) +
                    " line=" + std::to_string(geometry.line) +
                    " policy=" + replacement_name(policy) +
                    " engine_seed=" + std::to_string(engine_seed) +
                    " stream_seed=" + std::to_string(stream_seed);
    for (std::size_t vm = 0; vm < partitions.size(); ++vm) {
      if (partitions[vm].second == 0) continue;
      s += " part[vm" + std::to_string(vm) + "]=" + std::to_string(partitions[vm].first) +
           "+" + std::to_string(partitions[vm].second);
    }
    return s;
  }
};

RandomConfig draw_config(Rng& rng) {
  RandomConfig config;
  // Associativities around the real machines' (4..20), including odd
  // ones, plus the wide sets behind the 48- and 64-byte fingerprint
  // rows and the > 24-way LRU fill; power-of-two set counts (the only
  // geometry the engine builds); lines 32/64/128.
  static constexpr unsigned kWays[] = {1, 2, 3, 4, 5, 7, 8, 12, 16, 20, 24, 32, 48, 64};
  static constexpr unsigned kSets[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  static constexpr Bytes kLines[] = {32, 64, 128};
  const unsigned ways = kWays[rng.below(std::size(kWays))];
  const unsigned sets = kSets[rng.below(std::size(kSets))];
  const Bytes line = kLines[rng.below(std::size(kLines))];
  config.geometry = CacheGeometry{static_cast<Bytes>(sets) * ways * line, ways, line};
  config.policy = static_cast<ReplacementKind>(rng.below(6));
  config.engine_seed = rng();
  config.stream_seed = rng();
  config.cores = 1 + static_cast<int>(rng.below(4));
  config.vms = 1 + static_cast<int>(rng.below(4));
  // ~40% of configs exercise way partitioning (the UCP-style ablation
  // path, where victim scans are restricted to per-VM way windows).
  if (rng.chance(0.4)) {
    for (int vm = 0; vm < config.vms; ++vm) {
      if (!rng.chance(0.5)) {
        config.partitions.emplace_back(0, 0);
        continue;
      }
      const unsigned first = static_cast<unsigned>(rng.below(ways));
      const unsigned n = 1 + static_cast<unsigned>(rng.below(ways - first));
      config.partitions.emplace_back(first, n);
    }
  }
  return config;
}

void replay_and_compare(const RandomConfig& config, std::size_t ops, bool observe) {
  SetAssocCache current("oracle", config.geometry, config.policy, config.engine_seed);
  if (observe) current.observe_ground_truth();
  ReferenceSetAssocCache reference("oracle", config.geometry, config.policy,
                                   config.engine_seed);
  for (std::size_t vm = 0; vm < config.partitions.size(); ++vm) {
    const auto [first, n] = config.partitions[vm];
    if (n == 0) continue;
    current.set_partition(static_cast<int>(vm), first, n);
    reference.set_partition(static_cast<int>(vm), first, n);
  }

  Rng stream(config.stream_seed);
  // Span a few multiples of the capacity so fills, evictions and
  // partition-window victim scans all occur, but reuse is common
  // enough that hits occur too.
  const std::uint64_t lines_in_cache =
      static_cast<std::uint64_t>(config.geometry.sets()) * config.geometry.ways;
  const std::uint64_t span_lines = lines_in_cache * (2 + stream.below(4)) + 1;

  for (std::size_t i = 0; i < ops; ++i) {
    const Address addr = stream.below(span_lines) * config.geometry.line +
                         stream.below(config.geometry.line);  // unaligned too
    const Requester req{static_cast<int>(stream.below(static_cast<std::uint64_t>(config.cores))),
                        static_cast<int>(stream.below(static_cast<std::uint64_t>(config.vms)))};
    const bool write = stream.chance(0.3);
    const LookupResult got = current.access(addr, write, req);
    const LookupResult want = reference.access(addr, write, req);
    ASSERT_EQ(want.hit, got.hit) << config.describe() << " op=" << i;
    ASSERT_EQ(want.evicted.has_value(), got.evicted.has_value())
        << config.describe() << " op=" << i;
    if (want.evicted.has_value()) {
      ASSERT_EQ(*want.evicted, *got.evicted) << config.describe() << " op=" << i;
    }
    if (stream.chance(0.02)) {
      const Address victim = stream.below(span_lines) * config.geometry.line;
      current.invalidate(victim);
      reference.invalidate(victim);
    }
    if (stream.chance(0.05)) {
      const Address probed = stream.below(span_lines) * config.geometry.line;
      ASSERT_EQ(reference.probe(probed), current.probe(probed))
          << config.describe() << " op=" << i;
    }
  }

  // Full statistics surface, not just the op-by-op outcomes.
  auto expect_stats_eq = [&](const CacheStats& want, const CacheStats& got,
                             const std::string& what) {
    EXPECT_EQ(want.accesses, got.accesses) << config.describe() << " " << what;
    EXPECT_EQ(want.hits, got.hits) << config.describe() << " " << what;
    EXPECT_EQ(want.misses, got.misses) << config.describe() << " " << what;
    EXPECT_EQ(want.evictions, got.evictions) << config.describe() << " " << what;
    EXPECT_EQ(want.writebacks, got.writebacks) << config.describe() << " " << what;
  };
  expect_stats_eq(reference.stats(), current.stats(), "total");
  for (int vm = 0; vm < config.vms; ++vm) {
    if (observe) {
      expect_stats_eq(reference.stats_for_vm(vm), current.stats_for_vm(vm),
                      "vm " + std::to_string(vm));
    }
    EXPECT_EQ(reference.footprint_lines(vm), current.footprint_lines(vm))
        << config.describe() << " footprint vm " << vm;
  }
  EXPECT_EQ(reference.footprint_lines(-1), current.footprint_lines(-1)) << config.describe();
  EXPECT_DOUBLE_EQ(reference.occupancy(), current.occupancy()) << config.describe();
}

TEST(RandomizedOracle, TwoHundredRandomConfigsMatchReferenceExactly) {
  Rng master(0xfeedc0de2024ull);
  for (int i = 0; i < 200; ++i) {
    const RandomConfig config = draw_config(master);
    // Cap per-config work so the whole property loop stays in test
    // budget: smaller caches replay more ops.
    const std::uint64_t lines =
        static_cast<std::uint64_t>(config.geometry.sets()) * config.geometry.ways;
    const std::size_t ops = lines < 64 ? 3000 : (lines < 2048 ? 1500 : 600);
    // Both LLC modes: owners only, and owners plus the ground-truth
    // oracle.
    for (const bool observe : {false, true}) {
      replay_and_compare(config, ops, observe);
      if (HasFatalFailure()) {
        FAIL() << "config #" << i << " (observe=" << observe
               << ") diverged: " << config.describe();
      }
    }
  }
}

// ---------------------------------------------------------------------
// Incremental-counter oracle: footprint_lines / occupancy and the
// ground-truth pollution counters must stay exact under arbitrary
// interleavings of accesses, single-line invalidations, full flushes,
// partition changes and VM "migrations" (a VM's accesses suddenly
// issuing from different cores — at the cache level, exactly what a
// hypervisor migration looks like).  The oracle is a recount from the
// raw line state plus conservation laws the event counters must obey.
// ---------------------------------------------------------------------

void check_against_recount(const SetAssocCache& cache, const RandomConfig& config,
                           std::size_t op) {
  const std::uint64_t lines =
      static_cast<std::uint64_t>(config.geometry.sets()) * config.geometry.ways;
  std::uint64_t owned_sum = 0;
  for (int vm = 0; vm < config.vms; ++vm) {
    const std::uint64_t recount = cache.recount_footprint_lines(vm);
    ASSERT_EQ(recount, cache.footprint_lines(vm))
        << config.describe() << " footprint vm " << vm << " after op " << op;
    owned_sum += recount;
  }
  ASSERT_EQ(cache.recount_footprint_lines(-1), cache.footprint_lines(-1))
      << config.describe() << " unowned after op " << op;
  const std::uint64_t valid = cache.recount_valid_lines();
  ASSERT_DOUBLE_EQ(static_cast<double>(valid) / static_cast<double>(lines),
                   cache.occupancy())
      << config.describe() << " occupancy after op " << op;
  ASSERT_EQ(owned_sum + cache.footprint_lines(-1), valid)
      << config.describe() << " footprint conservation after op " << op;
  if (!cache.observes_ground_truth()) return;

  // Pollution-counter conservation: every cross-VM eviction has
  // exactly one victim and (all requesters being VMs here) one
  // inflictor; a contention miss is a miss on a previously displaced
  // line, so it can never outnumber either side.
  std::uint64_t inflicted = 0;
  std::uint64_t suffered = 0;
  std::uint64_t contention = 0;
  for (int vm = 0; vm < config.vms; ++vm) {
    const VmPollution& p = cache.pollution_for_vm(vm);
    inflicted += p.cross_evictions_inflicted;
    suffered += p.cross_evictions_suffered;
    contention += p.contention_misses;
    ASSERT_LE(p.contention_misses, cache.stats_for_vm(vm).misses)
        << config.describe() << " vm " << vm << " after op " << op;
  }
  ASSERT_EQ(inflicted, suffered) << config.describe() << " after op " << op;
  ASSERT_LE(suffered, cache.stats().evictions) << config.describe() << " after op " << op;
  ASSERT_LE(contention, suffered) << config.describe() << " after op " << op;
}

void replay_with_disruptions(const RandomConfig& config, std::size_t ops, bool observe) {
  SetAssocCache cache("recount", config.geometry, config.policy, config.engine_seed);
  if (observe) cache.observe_ground_truth();
  Rng stream(config.stream_seed);
  const std::uint64_t lines_in_cache =
      static_cast<std::uint64_t>(config.geometry.sets()) * config.geometry.ways;
  const std::uint64_t span_lines = lines_in_cache * (2 + stream.below(4)) + 1;

  // Mutable VM -> core mapping ("pinning"): migrations remap it.
  std::vector<int> vm_core(static_cast<std::size_t>(config.vms));
  for (int vm = 0; vm < config.vms; ++vm) {
    vm_core[static_cast<std::size_t>(vm)] = static_cast<int>(
        stream.below(static_cast<std::uint64_t>(config.cores)));
  }

  const std::size_t checkpoint = 1 + ops / 7;
  for (std::size_t i = 0; i < ops; ++i) {
    const Address addr = stream.below(span_lines) * config.geometry.line +
                         stream.below(config.geometry.line);
    const int vm = static_cast<int>(stream.below(static_cast<std::uint64_t>(config.vms)));
    cache.access(addr, stream.chance(0.3),
                 Requester{vm_core[static_cast<std::size_t>(vm)], vm});

    if (stream.chance(0.02)) {
      cache.invalidate(stream.below(span_lines) * config.geometry.line);
    }
    if (stream.chance(0.004)) {
      cache.invalidate_all();
    }
    if (stream.chance(0.01)) {
      // Partition change mid-stream (UCP-style reconfiguration).
      if (stream.chance(0.3)) {
        cache.clear_partitions();
      } else {
        const int vm_p = static_cast<int>(
            stream.below(static_cast<std::uint64_t>(config.vms)));
        const unsigned first =
            static_cast<unsigned>(stream.below(config.geometry.ways));
        const unsigned n =
            1 + static_cast<unsigned>(stream.below(config.geometry.ways - first));
        cache.set_partition(vm_p, first, n);
      }
    }
    if (stream.chance(0.01)) {
      // VM migration: its accesses now issue from another core.
      const int vm_m = static_cast<int>(
          stream.below(static_cast<std::uint64_t>(config.vms)));
      vm_core[static_cast<std::size_t>(vm_m)] = static_cast<int>(
          stream.below(static_cast<std::uint64_t>(config.cores)));
    }
    if (i % checkpoint == 0) {
      check_against_recount(cache, config, i);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  check_against_recount(cache, config, ops);
}

TEST(RandomizedOracle, IncrementalCountersMatchRecountUnderDisruptions) {
  Rng master(0xabad1dea2026ull);
  for (int i = 0; i < 80; ++i) {
    const RandomConfig config = draw_config(master);
    const std::uint64_t lines =
        static_cast<std::uint64_t>(config.geometry.sets()) * config.geometry.ways;
    const std::size_t ops = lines < 64 ? 2500 : (lines < 2048 ? 1200 : 500);
    for (const bool observe : {false, true}) {
      replay_with_disruptions(config, ops, observe);
      if (HasFatalFailure()) {
        FAIL() << "config #" << i << " (observe=" << observe
               << ") diverged: " << config.describe();
      }
    }
  }
}

// --- multi-level engine equivalence ------------------------------------
//
// MemorySystem's walk (access_line_multilevel, with the fill fast
// paths) must be *bit-identical* to an independent serial walk over
// the public per-cache API (tests/support/serial_walk.hpp).  Random
// multi-core op streams — mixed loads/stores, several VMs, LLC
// partitions installed mid-run, occasional invalidations,
// bus+prefetcher on for some configs — are replayed through both and
// every observable is compared exactly, once with the LLCs keeping
// owners only (the production walk) and once observing ground truth.
namespace {

/// One input of the multi-level comparison: a machine and the op
/// stream replayed on it (`ops` accesses to random lines among
/// `lines`).
struct WalkRound {
  MemSystemConfig cfg;
  Topology topo;
  bool partition_mid_run = false;
  std::uint64_t lines = 0;
  int ops = 0;
};

template <class Memory>
std::vector<std::uint64_t> replay_observables(Memory& memory, const WalkRound& round,
                                              std::uint64_t stream_seed, bool observe) {
  const MemSystemConfig& cfg = round.cfg;
  const Topology& topo = round.topo;
  const int cores = topo.total_cores();
  const int vms = 4;
  if (observe) memory.observe_ground_truth();
  memory.reserve_vm_slots(vms);
  Rng rng(stream_seed);
  std::vector<std::uint64_t> observables;
  const std::uint64_t lines = round.lines;
  std::int64_t now = 0;
  for (int op = 0; op < round.ops; ++op) {
    const int core = static_cast<int>(rng.below(static_cast<std::uint64_t>(cores)));
    const int vm = static_cast<int>(rng.below(vms));
    const Address addr = rng.below(lines) * cfg.llc.line;
    const bool write = rng.chance(0.3);
    const int home = static_cast<int>(rng.below(static_cast<std::uint64_t>(topo.sockets)));
    const AccessResult result = memory.access(core, addr, write, home, vm, now);
    now += result.latency;
    observables.push_back(static_cast<std::uint64_t>(result.level));
    observables.push_back(static_cast<std::uint64_t>(result.latency));
    observables.push_back(result.llc_reference);
    observables.push_back(result.llc_miss);
    observables.push_back(result.prefetch_llc_references);
    observables.push_back(result.prefetch_llc_misses);
    if (round.partition_mid_run && op == round.ops / 2) {
      // UCP-style partition installed mid-run: the fast fills must
      // step aside and the walks must keep agreeing.
      memory.llc(0).set_partition(/*vm=*/1, /*first_way=*/0,
                                  /*n_ways=*/cfg.llc.ways / 2);
    }
    if (op % 9973 == 0) memory.invalidate_private(core);
  }
  // Totals for every cache; footprints for the LLCs (private caches
  // keep none) and, while observing, the LLCs' per-VM oracle.
  auto record_cache = [&observables, vms](const SetAssocCache& c) {
    const CacheStats& stats = c.stats();
    observables.insert(observables.end(), {stats.accesses, stats.hits, stats.misses,
                                           stats.evictions, stats.writebacks});
    if (!c.tracks_attribution()) return;
    for (int vm = -1; vm < vms; ++vm) observables.push_back(c.footprint_lines(vm));
    if (!c.observes_ground_truth()) return;
    for (int vm = 0; vm < vms; ++vm) {
      const CacheStats& vm_stats = c.stats_for_vm(vm);
      observables.insert(observables.end(),
                         {vm_stats.accesses, vm_stats.misses, vm_stats.evictions});
      const VmPollution& pollution = c.pollution_for_vm(vm);
      observables.insert(observables.end(),
                         {pollution.cross_evictions_inflicted,
                          pollution.cross_evictions_suffered, pollution.contention_misses});
    }
  };
  for (int core = 0; core < cores; ++core) {
    record_cache(memory.l1(core));
    record_cache(memory.l2(core));
    observables.push_back(memory.prefetches_issued(core));
  }
  for (int socket = 0; socket < topo.sockets; ++socket) {
    record_cache(memory.llc(socket));
    observables.push_back(static_cast<std::uint64_t>(memory.bus_queue_cycles(socket)));
  }
  return observables;
}

}  // namespace

TEST(RandomizedOracle, MultilevelWalksMatchSerialOracle) {
  std::vector<WalkRound> rounds;
  for (int round = 0; round < 12; ++round) {
    MemSystemConfig cfg = scaled_mem_system();
    // Vary geometry: the 128-set LLC, halved to 64 sets or doubled to
    // 256; flip the LLC's replacement for some rounds (non-LRU
    // exercises the general fills inside the walk), and enable the
    // bus/prefetcher extensions for others (the miss-extras path).
    if (round % 3 == 1) cfg.llc.size /= 2;
    if (round % 3 == 2) cfg.llc.size *= 2;
    if (round % 4 == 2) cfg.llc_replacement = ReplacementKind::kDip;
    if (round % 4 == 3) cfg.llc_replacement = ReplacementKind::kPlru;
    cfg.prefetch.enabled = round % 2 == 1;
    cfg.bus.enabled = round % 5 == 2;
    rounds.push_back({cfg, Topology{round % 2 == 0 ? 1 : 2, 2}, round % 3 == 0,
                      cfg.llc.size * 3 / cfg.llc.line, 60'000});
  }
  // The full-size Table-1 machine (64-set L1, 512-set L2, 8192-set
  // 20-way LLC) with every extension on.  Twice the LLC's lines and
  // enough ops that it fills and evicts in the second half.
  MemSystemConfig paper = paper_mem_system();
  paper.prefetch.enabled = true;
  paper.bus.enabled = true;
  rounds.push_back({paper, paper_topology(), true, 2 * paper.llc.size / paper.llc.line,
                    400'000});

  Rng master(0xF0CE5ull);
  for (std::size_t round = 0; round < rounds.size(); ++round) {
    const WalkRound& r = rounds[round];
    const std::uint64_t stream_seed = master();
    for (const bool observe : {false, true}) {
      MemorySystem library(r.topo, r.cfg, /*seed=*/7);
      test::SerialWalk oracle(r.topo, r.cfg, /*seed=*/7);
      const auto got = replay_observables(library, r, stream_seed, observe);
      const auto want = replay_observables(oracle, r, stream_seed, observe);
      ASSERT_EQ(want, got) << "round " << round << " observe=" << observe;
    }
  }
}

// --- 20-way order5 victim golden ----------------------------------------
//
// The paper's LLC is 20-way, which the nibble fast order (16 ways max)
// cannot hold; a two-word array of 5-bit fields takes over for
// 16 < ways <= 24.  This golden drives exactly that shape — LRU,
// 20 ways, 64 and 128 sets — against the frozen reference engine
// with every disruption the layout must survive: partitions
// installed mid-run (fast victim steps aside, mirrors keep tracking),
// partitions cleared again (fast victim resumes on mirrors that never
// stopped), and single-line invalidations throughout.

TEST(RandomizedOracle, TwentyWayOrder5MatchesReferenceUnderDisruptions) {
  for (const unsigned sets : {64u, 128u}) {
    const CacheGeometry geom{static_cast<Bytes>(sets) * 20 * 64, 20, 64};
    SetAssocCache current("order5", geom, ReplacementKind::kLru, /*seed=*/11);
    ReferenceSetAssocCache reference("order5", geom, ReplacementKind::kLru, /*seed=*/11);

    Rng stream(0x20aa5eedull + sets);
    const std::uint64_t span_lines = static_cast<std::uint64_t>(sets) * 20 * 3 + 1;
    constexpr std::size_t kOps = 40'000;
    // Disruption schedule: partition on, then off again, with plenty
    // of traffic between.
    for (std::size_t i = 0; i < kOps; ++i) {
      const Address addr = stream.below(span_lines) * geom.line;
      const Requester req{static_cast<int>(stream.below(2)),
                          static_cast<int>(stream.below(3))};
      const bool write = stream.chance(0.3);
      const LookupResult got = current.access(addr, write, req);
      const LookupResult want = reference.access(addr, write, req);
      ASSERT_EQ(want.hit, got.hit) << "sets=" << sets << " op=" << i;
      ASSERT_EQ(want.evicted, got.evicted) << "sets=" << sets << " op=" << i;
      if (stream.chance(0.01)) {
        const Address victim = stream.below(span_lines) * geom.line;
        current.invalidate(victim);
        reference.invalidate(victim);
      }
      if (i == kOps / 5) {
        current.set_partition(/*vm=*/1, /*first_way=*/0, /*n_ways=*/10);
        reference.set_partition(1, 0, 10);
      }
      if (i == 2 * kOps / 5) {
        current.clear_partitions();
        reference.clear_partitions();
      }
    }
    EXPECT_EQ(reference.stats().accesses, current.stats().accesses) << sets;
    EXPECT_EQ(reference.stats().hits, current.stats().hits) << sets;
    EXPECT_EQ(reference.stats().misses, current.stats().misses) << sets;
    EXPECT_EQ(reference.stats().evictions, current.stats().evictions) << sets;
    EXPECT_EQ(reference.stats().writebacks, current.stats().writebacks) << sets;
  }
}

}  // namespace
}  // namespace kyoto::cache

