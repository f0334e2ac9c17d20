#include "cache/memory_system.hpp"

#include <gtest/gtest.h>

#include "cache/config.hpp"
#include "cache/topology.hpp"
#include "mem/access.hpp"

namespace kyoto::cache {
namespace {

MemSystemConfig small_config() {
  MemSystemConfig c;
  c.l1 = CacheGeometry{512, 8, 64};      // 1 set
  c.l2 = CacheGeometry{2048, 8, 64};     // 4 sets
  c.llc = CacheGeometry{16384, 16, 64};  // 16 sets
  return c;
}

TEST(MemSystemConfig, PaperGeometryMatchesTable1) {
  const MemSystemConfig c = paper_mem_system();
  EXPECT_EQ(c.l1.size, 32_KiB);
  EXPECT_EQ(c.l1.ways, 8u);
  EXPECT_EQ(c.l2.size, 256_KiB);
  EXPECT_EQ(c.l2.ways, 8u);
  EXPECT_EQ(c.llc.size, 10240_KiB);
  EXPECT_EQ(c.llc.ways, 20u);
  EXPECT_EQ(c.lat_l1, 4);
  EXPECT_EQ(c.lat_l2, 12);
  EXPECT_EQ(c.lat_llc, 45);
  EXPECT_EQ(c.lat_mem_local, 180);
}

TEST(MemSystemConfig, ScalingPreservesGeometryShape) {
  const MemSystemConfig c = paper_mem_system().scaled(64);
  EXPECT_EQ(c.l1.size, 512u);
  EXPECT_EQ(c.l2.size, 4096u);
  EXPECT_EQ(c.llc.size, 160_KiB);
  EXPECT_EQ(c.l1.ways, 8u);
  EXPECT_EQ(c.llc.ways, 20u);
  EXPECT_EQ(c.lat_llc, 45);  // latencies unchanged
  EXPECT_EQ(c.llc.sets(), 128u);
}

TEST(MemSystemConfig, ScaleMustKeepPowerOfTwoSets) {
  for (const unsigned factor : {1u, 2u, 32u, 64u}) {
    EXPECT_TRUE(paper_mem_system().scales_by(factor)) << factor;
    EXPECT_NO_THROW(paper_mem_system().scaled(factor)) << factor;
  }
  // 3 and 48 leave fractional capacities; 128 leaves L1 half a set.
  for (const unsigned factor : {0u, 3u, 48u, 128u}) {
    EXPECT_FALSE(paper_mem_system().scales_by(factor)) << factor;
    EXPECT_THROW(paper_mem_system().scaled(factor), std::logic_error) << factor;
  }
}

TEST(MemSystemConfig, LatencyLookup) {
  const MemSystemConfig c;
  EXPECT_EQ(c.latency(CacheLevel::kL1), c.lat_l1);
  EXPECT_EQ(c.latency(CacheLevel::kL2), c.lat_l2);
  EXPECT_EQ(c.latency(CacheLevel::kLlc), c.lat_llc);
  EXPECT_EQ(c.latency(CacheLevel::kMemLocal), c.lat_mem_local);
  EXPECT_EQ(c.latency(CacheLevel::kMemRemote), c.lat_mem_remote);
}

TEST(Topology, CoreToSocketMapping) {
  const Topology t{2, 4};
  EXPECT_EQ(t.total_cores(), 8);
  EXPECT_EQ(t.socket_of(0), 0);
  EXPECT_EQ(t.socket_of(3), 0);
  EXPECT_EQ(t.socket_of(4), 1);
  EXPECT_EQ(t.socket_of(7), 1);
  EXPECT_EQ(t.first_core(1), 4);
  EXPECT_EQ(t.node_of(5), 1);
}

TEST(MemorySystem, LatencyLadder) {
  MemorySystem m(Topology{1, 2}, small_config());
  // Cold access goes to local memory.
  auto r = m.access(0, 0, false, 0, 0);
  EXPECT_EQ(r.level, CacheLevel::kMemLocal);
  EXPECT_EQ(r.latency, small_config().lat_mem_local);
  EXPECT_TRUE(r.llc_reference);
  EXPECT_TRUE(r.llc_miss);
  // Now hot in L1.
  r = m.access(0, 0, false, 0, 0);
  EXPECT_EQ(r.level, CacheLevel::kL1);
  EXPECT_EQ(r.latency, small_config().lat_l1);
  EXPECT_FALSE(r.llc_reference);
  EXPECT_FALSE(r.llc_miss);
}

TEST(MemorySystem, L2HitAfterL1Eviction) {
  const auto cfg = small_config();
  MemorySystem m(Topology{1, 1}, cfg);
  // L1 has 1 set x 8 ways; touch 9 distinct lines to evict line 0
  // from L1 while it stays in L2.
  for (Address a = 0; a < 9; ++a) m.access(0, a * 64, false, 0, 0);
  const auto r = m.access(0, 0, false, 0, 0);
  EXPECT_EQ(r.level, CacheLevel::kL2);
  EXPECT_EQ(r.latency, cfg.lat_l2);
}

TEST(MemorySystem, LlcHitAfterPrivateEviction) {
  const auto cfg = small_config();
  MemorySystem m(Topology{1, 1}, cfg);
  // Working set larger than L2 (32 lines) but within LLC (256 lines):
  // revisiting line 0 after 40 distinct lines hits the LLC.
  for (Address a = 0; a < 40; ++a) m.access(0, a * 64, false, 0, 0);
  const auto r = m.access(0, 0, false, 0, 0);
  EXPECT_EQ(r.level, CacheLevel::kLlc);
  EXPECT_EQ(r.latency, cfg.lat_llc);
}

TEST(MemorySystem, RemoteNodePaysRemoteLatency) {
  const auto cfg = small_config();
  MemorySystem m(Topology{2, 2}, cfg);
  // Core 0 (node 0) accessing memory homed on node 1.
  const auto r = m.access(0, 0, false, /*home_node=*/1, 0);
  EXPECT_EQ(r.level, CacheLevel::kMemRemote);
  EXPECT_EQ(r.latency, cfg.lat_mem_remote);
  // But an LLC hit is an LLC hit regardless of home node.
  const auto r2 = m.access(0, 0, false, 1, 0);
  EXPECT_EQ(r2.level, CacheLevel::kL1);
}

TEST(MemorySystem, CoresOfOneSocketShareTheLlc) {
  MemorySystem m(Topology{1, 2}, small_config());
  m.access(0, 0, false, 0, 0);  // core 0 loads the line
  // Core 1 misses its private caches but hits the shared LLC.
  const auto r = m.access(1, 0, false, 0, 0);
  EXPECT_EQ(r.level, CacheLevel::kLlc);
}

TEST(MemorySystem, SocketsDoNotShareLlcs) {
  MemorySystem m(Topology{2, 2}, small_config());
  m.access(0, 0, false, 0, 0);  // socket 0's LLC
  // Core 2 is on socket 1: full miss (home node 1 keeps it local).
  const auto r = m.access(2, 0, false, 1, 0);
  EXPECT_EQ(r.level, CacheLevel::kMemLocal);
  EXPECT_TRUE(r.llc_miss);
}

TEST(MemorySystem, ContentionEvictsOtherCoresLines) {
  const auto cfg = small_config();
  MemorySystem m(Topology{1, 2}, cfg);
  m.access(0, 0, false, 0, /*vm=*/0);
  // Core 1 streams far more lines than the LLC holds (256 lines).
  for (Address a = 1; a <= 400; ++a) m.access(1, a * 64, false, 0, 1);
  // Core 0's line was evicted from LLC (and from its private caches
  // it is still present — but the LLC line is gone).
  EXPECT_FALSE(m.llc(0).probe(0));
}

TEST(MemorySystem, InvalidatePrivateLeavesLlc) {
  MemorySystem m(Topology{1, 1}, small_config());
  m.access(0, 0, false, 0, 0);
  m.invalidate_private(0);
  const auto r = m.access(0, 0, false, 0, 0);
  EXPECT_EQ(r.level, CacheLevel::kLlc);
}

TEST(MemorySystem, InvalidateAllGoesCold) {
  MemorySystem m(Topology{1, 1}, small_config());
  m.access(0, 0, false, 0, 0);
  m.invalidate_all();
  const auto r = m.access(0, 0, false, 0, 0);
  EXPECT_EQ(r.level, CacheLevel::kMemLocal);
}

TEST(MemorySystem, LevelNames) {
  EXPECT_STREQ(cache_level_name(CacheLevel::kL1), "L1");
  EXPECT_STREQ(cache_level_name(CacheLevel::kMemRemote), "mem(remote)");
}

TEST(MemorySystem, DegenerateTopologyRejected) {
  EXPECT_THROW(MemorySystem(Topology{0, 4}, small_config()), std::logic_error);
}

TEST(MemorySystem, MixedLineSizesRejected) {
  // One line number indexes every level, so the levels share a line.
  MemSystemConfig cfg = small_config();
  cfg.l2 = CacheGeometry{4096, 8, 128};  // 4 sets of 128 B lines
  EXPECT_THROW(MemorySystem(Topology{1, 1}, cfg), std::logic_error);
}

TEST(MemorySystem, NonPowerOfTwoLevelRejected) {
  MemSystemConfig cfg = small_config();
  cfg.llc = CacheGeometry{96 * 16 * 64, 16, 64};  // 96 sets
  EXPECT_THROW(MemorySystem(Topology{1, 1}, cfg), std::logic_error);
}

// --- access contexts ------------------------------------------------------

TEST(AccessBatch, ContextReusableAcrossBursts) {
  MemorySystem m(Topology{1, 2}, small_config(), 3);
  auto ctx = m.context(0, 0, 0);
  for (int burst = 0; burst < 4; ++burst) {
    for (Address line = 0; line < 64; ++line) ctx.access(line * 64, false);
  }
  EXPECT_EQ(m.l1(0).stats().accesses, 256u);
}

TEST(AccessBatch, PrivateCachesSkipAttribution) {
  // Private L1/L2 run attribution-free; the shared LLC attributes.
  MemorySystem m(Topology{1, 2}, small_config(), 3);
  m.observe_ground_truth();
  m.access(0, 0, false, 0, /*vm=*/1);
  m.observe_ground_truth();  // a second consumer attaching: no-op
  EXPECT_FALSE(m.l1(0).tracks_attribution());
  EXPECT_FALSE(m.l2(0).tracks_attribution());
  EXPECT_TRUE(m.llc(0).tracks_attribution());
  EXPECT_FALSE(m.l1(0).observes_ground_truth());
  EXPECT_TRUE(m.llc(0).observes_ground_truth());
  EXPECT_EQ(m.llc(0).stats_for_vm(1).accesses, 1u);
  EXPECT_EQ(m.llc(0).footprint_lines(1), 1u);
  EXPECT_EQ(m.l1(0).footprint_lines(1), 0u);
}

TEST(GroundTruthObservation, OffUntilObservedOwnersAlwaysOn) {
  MemorySystem m(Topology{2, 1}, small_config(), 3);
  m.reserve_vm_slots(2);
  m.access(0, 0, false, 0, /*vm=*/0);
  m.access(1, 64, false, 1, /*vm=*/1);
  for (int socket = 0; socket < 2; ++socket) {
    EXPECT_FALSE(m.llc(socket).observes_ground_truth());
    EXPECT_THROW(m.llc(socket).stats_for_vm(socket), std::logic_error);
    EXPECT_THROW(m.llc(socket).pollution_for_vm(socket), std::logic_error);
    EXPECT_EQ(m.llc(socket).footprint_lines(socket), 1u);
  }
  EXPECT_EQ(m.release_vm_lines(1), 1u);
}

TEST(GroundTruthObservation, ObservingAfterAnyLlcAccessThrows) {
  // Only socket 1's LLC has been touched: observing must still fail,
  // and leave socket 0's untouched LLC unobserved too.
  MemorySystem m(Topology{2, 1}, small_config(), 3);
  m.access(1, 64, false, 1, /*vm=*/0);
  EXPECT_THROW(m.observe_ground_truth(), std::logic_error);
  EXPECT_FALSE(m.llc(0).observes_ground_truth());
  EXPECT_THROW(m.llc(1).stats_for_vm(0), std::logic_error);
}

TEST(AccessBatch, ReserveVmSlotsPreSizesAttribution) {
  MemorySystem m(Topology{1, 1}, small_config(), 3);
  m.observe_ground_truth();
  m.reserve_vm_slots(128);
  // A VM id beyond the default hint works without surprises.
  m.access(0, 0, false, 0, /*vm=*/100);
  EXPECT_EQ(m.llc(0).stats_for_vm(100).accesses, 1u);
  EXPECT_EQ(m.llc(0).footprint_lines(100), 1u);
}

}  // namespace
}  // namespace kyoto::cache
