// Serial memory walk: the oracle for MemorySystem's access walk.
//
// MemorySystem::AccessContext probes every level before it fills any
// (the multi-level miss walk).  This class rebuilds the same hierarchy
// from a MemSystemConfig — the same caches with the same names, seeds
// and attribution modes, L1/L2 LRU — and walks it the
// plainest way the public per-cache API allows: access() on L1, then
// L2, then the LLC, and on a miss to memory the bus-queuing and
// next-line-prefetch extras.  Suites replay one op stream through both
// and compare every observable exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "cache/memory_system.hpp"
#include "cache/set_assoc_cache.hpp"
#include "cache/topology.hpp"
#include "common/units.hpp"

namespace kyoto::test {

class SerialWalk {
 public:
  SerialWalk(const cache::Topology& topology, const cache::MemSystemConfig& config,
             std::uint64_t seed = 1)
      : topology_(topology), config_(config) {
    const int cores = topology.total_cores();
    for (int c = 0; c < cores; ++c) {
      l1_.push_back(std::make_unique<cache::SetAssocCache>(
          "L1#" + std::to_string(c), config.l1, cache::ReplacementKind::kLru,
          seed * 1000003ull + static_cast<std::uint64_t>(c),
          /*track_attribution=*/false));
      l2_.push_back(std::make_unique<cache::SetAssocCache>(
          "L2#" + std::to_string(c), config.l2, cache::ReplacementKind::kLru,
          seed * 2000003ull + static_cast<std::uint64_t>(c),
          /*track_attribution=*/false));
    }
    for (int s = 0; s < topology.sockets; ++s) {
      llc_.push_back(std::make_unique<cache::SetAssocCache>(
          "LLC#" + std::to_string(s), config.llc, config.llc_replacement,
          seed * 4000037ull + static_cast<std::uint64_t>(s),
          /*track_attribution=*/true));
    }
    prefetches_.assign(static_cast<std::size_t>(cores), 0);
    bus_busy_until_.assign(static_cast<std::size_t>(topology.sockets), 0);
    bus_queue_cycles_.assign(static_cast<std::size_t>(topology.sockets), 0);
  }

  cache::AccessResult access(int core, Address addr, bool write, int home_node, int vm,
                             std::int64_t now_cycle = -1) {
    const cache::Requester req{core, vm};
    const int socket = topology_.socket_of(core);
    cache::AccessResult result;
    if (l1(core).access(addr, write, req).hit) {
      result.level = cache::CacheLevel::kL1;
      result.latency = config_.lat_l1;
      return result;
    }
    if (l2(core).access(addr, write, req).hit) {
      result.level = cache::CacheLevel::kL2;
      result.latency = config_.lat_l2;
      return result;
    }
    result.llc_reference = true;
    if (llc(socket).access(addr, write, req).hit) {
      result.level = cache::CacheLevel::kLlc;
      result.latency = config_.lat_llc;
      return result;
    }
    result.llc_miss = true;
    const bool remote = home_node != topology_.node_of(core);
    result.level = remote ? cache::CacheLevel::kMemRemote : cache::CacheLevel::kMemLocal;
    result.latency = remote ? config_.lat_mem_remote : config_.lat_mem_local;
    if (config_.bus.enabled && now_cycle >= 0) {
      // One line transfer occupies the socket's bus; a request arriving
      // while it is busy queues behind it.
      std::int64_t& busy_until = bus_busy_until_[static_cast<std::size_t>(socket)];
      const Cycles wait = static_cast<Cycles>(std::max<std::int64_t>(0, busy_until - now_cycle));
      busy_until = std::max<std::int64_t>(busy_until, now_cycle) + config_.bus.transfer_cycles;
      bus_queue_cycles_[static_cast<std::size_t>(socket)] += wait;
      result.bus_queue_delay = wait;
      result.latency += wait;
    }
    if (config_.prefetch.enabled) {
      // Next-line prefetch into this core's L2 and the socket LLC.
      for (unsigned d = 1; d <= config_.prefetch.degree; ++d) {
        const Address next = addr + static_cast<Address>(d) * config_.l2.line;
        if (l2(core).probe(next)) continue;
        ++result.prefetch_llc_references;
        if (!llc(socket).access(next, false, req).hit) ++result.prefetch_llc_misses;
        l2(core).access(next, false, req);
        ++prefetches_[static_cast<std::size_t>(core)];
      }
    }
    return result;
  }

  void reserve_vm_slots(int vms) {
    for (auto& c : llc_) c->reserve_vm_slots(vms);
  }

  void observe_ground_truth() {
    for (auto& c : llc_) c->observe_ground_truth();
  }

  void invalidate_private(int core) {
    l1(core).invalidate_all();
    l2(core).invalidate_all();
  }

  cache::SetAssocCache& l1(int core) { return *l1_[static_cast<std::size_t>(core)]; }
  cache::SetAssocCache& l2(int core) { return *l2_[static_cast<std::size_t>(core)]; }
  cache::SetAssocCache& llc(int socket) { return *llc_[static_cast<std::size_t>(socket)]; }
  std::uint64_t prefetches_issued(int core) const {
    return prefetches_[static_cast<std::size_t>(core)];
  }
  Cycles bus_queue_cycles(int socket) const {
    return bus_queue_cycles_[static_cast<std::size_t>(socket)];
  }

 private:
  cache::Topology topology_;
  cache::MemSystemConfig config_;
  std::vector<std::unique_ptr<cache::SetAssocCache>> l1_;   // per core
  std::vector<std::unique_ptr<cache::SetAssocCache>> l2_;   // per core
  std::vector<std::unique_ptr<cache::SetAssocCache>> llc_;  // per socket
  std::vector<std::uint64_t> prefetches_;                   // per core
  std::vector<std::int64_t> bus_busy_until_;                // per socket, wall cycle
  std::vector<Cycles> bus_queue_cycles_;                    // per socket
};

}  // namespace kyoto::test
