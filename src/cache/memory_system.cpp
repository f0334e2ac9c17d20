#include "cache/memory_system.hpp"

#include <string>

#include "common/check.hpp"

namespace kyoto::cache {

MemorySystem::MemorySystem(const Topology& topology, const MemSystemConfig& config,
                           std::uint64_t seed)
    : topology_(topology), config_(config) {
  KYOTO_CHECK_MSG(topology.sockets >= 1 && topology.cores_per_socket >= 1,
                  "degenerate topology");
  KYOTO_CHECK_MSG(config.l1.line == config.l2.line && config.l2.line == config.llc.line,
                  "L1, L2 and LLC must share one line size (got "
                      << config.l1.line << ", " << config.l2.line << ", " << config.llc.line
                      << " B)");
  const int cores = topology.total_cores();
  // Private caches run attribution-free and keep no per-VM slots: the
  // PMU counts LLC events from each access's AccessResult, and
  // pollution accounting is an LLC concept, so nothing ever reads
  // owners, footprints or per-VM stats of an L1/L2.  The LLCs track
  // owners and footprints; their ground-truth oracle stays off until
  // observe_ground_truth().
  l1_.reserve(static_cast<std::size_t>(cores));
  l2_.reserve(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) {
    l1_.push_back(std::make_unique<SetAssocCache>("L1#" + std::to_string(c), config.l1,
                                                  ReplacementKind::kLru,
                                                  seed * 1000003ull + static_cast<std::uint64_t>(c),
                                                  /*track_attribution=*/false));
    l2_.push_back(std::make_unique<SetAssocCache>("L2#" + std::to_string(c), config.l2,
                                                  ReplacementKind::kLru,
                                                  seed * 2000003ull + static_cast<std::uint64_t>(c),
                                                  /*track_attribution=*/false));
  }
  llc_.reserve(static_cast<std::size_t>(topology.sockets));
  for (int s = 0; s < topology.sockets; ++s) {
    llc_.push_back(std::make_unique<SetAssocCache>("LLC#" + std::to_string(s), config.llc,
                                                   config.llc_replacement,
                                                   seed * 4000037ull + static_cast<std::uint64_t>(s),
                                                   /*track_attribution=*/true));
  }
  prefetches_.assign(static_cast<std::size_t>(cores), {});
  bus_busy_until_.assign(static_cast<std::size_t>(topology.sockets), {});
  bus_queue_cycles_.assign(static_cast<std::size_t>(topology.sockets), {});
}

void MemorySystem::reserve_vm_slots(int vms) {
  // Only the LLCs keep per-VM slots.
  for (auto& c : llc_) c->reserve_vm_slots(vms);
}

void MemorySystem::observe_ground_truth() {
  // All sockets or none: refuse before switching any LLC.
  for (const auto& c : llc_) {
    KYOTO_CHECK_MSG(c->observes_ground_truth() || c->stats().accesses == 0,
                    c->name() << " was accessed before ground truth was observed");
  }
  for (auto& c : llc_) c->observe_ground_truth();
}

void MemorySystem::prefetch_after_miss(int core, Address addr, int vm,
                                       AccessResult& result) {
  // Next-line prefetcher: pull the following `degree` lines into this
  // core's L2 and the socket LLC.  Prefetch fills update recency and
  // can evict — prefetch pollution is real and intentional here, and
  // it is reported back so the PMU counts it (LLC_MISSES includes
  // prefetch-initiated fills on real parts).
  const int socket = topology_.socket_of(core);
  const Requester req{core, vm};
  for (unsigned d = 1; d <= config_.prefetch.degree; ++d) {
    const Address next = addr + static_cast<Address>(d) * config_.l2.line;
    if (l2_[static_cast<std::size_t>(core)]->probe(next)) continue;  // already resident
    ++result.prefetch_llc_references;
    if (!llc_[static_cast<std::size_t>(socket)]->access(next, false, req).hit) {
      ++result.prefetch_llc_misses;
    }
    l2_[static_cast<std::size_t>(core)]->access(next, false, req);
    ++prefetches_[static_cast<std::size_t>(core)].value;
  }
}

Cycles MemorySystem::bus_delay(int socket, std::int64_t now_cycle) {
  // One line transfer occupies the socket's bus for transfer_cycles;
  // a request arriving while the bus is busy queues behind it.
  auto& busy_until = bus_busy_until_[static_cast<std::size_t>(socket)].value;
  const Cycles wait = static_cast<Cycles>(std::max<std::int64_t>(0, busy_until - now_cycle));
  busy_until = std::max<std::int64_t>(busy_until, now_cycle) + config_.bus.transfer_cycles;
  bus_queue_cycles_[static_cast<std::size_t>(socket)].value += wait;
  return wait;
}

void MemorySystem::memory_miss_extras(int socket, const Requester& req, Address addr,
                                      std::int64_t now_cycle, AccessResult& result) {
  if (config_.bus.enabled && now_cycle >= 0) {
    result.bus_queue_delay = bus_delay(socket, now_cycle);
    result.latency += result.bus_queue_delay;
  }
  if (config_.prefetch.enabled) prefetch_after_miss(req.core, addr, req.vm, result);
}

MemorySystem::AccessContext MemorySystem::context(int core, int home_node, int vm) {
  KYOTO_CHECK(core >= 0 && core < topology_.total_cores());
  AccessContext ctx;
  ctx.sys_ = this;
  ctx.l1_ = l1_[static_cast<std::size_t>(core)].get();
  ctx.l2_ = l2_[static_cast<std::size_t>(core)].get();
  ctx.socket_ = topology_.socket_of(core);
  ctx.llc_ = llc_[static_cast<std::size_t>(ctx.socket_)].get();
  ctx.req_ = Requester{core, vm};
  ctx.remote_ = home_node != topology_.node_of(core);
  ctx.miss_extras_ = config_.bus.enabled || config_.prefetch.enabled;
  ctx.line_shift_ = ctx.l1_->line_shift();
  ctx.l1_mask_ = ctx.l1_->set_mask();
  ctx.l2_mask_ = ctx.l2_->set_mask();
  ctx.llc_mask_ = ctx.llc_->set_mask();
  ctx.lat_l1_ = config_.lat_l1;
  ctx.lat_l2_ = config_.lat_l2;
  ctx.lat_llc_ = config_.lat_llc;
  ctx.lat_mem_local_ = config_.lat_mem_local;
  ctx.lat_mem_remote_ = config_.lat_mem_remote;
  return ctx;
}

AccessResult MemorySystem::access(int core, Address addr, bool write, int home_node, int vm,
                                  std::int64_t now_cycle) {
  KYOTO_DCHECK(core >= 0 && core < topology_.total_cores());
  return context(core, home_node, vm).access(addr, write, now_cycle);
}

std::uint64_t MemorySystem::prefetches_issued(int core) const {
  KYOTO_CHECK(core >= 0 && static_cast<std::size_t>(core) < prefetches_.size());
  return prefetches_[static_cast<std::size_t>(core)].value;
}

Cycles MemorySystem::bus_queue_cycles(int socket) const {
  KYOTO_CHECK(socket >= 0 && static_cast<std::size_t>(socket) < bus_queue_cycles_.size());
  return bus_queue_cycles_[static_cast<std::size_t>(socket)].value;
}

std::uint64_t MemorySystem::release_vm_lines(int vm) {
  std::uint64_t dropped = 0;
  for (auto& c : llc_) dropped += c->release_vm(vm);
  return dropped;
}

void MemorySystem::invalidate_private(int core) {
  KYOTO_CHECK(core >= 0 && core < topology_.total_cores());
  l1_[static_cast<std::size_t>(core)]->invalidate_all();
  l2_[static_cast<std::size_t>(core)]->invalidate_all();
}

void MemorySystem::invalidate_all() {
  for (auto& c : l1_) c->invalidate_all();
  for (auto& c : l2_) c->invalidate_all();
  for (auto& c : llc_) c->invalidate_all();
}

SetAssocCache& MemorySystem::llc(int socket) {
  KYOTO_CHECK(socket >= 0 && socket < topology_.sockets);
  return *llc_[static_cast<std::size_t>(socket)];
}

const SetAssocCache& MemorySystem::llc(int socket) const {
  KYOTO_CHECK(socket >= 0 && socket < topology_.sockets);
  return *llc_[static_cast<std::size_t>(socket)];
}

}  // namespace kyoto::cache
