// Frozen pre-SoA cache engine (see reference_cache.hpp).  Verbatim
// copy of the original SetAssocCache implementation; do not modify.
#include "support/reference_cache.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace kyoto::cache {

ReferenceSetAssocCache::ReferenceSetAssocCache(std::string name, CacheGeometry geometry,
                                               ReplacementKind replacement,
                                               std::uint64_t seed)
    : name_(std::move(name)),
      geometry_(geometry),
      replacement_(replacement),
      sets_(geometry.sets()),
      lines_(static_cast<std::size_t>(sets_) * geometry.ways),
      rng_(seed) {
  KYOTO_CHECK_MSG(geometry_.ways >= 1, "cache must have at least one way");
}

ReferenceSetAssocCache::Line* ReferenceSetAssocCache::find(unsigned set, Address tag) {
  Line* base = &lines_[static_cast<std::size_t>(set) * geometry_.ways];
  for (unsigned w = 0; w < geometry_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return &base[w];
  }
  return nullptr;
}

const ReferenceSetAssocCache::Line* ReferenceSetAssocCache::find(unsigned set,
                                                                 Address tag) const {
  const Line* base = &lines_[static_cast<std::size_t>(set) * geometry_.ways];
  for (unsigned w = 0; w < geometry_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return &base[w];
  }
  return nullptr;
}

bool ReferenceSetAssocCache::set_uses_bip(unsigned set) const {
  if (replacement_ == ReplacementKind::kBip) return true;
  if (replacement_ != ReplacementKind::kDip) return false;
  const unsigned pos = set % kDuelModulus;
  if (pos == 0) return false;  // LRU leader
  if (pos == 1) return true;   // BIP leader
  return psel_ > kPselMax / 2;
}

void ReferenceSetAssocCache::touch(unsigned set, unsigned way) {
  Line* base = &lines_[static_cast<std::size_t>(set) * geometry_.ways];
  if (replacement_ == ReplacementKind::kPlru) {
    base[way].stamp = 1;
    bool all_set = true;
    for (unsigned w = 0; w < geometry_.ways; ++w) {
      if (base[w].valid && base[w].stamp == 0) {
        all_set = false;
        break;
      }
    }
    if (all_set) {
      for (unsigned w = 0; w < geometry_.ways; ++w) {
        if (w != way) base[w].stamp = 0;
      }
    }
  } else {
    base[way].stamp = ++clock_;
  }
}

unsigned ReferenceSetAssocCache::pick_victim(unsigned set, unsigned first_way,
                                             unsigned end_way) {
  Line* base = &lines_[static_cast<std::size_t>(set) * geometry_.ways];
  for (unsigned w = first_way; w < end_way; ++w) {
    if (!base[w].valid) return w;
  }
  if (replacement_ == ReplacementKind::kRandom) {
    return first_way + static_cast<unsigned>(rng_.below(end_way - first_way));
  }
  unsigned victim = first_way;
  std::uint64_t best = lines_[static_cast<std::size_t>(set) * geometry_.ways + first_way].stamp;
  for (unsigned w = first_way + 1; w < end_way; ++w) {
    if (base[w].stamp < best) {
      best = base[w].stamp;
      victim = w;
    }
  }
  return victim;
}

void ReferenceSetAssocCache::fill(unsigned set, unsigned way, Address tag, bool write,
                                  int vm) {
  Line* line = &lines_[static_cast<std::size_t>(set) * geometry_.ways + way];
  line->tag = tag;
  line->valid = true;
  line->dirty = write;
  line->owner_vm = vm;
  bool insert_mru = true;
  switch (replacement_) {
    case ReplacementKind::kLip:
      insert_mru = false;
      break;
    case ReplacementKind::kBip:
    case ReplacementKind::kDip:
      if (set_uses_bip(set)) insert_mru = rng_.below(32) == 0;
      break;
    default:
      break;
  }
  if (insert_mru) {
    touch(set, way);
  } else {
    line->stamp = 0;
  }
}

LookupResult ReferenceSetAssocCache::access(Address addr, bool write,
                                            const Requester& requester) {
  const unsigned set = set_index(addr);
  const Address tag = tag_of(addr);

  total_.accesses++;
  CacheStats& core_stats = core_slot(requester.core);
  core_stats.accesses++;
  CacheStats* vm_stats = requester.vm >= 0 ? &vm_slot(requester.vm) : nullptr;
  if (vm_stats) vm_stats->accesses++;

  LookupResult result;
  if (Line* line = find(set, tag)) {
    result.hit = true;
    total_.hits++;
    core_stats.hits++;
    if (vm_stats) vm_stats->hits++;
    if (write) line->dirty = true;
    touch(set, static_cast<unsigned>(line - &lines_[static_cast<std::size_t>(set) *
                                                    geometry_.ways]));
    return result;
  }

  total_.misses++;
  core_stats.misses++;
  if (vm_stats) vm_stats->misses++;

  if (replacement_ == ReplacementKind::kDip) {
    const unsigned pos = set % kDuelModulus;
    if (pos == 0) psel_ = std::min(psel_ + 1, kPselMax);
    else if (pos == 1) psel_ = std::max(psel_ - 1, 0);
  }

  unsigned first_way = 0;
  unsigned end_way = geometry_.ways;
  if (requester.vm >= 0 && static_cast<std::size_t>(requester.vm) < partitions_.size()) {
    const Partition& p = partitions_[static_cast<std::size_t>(requester.vm)];
    if (p.n_ways > 0) {
      first_way = p.first_way;
      end_way = std::min(geometry_.ways, p.first_way + p.n_ways);
    }
  }

  const unsigned victim = pick_victim(set, first_way, end_way);
  Line& line = lines_[static_cast<std::size_t>(set) * geometry_.ways + victim];
  if (line.valid) {
    result.evicted = line.tag * geometry_.line;
    total_.evictions++;
    core_stats.evictions++;
    if (vm_stats) vm_stats->evictions++;
    if (line.dirty) {
      total_.writebacks++;
      core_stats.writebacks++;
      if (vm_stats) vm_stats->writebacks++;
    }
  }
  fill(set, victim, tag, write, requester.vm);
  return result;
}

bool ReferenceSetAssocCache::probe(Address addr) const {
  return find(set_index(addr), tag_of(addr)) != nullptr;
}

void ReferenceSetAssocCache::invalidate_all() {
  for (auto& line : lines_) line = Line{};
}

void ReferenceSetAssocCache::invalidate(Address addr) {
  if (Line* line = find(set_index(addr), tag_of(addr))) *line = Line{};
}

double ReferenceSetAssocCache::occupancy() const {
  std::uint64_t valid = 0;
  for (const auto& line : lines_) valid += line.valid ? 1 : 0;
  return static_cast<double>(valid) / static_cast<double>(lines_.size());
}

std::uint64_t ReferenceSetAssocCache::footprint_lines(int vm) const {
  std::uint64_t count = 0;
  for (const auto& line : lines_) {
    if (line.valid && line.owner_vm == vm) ++count;
  }
  return count;
}

void ReferenceSetAssocCache::set_partition(int vm, unsigned first_way, unsigned n_ways) {
  KYOTO_CHECK_MSG(vm >= 0, "partition requires a concrete vm id");
  KYOTO_CHECK_MSG(first_way + n_ways <= geometry_.ways,
                  "partition [" << first_way << ", " << first_way + n_ways
                                << ") exceeds " << geometry_.ways << " ways");
  KYOTO_CHECK_MSG(n_ways >= 1, "partition must contain at least one way");
  if (static_cast<std::size_t>(vm) >= partitions_.size()) {
    partitions_.resize(static_cast<std::size_t>(vm) + 1);
  }
  partitions_[static_cast<std::size_t>(vm)] = Partition{first_way, n_ways};
}

void ReferenceSetAssocCache::clear_partitions() { partitions_.clear(); }

CacheStats& ReferenceSetAssocCache::core_slot(int core) {
  KYOTO_DCHECK(core >= 0);
  if (static_cast<std::size_t>(core) >= per_core_.size()) {
    per_core_.resize(static_cast<std::size_t>(core) + 1);
  }
  return per_core_[static_cast<std::size_t>(core)];
}

CacheStats& ReferenceSetAssocCache::vm_slot(int vm) {
  KYOTO_DCHECK(vm >= 0);
  if (static_cast<std::size_t>(vm) >= per_vm_.size()) {
    per_vm_.resize(static_cast<std::size_t>(vm) + 1);
  }
  return per_vm_[static_cast<std::size_t>(vm)];
}

const CacheStats& ReferenceSetAssocCache::stats_for_core(int core) const {
  static const CacheStats kEmpty{};
  if (core < 0 || static_cast<std::size_t>(core) >= per_core_.size()) return kEmpty;
  return per_core_[static_cast<std::size_t>(core)];
}

const CacheStats& ReferenceSetAssocCache::stats_for_vm(int vm) const {
  static const CacheStats kEmpty{};
  if (vm < 0 || static_cast<std::size_t>(vm) >= per_vm_.size()) return kEmpty;
  return per_vm_[static_cast<std::size_t>(vm)];
}

void ReferenceSetAssocCache::clear_stats() {
  total_.clear();
  for (auto& s : per_core_) s.clear();
  for (auto& s : per_vm_) s.clear();
}

}  // namespace kyoto::cache
