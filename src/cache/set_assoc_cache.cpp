#include "cache/set_assoc_cache.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace kyoto::cache {

const char* replacement_name(ReplacementKind kind) {
  switch (kind) {
    case ReplacementKind::kLru: return "LRU";
    case ReplacementKind::kPlru: return "PLRU";
    case ReplacementKind::kRandom: return "random";
    case ReplacementKind::kLip: return "LIP";
    case ReplacementKind::kBip: return "BIP";
    case ReplacementKind::kDip: return "DIP";
  }
  return "?";
}

const char* cache_level_name(CacheLevel level) {
  switch (level) {
    case CacheLevel::kL1: return "L1";
    case CacheLevel::kL2: return "L2";
    case CacheLevel::kLlc: return "LLC";
    case CacheLevel::kMemLocal: return "mem(local)";
    case CacheLevel::kMemRemote: return "mem(remote)";
  }
  return "?";
}

SetAssocCache::SetAssocCache(std::string name, CacheGeometry geometry,
                             ReplacementKind replacement, std::uint64_t seed,
                             bool track_attribution)
    : name_(std::move(name)),
      geometry_(geometry),
      replacement_(replacement),
      sets_(geometry.sets()),
      ways_(geometry.ways),
      attribution_(track_attribution ? Attribution::kOwners : Attribution::kNone),
      rng_(seed) {
  KYOTO_CHECK_MSG(geometry_.ways <= 64,
                  "associativity above 64 not supported (per-set bitmask words)");
  KYOTO_CHECK_MSG(std::has_single_bit(static_cast<std::uint64_t>(geometry_.line)) &&
                      std::has_single_bit(sets_),
                  "cache " << name_ << ": set count (" << sets_ << ") and line size ("
                           << geometry_.line << " B) must be powers of two");
  line_shift_ = static_cast<unsigned>(
      std::countr_zero(static_cast<std::uint64_t>(geometry_.line)));
  set_mask_ = sets_ - 1;
  fp_shift_ = static_cast<unsigned>(std::countr_zero(sets_));
  const std::size_t lines = static_cast<std::size_t>(sets_) * ways_;
  fp_stride_ = (ways_ + 15) / 16 * 16;
  fp_.resize((static_cast<std::size_t>(sets_) * fp_stride_ + 63) / 64);
  tags_.assign(lines, 0);
  stamps_.assign(lines, 0);
  if (track_attribution) owners_.assign(lines, -1);
  valid_.assign(sets_, 0);
  dirty_.assign(sets_, 0);

  fast_fill_ = replacement_ == ReplacementKind::kLru;  // && no partitions yet
  nibble_lru_ = replacement_ == ReplacementKind::kLru && ways_ <= 16;
  order5_lru_ = replacement_ == ReplacementKind::kLru && ways_ > 16 && ways_ <= 24;
  if (nibble_lru_) {
    lru_order_.resize(sets_);
    reset_lru_order();
  }
  if (order5_lru_) {
    lru_order5_.resize(static_cast<std::size_t>(sets_) * 2);
    reset_lru_order5();
  }
}

void SetAssocCache::reserve_vm_slots(int vms) {
  if (attribution_ == Attribution::kNone || vms <= 0) return;
  if (static_cast<std::size_t>(vms) > vm_footprint_.size()) grow_vm_slots(vms - 1);
}

void SetAssocCache::observe_ground_truth() {
  KYOTO_CHECK_MSG(attribution_ != Attribution::kNone,
                  "cache " << name_ << " keeps no attribution to observe");
  if (attribution_ == Attribution::kOracle) return;
  KYOTO_CHECK_MSG(total_.accesses == 0 && valid_lines_ == 0,
                  "cache " << name_
                           << ": ground truth must be observed before the first access");
  attribution_ = Attribution::kOracle;
  per_vm_.resize(vm_footprint_.size());
  vm_pollution_.resize(vm_footprint_.size());
}

bool SetAssocCache::set_uses_bip(unsigned set) const {
  if (replacement_ == ReplacementKind::kBip) return true;
  if (replacement_ != ReplacementKind::kDip) return false;
  // Set dueling: set 0 mod 32 leads LRU, set 1 mod 32 leads BIP,
  // followers take whichever family currently misses less (psel).
  const unsigned pos = set % kDuelModulus;
  if (pos == 0) return false;  // LRU leader
  if (pos == 1) return true;   // BIP leader
  return psel_ > kPselMax / 2;
}

void SetAssocCache::plru_touch(unsigned set, unsigned way) {
  // Bit-PLRU: set the MRU bit; when every valid way is marked, clear
  // all others.
  std::uint64_t* stamps = &stamps_[line_index(set, 0)];
  stamps[way] = 1;
  const std::uint64_t valid = valid_[set];
  bool all_set = true;
  for (unsigned w = 0; w < ways_; ++w) {
    if (((valid >> w) & 1u) && stamps[w] == 0) {
      all_set = false;
      break;
    }
  }
  if (all_set) {
    for (unsigned w = 0; w < ways_; ++w) {
      if (w != way) stamps[w] = 0;
    }
  }
}

unsigned SetAssocCache::pick_victim(unsigned set, unsigned first_way, unsigned end_way) {
  // Prefer the lowest-index invalid way (matches the old linear scan).
  const std::uint64_t range_mask =
      (end_way == 64 ? ~0ull : (1ull << end_way) - 1) & ~((1ull << first_way) - 1);
  const std::uint64_t invalid = ~valid_[set] & range_mask;
  if (invalid != 0) return static_cast<unsigned>(std::countr_zero(invalid));

  if (replacement_ == ReplacementKind::kRandom) {
    return first_way + static_cast<unsigned>(rng_.below(end_way - first_way));
  }
  // LRU-family and PLRU: smallest stamp wins (for PLRU the stamp is
  // the MRU bit, so any 0-bit way is a candidate; ties resolved by
  // position which matches hardware's fixed scan order).  The strict
  // `<` keeps the lowest index on ties, exactly like the old scan;
  // conditional selects avoid data-dependent branch mispredicts.
  const std::uint64_t* stamps = &stamps_[line_index(set, 0)];
  if (first_way == 0 && end_way == ways_ && ways_ >= 8) {
    // Unpartitioned set (the overwhelmingly common case): min-reduce
    // in four independent lanes to break the compare-select chain.
    // Lane j covers ways {j, j+4, j+8, ...} in ascending order, so
    // the strict `<` keeps each lane's lowest index on ties; the
    // lexicographic merges keep the globally lowest.
    unsigned v0 = 0, v1 = 1, v2 = 2, v3 = 3;
    std::uint64_t b0 = stamps[0], b1 = stamps[1], b2 = stamps[2], b3 = stamps[3];
    unsigned w = 4;
    for (; w + 4 <= ways_; w += 4) {
      bool lt;
      lt = stamps[w] < b0;     v0 = lt ? w : v0;     b0 = lt ? stamps[w] : b0;
      lt = stamps[w + 1] < b1; v1 = lt ? w + 1 : v1; b1 = lt ? stamps[w + 1] : b1;
      lt = stamps[w + 2] < b2; v2 = lt ? w + 2 : v2; b2 = lt ? stamps[w + 2] : b2;
      lt = stamps[w + 3] < b3; v3 = lt ? w + 3 : v3; b3 = lt ? stamps[w + 3] : b3;
    }
    for (; w < ways_; ++w) {
      // Tail ways have the highest indices, so a strict `<` against
      // lane 0 preserves lowest-index-on-tie.
      const bool lt = stamps[w] < b0;
      v0 = lt ? w : v0;
      b0 = lt ? stamps[w] : b0;
    }
    bool take;
    take = b1 < b0 || (b1 == b0 && v1 < v0);
    v0 = take ? v1 : v0;
    b0 = take ? b1 : b0;
    take = b3 < b2 || (b3 == b2 && v3 < v2);
    v2 = take ? v3 : v2;
    b2 = take ? b3 : b2;
    take = b2 < b0 || (b2 == b0 && v2 < v0);
    return take ? v2 : v0;
  }
  unsigned victim = first_way;
  std::uint64_t best = stamps[first_way];
  for (unsigned w = first_way + 1; w < end_way; ++w) {
    const bool lower = stamps[w] < best;
    victim = lower ? w : victim;
    best = lower ? stamps[w] : best;
  }
  return victim;
}

SetAssocCache::MissInfo SetAssocCache::miss_fill(unsigned set, Address tag, bool write,
                                                 const Requester& requester) {
  // Six-way dispatch over the compile-time-pruned fill bodies (see
  // miss_fill_impl in the header).
  switch (attribution_) {
    case Attribution::kNone:
      return fast_fill_ ? miss_fill_impl<true, Attribution::kNone>(set, tag, write, requester)
                        : miss_fill_impl<false, Attribution::kNone>(set, tag, write, requester);
    case Attribution::kOwners:
      return fast_fill_
                 ? miss_fill_impl<true, Attribution::kOwners>(set, tag, write, requester)
                 : miss_fill_impl<false, Attribution::kOwners>(set, tag, write, requester);
    case Attribution::kOracle:
      break;
  }
  return fast_fill_ ? miss_fill_impl<true, Attribution::kOracle>(set, tag, write, requester)
                    : miss_fill_impl<false, Attribution::kOracle>(set, tag, write, requester);
}

LookupResult SetAssocCache::access(Address addr, bool write, const Requester& requester) {
  const unsigned set = set_index(addr);
  const Address tag = tag_of(addr);
  LookupResult result;
  if (const unsigned way = find(set, tag); way != kNoWay) {
    commit_hit(set, way, write, requester);
    result.hit = true;
    return result;
  }

  ++total_.accesses;
  ++total_.misses;
  const MissInfo info = miss_fill(set, tag, write, requester);
  if (info.evicted) result.evicted = info.evicted_tag * geometry_.line;
  return result;
}

void SetAssocCache::reset_lru_order() {
  // Identity permutation per set (nibble i = way i), matching the
  // all-zero-stamp power-on state: victim order is only consulted for
  // full sets, and a set can only fill up through touches, which
  // rebuild both recency mirrors in lockstep.  Unused high nibbles
  // keep ids >= ways, which never collide with a real way.
  std::fill(lru_order_.begin(), lru_order_.end(), 0xFEDCBA9876543210ull);
}

void SetAssocCache::reset_lru_order5() {
  // Same identity permutation in the 5-bit layout: field at recency
  // position p holds way p, unused fields park the 0x1F sentinel.
  std::uint64_t word0 = 0;
  for (unsigned p = 0; p < 12; ++p) {
    word0 |= static_cast<std::uint64_t>(p < ways_ ? p : 0x1Fu) << (p * 5);
  }
  std::uint64_t word1 = 0;
  for (unsigned p = 12; p < 24; ++p) {
    word1 |= static_cast<std::uint64_t>(p < ways_ ? p : 0x1Fu) << ((p - 12) * 5);
  }
  for (std::size_t i = 0; i + 1 < lru_order5_.size(); i += 2) {
    lru_order5_[i] = word0;
    lru_order5_[i + 1] = word1;
  }
}

void SetAssocCache::invalidate_all() {
  if (nibble_lru_) reset_lru_order();
  if (order5_lru_) reset_lru_order5();
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(stamps_.begin(), stamps_.end(), 0);
  std::fill(owners_.begin(), owners_.end(), -1);
  std::fill(valid_.begin(), valid_.end(), 0);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  valid_lines_ = 0;
  unowned_lines_ = 0;
  std::fill(vm_footprint_.begin(), vm_footprint_.end(), 0);
  // The displaced-line index describes lines relative to the current
  // contents; after a power-on flush every future miss is intrinsic.
  // The pollution *counters* are statistics and survive, like stats().
  displaced_.clear();
}

void SetAssocCache::invalidate(Address addr) {
  const unsigned set = set_index(addr);
  const unsigned way = find(set, tag_of(addr));
  if (way == kNoWay) return;
  const std::size_t idx = line_index(set, way);
  if (attribution_ != Attribution::kNone) {
    const int owner = owners_[idx];
    if (owner < 0) {
      --unowned_lines_;
    } else {
      KYOTO_DCHECK(static_cast<std::size_t>(owner) < vm_footprint_.size());
      --vm_footprint_[static_cast<std::size_t>(owner)];
    }
    owners_[idx] = -1;
  }
  --valid_lines_;
  const std::uint64_t bit = 1ull << way;
  valid_[set] &= ~bit;
  dirty_[set] &= ~bit;
  tags_[idx] = 0;
  stamps_[idx] = 0;
}

std::uint64_t SetAssocCache::release_vm(int vm) {
  if (attribution_ == Attribution::kNone || vm < 0) return 0;
  // Purge the VM's bits from the displaced-line index first: a dead
  // VM can never re-miss, so its entries would only lengthen probes.
  if (attribution_ == Attribution::kOracle && vm < kPollutionVmTracked) {
    displaced_.clear_bits(1ull << vm);
  }
  if (footprint_lines(vm) == 0) return 0;
  // Per-line teardown, exactly invalidate()'s bookkeeping.  The LRU
  // mirrors are deliberately untouched (same contract as invalidate():
  // invalid ways are preferred via the valid mask, and refills re-sync
  // the mirrors through touches before a full-set victim is needed).
  std::uint64_t dropped = 0;
  for (unsigned set = 0; set < sets_; ++set) {
    std::uint64_t mask = valid_[set];
    while (mask != 0) {
      const auto way = static_cast<unsigned>(std::countr_zero(mask));
      mask &= mask - 1;
      const std::size_t idx = line_index(set, way);
      if (owners_[idx] != vm) continue;
      const std::uint64_t bit = 1ull << way;
      valid_[set] &= ~bit;
      dirty_[set] &= ~bit;
      tags_[idx] = 0;
      stamps_[idx] = 0;
      owners_[idx] = -1;
      ++dropped;
    }
  }
  KYOTO_DCHECK(dropped == vm_footprint_[static_cast<std::size_t>(vm)]);
  valid_lines_ -= dropped;
  vm_footprint_[static_cast<std::size_t>(vm)] = 0;
  return dropped;
}

void SetAssocCache::set_partition(int vm, unsigned first_way, unsigned n_ways) {
  KYOTO_CHECK_MSG(vm >= 0, "partition requires a concrete vm id");
  KYOTO_CHECK_MSG(first_way + n_ways <= geometry_.ways,
                  "partition [" << first_way << ", " << first_way + n_ways
                                << ") exceeds " << geometry_.ways << " ways");
  KYOTO_CHECK_MSG(n_ways >= 1, "partition must contain at least one way");
  if (static_cast<std::size_t>(vm) >= partitions_.size()) {
    partitions_.resize(static_cast<std::size_t>(vm) + 1);
  }
  partitions_[static_cast<std::size_t>(vm)] = Partition{first_way, n_ways};
  fast_fill_ = false;
}

void SetAssocCache::clear_partitions() {
  partitions_.clear();
  fast_fill_ = replacement_ == ReplacementKind::kLru;
}

void SetAssocCache::grow_vm_slots(int vm) {
  // Safety net for ids beyond the reserved slots (never taken when
  // the owning MemorySystem reserves slots as VMs are admitted).  The
  // oracle's slots grow in lockstep with the footprints.
  const auto n = static_cast<std::size_t>(vm) + 1;
  vm_footprint_.resize(n, 0);
  if (attribution_ == Attribution::kOracle) {
    per_vm_.resize(n);
    vm_pollution_.resize(n);
  }
}

const VmPollution& SetAssocCache::pollution_for_vm(int vm) const {
  KYOTO_CHECK_MSG(observes_ground_truth(),
                  "cache " << name_ << " does not observe ground truth; pollution unread");
  static const VmPollution kEmpty{};
  if (vm < 0 || static_cast<std::size_t>(vm) >= vm_pollution_.size()) return kEmpty;
  return vm_pollution_[static_cast<std::size_t>(vm)];
}

std::uint64_t SetAssocCache::recount_footprint_lines(int vm) const {
  std::uint64_t count = 0;
  for (unsigned set = 0; set < sets_; ++set) {
    for (unsigned way = 0; way < ways_; ++way) {
      if ((valid_[set] >> way) & 1u) {
        const int owner = owners_.empty() ? -1 : owners_[line_index(set, way)];
        count += owner == vm ? 1 : 0;
      }
    }
  }
  return count;
}

std::uint64_t SetAssocCache::recount_valid_lines() const {
  std::uint64_t count = 0;
  for (unsigned set = 0; set < sets_; ++set) {
    count += static_cast<std::uint64_t>(std::popcount(valid_[set]));
  }
  return count;
}

const CacheStats& SetAssocCache::stats_for_vm(int vm) const {
  KYOTO_CHECK_MSG(observes_ground_truth(),
                  "cache " << name_ << " does not observe ground truth; per-VM stats unread");
  static const CacheStats kEmpty{};
  if (vm < 0 || static_cast<std::size_t>(vm) >= per_vm_.size()) return kEmpty;
  return per_vm_[static_cast<std::size_t>(vm)];
}

void SetAssocCache::clear_stats() {
  total_.clear();
  for (auto& s : per_vm_) s.clear();
}

}  // namespace kyoto::cache
