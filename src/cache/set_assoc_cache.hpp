// A set-associative cache with pluggable replacement and optional
// way-partitioning.
//
// This single class models every level of the hierarchy.  The shared
// LLC additionally records each line's owning VM (footprints, VM
// release and the UCP-style [27] way-partitioning ablation) and, only
// while ground truth is observed, the exact pollution oracle.
//
// Hot-path design.  Millions of simulated accesses per figure funnel
// through this class, so the engine is built around five ideas:
//
//  * structure-of-arrays: line metadata lives in parallel arrays
//    (tags / stamps / owners, row-major by set) plus one valid and
//    one dirty bitmask word per set, so a probe touches contiguous
//    words instead of `ways` 32-byte structs;
//  * fingerprint probes: each set also has a row of one-byte tag
//    fingerprints padded to 16/32/48/64 bytes.  A probe compares the
//    row with SSE2 pcmpeqb/pmovmskb, masks the candidates with the
//    valid word and confirms each with its full tag — one or two
//    vector compares instead of `ways` 64-bit ones.  (A 4 x u64
//    vector compare looks equivalent but needs SSE4.1 pcmpeqq; at the
//    baseline x86-64 ISA GCC -O2 scalarizes it into per-way
//    cmp/sete/neg/movq/punpck steps, about 250 executed instructions
//    for a 20-way set against about 20 here.)  Only the fill writes a
//    fingerprint; invalid ways' stale bytes are screened by the valid
//    mask, so invalidation never touches the row;
//  * branch-free victim selection: conditional-move min-reduction
//    and O(1) recency-order words, so random victim positions do not
//    train-wreck the host branch predictor;
//  * split probe/commit: the memory system's walk probes a set with
//    `probe_way` and completes the hit or miss with the inline
//    `commit_*` calls, all in the header; only `access` (the
//    per-address entry of the prefetcher and the tests) materializes
//    the full LookupResult with the evicted address;
//  * O(1) observability: footprint_lines/occupancy are answered from
//    counters maintained on fill/evict/invalidate, not O(lines)
//    scans, so monitors can poll them per tick per VM.
//
// Geometry: set count and line size must be powers of two, so a set
// index and tag are one shift and one mask (the constructor rejects
// anything else).  Every machine the simulator builds is the paper's
// Table 1 scaled by a power of two.
//
// Attribution is paid only where it is read:
//
//  * private caches (L1/L2, `track_attribution = false`) keep totals
//    only — no owners, no per-VM slots: hardware PMCs count LLC
//    events (from the walk's AccessResult, not from cache counters)
//    and pollution accounting is an LLC concept;
//  * an LLC always keeps line owners and per-VM footprints
//    (release_vm and the partitioning ablation need them);
//  * an LLC maintains the ground-truth oracle — per-VM CacheStats,
//    VmPollution counters and the displaced-line index
//    (cache/displaced_index.hpp, touched only on the miss path) — only
//    after observe_ground_truth(), which must precede its first
//    access so the counts are exact from power-on.  Reading them from
//    an LLC that is not observing throws.
//
// The pre-overhaul engine is preserved verbatim in
// tests/support/reference_cache.hpp as a behavioral oracle; golden
// tests assert both produce identical hit/miss/eviction sequences for
// every replacement policy.
#pragma once

#include <emmintrin.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "cache/displaced_index.hpp"
#include "cache/stats.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace kyoto::cache {

/// Identifies who performed an access, for attribution and partitioning.
struct Requester {
  int core = 0;  // physical core issuing the access
  int vm = -1;   // owning VM, or -1 when unknown (ownership, partitioning, ground truth)
};

/// Ground-truth pollution events for one VM, maintained exactly by the
/// simulated cache on its (already out-of-line) miss/eviction path.
/// These are the quantities the paper's monitors can only *estimate*
/// from PMCs; the simulator counts them by construction:
///
///  * cross_evictions_inflicted — valid lines owned by OTHER VMs that
///    this VM's fills displaced (the act of polluting);
///  * cross_evictions_suffered — this VM's valid lines displaced by
///    another requester (being polluted);
///  * contention_misses — misses on lines this VM held until another
///    requester displaced them (the re-miss a cross-eviction causes).
///    `misses - contention_misses` is therefore the VM's *intrinsic*
///    miss count: what it would (to first order) have missed with the
///    LLC to itself.
///
/// Only maintained by an LLC that observes ground truth
/// (SetAssocCache::observe_ground_truth); contention-miss
/// classification covers vm ids < kPollutionVmTracked (the two
/// eviction counters are exact for every id).
struct VmPollution {
  std::uint64_t cross_evictions_inflicted = 0;
  std::uint64_t cross_evictions_suffered = 0;
  std::uint64_t contention_misses = 0;
};

/// Result of one cache lookup-with-fill.
struct LookupResult {
  bool hit = false;
  /// Line displaced by the fill (valid only when a miss evicted one).
  std::optional<Address> evicted;
};

class SetAssocCache {
 public:
  /// `name` labels the cache in logs ("L1#3", "LLC#0"); `seed` drives
  /// random/bimodal replacement decisions deterministically.  With
  /// `track_attribution` false the cache keeps only aggregate stats
  /// and no per-VM slots: footprint_lines reports 0 and it can never
  /// observe ground truth (private-cache mode; the shared LLC passes
  /// true).
  SetAssocCache(std::string name, CacheGeometry geometry, ReplacementKind replacement,
                std::uint64_t seed = 1, bool track_attribution = true);

  /// Looks up the line containing `addr`; on miss, fills it (evicting
  /// a victim if the set is full).  `write` marks the line dirty.
  LookupResult access(Address addr, bool write, const Requester& requester);

  // --- probe/commit split ----------------------------------------------
  // The memory system's walk (AccessContext in memory_system.hpp)
  // probes every level with precomputed set indices before performing
  // any fill, so a lookup is exposed as a pure probe plus the commit
  // that completes it.  probe_way followed by commit_hit or a
  // commit_miss_* is exactly access(): the walk reorders work *across*
  // caches, never within one (golden + random-oracle suites pin it).

  /// Sentinel returned by probe_way when the tag is not resident.
  static constexpr unsigned kWayMiss = ~0u;

  /// Pure lookup: way holding (set, tag) or kWayMiss.  No state
  /// change, no statistics.
  unsigned probe_way(unsigned set, Address tag) const { return find(set, tag); }

  /// One-byte probe fingerprint of a tag (a line number): the tag
  /// bits just above the set index, so up to 256 consecutive lines
  /// mapping to one set never share a byte.  Public so tests can build
  /// colliding tags.
  std::uint8_t fingerprint(Address tag) const {
    return static_cast<std::uint8_t>(tag >> fp_shift_);
  }

  /// Completes a hit found by probe_way: statistics + dirty + recency.
  void commit_hit(unsigned set, unsigned way, bool write, const Requester& requester) {
    ++total_.accesses;
    ++total_.hits;
    if (attribution_ == Attribution::kOracle) [[unlikely]] attribute_hit(requester);
    // Branchless dirty update: OR-ing 0 for loads leaves the word
    // unchanged, and the store/load decision is data-random in every
    // mix — a branch here mispredicts constantly.
    dirty_[set] |= static_cast<std::uint64_t>(write) << way;
    touch(set, way);
  }

  /// Completes a miss in an attribution-free cache (the private
  /// L1/L2): when the cache is plain-LRU/unpartitioned, the whole
  /// fill runs inline via miss_fill_impl<true, kNone> — no
  /// out-of-line call, so the walk's L1+L2 fills schedule as
  /// straight-line code.  Anything else (non-LRU policy, partitions
  /// installed, an attribution cache) falls back to the general miss_fill;
  /// the guard re-checks the live flags, so a partition installed
  /// later is honored on the next access, exactly like the
  /// out-of-line path.
  void commit_miss_private_hot(unsigned set, Address tag, bool write,
                               const Requester& requester) {
    ++total_.accesses;
    ++total_.misses;
    if (!fast_fill_ || attribution_ != Attribution::kNone) [[unlikely]] {
      miss_fill(set, tag, write, requester);
      return;
    }
    miss_fill_impl<true, Attribution::kNone>(set, tag, write, requester);
  }

  /// Same, for the attribution cache (the LLC): inline plain-LRU fill
  /// with owner/footprint bookkeeping compiled in.  An LLC observing
  /// ground truth takes the out-of-line fill, which adds the oracle.
  void commit_miss_attr_hot(unsigned set, Address tag, bool write,
                            const Requester& requester) {
    ++total_.accesses;
    ++total_.misses;
    if (!fast_fill_ || attribution_ != Attribution::kOwners) [[unlikely]] {
      miss_fill(set, tag, write, requester);
      return;
    }
    miss_fill_impl<true, Attribution::kOwners>(set, tag, write, requester);
  }

  /// True when fills run the compile-time-pruned LRU path (LRU
  /// replacement, no way partitions).  Exposed for tests.
  bool fast_fill() const { return fast_fill_; }

  unsigned line_shift() const { return line_shift_; }
  /// sets - 1: masks a set index out of a line number.
  Address set_mask() const { return set_mask_; }

  /// Host prefetch of what a probe of `set` reads (semantically a
  /// no-op), hiding the host-memory latency of large LLC arrays: the
  /// fingerprint row (one host line for up to 64 ways) and the valid
  /// word.  The tags/stamps rows are
  /// not staged: a hit or fill touches one entry of each, and staging
  /// their whole rows (three host lines each for 20 ways) measured
  /// slower end to end than letting that one line miss.
  void prefetch_row(unsigned set) const {
    __builtin_prefetch(fp_row(set));
    __builtin_prefetch(&valid_[set]);
  }

  /// Stages the state a *fill* touches beyond the probe's rows: the
  /// dirty word and (attribution caches only) the owners row.  The
  /// walk issues this once it knows the level missed — issuing
  /// it earlier would drag fill-only lines through the host cache on
  /// every probe that hits.
  void prefetch_fill_row(unsigned set) const {
    __builtin_prefetch(&dirty_[set], 1);
    if (attribution_ != Attribution::kNone) {
      const std::size_t row = line_index(set, 0);
      __builtin_prefetch(&owners_[row], 1);
      if (ways_ > 16) __builtin_prefetch(&owners_[row + 16], 1);
    }
  }

  /// Lookup without any state change (no fill, no recency update).
  bool probe(Address addr) const {
    return find(set_index(addr), tag_of(addr)) != kNoWay;
  }

  /// Drops every line (power-on state).  Statistics are preserved.
  void invalidate_all();

  /// Invalidates the single line containing `addr`, if present.
  void invalidate(Address addr);

  /// Fraction of valid lines (for tests / warm-up detection).  O(1):
  /// answered from the incrementally maintained valid-line counter.
  double occupancy() const {
    return static_cast<double>(valid_lines_) / static_cast<double>(tags_.size());
  }

  /// Number of valid lines owned by `vm` (ground-truth footprint).
  /// O(1): answered from per-VM counters maintained on fill/evict/
  /// invalidate.  Always 0 when attribution is off.
  std::uint64_t footprint_lines(int vm) const {
    if (vm < 0) return unowned_lines_;
    const auto idx = static_cast<std::size_t>(vm);
    return idx < vm_footprint_.size() ? vm_footprint_[idx] : 0;
  }

  /// Ground-truth pollution counters for `vm` (see VmPollution); VMs
  /// never seen return zeros.  Throws unless the cache observes
  /// ground truth.
  const VmPollution& pollution_for_vm(int vm) const;

  /// Contention-miss classification covers vm ids below this bound
  /// (one bit per vm in the displaced-line index).  Eviction counters
  /// and footprints are exact for every id.
  static constexpr int kPollutionVmTracked = 64;

  /// O(lines) recount of footprint_lines(vm) from the raw line state
  /// (`vm` may be -1 for unowned lines).  Test/debug oracle for the
  /// incremental counters; never called from simulation paths.
  std::uint64_t recount_footprint_lines(int vm) const;

  /// O(lines) recount of the valid-line counter behind occupancy().
  std::uint64_t recount_valid_lines() const;

  /// Ensures per-VM footprint slots (and, while observing ground
  /// truth, per-VM stat and pollution slots) exist for vm ids <
  /// `vms`.  Called by the memory system when the hypervisor admits
  /// VMs, so the access path never grows storage.  No-op for
  /// attribution-free caches, which keep no per-VM slots.
  void reserve_vm_slots(int vms);

  /// Starts maintaining the ground-truth oracle: per-VM CacheStats
  /// (stats_for_vm), VmPollution counters (pollution_for_vm) and the
  /// displaced-line index behind contention-miss classification.
  /// Throws for an attribution-free cache, and unless the cache has
  /// never been accessed, so the counts are exact from power-on.
  /// Idempotent once observing.
  void observe_ground_truth();
  bool observes_ground_truth() const { return attribution_ == Attribution::kOracle; }

  /// Invalidates every valid line owned by `vm` and purges the VM's
  /// bits from the displaced-line index — the LLC half of VM
  /// destruction.  Uses the same per-line bookkeeping as invalidate()
  /// (footprint/valid counters stay exact vs the recount oracles;
  /// pollution counters survive as statistics; no cross-eviction
  /// events are generated, so inflicted == suffered is preserved).
  /// Returns the number of lines dropped.  No-op for attribution-free
  /// caches: private levels keep their stale lines, which simply go
  /// cold — VM address spaces are disjoint, so they can never hit.
  std::uint64_t release_vm(int vm);

  // --- Way partitioning (UCP-style ablation) -------------------------
  /// Restricts fills by VM `vm` to ways [first_way, first_way+n_ways).
  /// Lookups still hit in any way.  Overwrites any previous assignment.
  void set_partition(int vm, unsigned first_way, unsigned n_ways);

  /// Removes all partitions (default: any VM may fill any way).
  void clear_partitions();

  // --- Statistics -----------------------------------------------------
  const CacheStats& stats() const { return total_; }
  /// Per-VM counters (index = vm id); VMs never seen return zeros.
  /// Throws unless the cache observes ground truth.
  const CacheStats& stats_for_vm(int vm) const;
  void clear_stats();

  const std::string& name() const { return name_; }
  const CacheGeometry& geometry() const { return geometry_; }
  ReplacementKind replacement() const { return replacement_; }
  bool tracks_attribution() const { return attribution_ != Attribution::kNone; }

 private:
  /// How much attribution bookkeeping the cache maintains (see the
  /// file comment); fixed at construction except for the one
  /// kOwners -> kOracle step of observe_ground_truth.
  enum class Attribution : std::uint8_t {
    kNone,    // private cache: totals only
    kOwners,  // LLC: line owners + per-VM footprints
    kOracle,  // LLC observing ground truth: + per-VM stats, pollution, displaced index
  };

  struct Partition {
    unsigned first_way = 0;
    unsigned n_ways = 0;  // 0 = unrestricted
  };

  /// What the miss path displaced (for access()).
  struct MissInfo {
    bool evicted = false;
    Address evicted_tag = 0;
  };

  static constexpr unsigned kNoWay = ~0u;

  /// Line index of (set, way) in the parallel arrays.
  std::size_t line_index(unsigned set, unsigned way) const {
    return static_cast<std::size_t>(set) * ways_ + way;
  }

  unsigned set_index(Address addr) const {
    return static_cast<unsigned>((addr >> line_shift_) & set_mask_);
  }
  Address tag_of(Address addr) const { return addr >> line_shift_; }

  /// Fingerprint row of `set`: fp_stride_ bytes, 16-byte aligned.
  const std::uint8_t* fp_row(unsigned set) const {
    return reinterpret_cast<const std::uint8_t*>(fp_.data()) +
           static_cast<std::size_t>(set) * fp_stride_;
  }
  std::uint8_t* fp_row(unsigned set) {
    return reinterpret_cast<std::uint8_t*>(fp_.data()) +
           static_cast<std::size_t>(set) * fp_stride_;
  }

  /// Fingerprint probe over a row of kChunks 16-byte blocks: SSE2
  /// pcmpeqb/pmovmskb turn each block into 16 candidate bits, the
  /// valid mask drops padding and stale bytes, and each surviving
  /// candidate's full tag is checked (a set never holds a tag twice,
  /// so the first full match is the only one).  The chunk count is a
  /// template parameter: a runtime-stride loop does not unroll.
  template <unsigned kChunks>
  unsigned find_fixed(unsigned set, Address tag) const {
    const std::uint8_t* row = fp_row(set);
    const __m128i splat = _mm_set1_epi8(static_cast<char>(fingerprint(tag)));
    std::uint64_t candidates = 0;
    for (unsigned c = 0; c < kChunks; ++c) {
      const __m128i bytes = _mm_load_si128(reinterpret_cast<const __m128i*>(row + 16 * c));
      const auto bits = static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(bytes, splat)));
      candidates |= static_cast<std::uint64_t>(bits) << (16 * c);
    }
    candidates &= valid_[set];
    const Address* tags = &tags_[line_index(set, 0)];
    while (candidates != 0) {
      const auto way = static_cast<unsigned>(std::countr_zero(candidates));
      if (tags[way] == tag) return way;
      candidates &= candidates - 1;
    }
    return kNoWay;
  }

  /// Way holding (set, tag), or kNoWay.  Dispatches on the row
  /// stride (16/32/48/64 bytes) to a compile-time chunk count.
  unsigned find(unsigned set, Address tag) const {
    switch (fp_stride_) {
      case 16: return find_fixed<1>(set, tag);
      case 32: return find_fixed<2>(set, tag);
      case 48: return find_fixed<3>(set, tag);
      default: return find_fixed<4>(set, tag);
    }
  }

  /// Marks `way` most recently used (policy-dependent).
  void touch(unsigned set, unsigned way) {
    if (replacement_ == ReplacementKind::kPlru) {
      plru_touch(set, way);
      return;
    }
    stamps_[line_index(set, way)] = ++clock_;
    if (nibble_lru_) {
      touch_nibble(set, way);
    } else if (order5_lru_) {
      touch_order5(set, way);
    }
  }

  /// Nibble-order move-to-front (plain-LRU caches with <= 16 ways):
  /// lru_order_[set] packs the set's ways by recency, nibble 0 = MRU
  /// .. nibble ways-1 = LRU, maintained in lockstep with the stamps
  /// by every touch.  Pure ALU: locate `way`'s nibble with a SWAR
  /// zero-nibble detector, slide everything more recent back one
  /// position, insert `way` at the front.
  void touch_nibble(unsigned set, unsigned way) {
    const std::uint64_t ord = lru_order_[set];
    const std::uint64_t x = ord ^ (0x1111111111111111ull * way);
    const std::uint64_t zero =
        (x - 0x1111111111111111ull) & ~x & 0x8888888888888888ull;
    const unsigned p4 = static_cast<unsigned>(std::countr_zero(zero)) & ~3u;
    const std::uint64_t below = (1ull << p4) - 1;  // nibbles more recent than way
    lru_order_[set] =
        way | ((ord & below) << 4) | (ord & ~((below << 4) | 0xFull));
  }

  /// The LRU way of a *full* nibble-ordered set in O(1): the nibble
  /// at position ways-1.  Bit-identical to the min-stamp scan — for a
  /// full plain-LRU set every way was touched with a unique,
  /// strictly increasing stamp, so stamp order and nibble order are
  /// the same permutation.
  unsigned victim_nibble(unsigned set) const {
    return static_cast<unsigned>(lru_order_[set] >> ((ways_ - 1) * 4)) & 0xFu;
  }

  /// Two-word 5-bit-field recency order for plain-LRU caches with 17
  /// to 24 ways (the paper machine's 20-way LLC): the same
  /// move-to-front scheme as touch_nibble, widened to 5-bit way
  /// fields, 12 per 64-bit word (bits 60..63 stay zero).  Word 0 holds
  /// recency positions 0..11 (field 0 = MRU), word 1 positions 12..23;
  /// fields beyond ways-1 park the sentinel 0x1F, which never matches
  /// a real way.
  static constexpr std::uint64_t kOnes5 = 0x0084210842108421ull;  // bit 5k, k = 0..11
  static constexpr std::uint64_t kWord5Mask = (1ull << 60) - 1;

  /// Bit offset (5 * field) of `way`'s field in `word`, or kNoWay when
  /// the way is not in this word.  SWAR zero-field detector: the
  /// lowest flagged field is exact, and a word with no matching field
  /// produces no flags at all, so the word-selection test is safe.
  static unsigned locate5(std::uint64_t word, unsigned way) {
    const std::uint64_t x = word ^ (kOnes5 * way);
    const std::uint64_t zero = (x - kOnes5) & ~x & (kOnes5 << 4);
    if (zero == 0) return kNoWay;
    return static_cast<unsigned>(std::countr_zero(zero)) / 5 * 5;
  }

  void touch_order5(unsigned set, unsigned way) {
    std::uint64_t* w = &lru_order5_[static_cast<std::size_t>(set) * 2];
    const unsigned b0 = locate5(w[0], way);
    if (b0 != kNoWay) {
      // Slide within word 0: fields more recent than `way` move back
      // one position, `way` becomes MRU, word 1 is untouched.
      const std::uint64_t below = (1ull << b0) - 1;
      w[0] = way | ((w[0] & below) << 5) | (w[0] & ~((below << 5) | 0x1Full));
      return;
    }
    const unsigned b1 = locate5(w[1], way);
    KYOTO_DCHECK(b1 != kNoWay);
    // Cross-word slide: word 0 shifts back as a whole (its LRU field
    // spills into word 1's front), word 1 slides up to `way`'s field.
    const std::uint64_t below = (1ull << b1) - 1;
    const std::uint64_t spill = (w[0] >> 55) & 0x1Full;
    w[0] = ((w[0] << 5) | way) & kWord5Mask;
    w[1] = spill | ((w[1] & below) << 5) | (w[1] & ~((below << 5) | 0x1Full));
  }

  /// The LRU way of a *full* 5-bit-ordered set in O(1): the field at
  /// global recency position ways-1, which lives in word 1 for every
  /// 17..24-way geometry.  Same stamp-order equivalence argument as
  /// victim_nibble.
  unsigned victim_order5(unsigned set) const {
    return static_cast<unsigned>(lru_order5_[static_cast<std::size_t>(set) * 2 + 1] >>
                                 ((ways_ - 13) * 5)) &
           0x1Fu;
  }

  void attribute_hit(const Requester& req) {
    if (req.vm >= 0) {
      CacheStats& vm_stats = vm_slot(req.vm);
      ++vm_stats.accesses;
      ++vm_stats.hits;
    }
  }

  void plru_touch(unsigned set, unsigned way);
  /// Re-initializes every nibble-order word to the identity
  /// permutation (construction / invalidate_all).
  void reset_lru_order();
  /// Same for the two-word 5-bit layout.
  void reset_lru_order5();
  /// Victim selection + fill + eviction bookkeeping.  Dispatches to a
  /// compile-time-pruned instantiation per attribution mode and per
  /// fill kind: miss_fill_impl<true, …> (plain LRU, no partitions:
  /// fast_fill_) has the DIP/partition/insertion-policy branches
  /// folded away, miss_fill_impl<false, …> is the general form.
  /// Bit-identical by construction and pinned by the golden +
  /// random-oracle suites.
  MissInfo miss_fill(unsigned set, Address tag, bool write, const Requester& requester);
  template <bool kFastLru, Attribution kMode>
  MissInfo miss_fill_impl(unsigned set, Address tag, bool write, const Requester& requester);
  unsigned pick_victim(unsigned set, unsigned first_way, unsigned end_way);
  bool set_uses_bip(unsigned set) const;

  VmPollution& pollution_slot(int vm) {
    KYOTO_DCHECK(vm >= 0);
    if (static_cast<std::size_t>(vm) >= vm_pollution_.size()) grow_vm_slots(vm);
    return vm_pollution_[static_cast<std::size_t>(vm)];
  }
  CacheStats& vm_slot(int vm) {
    KYOTO_DCHECK(vm >= 0);
    if (static_cast<std::size_t>(vm) >= per_vm_.size()) grow_vm_slots(vm);
    return per_vm_[static_cast<std::size_t>(vm)];
  }
  void grow_vm_slots(int vm);  // cold path; never taken when pre-sized

  std::string name_;
  CacheGeometry geometry_;
  ReplacementKind replacement_;
  unsigned sets_ = 0;
  unsigned ways_ = 0;
  Attribution attribution_ = Attribution::kOwners;
  unsigned line_shift_ = 0;   // log2(line)
  Address set_mask_ = 0;      // sets-1

  // SoA line state, row-major by set.
  /// Tag fingerprints: one byte per way, rows padded to fp_stride_
  /// (16/32/48/64) bytes, written only by the fill next to tags_.
  /// Bytes of invalid ways go stale; the valid mask screens them.
  /// Stored as host-line-aligned blocks so a 16-, 32- or 64-byte row
  /// never straddles two host cache lines.
  struct alignas(64) FpBlock {
    std::uint8_t bytes[64];
  };
  std::vector<FpBlock> fp_;
  unsigned fp_stride_ = 16;
  unsigned fp_shift_ = 0;  // log2(sets)
  std::vector<Address> tags_;
  std::vector<std::uint64_t> stamps_;   // recency (LRU) or MRU bit (PLRU)
  std::vector<std::int32_t> owners_;    // owning vm id, -1 = unowned
  std::vector<std::uint64_t> valid_;    // one bit per way, one word per set
  std::vector<std::uint64_t> dirty_;    // one bit per way, one word per set

  Rng rng_;
  std::uint64_t clock_ = 0;  // recency stamp source
  /// Fills may take the pruned LRU path: plain LRU and no partition
  /// installed (maintained by the constructor and set_partition/
  /// clear_partitions).
  bool fast_fill_ = false;
  /// Plain-LRU caches with <= 16 ways mirror recency into per-set
  /// nibble-order words (lru_order_), so full-set victim selection is
  /// two ALU ops instead of an O(ways) stamp scan.  Stamps stay
  /// authoritative for every other policy and for partitioned victim
  /// ranges.
  bool nibble_lru_ = false;
  std::vector<std::uint64_t> lru_order_;  // per set: ways by recency, 4-bit fields
  /// Plain-LRU caches with 17..24 ways (the 20-way LLC) keep the same
  /// recency mirror in two 5-bit-field words per set instead.
  bool order5_lru_ = false;
  std::vector<std::uint64_t> lru_order5_;  // per set: 2 words, 5-bit fields

  // Incremental footprint accounting (replaces O(lines) scans).
  std::uint64_t valid_lines_ = 0;
  std::uint64_t unowned_lines_ = 0;          // valid lines with owner -1
  std::vector<std::uint64_t> vm_footprint_;  // valid lines per vm id (LLC only)

  // Ground-truth pollution accounting (kOracle only).  The
  // displaced-line index maps a line's global tag to the bitmask of
  // VMs (< kPollutionVmTracked) whose copy of that line was displaced
  // by another requester and not yet re-referenced: an entry proves a
  // later miss by that VM on that line is contention-induced, not
  // intrinsic.  Touched only on the miss path, and only by the socket
  // partition that owns this cache, so it follows the same threading
  // contract as every other per-LLC structure.  A flat table that
  // never shrinks: a warmed-up tick loop performs no allocations here.
  std::vector<VmPollution> vm_pollution_;  // by vm id
  DisplacedIndex displaced_;               // tag -> victim-vm bits

  // DIP set-dueling state: a handful of leader sets are pinned to LRU
  // and to BIP; a saturating counter tracks which leader family
  // misses less and follower sets adopt the winner [17].
  int psel_ = 0;
  static constexpr int kPselMax = 1023;
  static constexpr unsigned kDuelModulus = 32;  // 2 leader sets per 32

  std::vector<Partition> partitions_;  // indexed by vm id

  CacheStats total_;
  std::vector<CacheStats> per_vm_;  // kOracle only, sized like vm_footprint_
};

/// Victim selection + fill + eviction bookkeeping — ONE body for
/// every cache mode, pruned at compile time:
///   kFastLru — plain LRU with no partitions (fast_fill_): the DIP
///     bookkeeping, partition lookup and insertion-policy dispatch
///     fold away and a full set's victim comes from the O(1) recency
///     mirrors (up to 24 ways);
///   kMode — mirrors attribution_: owner/footprint accounting compiles
///     in for an LLC (kOwners), and the ground-truth oracle — per-VM
///     statistics, pollution counters, the displaced-line index — on
///     top of it only while observing (kOracle); private caches
///     (kNone) compile both out.
/// In the header so the walk's inline commit paths instantiate
/// it directly; the out-of-line miss_fill dispatches over the same
/// six instantiations, so every path executes this exact code.
template <bool kFastLru, SetAssocCache::Attribution kMode>
inline SetAssocCache::MissInfo SetAssocCache::miss_fill_impl(unsigned set, Address tag,
                                                             bool write,
                                                             const Requester& requester) {
  constexpr bool kOwners = kMode != Attribution::kNone;
  constexpr bool kOracle = kMode == Attribution::kOracle;
  KYOTO_DCHECK(kMode == attribution_);
  CacheStats* vm_stats = nullptr;
  if constexpr (kOracle) {
    if (requester.vm >= 0) {
      vm_stats = &vm_slot(requester.vm);
      ++vm_stats->accesses;
      ++vm_stats->misses;
      // Ground-truth miss classification: if another requester
      // displaced this VM's copy of the line since it last held it,
      // this re-miss is contention-induced, not intrinsic.
      if (requester.vm < kPollutionVmTracked &&
          displaced_.take(tag, 1ull << requester.vm)) {
        ++pollution_slot(requester.vm).contention_misses;
      }
    }
  }

  unsigned victim;
  if constexpr (kFastLru) {
    // fast_fill_: plain LRU, no partitions — the DIP bookkeeping,
    // partition lookup and insertion-policy dispatch all fold away.
    const std::uint64_t invalid =
        ~valid_[set] & (ways_ == 64 ? ~0ull : (1ull << ways_) - 1);
    if (invalid != 0) {
      victim = static_cast<unsigned>(std::countr_zero(invalid));
    } else if (nibble_lru_) {
      victim = victim_nibble(set);  // O(1): no stamp loads, no scan
    } else if (order5_lru_) {
      victim = victim_order5(set);  // O(1) for the 20-way LLC
    } else {
      victim = pick_victim(set, 0, ways_);  // > 24 ways: min-stamp scan
    }
  } else {
    // DIP leader-set bookkeeping: a miss in an LRU leader nudges psel
    // toward BIP and vice versa.
    if (replacement_ == ReplacementKind::kDip) {
      const unsigned pos = set % kDuelModulus;
      if (pos == 0) psel_ = std::min(psel_ + 1, kPselMax);
      else if (pos == 1) psel_ = std::max(psel_ - 1, 0);
    }

    // Respect the requester VM's way partition, if any.
    unsigned first_way = 0;
    unsigned end_way = ways_;
    if (!partitions_.empty() && requester.vm >= 0 &&
        static_cast<std::size_t>(requester.vm) < partitions_.size()) {
      const Partition& p = partitions_[static_cast<std::size_t>(requester.vm)];
      if (p.n_ways > 0) {
        first_way = p.first_way;
        end_way = std::min(ways_, p.first_way + p.n_ways);
      }
    }

    victim = pick_victim(set, first_way, end_way);
  }
  const std::size_t idx = line_index(set, victim);
  const std::uint64_t bit = 1ull << victim;

  MissInfo info;
  if (valid_[set] & bit) {
    info.evicted = true;
    info.evicted_tag = tags_[idx];
    ++total_.evictions;
    const bool was_dirty = (dirty_[set] & bit) != 0;
    total_.writebacks += was_dirty ? 1 : 0;
    if constexpr (kOracle) {
      if (vm_stats != nullptr) {
        ++vm_stats->evictions;
        vm_stats->writebacks += was_dirty ? 1 : 0;
      }
    }
    if constexpr (kOwners) {
      // Displaced line's owner loses a footprint line.
      const int old_vm = owners_[idx];
      if (old_vm < 0) {
        --unowned_lines_;
      } else {
        KYOTO_DCHECK(static_cast<std::size_t>(old_vm) < vm_footprint_.size());
        --vm_footprint_[static_cast<std::size_t>(old_vm)];
        if (kOracle && old_vm != requester.vm) {
          // Cross-VM eviction: the ground-truth pollution event.
          ++pollution_slot(old_vm).cross_evictions_suffered;
          if (requester.vm >= 0) {
            ++pollution_slot(requester.vm).cross_evictions_inflicted;
          }
          if (old_vm < kPollutionVmTracked) {
            displaced_.add(info.evicted_tag, 1ull << old_vm);
          }
        }
      }
    }
  } else {
    ++valid_lines_;
  }

  // Fill.
  tags_[idx] = tag;
  fp_row(set)[victim] = fingerprint(tag);
  valid_[set] |= bit;
  dirty_[set] = write ? (dirty_[set] | bit) : (dirty_[set] & ~bit);
  if constexpr (kOwners) {
    const int vm = requester.vm;
    owners_[idx] = vm;
    if (vm < 0) {
      ++unowned_lines_;
    } else {
      if (static_cast<std::size_t>(vm) >= vm_footprint_.size()) {
        grow_vm_slots(vm);  // cold: only for ids beyond the reserved slots
      }
      ++vm_footprint_[static_cast<std::size_t>(vm)];
    }
  }

  if constexpr (kFastLru) {
    // LRU always inserts at MRU — in both recency mirrors.
    stamps_[idx] = ++clock_;
    if (nibble_lru_) {
      touch_nibble(set, victim);
    } else if (order5_lru_) {
      touch_order5(set, victim);
    }
    return info;
  } else {
    // Insertion recency depends on the (possibly dueled) policy:
    //   LRU/PLRU/random: insert at MRU.
    //   LIP: insert at LRU (stamp 0 => next victim unless promoted).
    //   BIP: LIP with a 1/32 chance of MRU insertion.
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
      touch(set, victim);
    } else {
      stamps_[idx] = 0;
    }
    return info;
  }
}

}  // namespace kyoto::cache
