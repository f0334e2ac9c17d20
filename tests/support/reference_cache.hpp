// Frozen pre-SoA cache engine, kept as a behavioral oracle.
//
// This is a verbatim copy of the original array-of-structs
// SetAssocCache (one 32-byte Line struct per cache line, linear probe
// over the set, O(total-lines) footprint scans).  The replacement-
// policy golden tests assert that the SoA rewrite of SetAssocCache
// produces *identical* hit/miss/eviction sequences for every policy —
// the oracle is the old implementation itself, not a recorded trace
// that could go stale.
//
// Do not "fix" or optimize this file; its value is that it does not
// change.  New features go into SetAssocCache only — the golden tests
// pin equivalence on the frozen feature set.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "cache/set_assoc_cache.hpp"  // Requester, LookupResult
#include "cache/stats.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace kyoto::cache {

class ReferenceSetAssocCache {
 public:
  ReferenceSetAssocCache(std::string name, CacheGeometry geometry,
                         ReplacementKind replacement, std::uint64_t seed = 1);

  LookupResult access(Address addr, bool write, const Requester& requester);
  bool probe(Address addr) const;
  void invalidate_all();
  void invalidate(Address addr);
  double occupancy() const;
  std::uint64_t footprint_lines(int vm) const;

  void set_partition(int vm, unsigned first_way, unsigned n_ways);
  void clear_partitions();

  const CacheStats& stats() const { return total_; }
  const CacheStats& stats_for_core(int core) const;
  const CacheStats& stats_for_vm(int vm) const;
  void clear_stats();

  const std::string& name() const { return name_; }
  const CacheGeometry& geometry() const { return geometry_; }
  ReplacementKind replacement() const { return replacement_; }

 private:
  struct Line {
    Address tag = 0;
    bool valid = false;
    bool dirty = false;
    int owner_vm = -1;
    std::uint64_t stamp = 0;  // recency (LRU) or MRU bit (PLRU)
  };

  struct Partition {
    unsigned first_way = 0;
    unsigned n_ways = 0;  // 0 = unrestricted
  };

  unsigned set_index(Address addr) const {
    return static_cast<unsigned>((addr / geometry_.line) % sets_);
  }
  Address tag_of(Address addr) const { return addr / geometry_.line; }

  Line* find(unsigned set, Address tag);
  const Line* find(unsigned set, Address tag) const;
  unsigned pick_victim(unsigned set, unsigned first_way, unsigned end_way);
  void touch(unsigned set, unsigned way);
  void fill(unsigned set, unsigned way, Address tag, bool write, int vm);
  bool set_uses_bip(unsigned set) const;

  CacheStats& core_slot(int core);
  CacheStats& vm_slot(int vm);

  std::string name_;
  CacheGeometry geometry_;
  ReplacementKind replacement_;
  unsigned sets_ = 0;
  std::vector<Line> lines_;  // sets_ * ways, row-major by set
  Rng rng_;
  std::uint64_t clock_ = 0;  // recency stamp source

  int psel_ = 0;
  static constexpr int kPselMax = 1023;
  static constexpr unsigned kDuelModulus = 32;  // 2 leader sets per 32

  std::vector<Partition> partitions_;  // indexed by vm id

  CacheStats total_;
  std::vector<CacheStats> per_core_;
  std::vector<CacheStats> per_vm_;
};

}  // namespace kyoto::cache
