// The LLC's displaced-line index: a flat open-addressed map from a
// line's global tag to the bitmask of VMs whose copy of that line was
// displaced by another requester and not yet re-referenced.
//
// Every LLC miss by a tracked VM looks its tag up here, and most
// lookups find nothing, so the table is built for short unsuccessful
// probes over contiguous memory:
//
//  * one slot = {tag, bits}; a zero `bits` marks an empty slot, so any
//    tag (0 included) is a valid key and no tombstones exist;
//  * power-of-two capacity, Fibonacci hashing, linear probing;
//  * load factor <= 1/2, doubling growth, never shrinking — once the
//    high-water mark is reached the table stops allocating;
//  * erase is a backward shift (the following run slides into the
//    hole), so a probe may stop at the first empty slot.
//
// Not thread-safe; each LLC owns its index and only the socket
// partition driving that LLC touches it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"

namespace kyoto::cache {

class DisplacedIndex {
 public:
  /// Number of tags with a nonzero bitmask.
  std::size_t size() const { return count_; }
  /// Slots allocated (0 until the first add).
  std::size_t capacity() const { return slots_.size(); }

  /// Home slot of `tag` (exposed so tests can build colliding keys).
  /// Valid once capacity() > 0.
  std::size_t home_slot(Address tag) const {
    KYOTO_DCHECK(!slots_.empty());
    return static_cast<std::size_t>((tag * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Bitmask recorded for `tag`, 0 when absent.
  std::uint64_t find(Address tag) const {
    return count_ == 0 ? 0 : slots_[locate(tag)].bits;
  }

  /// ORs `bits` (nonzero) into the entry for `tag`, inserting it.
  void add(Address tag, std::uint64_t bits) {
    KYOTO_DCHECK(bits != 0);
    if (slots_.empty()) grow();
    std::size_t i = locate(tag);
    if (slots_[i].bits != 0) {
      slots_[i].bits |= bits;
      return;
    }
    if ((count_ + 1) * 2 > slots_.size()) {
      grow();
      i = locate(tag);
    }
    slots_[i] = Slot{tag, bits};
    ++count_;
  }

  /// Clears `bit` from `tag`'s entry; returns whether it was set.  An
  /// entry left with no bits is erased.
  bool take(Address tag, std::uint64_t bit) {
    if (count_ == 0) return false;
    const std::size_t i = locate(tag);
    Slot& s = slots_[i];
    if ((s.bits & bit) == 0) return false;
    s.bits &= ~bit;
    if (s.bits == 0) erase_at(i);
    return true;
  }

  /// Clears `bits` from every entry, erasing entries left empty (a
  /// VM's release).  In place: no allocation, capacity unchanged.
  void clear_bits(std::uint64_t bits) {
    if (count_ == 0) return;
    // A backward shift only moves entries toward the scan position
    // (re-examined before advancing) or, for runs wrapping past the
    // table end, moves already-cleared entries forward — clearing
    // twice is idempotent, so one pass visits every entry.
    for (std::size_t i = 0; i < slots_.size();) {
      Slot& s = slots_[i];
      if (s.bits != 0 && (s.bits &= ~bits) == 0) {
        erase_at(i);
        continue;
      }
      ++i;
    }
  }

  /// Drops every entry, keeping the capacity.
  void clear() {
    for (Slot& s : slots_) s = Slot{};
    count_ = 0;
  }

 private:
  struct Slot {
    Address key = 0;
    std::uint64_t bits = 0;  // 0 = empty
  };

  static constexpr std::size_t kInitialSlots = 1024;

  /// Slot holding `tag`, or the empty slot ending its probe run.
  /// Requires capacity() > 0 (load <= 1/2 guarantees an empty slot).
  std::size_t locate(Address tag) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home_slot(tag);
    while (slots_[i].bits != 0 && slots_[i].key != tag) i = (i + 1) & mask;
    return i;
  }

  /// Backward-shift erase: empties slot `hole`, then walks the run
  /// after it and slides back every entry whose home does not lie
  /// cyclically in (hole, j] — those entries were probed past the
  /// hole and would otherwise become unreachable.
  void erase_at(std::size_t hole) {
    const std::size_t mask = slots_.size() - 1;
    --count_;
    for (std::size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
      Slot& s = slots_[j];
      if (s.bits == 0) break;
      const std::size_t home = home_slot(s.key);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = s;
        hole = j;
      }
    }
    slots_[hole] = Slot{};
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? kInitialSlots : old.size() * 2;
    slots_.assign(cap, Slot{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    const std::size_t mask = cap - 1;
    for (const Slot& s : old) {
      if (s.bits == 0) continue;
      std::size_t i = home_slot(s.key);
      while (slots_[i].bits != 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
  unsigned shift_ = 64;  // 64 - log2(capacity)
};

}  // namespace kyoto::cache
