// Bump-arena allocation for hot simulator state.
//
// The tick loop must not touch the host heap in steady state: a
// figure-scale sweep executes millions of ticks, and a single
// malloc/free pair per tick (or worse, per LLC miss) shows up directly
// in the end-to-end wall clock and serializes otherwise independent
// sweep lanes through the allocator.  BumpArena is a chunked bump
// allocator for buffers whose lifetime is "as long as the owning
// component" — the hypervisor's per-vCPU ref-batch blocks, which it
// recycles across VM churn.  Allocation is a pointer bump; memory is
// reclaimed only when the arena dies with its owner.
//
// The other hot containers reach the same state without an allocator:
// they are flat vectors sized at admission time or grown to a
// high-water mark and never shrunk (the LLC's displaced-line index,
// cache/displaced_index.hpp, is one).  tests/hv/zero_alloc_test.cpp
// pins the resulting invariant with a counting operator new: after
// warmup, whole ticks run with zero heap allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"

namespace kyoto {

/// Chunked bump allocator.  Not thread-safe; each owner (hypervisor,
/// cache) keeps its own arena, matching the simulator's share-nothing
/// partitioning.
class BumpArena {
 public:
  explicit BumpArena(std::size_t chunk_bytes = std::size_t{1} << 16)
      : chunk_bytes_(chunk_bytes) {}

  BumpArena(const BumpArena&) = delete;
  BumpArena& operator=(const BumpArena&) = delete;
  BumpArena(BumpArena&&) = default;
  BumpArena& operator=(BumpArena&&) = default;

  /// Returns `bytes` of storage aligned to `align` (<= 16).  Grows by
  /// whole chunks; oversized requests get a dedicated chunk.
  void* allocate_bytes(std::size_t bytes, std::size_t align) {
    KYOTO_DCHECK(align > 0 && align <= alignof(std::max_align_t) &&
                 (align & (align - 1)) == 0);
    std::size_t at = (cursor_ + align - 1) & ~(align - 1);
    if (current_ == nullptr || at + bytes > current_size_) {
      new_chunk(bytes + align);
      at = (cursor_ + align - 1) & ~(align - 1);
    }
    cursor_ = at + bytes;
    used_ += bytes;
    return current_ + at;
  }

  /// Typed convenience: raw storage for `n` objects of T (memory only,
  /// no construction).
  template <typename T>
  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    return static_cast<T*>(allocate_bytes(n * sizeof(T), alignof(T)));
  }

  /// Bytes handed out (diagnostics).
  std::size_t bytes_used() const { return used_; }
  /// Bytes reserved from the host heap (diagnostics).
  std::size_t bytes_reserved() const { return reserved_; }

 private:
  void new_chunk(std::size_t min_bytes) {
    const std::size_t size = min_bytes > chunk_bytes_ ? min_bytes : chunk_bytes_;
    chunks_.push_back(std::make_unique<std::byte[]>(size));
    current_ = chunks_.back().get();
    current_size_ = size;
    cursor_ = 0;
    reserved_ += size;
  }

  std::size_t chunk_bytes_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* current_ = nullptr;
  std::size_t current_size_ = 0;
  std::size_t cursor_ = 0;
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
};

}  // namespace kyoto
