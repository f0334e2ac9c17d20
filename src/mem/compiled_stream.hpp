// Compiled reference streams: block generation for the v2 workload
// stream format.
//
// A Pattern's per-op interface (step) costs one virtual call per
// simulated memory access plus, for the stochastic patterns, one RNG
// draw and a CDF search.  At the access-engine's
// throughput those per-op costs are pure overhead: the replay loops
// consume offsets in blocks anyway (Workload::next_ref_batch, the ref
// buffer in Machine::run_vcpu).  A CompiledStream is the
// block-generated form of a pattern's reference stream:
//
//  * deterministic walks (pointer chase, sequential, strided) compile
//    into ring cursors or a precomputed line-index ring buffer — the
//    emitted sequence is *identical* to the per-op pattern's, with
//    zero RNG and zero virtual calls per offset (the chase's
//    dependent next_[cursor] loads become a linear scan of the
//    unrolled cycle);
//  * stochastic draws (uniform, Zipf) compile into batched draws from
//    the same distribution — Zipf shares ZipfPattern's table and its
//    exact quantile-indexed inverse-CDF mapping;
//  * PhasedPattern composes its children's compiled streams,
//    preserving the per-phase access budgets.
//
// Streams produced this way are *statistically equivalent* to the v1
// per-op streams, not bit-identical (the stochastic patterns consume
// a differently-ordered RNG stream): they are the `stream = v2`
// format of workloads/workload.hpp, and every committed figure stays
// regenerable under v1.  tests/mem/compiled_stream_test.cpp pins the
// deterministic walks to exact equality and the stochastic ones to
// chi-square agreement with their v1 counterparts.
#pragma once

#include <emmintrin.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace kyoto::mem {

/// Exact inverse CDF: lookup(u) is lower_bound(cdf, u) — the smallest
/// k with cdf[k] >= u, clamped to the last entry — for u in [0, 1).
/// A guide table of kQuantiles entries maps the top bits of the draw
/// to the CDF segment holding the answer: for u in [j/K, (j+1)/K) it
/// lies in [index_[j], index_[j+1]].  When every segment spans at most
/// kWindow entries (the Zipf tables of the scaled machines), a lookup
/// counts the entries below u in a fixed window of kWindow doubles
/// starting at the segment — no data-dependent branch.  The CDF is
/// padded with +inf so the window never reads past it.  Tables with a
/// wider segment (paper-geometry Zipf, the geometric gap tables, whose
/// last segment holds the long saturating tail) binary-search the
/// segment instead.  The path is chosen once per table, at
/// construction: a per-lookup branch on the segment length would
/// mispredict.  Shared by the Zipf tables below and the
/// geometric-skip gap sampler in workloads/pattern_workload.hpp — one
/// mechanism, one set of edge semantics.
class QuantileIndex {
 public:
  static constexpr std::size_t kQuantiles = 4096;  // guide entries
  static constexpr std::size_t kWindow = 8;        // compares per windowed lookup (even)

  /// `cdf` must be non-empty and non-decreasing.
  explicit QuantileIndex(std::vector<double> cdf);

  std::uint32_t lookup(double u) const {
    // Signed conversion: one cvttsd2si, where an unsigned one branches.
    const auto j = static_cast<std::size_t>(std::min<std::int64_t>(
        static_cast<std::int64_t>(u * static_cast<double>(kQuantiles)), kQuantiles - 1));
    const std::uint32_t first = index_[j];
    const double* cdf = cdf_.data();
    if (windowed_) {
      // Each all-ones compare lane is -1: subtracting the masks
      // counts the window entries below u.
      const __m128d splat = _mm_set1_pd(u);
      __m128i below = _mm_setzero_si128();
      for (std::size_t t = 0; t < kWindow; t += 2) {
        below = _mm_sub_epi64(
            below, _mm_castpd_si128(_mm_cmplt_pd(_mm_loadu_pd(cdf + first + t), splat)));
      }
      const auto count = static_cast<std::uint32_t>(
          _mm_cvtsi128_si64(below) + _mm_cvtsi128_si64(_mm_unpackhi_epi64(below, below)));
      return std::min(first + count, last_);
    }
    return static_cast<std::uint32_t>(
        std::lower_bound(cdf + first, cdf + index_[j + 1], u) - cdf);
  }

  /// The CDF entries, without the padding.
  std::size_t size() const { return static_cast<std::size_t>(last_) + 1; }
  double cdf(std::size_t k) const { return cdf_[k]; }

  /// Whether lookups take the fixed-window path.
  bool windowed() const { return windowed_; }

 private:
  std::vector<double> cdf_;            // padded with kWindow - 1 entries of +inf
  std::vector<std::uint32_t> index_;   // index_[j] = lower_bound(cdf, j/K), clamped
  std::uint32_t last_ = 0;             // index of the last real entry
  bool windowed_ = false;
};

// The tables below are pure functions of their parameters, built on
// first request and memoized for the life of the process
// (thread-safe), so every pattern, workload, clone and compiled stream
// with the same key shares one instance.  Keys compare the parameters'
// bit patterns, so a table is exactly what a per-call construction
// would produce.

/// The seed-independent half of a Zipf pattern: the quantile index
/// over the popularity CDF by rank (rank r has weight 1/(r+1)^s,
/// normalized), whose lookup(u) is the rank whose popularity bucket
/// holds `u`.
std::shared_ptr<const QuantileIndex> shared_zipf_table(std::uint64_t lines, double exponent);

/// The geometric gap distribution P(gap = k) = (1-p)^k p, k >= 0, for
/// p in (0, 1): the CDF until it saturates to 1.0 in double precision
/// (a few hundred entries even for the smallest in-tree p).
std::shared_ptr<const QuantileIndex> shared_geometric_table(double p);

/// Block generator over a pattern's reference stream.  Value-type
/// semantics via clone() (the McSim replay monitor clones workloads
/// mid-run, so a stream's cursor/RNG state must be copyable).
class CompiledStream {
 public:
  virtual ~CompiledStream() = default;

  /// Writes the next `n` byte offsets of the stream (each within
  /// [0, working-set)).
  virtual void fill(Bytes* out, std::size_t n) = 0;

  /// Restarts the stream from its initial state (including RNG).
  virtual void reset() = 0;

  /// Deep copy including cursor/RNG state.
  virtual std::unique_ptr<CompiledStream> clone() const = 0;
};

/// Sequential walk: line 0,1,...,lines-1,0,...  Identical sequence to
/// SequentialPattern, generated by cursor arithmetic alone.
class SequentialStream final : public CompiledStream {
 public:
  explicit SequentialStream(std::uint64_t lines) : lines_(lines) {}
  void fill(Bytes* out, std::size_t n) override;
  void reset() override { cursor_ = 0; }
  std::unique_ptr<CompiledStream> clone() const override {
    return std::make_unique<SequentialStream>(*this);
  }

 private:
  std::uint64_t lines_ = 1;
  std::uint64_t cursor_ = 0;
};

/// Strided walk with the stride pre-reduced mod lines, so the wrap is
/// a conditional subtract instead of a division.  Identical sequence
/// to StridedPattern (a + s mod n == a + (s mod n) mod n).
class StridedStream final : public CompiledStream {
 public:
  StridedStream(std::uint64_t lines, std::uint64_t stride)
      : lines_(lines), stride_(stride % lines) {}
  void fill(Bytes* out, std::size_t n) override;
  void reset() override { cursor_ = 0; }
  std::unique_ptr<CompiledStream> clone() const override {
    return std::make_unique<StridedStream>(*this);
  }

 private:
  std::uint64_t lines_ = 1;
  std::uint64_t stride_ = 0;  // already reduced mod lines_
  std::uint64_t cursor_ = 0;
};

/// Pointer chase with the cycle unrolled into visit order: ring_[i] is
/// the i-th line the chase visits starting from line 0.  Emitting the
/// stream is then a linear scan of ring_ — the same sequence
/// PointerChasePattern emits by chasing next_[cursor], without the
/// dependent (and host-cache-hostile) loads.
class ChaseRingStream final : public CompiledStream {
 public:
  /// `next` is the chase's successor table (next[i] = line after i).
  explicit ChaseRingStream(const std::vector<std::uint32_t>& next);
  void fill(Bytes* out, std::size_t n) override;
  void reset() override { cursor_ = 0; }
  std::unique_ptr<CompiledStream> clone() const override {
    return std::make_unique<ChaseRingStream>(*this);
  }

 private:
  std::vector<std::uint32_t> ring_;  // cycle in visit order
  std::size_t cursor_ = 0;
};

/// Uniform random lines, batch-drawn with the same Lemire mapping as
/// UniformRandomPattern (different RNG stream — the v2 seed).
class UniformStream final : public CompiledStream {
 public:
  UniformStream(std::uint64_t lines, std::uint64_t seed)
      : lines_(lines), seed_(seed), rng_(seed) {}
  void fill(Bytes* out, std::size_t n) override;
  void reset() override { rng_.reseed(seed_); }
  std::unique_ptr<CompiledStream> clone() const override {
    return std::make_unique<UniformStream>(*this);
  }

 private:
  std::uint64_t lines_ = 1;
  std::uint64_t seed_ = 0;
  Rng rng_;
};

/// Zipf-popular lines via the exact inverse-CDF mapping of
/// ZipfPattern: same shared table, same rank->line permutation, a
/// different (v2) RNG stream.
class ZipfStream final : public CompiledStream {
 public:
  /// `table` and `perm` are shared with the owning ZipfPattern so
  /// both versions draw from the identical distribution over the
  /// identical line layout.
  ZipfStream(std::shared_ptr<const QuantileIndex> table,
             std::shared_ptr<const std::vector<std::uint32_t>> perm, std::uint64_t seed);
  void fill(Bytes* out, std::size_t n) override;
  void reset() override { rng_.reseed(seed_); }
  std::unique_ptr<CompiledStream> clone() const override {
    return std::make_unique<ZipfStream>(*this);
  }

 private:
  std::shared_ptr<const QuantileIndex> table_;
  std::shared_ptr<const std::vector<std::uint32_t>> perm_;
  std::uint64_t seed_ = 0;
  Rng rng_;
};

/// Phase composition: runs each child stream for its phase's access
/// budget, cycling like PhasedPattern.
class PhasedStream final : public CompiledStream {
 public:
  struct Phase {
    std::unique_ptr<CompiledStream> stream;
    std::uint64_t accesses = 0;
  };

  explicit PhasedStream(std::vector<Phase> phases);
  PhasedStream(const PhasedStream& other);
  PhasedStream& operator=(const PhasedStream&) = delete;

  void fill(Bytes* out, std::size_t n) override;
  void reset() override;
  std::unique_ptr<CompiledStream> clone() const override {
    return std::make_unique<PhasedStream>(*this);
  }

 private:
  std::vector<Phase> phases_;
  std::size_t current_ = 0;
  std::uint64_t remaining_ = 0;
};

}  // namespace kyoto::mem
