// Exact inverse-CDF lookup over a discrete distribution, and the
// process-wide tables built on it: the Zipf popularity CDF of
// mem::ZipfPattern and the geometric gap distribution of the v2
// stream's op generator (workloads/pattern_workload.hpp).
#pragma once

#include <emmintrin.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

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
// (thread-safe), so every pattern, workload and clone with the same
// key shares one instance.  Keys compare the parameters'
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

}  // namespace kyoto::mem
