// mem::QuantileIndex, the exact inverse CDF behind the Zipf pattern and
// the v2 gap sampler: every lookup path must equal a full clamped
// lower_bound over its CDF, and the memoized tables must be shared per
// key.
#include "mem/quantile_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "common/rng.hpp"
#include "mem/patterns.hpp"
#include "workloads/catalog.hpp"

namespace kyoto::mem {
namespace {

/// Inverse CDF by binary search over the whole table — the mapping
/// ZipfPattern::next_offset used before the quantile index.
std::uint64_t full_lower_bound(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::uint64_t>(static_cast<std::uint64_t>(it - cdf.begin()), cdf.size() - 1);
}

/// The Zipf popularity CDF rebuilt from its definition.
std::vector<double> zipf_cdf(std::uint64_t lines, double exponent) {
  std::vector<double> cdf(lines);
  double total = 0.0;
  for (std::uint64_t r = 0; r < lines; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[r] = total;
  }
  for (auto& c : cdf) c /= total;
  return cdf;
}

/// Draws where lower_bound's edge semantics decide the answer: every
/// guide edge j/K of the index's resolution and its neighbours, CDF
/// entries and their neighbours (every `cdf_stride`-th), the final
/// guide segment up to the largest double below 1, and random draws.
std::vector<double> deciding_draws(const std::vector<double>& cdf, std::size_t cdf_stride = 1) {
  constexpr std::size_t kQ = QuantileIndex::kQuantiles;
  std::vector<double> draws;
  for (std::size_t j = 0; j <= kQ; ++j) {
    const double edge = static_cast<double>(j) / static_cast<double>(kQ);
    draws.insert(draws.end(), {edge, std::nextafter(edge, 0.0), std::nextafter(edge, 1.0)});
  }
  for (std::size_t k = 0; k < cdf.size(); k += cdf_stride) {
    draws.insert(draws.end(),
                 {cdf[k], std::nextafter(cdf[k], 0.0), std::nextafter(cdf[k], 2.0)});
  }
  const double last_edge = static_cast<double>(kQ - 1) / static_cast<double>(kQ);
  for (int i = 0; i < 256; ++i) draws.push_back(last_edge + (1.0 - last_edge) * i / 256.0);
  draws.push_back(std::nextafter(1.0, 0.0));
  Rng rng(3);
  for (int i = 0; i < 20'000; ++i) draws.push_back(rng.uniform());
  std::erase_if(draws, [](double u) { return !(u >= 0.0 && u < 1.0); });
  return draws;
}

/// index.lookup(u) == full clamped lower_bound over `cdf` on every
/// deciding draw.
void expect_exact_lookup(const QuantileIndex& index, const std::vector<double>& cdf,
                         const std::string& where, std::size_t cdf_stride = 1) {
  ASSERT_EQ(index.size(), cdf.size()) << where;
  for (std::size_t k = 0; k < cdf.size(); ++k) ASSERT_EQ(index.cdf(k), cdf[k]) << where;
  for (const double u : deciding_draws(cdf, cdf_stride)) {
    ASSERT_EQ(index.lookup(u), full_lower_bound(cdf, u)) << where << " u=" << u;
  }
}

TEST(QuantileIndex, ZipfQuantileIndexMatchesFullLowerBound) {
  // The stream's quantile-indexed inverse CDF must be the *same
  // function* of the uniform draw as the pattern's: seed the stream
  // and an Rng identically and replay the pattern's mapping on the
  // same draws.
  {
    const std::uint64_t lines = 1000;
    ZipfPattern pattern(lines * kLineBytes, 0.8, 17);
    const std::uint64_t seed = 23;
    const auto compiled = pattern.compile(seed);
    std::vector<Bytes> got(50'000);
    Rng unused(0);  // the compiled stream draws from its own Rng(seed)
    compiled->fill(unused, got.data(), got.size());
    Rng replay(seed);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const Bytes expect = pattern.next_offset(replay);
      ASSERT_EQ(got[i], expect) << i;
    }
  }

  // And the pattern's own v1 mapping must be exactly the full-table
  // lower_bound over the CDF and permutation rebuilt from their
  // definitions, on the catalog's Zipf geometries (gcc, omnetpp,
  // soplex, xalan) at paper scale (1) and at scale 64 — including
  // draws exactly on every guide edge j/K of the index's resolution
  // and on CDF entries, where lower_bound's tie semantics decide the
  // rank.  Scale 64 takes the fixed-window path, paper scale the
  // lower_bound fallback.
  struct Geometry {
    double llc_frac;
    double exponent;
  };
  const Geometry zipfs[] = {{0.45, 0.9}, {0.85, 0.75}, {1.20, 0.8}, {0.70, 1.1}};
  for (const cache::MemSystemConfig& mem :
       {cache::paper_mem_system(), cache::scaled_mem_system()}) {
    const bool scaled = mem.llc.size < cache::paper_mem_system().llc.size;
    for (const Geometry& z : zipfs) {
      const std::uint64_t seed = 41;
      const Bytes ws = static_cast<Bytes>(z.llc_frac * static_cast<double>(mem.llc.size));
      ZipfPattern pattern(ws, z.exponent, seed);
      const std::uint64_t lines = pattern.working_set() / kLineBytes;
      const std::vector<double> cdf = zipf_cdf(lines, z.exponent);
      std::vector<std::uint32_t> perm(lines);
      std::iota(perm.begin(), perm.end(), 0u);
      Rng shuffle(seed);
      for (std::uint64_t i = lines; i > 1; --i) {
        std::swap(perm[i - 1], perm[shuffle.below(i)]);
      }
      const auto oracle = [&](double u) {
        return static_cast<Bytes>(perm[full_lower_bound(cdf, u)]) * kLineBytes;
      };
      const std::string where = std::to_string(lines) + " lines, s=" + std::to_string(z.exponent);
      EXPECT_EQ(shared_zipf_table(lines, z.exponent)->windowed(), scaled) << where;

      for (const double u : deciding_draws(cdf, 1 + lines / 2048)) {
        ASSERT_EQ(pattern.offset_for(u), oracle(u)) << where << " u=" << u;
      }
      Rng a(7), b(7);
      for (int i = 0; i < 20'000; ++i) {
        ASSERT_EQ(pattern.next_offset(a), oracle(b.uniform())) << where << " draw " << i;
      }
    }
  }
}

TEST(QuantileIndex, QuantileIndexIsExactOnBothLookupPaths) {
  constexpr std::size_t kQ = QuantileIndex::kQuantiles;
  constexpr std::size_t kW = QuantileIndex::kWindow;

  // Widest segment exactly the window (fixed-window path) and one
  // wider (lower_bound fallback): `packed` entries below 1/K, then
  // one entry per guide edge up to 1.0.
  for (const std::size_t packed : {kW, kW + 1}) {
    std::vector<double> cdf;
    for (std::size_t t = 0; t < packed; ++t) {
      cdf.push_back(static_cast<double>(t + 1) / static_cast<double>(kQ * (packed + 1)));
    }
    for (std::size_t j = 1; j <= kQ; ++j) {
      cdf.push_back(static_cast<double>(j) / static_cast<double>(kQ));
    }
    const QuantileIndex index(cdf);
    EXPECT_EQ(index.windowed(), packed <= kW) << packed;
    expect_exact_lookup(index, cdf, "packed " + std::to_string(packed));
  }

  // A CDF whose last entry is below 1.0: draws above it clamp to the
  // last entry, on both paths (a short table fits the window, a long
  // uniform staircase to 0.9 does not).
  for (const std::size_t n : {std::size_t{5}, std::size_t{1000}, std::size_t{50'000}}) {
    std::vector<double> cdf(n);
    for (std::size_t k = 0; k < n; ++k) {
      cdf[k] = 0.9 * static_cast<double>(k + 1) / static_cast<double>(n);
    }
    const QuantileIndex index(cdf);
    EXPECT_EQ(index.windowed(), n <= 1000) << n;
    expect_exact_lookup(index, cdf, "last 0.9, n=" + std::to_string(n));
    EXPECT_EQ(index.lookup(0.95), n - 1);
    EXPECT_EQ(index.lookup(std::nextafter(1.0, 0.0)), n - 1);
  }

  // One entry, and a table with ties (repeated entries).
  expect_exact_lookup(QuantileIndex({1.0}), {1.0}, "single");
  const std::vector<double> ties = {0.25, 0.25, 0.25, 0.5, 0.5, 1.0, 1.0};
  expect_exact_lookup(QuantileIndex(ties), ties, "ties");

  // The micro C3 representative's table (2 x LLC at scale 64): the
  // widest scaled geometry in the catalog.
  const std::uint64_t c3_lines = 2 * cache::scaled_mem_system().llc.size / kLineBytes;
  const auto c3 = shared_zipf_table(c3_lines, 0.9);
  EXPECT_TRUE(c3->windowed());
  expect_exact_lookup(*c3, zipf_cdf(c3_lines, 0.9), "micro C3 zipf");
}

TEST(QuantileIndex, GeometricGapTablesAreExact) {
  // The v2 gap sampler's tables, for every mem_ratio in the catalog
  // (apps and micro workloads): their long saturating tails put the
  // widest segment in the final one, beyond the window.
  std::vector<double> ratios;
  for (const auto& profile : workloads::app_profiles()) ratios.push_back(profile.mem_ratio);
  for (const workloads::MicroClass cls :
       {workloads::MicroClass::kC1, workloads::MicroClass::kC2, workloads::MicroClass::kC3}) {
    const auto mem = cache::scaled_mem_system();
    ratios.push_back(workloads::micro_representative(cls, mem, 1)->spec().mem_ratio);
    ratios.push_back(workloads::micro_disruptive(cls, mem, 1)->spec().mem_ratio);
  }
  std::sort(ratios.begin(), ratios.end());
  ratios.erase(std::unique(ratios.begin(), ratios.end()), ratios.end());
  for (const double p : ratios) {
    const auto index = shared_geometric_table(p);
    EXPECT_EQ(index.get(), shared_geometric_table(p).get()) << p;  // one table per p
    std::vector<double> cdf(index->size());
    for (std::size_t k = 0; k < cdf.size(); ++k) cdf[k] = index->cdf(k);
    ASSERT_EQ(cdf.back(), 1.0) << p;
    EXPECT_FALSE(index->windowed()) << p;
    expect_exact_lookup(*index, cdf, "geometric p=" + std::to_string(p));
  }
}

TEST(QuantileIndex, ZipfTablesAreSharedPerKey) {
  // One table per (lines, exponent bit pattern): patterns with
  // different seeds share it, a different exponent gets its own.
  const auto a = shared_zipf_table(777, 0.9);
  const auto b = shared_zipf_table(777, 0.9);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), shared_zipf_table(777, std::nextafter(0.9, 1.0)).get());
  EXPECT_NE(a.get(), shared_zipf_table(778, 0.9).get());
  ASSERT_EQ(a->size(), 777u);
  EXPECT_EQ(a->cdf(776), 1.0);
}

}  // namespace
}  // namespace kyoto::mem
