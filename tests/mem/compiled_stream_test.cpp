// Compiled streams (the v2 format) vs their per-op patterns.
//
// Deterministic walks (chase / sequential / strided) compile to the
// *identical* offset sequence — pinned exactly.  Stochastic draws
// (uniform / Zipf) compile to batched draws from the same
// distribution over the same line layout — pinned by two-sample
// chi-square agreement on line frequencies.  Phased composition must
// respect the per-phase access budgets.
#include "mem/compiled_stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "common/rng.hpp"
#include "mem/patterns.hpp"

namespace kyoto::mem {
namespace {

std::vector<Bytes> pattern_offsets(Pattern& pattern, std::size_t n) {
  Rng rng(0xA5A5);
  std::vector<Bytes> out(n);
  for (auto& offset : out) offset = pattern.next_offset(rng);
  return out;
}

std::vector<Bytes> stream_offsets(CompiledStream& stream, std::size_t n,
                                  std::size_t block = 257) {
  // Deliberately odd block size: exercises cursor wrap handling.
  std::vector<Bytes> out(n);
  std::size_t done = 0;
  while (done < n) {
    const std::size_t take = std::min(block, n - done);
    stream.fill(out.data() + done, take);
    done += take;
  }
  return out;
}

/// Two-sample chi-square statistic over per-line counts, normalized
/// by degrees of freedom (lines with both counts zero are skipped).
/// For equal distributions the expected value is ~1; a generous
/// threshold of 1.5 at >= 100k samples catches any real divergence.
double chi_square_per_dof(const std::vector<Bytes>& a, const std::vector<Bytes>& b,
                          std::uint64_t lines) {
  std::vector<double> ca(lines, 0.0), cb(lines, 0.0);
  for (const Bytes x : a) ca[x / kLineBytes] += 1.0;
  for (const Bytes x : b) cb[x / kLineBytes] += 1.0;
  // Classic two-sample statistic with unequal-size correction.
  const double k1 = std::sqrt(static_cast<double>(b.size()) / static_cast<double>(a.size()));
  const double k2 = 1.0 / k1;
  double stat = 0.0;
  std::uint64_t dof = 0;
  for (std::uint64_t l = 0; l < lines; ++l) {
    const double total = ca[l] + cb[l];
    if (total == 0.0) continue;
    const double d = k1 * ca[l] - k2 * cb[l];
    stat += d * d / total;
    ++dof;
  }
  return dof > 1 ? stat / static_cast<double>(dof - 1) : 0.0;
}

// --- deterministic walks: exact sequence equality ----------------------

TEST(CompiledStream, SequentialIsExactlyThePatternStream) {
  SequentialPattern pattern(100 * kLineBytes);
  const auto compiled = pattern.compile(1);
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(pattern_offsets(pattern, 1000), stream_offsets(*compiled, 1000));
}

TEST(CompiledStream, StridedIsExactlyThePatternStream) {
  for (const std::uint64_t stride : {1ull, 7ull, 13ull, 97ull}) {
    StridedPattern pattern(64 * kLineBytes, stride);
    const auto compiled = pattern.compile(1);
    ASSERT_NE(compiled, nullptr);
    EXPECT_EQ(pattern_offsets(pattern, 1000), stream_offsets(*compiled, 1000)) << stride;
  }
}

TEST(CompiledStream, ChaseRingIsExactlyThePatternStream) {
  PointerChasePattern pattern(300 * kLineBytes, /*seed=*/77);
  const auto compiled = pattern.compile(1);
  ASSERT_NE(compiled, nullptr);
  // Two laps: the ring must wrap exactly like the chase cycle.
  EXPECT_EQ(pattern_offsets(pattern, 650), stream_offsets(*compiled, 650));
}

TEST(CompiledStream, ChaseRingVisitsEveryLineOncePerLap) {
  PointerChasePattern pattern(128 * kLineBytes, 5);
  const auto compiled = pattern.compile(1);
  std::vector<Bytes> lap(128);
  compiled->fill(lap.data(), lap.size());
  std::vector<int> seen(128, 0);
  for (const Bytes offset : lap) ++seen[offset / kLineBytes];
  for (int count : seen) EXPECT_EQ(count, 1);
}

// --- stochastic draws: distributional equality -------------------------

TEST(CompiledStream, UniformMatchesPatternDistribution) {
  const std::uint64_t lines = 256;
  UniformRandomPattern pattern(lines * kLineBytes);
  const auto compiled = pattern.compile(/*seed=*/9);
  const auto a = pattern_offsets(pattern, 200'000);
  const auto b = stream_offsets(*compiled, 200'000);
  EXPECT_LT(chi_square_per_dof(a, b, lines), 1.5);
}

TEST(CompiledStream, ZipfMatchesPatternDistribution) {
  const std::uint64_t lines = 512;
  ZipfPattern pattern(lines * kLineBytes, /*exponent=*/0.9, /*seed=*/3);
  const auto compiled = pattern.compile(/*seed=*/11);
  const auto a = pattern_offsets(pattern, 300'000);
  const auto b = stream_offsets(*compiled, 300'000);
  EXPECT_LT(chi_square_per_dof(a, b, lines), 1.5);
}

/// Inverse CDF by binary search over the whole table — the mapping
/// ZipfPattern::next_offset used before the quantile index.
std::uint64_t full_lower_bound(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::uint64_t>(static_cast<std::uint64_t>(it - cdf.begin()), cdf.size() - 1);
}

TEST(CompiledStream, ZipfQuantileIndexMatchesFullLowerBound) {
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
    compiled->fill(got.data(), got.size());
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
  // draws exactly on every quantile edge j/1024 and on CDF entries,
  // where lower_bound's tie semantics decide the rank.
  struct Geometry {
    double llc_frac;
    double exponent;
  };
  const Geometry zipfs[] = {{0.45, 0.9}, {0.85, 0.75}, {1.20, 0.8}, {0.70, 1.1}};
  for (const cache::MemSystemConfig& mem :
       {cache::paper_mem_system(), cache::scaled_mem_system()}) {
    for (const Geometry& z : zipfs) {
      const std::uint64_t seed = 41;
      const Bytes ws = static_cast<Bytes>(z.llc_frac * static_cast<double>(mem.llc.size));
      ZipfPattern pattern(ws, z.exponent, seed);
      const std::uint64_t lines = pattern.working_set() / kLineBytes;
      std::vector<double> cdf(lines);
      double total = 0.0;
      for (std::uint64_t r = 0; r < lines; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), z.exponent);
        cdf[r] = total;
      }
      for (auto& c : cdf) c /= total;
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

      std::vector<double> draws;
      for (int j = 0; j < 1024; ++j) {
        const double edge = static_cast<double>(j) / 1024.0;
        draws.insert(draws.end(), {edge, std::nextafter(edge, 0.0), std::nextafter(edge, 1.0)});
      }
      for (std::uint64_t k = 0; k < lines; k += 1 + k / 8) {
        draws.insert(draws.end(), {cdf[k], std::nextafter(cdf[k], 0.0)});
      }
      draws.push_back(std::nextafter(1.0, 0.0));
      for (const double u : draws) {
        if (u >= 1.0) continue;
        ASSERT_EQ(pattern.offset_for(u), oracle(u)) << where << " u=" << u;
      }
      Rng a(7), b(7);
      for (int i = 0; i < 20'000; ++i) {
        ASSERT_EQ(pattern.next_offset(a), oracle(b.uniform())) << where << " draw " << i;
      }
    }
  }
}

TEST(CompiledStream, ZipfTablesAreSharedPerKey) {
  // One table per (lines, exponent bit pattern): patterns with
  // different seeds share it, a different exponent gets its own.
  const auto a = shared_zipf_table(777, 0.9);
  const auto b = shared_zipf_table(777, 0.9);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), shared_zipf_table(777, std::nextafter(0.9, 1.0)).get());
  EXPECT_NE(a.get(), shared_zipf_table(778, 0.9).get());
  ASSERT_EQ(a->cdf.size(), 777u);
  EXPECT_EQ(a->cdf.back(), 1.0);
}

TEST(CompiledStream, ZipfSharesHotLineLayoutWithPattern) {
  // Hot lines must be the *same* lines in both formats (shared
  // permutation), not merely equally skewed.
  const std::uint64_t lines = 64;
  ZipfPattern pattern(lines * kLineBytes, 1.2, 5);
  const auto compiled = pattern.compile(7);
  std::map<Bytes, int> pat_counts, str_counts;
  for (const Bytes x : pattern_offsets(pattern, 100'000)) ++pat_counts[x];
  for (const Bytes x : stream_offsets(*compiled, 100'000)) ++str_counts[x];
  Bytes pat_hot = 0, str_hot = 0;
  int pat_max = 0, str_max = 0;
  for (const auto& [offset, count] : pat_counts) {
    if (count > pat_max) { pat_max = count; pat_hot = offset; }
  }
  for (const auto& [offset, count] : str_counts) {
    if (count > str_max) { str_max = count; str_hot = offset; }
  }
  EXPECT_EQ(pat_hot, str_hot);
}

// --- phased composition -------------------------------------------------

TEST(CompiledStream, PhasedRespectsPhaseBudgets) {
  // Phase 1: sequential over lines [0, 10); phase 2: sequential over
  // [0, 4).  With budgets 10 and 4 the compiled stream must emit one
  // full lap of each, alternating.
  std::vector<mem::PhasedPattern::Phase> phases;
  phases.push_back({std::make_unique<SequentialPattern>(10 * kLineBytes), 10});
  phases.push_back({std::make_unique<SequentialPattern>(4 * kLineBytes), 4});
  PhasedPattern pattern(std::move(phases));
  const auto compiled = pattern.compile(1);
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(pattern_offsets(pattern, 500), stream_offsets(*compiled, 500, /*block=*/3));
}

// --- value semantics ----------------------------------------------------

TEST(CompiledStream, CloneContinuesIdentically) {
  for (const int kind : {0, 1, 2}) {
    std::unique_ptr<Pattern> pattern;
    if (kind == 0) pattern = std::make_unique<UniformRandomPattern>(64 * kLineBytes);
    if (kind == 1) pattern = std::make_unique<ZipfPattern>(64 * kLineBytes, 0.9, 3);
    if (kind == 2) pattern = std::make_unique<PointerChasePattern>(64 * kLineBytes, 3);
    const auto stream = pattern->compile(5);
    std::vector<Bytes> warm(100);
    stream->fill(warm.data(), warm.size());
    const auto clone = stream->clone();
    std::vector<Bytes> a(500), b(500);
    stream->fill(a.data(), a.size());
    clone->fill(b.data(), b.size());
    EXPECT_EQ(a, b) << "kind " << kind;
  }
}

TEST(CompiledStream, ResetRestartsTheStream) {
  UniformRandomPattern pattern(64 * kLineBytes);
  const auto stream = pattern.compile(5);
  std::vector<Bytes> first(300), again(300);
  stream->fill(first.data(), first.size());
  stream->reset();
  stream->fill(again.data(), again.size());
  EXPECT_EQ(first, again);
}

}  // namespace
}  // namespace kyoto::mem
