#include "mem/patterns.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mem/access.hpp"

namespace kyoto::mem {
namespace {

constexpr Bytes kWs = 64 * kLineBytes;  // 64 lines

TEST(PointerChase, VisitsEveryLineOncePerLap) {
  PointerChasePattern p(kWs, 1);
  Rng rng(1);
  std::set<Bytes> seen;
  for (int i = 0; i < 64; ++i) seen.insert(p.next_offset(rng));
  EXPECT_EQ(seen.size(), 64u);  // single cycle covers all lines exactly once
  // Second lap repeats the same sequence.
  std::set<Bytes> second;
  for (int i = 0; i < 64; ++i) second.insert(p.next_offset(rng));
  EXPECT_EQ(seen, second);
}

TEST(PointerChase, DifferentSeedsGiveDifferentChains) {
  PointerChasePattern a(kWs, 1);
  PointerChasePattern b(kWs, 2);
  Rng rng(1);
  std::vector<Bytes> seq_a;
  std::vector<Bytes> seq_b;
  for (int i = 0; i < 32; ++i) {
    seq_a.push_back(a.next_offset(rng));
    seq_b.push_back(b.next_offset(rng));
  }
  EXPECT_NE(seq_a, seq_b);
}

TEST(PointerChase, ResetRestartsCycle) {
  PointerChasePattern p(kWs, 3);
  Rng rng(1);
  const Bytes first = p.next_offset(rng);
  p.next_offset(rng);
  p.reset();
  EXPECT_EQ(p.next_offset(rng), first);
}

TEST(PointerChase, TinyWorkingSetIsOneLine) {
  PointerChasePattern p(1, 1);  // rounds up to one line
  Rng rng(1);
  EXPECT_EQ(p.working_set(), kLineBytes);
  EXPECT_EQ(p.next_offset(rng), 0u);
  EXPECT_EQ(p.next_offset(rng), 0u);
}

TEST(Sequential, WalksInOrderAndWraps) {
  SequentialPattern p(3 * kLineBytes);
  Rng rng(1);
  EXPECT_EQ(p.next_offset(rng), 0u * kLineBytes);
  EXPECT_EQ(p.next_offset(rng), 1u * kLineBytes);
  EXPECT_EQ(p.next_offset(rng), 2u * kLineBytes);
  EXPECT_EQ(p.next_offset(rng), 0u * kLineBytes);
}

TEST(Strided, CoversAllLines) {
  StridedPattern p(kWs, 7);
  Rng rng(1);
  std::set<Bytes> seen;
  for (int i = 0; i < 64; ++i) seen.insert(p.next_offset(rng));
  // Stride coprime with line count => full coverage.
  EXPECT_EQ(seen.size(), 64u);
}

TEST(Strided, NonCoprimeStrideIsAdjusted) {
  // 64 lines, requested stride 8 shares a factor; the pattern adjusts
  // it so coverage is still complete.
  StridedPattern p(kWs, 8);
  Rng rng(1);
  std::set<Bytes> seen;
  for (int i = 0; i < 64; ++i) seen.insert(p.next_offset(rng));
  EXPECT_EQ(seen.size(), 64u);
}

TEST(UniformRandom, StaysInWorkingSet) {
  UniformRandomPattern p(kWs);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const Bytes off = p.next_offset(rng);
    EXPECT_LT(off, kWs);
    EXPECT_EQ(off % kLineBytes, 0u);
  }
}

TEST(UniformRandom, TouchesMostLines) {
  UniformRandomPattern p(kWs);
  Rng rng(1);
  std::set<Bytes> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(p.next_offset(rng));
  EXPECT_GT(seen.size(), 60u);
}

TEST(Zipf, SkewsTowardHotLines) {
  ZipfPattern p(256 * kLineBytes, 1.0, 5);
  Rng rng(1);
  std::map<Bytes, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) counts[p.next_offset(rng)]++;
  // The hottest line should receive far more than the uniform share.
  int hottest = 0;
  for (const auto& [off, c] : counts) hottest = std::max(hottest, c);
  EXPECT_GT(hottest, n / 256 * 10);
}

TEST(Zipf, ZeroExponentIsUniformish) {
  ZipfPattern p(64 * kLineBytes, 0.0, 5);
  Rng rng(1);
  std::map<Bytes, int> counts;
  const int n = 64 * 500;
  for (int i = 0; i < n; ++i) counts[p.next_offset(rng)]++;
  EXPECT_EQ(counts.size(), 64u);
  for (const auto& [off, c] : counts) {
    EXPECT_NEAR(c, 500, 150);  // within 30% of the uniform share
  }
}

TEST(Phased, SwitchesBetweenPhases) {
  std::vector<PhasedPattern::Phase> phases;
  phases.push_back({std::make_unique<SequentialPattern>(2 * kLineBytes), 4});
  phases.push_back({std::make_unique<SequentialPattern>(8 * kLineBytes), 4});
  PhasedPattern p(std::move(phases));
  Rng rng(1);
  // Phase 1: offsets within 2 lines.
  for (int i = 0; i < 4; ++i) EXPECT_LT(p.next_offset(rng), 2 * kLineBytes);
  // Phase 2 can reach beyond.
  Bytes max_seen = 0;
  for (int i = 0; i < 4; ++i) max_seen = std::max(max_seen, p.next_offset(rng));
  EXPECT_GE(max_seen, 2 * kLineBytes);
}

TEST(Phased, WorkingSetIsMaxOfPhases) {
  std::vector<PhasedPattern::Phase> phases;
  phases.push_back({std::make_unique<SequentialPattern>(2 * kLineBytes), 1});
  phases.push_back({std::make_unique<SequentialPattern>(16 * kLineBytes), 1});
  PhasedPattern p(std::move(phases));
  EXPECT_EQ(p.working_set(), 16 * kLineBytes);
}

TEST(Phased, RejectsEmptyAndNull) {
  EXPECT_THROW(PhasedPattern(std::vector<PhasedPattern::Phase>{}), std::logic_error);
  std::vector<PhasedPattern::Phase> bad;
  bad.push_back({nullptr, 4});
  EXPECT_THROW(PhasedPattern(std::move(bad)), std::logic_error);
}

// ---------------------------------------------------------------------
// Property: clone() preserves the future stream for every pattern type.
// This is the invariant the McSim "pin tool" relies on.
// ---------------------------------------------------------------------

class PatternFactory {
 public:
  virtual ~PatternFactory() = default;
  virtual std::unique_ptr<Pattern> make() const = 0;
  virtual std::string name() const = 0;
};

using FactoryFn = std::unique_ptr<Pattern> (*)();

struct CloneCase {
  const char* name;
  FactoryFn make;
};

std::unique_ptr<Pattern> make_chase() {
  return std::make_unique<PointerChasePattern>(kWs, 11);
}
std::unique_ptr<Pattern> make_seq() { return std::make_unique<SequentialPattern>(kWs); }
std::unique_ptr<Pattern> make_strided() { return std::make_unique<StridedPattern>(kWs, 5); }
std::unique_ptr<Pattern> make_random() {
  return std::make_unique<UniformRandomPattern>(kWs);
}
std::unique_ptr<Pattern> make_zipf() {
  return std::make_unique<ZipfPattern>(kWs, 0.9, 11);
}
std::unique_ptr<Pattern> make_phased() {
  std::vector<PhasedPattern::Phase> phases;
  phases.push_back({std::make_unique<SequentialPattern>(kWs / 2), 5});
  phases.push_back({std::make_unique<PointerChasePattern>(kWs, 3), 7});
  return std::make_unique<PhasedPattern>(std::move(phases));
}

class PatternCloneTest : public ::testing::TestWithParam<CloneCase> {};

TEST_P(PatternCloneTest, CloneContinuesIdentically) {
  auto original = GetParam().make();
  // Note: stochastic patterns draw from the caller's RNG, so the
  // clone equivalence holds when both sides consume identical RNG
  // streams — which is how the replay simulator uses them.
  Rng rng_a(77);
  for (int i = 0; i < 23; ++i) original->next_offset(rng_a);

  auto clone = original->clone();
  Rng rng_b = rng_a;  // clone the RNG too
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(original->next_offset(rng_a), clone->next_offset(rng_b))
        << GetParam().name << " diverged at step " << i;
  }
}

TEST_P(PatternCloneTest, ResetRestartsDeterministically) {
  auto p = GetParam().make();
  Rng rng1(5);
  std::vector<Bytes> first;
  for (int i = 0; i < 50; ++i) first.push_back(p->next_offset(rng1));
  p->reset();
  Rng rng2(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(p->next_offset(rng2), first[static_cast<std::size_t>(i)])
        << GetParam().name << " not reset-deterministic at step " << i;
  }
}

TEST_P(PatternCloneTest, OffsetsLineAlignedAndInRange) {
  auto p = GetParam().make();
  Rng rng(6);
  const Bytes ws = p->working_set();
  for (int i = 0; i < 500; ++i) {
    const Bytes off = p->next_offset(rng);
    ASSERT_LT(off, ws);
    ASSERT_EQ(off % kLineBytes, 0u);
  }
}

const CloneCase kAllPatterns[] = {
    {"chase", &make_chase},   {"sequential", &make_seq}, {"strided", &make_strided},
    {"random", &make_random}, {"zipf", &make_zipf},      {"phased", &make_phased},
};

INSTANTIATE_TEST_SUITE_P(AllPatterns, PatternCloneTest, ::testing::ValuesIn(kAllPatterns),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(Patterns, FillEqualsNextOffset) {
  // fill() in irregular block sizes is n next_offset() calls: the same
  // offsets, and the caller's RNG left in the same state.  The
  // compiled forms draw from their own RNG and leave it untouched.
  const std::size_t blocks[] = {1, 3, 7, 65, 257, 511, 2, 1023};
  for (const CloneCase& c : kAllPatterns) {
    for (const bool compiled : {false, true}) {
      const std::string where = std::string(c.name) + (compiled ? " compiled" : "");
      std::unique_ptr<Pattern> filled = c.make();
      std::unique_ptr<Pattern> stepped = c.make();
      if (compiled) {
        filled = filled->compile(99);
        stepped = stepped->compile(99);
      }
      Rng rng_filled(123), rng_stepped(123);
      std::size_t at = 0;
      for (const std::size_t n : blocks) {
        std::vector<Bytes> got(n);
        filled->fill(rng_filled, got.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], stepped->next_offset(rng_stepped)) << where << " @" << at + i;
        }
        at += n;
        Rng a = rng_filled, b = rng_stepped;
        ASSERT_EQ(a(), b()) << where << " rng after " << at;
      }
      if (compiled) {
        EXPECT_EQ(rng_filled(), Rng(123)()) << where;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Compiled patterns (the v2 offset stream): compile(seed) walks the
// pattern from its initial state on its own Rng(seed).  Deterministic
// walks (chase / sequential / strided) emit the *identical* offset
// sequence — pinned exactly.  Stochastic draws (uniform / Zipf) draw
// from the same distribution over the same line layout — pinned by
// two-sample chi-square agreement on line frequencies.  Phased
// composition must respect the per-phase access budgets.
// ---------------------------------------------------------------------

std::vector<Bytes> pattern_offsets(Pattern& pattern, std::size_t n) {
  Rng rng(0xA5A5);
  std::vector<Bytes> out(n);
  for (auto& offset : out) offset = pattern.next_offset(rng);
  return out;
}

/// `n` offsets of a compiled stream, filled `block` at a time.
std::vector<Bytes> stream_offsets(Pattern& stream, std::size_t n, std::size_t block = 257) {
  // Deliberately odd block size: exercises cursor wrap handling.
  Rng unused(0);
  std::vector<Bytes> out(n);
  std::size_t done = 0;
  while (done < n) {
    const std::size_t take = std::min(block, n - done);
    stream.fill(unused, out.data() + done, take);
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

TEST(CompiledPattern, SequentialIsExactlyThePatternStream) {
  SequentialPattern pattern(100 * kLineBytes);
  const auto compiled = pattern.compile(1);
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(pattern_offsets(pattern, 1000), stream_offsets(*compiled, 1000));
}

TEST(CompiledPattern, StridedIsExactlyThePatternStream) {
  for (const std::uint64_t stride : {1ull, 7ull, 13ull, 97ull}) {
    StridedPattern pattern(64 * kLineBytes, stride);
    const auto compiled = pattern.compile(1);
    ASSERT_NE(compiled, nullptr);
    EXPECT_EQ(pattern_offsets(pattern, 1000), stream_offsets(*compiled, 1000)) << stride;
  }
}

TEST(CompiledPattern, ChaseIsExactlyThePatternStream) {
  PointerChasePattern pattern(300 * kLineBytes, /*seed=*/77);
  const auto compiled = pattern.compile(1);
  ASSERT_NE(compiled, nullptr);
  // Two laps: the stream must wrap exactly like the chase cycle.
  EXPECT_EQ(pattern_offsets(pattern, 650), stream_offsets(*compiled, 650));
}

TEST(CompiledPattern, ChaseVisitsEveryLineOncePerLap) {
  PointerChasePattern pattern(128 * kLineBytes, 5);
  const auto compiled = pattern.compile(1);
  const std::vector<Bytes> lap = stream_offsets(*compiled, 128);
  std::vector<int> seen(128, 0);
  for (const Bytes offset : lap) ++seen[offset / kLineBytes];
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(CompiledPattern, UniformMatchesPatternDistribution) {
  const std::uint64_t lines = 256;
  UniformRandomPattern pattern(lines * kLineBytes);
  const auto compiled = pattern.compile(/*seed=*/9);
  const auto a = pattern_offsets(pattern, 200'000);
  const auto b = stream_offsets(*compiled, 200'000);
  EXPECT_LT(chi_square_per_dof(a, b, lines), 1.5);
}

TEST(CompiledPattern, ZipfMatchesPatternDistribution) {
  const std::uint64_t lines = 512;
  ZipfPattern pattern(lines * kLineBytes, /*exponent=*/0.9, /*seed=*/3);
  const auto compiled = pattern.compile(/*seed=*/11);
  const auto a = pattern_offsets(pattern, 300'000);
  const auto b = stream_offsets(*compiled, 300'000);
  EXPECT_LT(chi_square_per_dof(a, b, lines), 1.5);
}

TEST(CompiledPattern, ZipfSharesHotLineLayoutWithPattern) {
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

TEST(CompiledPattern, PhasedRespectsPhaseBudgets) {
  // Phase 1: sequential over lines [0, 10); phase 2: sequential over
  // [0, 4).  With budgets 10 and 4 the compiled stream must emit one
  // full lap of each, alternating.
  std::vector<PhasedPattern::Phase> phases;
  phases.push_back({std::make_unique<SequentialPattern>(10 * kLineBytes), 10});
  phases.push_back({std::make_unique<SequentialPattern>(4 * kLineBytes), 4});
  PhasedPattern pattern(std::move(phases));
  const auto compiled = pattern.compile(1);
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(pattern_offsets(pattern, 500), stream_offsets(*compiled, 500, /*block=*/3));
}

TEST(CompiledPattern, CloneContinuesIdentically) {
  for (const int kind : {0, 1, 2}) {
    std::unique_ptr<Pattern> pattern;
    if (kind == 0) pattern = std::make_unique<UniformRandomPattern>(64 * kLineBytes);
    if (kind == 1) pattern = std::make_unique<ZipfPattern>(64 * kLineBytes, 0.9, 3);
    if (kind == 2) pattern = std::make_unique<PointerChasePattern>(64 * kLineBytes, 3);
    const auto stream = pattern->compile(5);
    stream_offsets(*stream, 100);
    const auto clone = stream->clone();
    EXPECT_EQ(stream_offsets(*stream, 500), stream_offsets(*clone, 500)) << "kind " << kind;
  }
}

TEST(CompiledPattern, ResetRestartsTheStream) {
  UniformRandomPattern pattern(64 * kLineBytes);
  const auto stream = pattern.compile(5);
  const std::vector<Bytes> first = stream_offsets(*stream, 300);
  stream->reset();
  EXPECT_EQ(stream_offsets(*stream, 300), first);
}

}  // namespace
}  // namespace kyoto::mem
