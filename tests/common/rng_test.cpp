#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace kyoto {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, CopyClonesStream) {
  Rng a(55);
  a();
  a();
  Rng b = a;  // copy mid-stream
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(9);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a());
  a.reseed(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(42);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(8);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WordMappingsMatchTheDrawingCalls) {
  // below(), uniform() and chance() are their static mappings applied
  // to one raw output, so a buffer of raw outputs replays them.
  Rng live(8), raw(8);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(live.below(777), Rng::bounded(raw(), 777));
    EXPECT_EQ(live.uniform(), Rng::unit(raw()));
  }
}

TEST(Rng, ChanceThresholdIsExactlyChance) {
  // (draw >> 11) < chance_threshold(p) must agree with unit(draw) < p
  // for every draw, including draws whose uniform sits exactly on p
  // or one step either side of it.
  const double ps[] = {0.0,  1e-300, 0x1.0p-53, 0.12, 0.2,  0.25,
                       0.3,  0.33,   0.35,      0.5,  0.55, std::nextafter(1.0, 0.0),
                       1.0,  1.5,    -0.5};
  Rng rng(12);
  for (const double p : ps) {
    const std::uint64_t threshold = Rng::chance_threshold(p);
    std::vector<std::uint64_t> draws;
    for (int i = 0; i < 2000; ++i) draws.push_back(rng());
    if (p > 0.0 && p < 1.0) {
      const auto at = static_cast<std::uint64_t>(p * 0x1.0p53);  // unit() of at << 11 is <= p
      for (const std::uint64_t m : {at - 1, at, at + 1}) {
        if (m < (1ull << 53)) draws.push_back(m << 11 | 0x7ff);
      }
    }
    draws.push_back(0);
    draws.push_back(~0ull);
    for (const std::uint64_t x : draws) {
      EXPECT_EQ((x >> 11) < threshold, Rng::unit(x) < p) << "p=" << p << " draw=" << x;
    }
  }
}

TEST(Splitmix, DistinctOutputs) {
  std::uint64_t state = 0;
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(splitmix64(state));
  EXPECT_EQ(seen.size(), 1000u);
}

}  // namespace
}  // namespace kyoto
