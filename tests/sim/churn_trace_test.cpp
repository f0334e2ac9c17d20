// Churn traces: golden-pinned event streams and distribution gates.
//
// The FNV fingerprints pin the exact (config, seed) -> event-stream
// mapping: any change to the generator's draw order, the Bernoulli
// thresholding, the lifetime law or the text format shows up as a
// fingerprint mismatch and must be treated as a breaking format
// change.  The chi-square gates pin the *distributions*: geometric
// inter-arrivals (the discrete exponential), geometric lifetimes, and
// the diurnal phase mass following the triangle wave.
#include "sim/churn_trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace kyoto::sim {
namespace {

ChurnTraceConfig poisson_config(std::uint64_t seed) {
  ChurnTraceConfig c;
  c.kind = ChurnTraceConfig::Kind::kPoisson;
  c.arrival_rate = 0.05;
  c.mean_lifetime_ticks = 60.0;
  c.horizon_ticks = 600;
  c.seed = seed;
  return c;
}

ChurnTraceConfig diurnal_config(std::uint64_t seed) {
  ChurnTraceConfig c = poisson_config(seed);
  c.kind = ChurnTraceConfig::Kind::kDiurnal;
  c.period_ticks = 200;
  c.amplitude = 0.8;
  return c;
}

ChurnTraceConfig bursty_config(std::uint64_t seed) {
  ChurnTraceConfig c = poisson_config(seed);
  c.kind = ChurnTraceConfig::Kind::kBursty;
  c.burst_rate = 0.005;
  c.burst_size = 8;
  return c;
}

/// One-sample chi-square statistic per degree of freedom: observed
/// counts vs expected probabilities (bins with expected count < 5 are
/// pooled into the tail).  ~1 when the law holds; 1.5 is a generous
/// gate at these sample sizes (same style as the compiled-pattern
/// tests in tests/mem/patterns_test.cpp).
double chi_square_per_dof(const std::vector<double>& observed,
                          const std::vector<double>& expected) {
  EXPECT_EQ(observed.size(), expected.size());
  double stat = 0.0;
  std::uint64_t dof = 0;
  double pooled_obs = 0.0, pooled_exp = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (expected[i] < 5.0) {
      pooled_obs += observed[i];
      pooled_exp += expected[i];
      continue;
    }
    const double d = observed[i] - expected[i];
    stat += d * d / expected[i];
    ++dof;
  }
  if (pooled_exp >= 5.0) {
    const double d = pooled_obs - pooled_exp;
    stat += d * d / pooled_exp;
    ++dof;
  }
  return dof > 1 ? stat / static_cast<double>(dof - 1) : 0.0;
}

// --- determinism and the text format ---------------------------------

TEST(ChurnTrace, GenerationIsDeterministicPerSeed) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    EXPECT_EQ(generate_churn_trace(poisson_config(seed)),
              generate_churn_trace(poisson_config(seed)));
  }
  EXPECT_NE(generate_churn_trace(poisson_config(1)),
            generate_churn_trace(poisson_config(2)));
}

TEST(ChurnTrace, FormatParsesBackToTheSameTrace) {
  for (const auto& config : {poisson_config(3), diurnal_config(3), bursty_config(3)}) {
    const auto trace = generate_churn_trace(config);
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(parse_churn_trace(format_churn_trace(trace)), trace);
  }
}

TEST(ChurnTrace, ParserSkipsCommentsAndRejectsMalformedInput) {
  const auto trace = parse_churn_trace("# header\n\n  3 10\n5 0  # inline\n");
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0], (ChurnEvent{3, 10}));
  EXPECT_EQ(trace[1], (ChurnEvent{5, 0}));

  EXPECT_THROW(parse_churn_trace("3\n"), std::runtime_error);
  EXPECT_THROW(parse_churn_trace("3 10 99\n"), std::runtime_error);
  EXPECT_THROW(parse_churn_trace("3 -1\n"), std::runtime_error);
  EXPECT_THROW(parse_churn_trace("5 1\n3 1\n"), std::runtime_error);
}

// --- golden pins ------------------------------------------------------

// Pinned FNV-1a fingerprints of the canonical text form, one per
// (generator, seed).  A mismatch means the event-stream format
// changed: update deliberately, with a CHANGES.md note.
TEST(ChurnTrace, GoldenFingerprintsPoisson) {
  EXPECT_EQ(churn_trace_fingerprint(generate_churn_trace(poisson_config(1))),
            0x053885dc4182f9aaull);
  EXPECT_EQ(churn_trace_fingerprint(generate_churn_trace(poisson_config(2))),
            0x90cb53856232a4f4ull);
  EXPECT_EQ(churn_trace_fingerprint(generate_churn_trace(poisson_config(3))),
            0xc353ab9f475aa606ull);
}

TEST(ChurnTrace, GoldenFingerprintsDiurnal) {
  EXPECT_EQ(churn_trace_fingerprint(generate_churn_trace(diurnal_config(1))),
            0x55379d9c334309e5ull);
  EXPECT_EQ(churn_trace_fingerprint(generate_churn_trace(diurnal_config(2))),
            0x7fb4451ebeefd98eull);
}

TEST(ChurnTrace, GoldenFingerprintsBursty) {
  EXPECT_EQ(churn_trace_fingerprint(generate_churn_trace(bursty_config(1))),
            0x9b6546e771deb43aull);
  EXPECT_EQ(churn_trace_fingerprint(generate_churn_trace(bursty_config(2))),
            0x1cabfad18af053b0ull);
}

// --- distribution gates ----------------------------------------------

TEST(ChurnTrace, PoissonInterArrivalsAreGeometric) {
  ChurnTraceConfig config = poisson_config(11);
  config.horizon_ticks = 400'000;
  config.mean_lifetime_ticks = 0.0;  // lifetimes off: isolate arrivals
  const auto trace = generate_churn_trace(config);
  ASSERT_GT(trace.size(), 10'000u);

  // Gap distribution for a per-tick Bernoulli process: P(G = g) =
  // (1-p)^(g-1) p on {1, 2, ...} — the discrete exponential.
  constexpr int kBins = 64;  // gaps 1..63 individually, tail pooled
  std::vector<double> observed(kBins + 1, 0.0);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const auto gap = trace[i].tick - trace[i - 1].tick;
    if (gap == 0) continue;  // same-tick arrivals carry no gap info
    observed[gap < kBins ? static_cast<std::size_t>(gap) : kBins] += 1.0;
  }
  double samples = 0.0;
  for (const double o : observed) samples += o;
  const double p = config.arrival_rate;
  std::vector<double> expected(kBins + 1, 0.0);
  double tail = 1.0;
  for (int g = 1; g < kBins; ++g) {
    const double prob = std::pow(1.0 - p, g - 1) * p;
    expected[static_cast<std::size_t>(g)] = samples * prob;
    tail -= prob;
  }
  expected[kBins] = samples * tail;
  EXPECT_LT(chi_square_per_dof(observed, expected), 1.5);
}

TEST(ChurnTrace, LifetimesAreGeometricWithTheConfiguredMean) {
  ChurnTraceConfig config = poisson_config(13);
  config.horizon_ticks = 400'000;
  config.mean_lifetime_ticks = 40.0;
  const auto trace = generate_churn_trace(config);
  ASSERT_GT(trace.size(), 10'000u);

  constexpr int kBins = 200;
  std::vector<double> observed(kBins + 1, 0.0);
  double sum = 0.0;
  for (const ChurnEvent& e : trace) {
    observed[e.lifetime < kBins ? static_cast<std::size_t>(e.lifetime) : kBins] += 1.0;
    sum += static_cast<double>(e.lifetime);
  }
  const double n = static_cast<double>(trace.size());
  EXPECT_NEAR(sum / n, config.mean_lifetime_ticks, config.mean_lifetime_ticks * 0.05);

  const double q = 1.0 / config.mean_lifetime_ticks;
  std::vector<double> expected(kBins + 1, 0.0);
  double tail = 1.0;
  for (int l = 1; l < kBins; ++l) {
    const double prob = std::pow(1.0 - q, l - 1) * q;
    expected[static_cast<std::size_t>(l)] = n * prob;
    tail -= prob;
  }
  expected[kBins] = n * tail;
  EXPECT_LT(chi_square_per_dof(observed, expected), 1.5);
}

TEST(ChurnTrace, DiurnalPhaseMassFollowsTheTriangleWave) {
  ChurnTraceConfig config = diurnal_config(17);
  config.horizon_ticks = 400'000;
  config.mean_lifetime_ticks = 0.0;
  const auto trace = generate_churn_trace(config);
  ASSERT_GT(trace.size(), 10'000u);

  // Bucket arrivals by phase; expected mass per bucket is the exact
  // sum of the per-tick rates the generator used.
  constexpr int kBins = 8;
  const Tick period = config.period_ticks;
  const Tick per_bin = period / kBins;
  std::vector<double> observed(kBins, 0.0);
  for (const ChurnEvent& e : trace) {
    observed[static_cast<std::size_t>((e.tick % period) / per_bin)] += 1.0;
  }
  std::vector<double> expected(kBins, 0.0);
  for (Tick t = 0; t < config.horizon_ticks; ++t) {
    const double x = static_cast<double>(t % period) / static_cast<double>(period);
    const double d = x < 0.5 ? 0.5 - x : x - 0.5;
    const double tri = 1.0 - 4.0 * d;
    expected[static_cast<std::size_t>((t % period) / per_bin)] +=
        config.arrival_rate * (1.0 + config.amplitude * tri);
  }
  EXPECT_LT(chi_square_per_dof(observed, expected), 1.5);

  // And the wave is actually visible: noon buckets beat midnight.
  const double night = observed[0] + observed[kBins - 1];
  const double noon = observed[kBins / 2 - 1] + observed[kBins / 2];
  EXPECT_GT(noon, night * 2.0);
}

TEST(ChurnTrace, BurstyTraceContainsFlashCrowds) {
  ChurnTraceConfig config = bursty_config(19);
  config.horizon_ticks = 50'000;
  const auto trace = generate_churn_trace(config);

  // Count ticks with >= burst_size same-tick arrivals.
  std::int64_t bursts = 0;
  std::size_t i = 0;
  while (i < trace.size()) {
    std::size_t j = i;
    while (j < trace.size() && trace[j].tick == trace[i].tick) ++j;
    if (j - i >= static_cast<std::size_t>(config.burst_size)) ++bursts;
    i = j;
  }
  // Expected epochs = horizon * burst_rate = 250; allow +-40%.
  const double expected =
      static_cast<double>(config.horizon_ticks) * config.burst_rate;
  EXPECT_GT(static_cast<double>(bursts), expected * 0.6);
  EXPECT_LT(static_cast<double>(bursts), expected * 1.4);
}

}  // namespace
}  // namespace kyoto::sim
