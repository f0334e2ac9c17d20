// Deterministic, fast pseudo-random number generation.
//
// Every stochastic component of the simulator (workload reference
// streams, random replacement, sampling jitter) draws from an Rng
// seeded explicitly, so that a whole experiment is reproducible from a
// single seed.  We use xoshiro256** (public domain, Blackman & Vigna)
// seeded through SplitMix64, which is both faster and statistically
// stronger than std::minstd and has no global state.
#pragma once

#include <array>
#include <cstdint>

namespace kyoto {

/// SplitMix64 step; used to expand a single 64-bit seed into a full
/// xoshiro state.  Also usable standalone as a cheap hash.
inline constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** generator.  Copyable value type: cloning an Rng clones
/// the stream, which the McSim replay monitor relies on to replay a
/// workload's future accesses without disturbing the live stream.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator from a 64-bit seed (default: fixed seed so
  /// that "unseeded" code is still deterministic).
  explicit constexpr Rng(std::uint64_t seed = 0x9c0de5eedull) { reseed(seed); }

  /// Re-seeds in place; the previous stream is discarded.
  constexpr void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  bound == 0 is undefined.
  constexpr std::uint64_t below(std::uint64_t bound) { return bounded(operator()(), bound); }

  /// Uniform double in [0, 1).
  constexpr double uniform() { return unit(operator()()); }

  /// Bernoulli draw with probability p (clamped to [0,1]).
  constexpr bool chance(double p) { return uniform() < p; }

  // The mappings above, applied to one raw output.  Generators that
  // draw ahead into a buffer apply them to buffered words, so their
  // streams equal those of the per-draw calls.

  /// below()'s mapping of `draw` into [0, bound).  Lemire's
  /// multiply-shift rejection-free mapping is fine here: the simulator
  /// does not need perfectly unbiased draws, only fast and well-spread
  /// ones.
  static constexpr std::uint64_t bounded(std::uint64_t draw, std::uint64_t bound) {
    const unsigned __int128 m =
        static_cast<unsigned __int128>(draw) * static_cast<unsigned __int128>(bound);
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// uniform()'s mapping of `draw` into [0, 1).
  static constexpr double unit(std::uint64_t draw) {
    return static_cast<double>(draw >> 11) * 0x1.0p-53;
  }

  /// chance(p) as an integer compare: `(draw >> 11) < chance_threshold(p)`
  /// exactly when `unit(draw) < p`.  unit(draw) is m * 2^-53 for the
  /// integer m = draw >> 11, and m < p * 2^53 (exact: a power-of-two
  /// scale) holds iff m < ceil(p * 2^53).
  static constexpr std::uint64_t chance_threshold(double p) {
    if (!(p > 0.0)) return 0;
    if (p >= 1.0) return 1ull << 53;
    const double scaled = p * 0x1.0p53;
    const auto whole = static_cast<std::uint64_t>(scaled);
    return static_cast<double>(whole) < scaled ? whole + 1 : whole;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace kyoto
