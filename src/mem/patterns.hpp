// Reference-stream patterns over a working set.
//
// These generators substitute for the paper's benchmark applications:
// the Drepper micro-benchmark is a pointer chase over a randomly
// chained circular list [15]; SPEC CPU2006 applications and blockie
// are modelled as parameterized mixtures of the patterns below (see
// the profiles in workloads/catalog.cpp).  A pattern yields byte
// offsets within its working set; the owning workload translates them
// through the VM's AddressSpace.
//
// All patterns are value types with explicit clone(), because the
// McSim replay monitor (Section 3.3, solution 2) forks a workload
// mid-run and replays its future accesses in a private simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "mem/access.hpp"
#include "mem/quantile_index.hpp"

namespace kyoto::mem {

/// Interface for working-set reference generators.
///
/// A pattern consumes at most one RNG output per offset.  step() takes
/// that output by value — the workload draws its stream ahead into a
/// buffer and hands the pattern the next buffered word — and reports
/// whether it used it, so the generator's state never escapes into
/// the pattern's call.
class Pattern {
 public:
  virtual ~Pattern() = default;

  struct Step {
    Bytes offset = 0;   // within [0, working_set())
    bool drew = false;  // whether `draw` was consumed
  };

  /// Advances to the next offset; `draw` is the next raw output of
  /// the stream's RNG.
  virtual Step step(std::uint64_t draw) = 0;

  /// The next offset, drawing from `rng` only if the pattern consumes
  /// a draw: the stream step() describes, one offset at a time.
  Bytes next_offset(Rng& rng) {
    Rng ahead = rng;
    const Step s = step(ahead());
    if (s.drew) rng = ahead;
    return s.offset;
  }

  /// Writes the next `n` offsets: exactly what `n` next_offset(rng)
  /// calls return, leaving `rng` in the same state, at one virtual
  /// call per block.
  virtual void fill(Rng& rng, Bytes* out, std::size_t n) = 0;

  /// Restarts the stream from its initial state.
  virtual void reset() = 0;

  /// Deep copy including cursor state.
  virtual std::unique_ptr<Pattern> clone() const = 0;

  /// Size of the region this pattern touches.
  virtual Bytes working_set() const = 0;

  /// The `stream = v2` offset stream (workloads/workload.hpp): this
  /// pattern from its *initial* state, walking on its own Rng(seed).
  /// The result never draws from the RNG its callers pass in.
  virtual std::unique_ptr<Pattern> compile(std::uint64_t seed) const;
};

/// Base of the leaf patterns: generates fill() and clone() from the
/// final class's step(), which the loop inlines — one virtual call per
/// block, none per offset.
template <typename Self>
class PatternOf : public Pattern {
 public:
  void fill(Rng& rng, Bytes* __restrict out, std::size_t n) final {
    Self& self = static_cast<Self&>(*this);
    Rng local = rng;  // in registers for the loop, not aliased by `out`
    for (std::size_t i = 0; i < n; ++i) {
      Rng ahead = local;
      const Step s = self.Self::step(ahead());
      if (s.drew) local = ahead;
      out[i] = s.offset;
    }
    rng = local;
  }

  std::unique_ptr<Pattern> clone() const final {
    return std::make_unique<Self>(static_cast<const Self&>(*this));
  }
};

/// Random circular pointer chase (Drepper's micro-benchmark [15]):
/// lines of the working set are chained into one random cycle using
/// Sattolo's algorithm and the stream follows the chain.  Maximally
/// cache-unfriendly once the working set exceeds a level's capacity,
/// with exactly one access per line per lap.
class PointerChasePattern final : public PatternOf<PointerChasePattern> {
 public:
  /// `working_set` is rounded up to at least one line; `seed` fixes
  /// the chain layout.
  PointerChasePattern(Bytes working_set, std::uint64_t seed);

  Step step(std::uint64_t /*draw*/) override {
    const Bytes offset = static_cast<Bytes>(cursor_) * kLineBytes;
    cursor_ = (*next_)[cursor_];
    return Step{offset, false};
  }
  void reset() override { cursor_ = 0; }
  Bytes working_set() const override { return lines_ * kLineBytes; }

 private:
  std::uint64_t lines_ = 0;
  // next_[i] = line after i in the cycle; immutable, so clones share it.
  std::shared_ptr<const std::vector<std::uint32_t>> next_;
  std::uint32_t cursor_ = 0;
};

/// Sequential streaming walk (modelling stencil/streaming kernels such
/// as lbm): visits every line in order and wraps around.
class SequentialPattern final : public PatternOf<SequentialPattern> {
 public:
  explicit SequentialPattern(Bytes working_set);

  Step step(std::uint64_t /*draw*/) override {
    const Bytes offset = cursor_ * kLineBytes;
    ++cursor_;
    cursor_ = cursor_ == lines_ ? 0 : cursor_;
    return Step{offset, false};
  }
  void reset() override { cursor_ = 0; }
  Bytes working_set() const override { return lines_ * kLineBytes; }

 private:
  std::uint64_t lines_ = 0;
  std::uint64_t cursor_ = 0;
};

/// Fixed-stride walk (modelling column-major matrix traversals such as
/// soplex's): steps `stride_lines` lines each access, wrapping.
class StridedPattern final : public PatternOf<StridedPattern> {
 public:
  StridedPattern(Bytes working_set, std::uint64_t stride_lines);

  Step step(std::uint64_t /*draw*/) override {
    const Bytes offset = cursor_ * kLineBytes;
    cursor_ += stride_;
    cursor_ = cursor_ >= lines_ ? cursor_ - lines_ : cursor_;
    return Step{offset, false};
  }
  void reset() override { cursor_ = 0; }
  Bytes working_set() const override { return lines_ * kLineBytes; }

 private:
  std::uint64_t lines_ = 0;
  std::uint64_t stride_ = 1;  // coprime with lines_, reduced mod lines_
  std::uint64_t cursor_ = 0;
};

/// Uniform random line accesses (worst-case capacity pressure without
/// the single-cycle regularity of the chase; models blockie's
/// synthesized contention kernel [20]).
class UniformRandomPattern final : public PatternOf<UniformRandomPattern> {
 public:
  explicit UniformRandomPattern(Bytes working_set);

  Step step(std::uint64_t draw) override {
    return Step{static_cast<Bytes>(Rng::bounded(draw, lines_)) * kLineBytes, true};
  }
  void reset() override {}
  Bytes working_set() const override { return lines_ * kLineBytes; }

 private:
  std::uint64_t lines_ = 0;
};

/// Zipf-distributed line popularity (models pointer-heavy irregular
/// codes with hot structures, e.g. omnetpp's event heap / xalan's
/// DOM): rank-r line has weight 1/r^s.
class ZipfPattern final : public PatternOf<ZipfPattern> {
 public:
  ZipfPattern(Bytes working_set, double exponent, std::uint64_t seed);

  Step step(std::uint64_t draw) override {
    return Step{offset_for(Rng::unit(draw)), true};
  }
  void reset() override {}
  Bytes working_set() const override { return lines_ * kLineBytes; }

  /// The inverse-CDF mapping step applies to its draw read as a
  /// uniform `u` in [0, 1) (Rng::uniform): the line of rank
  /// lower_bound(cdf, u).
  Bytes offset_for(double u) const {
    return static_cast<Bytes>((*perm_)[table_->lookup(u)]) * kLineBytes;
  }

 private:
  std::uint64_t lines_ = 0;
  // Shared immutable tables: the CDF is process-wide per (lines,
  // exponent) (shared_zipf_table); the seed-dependent permutation is
  // shared by clones instead of copied.
  std::shared_ptr<const QuantileIndex> table_;
  std::shared_ptr<const std::vector<std::uint32_t>> perm_;  // rank -> line
};

/// Composite pattern: cycles through phases, each running a child
/// pattern for a fixed number of accesses (models phase-structured
/// SPEC codes such as gcc alternating parse/optimize).
class PhasedPattern final : public Pattern {
 public:
  struct Phase {
    std::unique_ptr<Pattern> pattern;
    std::uint64_t accesses = 0;  // accesses before moving to next phase
  };

  explicit PhasedPattern(std::vector<Phase> phases);
  PhasedPattern(const PhasedPattern& other);
  PhasedPattern& operator=(const PhasedPattern&) = delete;

  Step step(std::uint64_t draw) override;
  /// One child fill per phase run.
  void fill(Rng& rng, Bytes* out, std::size_t n) override;
  void reset() override;
  std::unique_ptr<Pattern> clone() const override {
    return std::make_unique<PhasedPattern>(*this);
  }
  Bytes working_set() const override { return max_working_set_; }
  /// Compiles each child on its own seed, drawn from a splitmix64
  /// chain over `seed`.
  std::unique_ptr<Pattern> compile(std::uint64_t seed) const override;

 private:
  std::vector<Phase> phases_;
  Bytes max_working_set_ = 0;
  std::size_t current_ = 0;
  std::uint64_t remaining_ = 0;
};

}  // namespace kyoto::mem
