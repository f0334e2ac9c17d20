// Reference-stream patterns over a working set.
//
// These generators substitute for the paper's benchmark applications:
// the Drepper micro-benchmark is a pointer chase over a randomly
// chained circular list [15]; SPEC CPU2006 applications and blockie
// are modelled as parameterized mixtures of the patterns below (see
// workloads/spec_profiles.*).  A pattern yields byte offsets within
// its working set; the owning workload translates them through the
// VM's AddressSpace.
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
#include "mem/compiled_stream.hpp"

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

  /// Restarts the stream from its initial state.
  virtual void reset() = 0;

  /// Deep copy including cursor state.
  virtual std::unique_ptr<Pattern> clone() const = 0;

  /// Size of the region this pattern touches.
  virtual Bytes working_set() const = 0;

  /// Compiles this pattern's reference stream into block-generated
  /// form (the `stream = v2` format; see compiled_stream.hpp):
  /// deterministic walks compile to the identical sequence, the
  /// stochastic ones to statistically equivalent batched draws seeded
  /// by `seed`.  Starts from the pattern's *initial* state, not its
  /// current cursor.  Returns nullptr if the pattern has no compiled
  /// form (external subclasses) — callers fall back to the v1 per-op
  /// stream.
  virtual std::unique_ptr<CompiledStream> compile(std::uint64_t seed) const {
    (void)seed;
    return nullptr;
  }
};

/// Random circular pointer chase (Drepper's micro-benchmark [15]):
/// lines of the working set are chained into one random cycle using
/// Sattolo's algorithm and the stream follows the chain.  Maximally
/// cache-unfriendly once the working set exceeds a level's capacity,
/// with exactly one access per line per lap.
class PointerChasePattern final : public Pattern {
 public:
  /// `working_set` is rounded up to at least one line; `seed` fixes
  /// the chain layout.
  PointerChasePattern(Bytes working_set, std::uint64_t seed);

  Step step(std::uint64_t draw) override;
  void reset() override { cursor_ = 0; }
  std::unique_ptr<Pattern> clone() const override {
    return std::make_unique<PointerChasePattern>(*this);
  }
  Bytes working_set() const override { return lines_ * kLineBytes; }
  /// Unrolls the cycle into a visit-order ring: the identical
  /// sequence without the dependent next_[cursor] loads.
  std::unique_ptr<CompiledStream> compile(std::uint64_t seed) const override;

 private:
  std::uint64_t lines_ = 0;
  std::vector<std::uint32_t> next_;  // next_[i] = line after i in the cycle
  std::uint32_t cursor_ = 0;
};

/// Sequential streaming walk (modelling stencil/streaming kernels such
/// as lbm): visits every line in order and wraps around.
class SequentialPattern final : public Pattern {
 public:
  explicit SequentialPattern(Bytes working_set);

  Step step(std::uint64_t draw) override;
  void reset() override { cursor_ = 0; }
  std::unique_ptr<Pattern> clone() const override {
    return std::make_unique<SequentialPattern>(*this);
  }
  Bytes working_set() const override { return lines_ * kLineBytes; }
  std::unique_ptr<CompiledStream> compile(std::uint64_t seed) const override;

 private:
  std::uint64_t lines_ = 0;
  std::uint64_t cursor_ = 0;
};

/// Fixed-stride walk (modelling column-major matrix traversals such as
/// soplex's): steps `stride_lines` lines each access, wrapping.
class StridedPattern final : public Pattern {
 public:
  StridedPattern(Bytes working_set, std::uint64_t stride_lines);

  Step step(std::uint64_t draw) override;
  void reset() override { cursor_ = 0; }
  std::unique_ptr<Pattern> clone() const override {
    return std::make_unique<StridedPattern>(*this);
  }
  Bytes working_set() const override { return lines_ * kLineBytes; }
  std::unique_ptr<CompiledStream> compile(std::uint64_t seed) const override;

 private:
  std::uint64_t lines_ = 0;
  std::uint64_t stride_ = 1;  // coprime with lines_, reduced mod lines_
  std::uint64_t cursor_ = 0;
};

/// Uniform random line accesses (worst-case capacity pressure without
/// the single-cycle regularity of the chase; models blockie's
/// synthesized contention kernel [20]).
class UniformRandomPattern final : public Pattern {
 public:
  explicit UniformRandomPattern(Bytes working_set);

  Step step(std::uint64_t draw) override;
  void reset() override {}
  std::unique_ptr<Pattern> clone() const override {
    return std::make_unique<UniformRandomPattern>(*this);
  }
  Bytes working_set() const override { return lines_ * kLineBytes; }
  std::unique_ptr<CompiledStream> compile(std::uint64_t seed) const override;

 private:
  std::uint64_t lines_ = 0;
};

/// Zipf-distributed line popularity (models pointer-heavy irregular
/// codes with hot structures, e.g. omnetpp's event heap / xalan's
/// DOM): rank-r line has weight 1/r^s.
class ZipfPattern final : public Pattern {
 public:
  ZipfPattern(Bytes working_set, double exponent, std::uint64_t seed);

  Step step(std::uint64_t draw) override {
    return Step{offset_for(Rng::unit(draw)), true};
  }
  void reset() override {}
  std::unique_ptr<Pattern> clone() const override {
    return std::make_unique<ZipfPattern>(*this);
  }
  Bytes working_set() const override { return lines_ * kLineBytes; }
  /// Shares this pattern's table and permutation with the stream, so
  /// both formats draw from the identical distribution over the
  /// identical line layout.
  std::unique_ptr<CompiledStream> compile(std::uint64_t seed) const override;

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
  // shared by clones and compiled streams instead of copied.
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
  void reset() override;
  std::unique_ptr<Pattern> clone() const override {
    return std::make_unique<PhasedPattern>(*this);
  }
  Bytes working_set() const override { return max_working_set_; }
  /// Composes the children's compiled streams; nullptr if any child
  /// lacks one.
  std::unique_ptr<CompiledStream> compile(std::uint64_t seed) const override;

 private:
  std::vector<Phase> phases_;
  Bytes max_working_set_ = 0;
  std::size_t current_ = 0;
  std::uint64_t remaining_ = 0;
};

}  // namespace kyoto::mem
