#include "mem/patterns.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.hpp"

namespace kyoto::mem {
namespace {

std::uint64_t lines_for(Bytes working_set) {
  return std::max<Bytes>(1, (working_set + kLineBytes - 1) / kLineBytes);
}

}  // namespace

PointerChasePattern::PointerChasePattern(Bytes working_set, std::uint64_t seed)
    : lines_(lines_for(working_set)) {
  // Sattolo's algorithm produces a uniformly random single cycle, so a
  // walk visits every line exactly once per lap — the defining
  // property of the Drepper chase.
  auto next = std::make_shared<std::vector<std::uint32_t>>(lines_);
  std::iota(next->begin(), next->end(), 0u);
  Rng rng(seed);
  for (std::uint64_t i = lines_ - 1; i > 0; --i) {
    const std::uint64_t j = rng.below(i);  // j in [0, i)
    std::swap((*next)[i], (*next)[j]);
  }
  next_ = std::move(next);
}

SequentialPattern::SequentialPattern(Bytes working_set) : lines_(lines_for(working_set)) {}

StridedPattern::StridedPattern(Bytes working_set, std::uint64_t stride_lines)
    : lines_(lines_for(working_set)), stride_(std::max<std::uint64_t>(1, stride_lines)) {
  // A stride sharing a factor with the line count would visit only a
  // subset of the working set; nudge it to be coprime-ish.
  while (lines_ > 1 && std::gcd(stride_, lines_) != 1) ++stride_;
  // Reduced once here, the wrap is a conditional subtract:
  // a + s mod n == a + (s mod n) mod n.
  stride_ %= lines_;
}

UniformRandomPattern::UniformRandomPattern(Bytes working_set) : lines_(lines_for(working_set)) {}

ZipfPattern::ZipfPattern(Bytes working_set, double exponent, std::uint64_t seed)
    : lines_(lines_for(working_set)), table_(shared_zipf_table(lines_, exponent)) {
  // Spread popularity ranks over lines so hot lines do not cluster in
  // the low sets of the cache.
  auto perm = std::make_shared<std::vector<std::uint32_t>>(lines_);
  std::iota(perm->begin(), perm->end(), 0u);
  Rng rng(seed);
  for (std::uint64_t i = lines_; i > 1; --i) {
    const std::uint64_t j = rng.below(i);
    std::swap((*perm)[i - 1], (*perm)[j]);
  }
  perm_ = std::move(perm);
}

PhasedPattern::PhasedPattern(std::vector<Phase> phases) : phases_(std::move(phases)) {
  KYOTO_CHECK_MSG(!phases_.empty(), "phased pattern needs at least one phase");
  for (const auto& phase : phases_) {
    KYOTO_CHECK_MSG(phase.pattern != nullptr, "null phase pattern");
    KYOTO_CHECK_MSG(phase.accesses > 0, "phase must run for at least one access");
    max_working_set_ = std::max(max_working_set_, phase.pattern->working_set());
  }
  remaining_ = phases_[0].accesses;
}

PhasedPattern::PhasedPattern(const PhasedPattern& other)
    : max_working_set_(other.max_working_set_),
      current_(other.current_),
      remaining_(other.remaining_) {
  phases_.reserve(other.phases_.size());
  for (const auto& phase : other.phases_) {
    phases_.push_back(Phase{phase.pattern->clone(), phase.accesses});
  }
}

Pattern::Step PhasedPattern::step(std::uint64_t draw) {
  if (remaining_ == 0) {
    current_ = (current_ + 1) % phases_.size();
    remaining_ = phases_[current_].accesses;
  }
  --remaining_;
  return phases_[current_].pattern->step(draw);
}

void PhasedPattern::reset() {
  current_ = 0;
  remaining_ = phases_[0].accesses;
  for (auto& phase : phases_) phase.pattern->reset();
}

void PhasedPattern::fill(Rng& rng, Bytes* out, std::size_t n) {
  while (n > 0) {
    if (remaining_ == 0) {
      current_ = (current_ + 1) % phases_.size();
      remaining_ = phases_[current_].accesses;
    }
    const auto take = static_cast<std::size_t>(std::min<std::uint64_t>(n, remaining_));
    phases_[current_].pattern->fill(rng, out, take);
    out += take;
    n -= take;
    remaining_ -= take;
  }
}

// --- the v2 offset stream ---------------------------------------------

namespace {

/// A pattern walking on its own RNG: the form compile() returns.  It
/// ignores the RNG its callers pass, so its stream is a function of
/// its seed alone.
class SeededStream final : public Pattern {
 public:
  SeededStream(std::unique_ptr<Pattern> walk, std::uint64_t seed)
      : walk_(std::move(walk)), seed_(seed), rng_(seed) {}
  SeededStream(const SeededStream& other)
      : walk_(other.walk_->clone()), seed_(other.seed_), rng_(other.rng_) {}
  SeededStream& operator=(const SeededStream&) = delete;

  Step step(std::uint64_t /*draw*/) override { return Step{walk_->next_offset(rng_), false}; }
  void fill(Rng& /*rng*/, Bytes* out, std::size_t n) override { walk_->fill(rng_, out, n); }
  void reset() override {
    walk_->reset();
    rng_.reseed(seed_);
  }
  std::unique_ptr<Pattern> clone() const override {
    return std::make_unique<SeededStream>(*this);
  }
  Bytes working_set() const override { return walk_->working_set(); }

 private:
  std::unique_ptr<Pattern> walk_;
  std::uint64_t seed_;
  Rng rng_;
};

}  // namespace

std::unique_ptr<Pattern> Pattern::compile(std::uint64_t seed) const {
  auto walk = clone();
  walk->reset();
  return std::make_unique<SeededStream>(std::move(walk), seed);
}

std::unique_ptr<Pattern> PhasedPattern::compile(std::uint64_t seed) const {
  std::vector<Phase> phases;
  phases.reserve(phases_.size());
  std::uint64_t sub_seed = seed;
  for (const auto& phase : phases_) {
    phases.push_back(Phase{phase.pattern->compile(splitmix64(sub_seed)), phase.accesses});
  }
  return std::make_unique<PhasedPattern>(std::move(phases));
}

}  // namespace kyoto::mem
