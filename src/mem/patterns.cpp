#include "mem/patterns.hpp"

#include <numeric>

#include "common/check.hpp"

namespace kyoto::mem {
namespace {

std::uint64_t lines_for(Bytes working_set) {
  return std::max<Bytes>(1, (working_set + kLineBytes - 1) / kLineBytes);
}

}  // namespace

PointerChasePattern::PointerChasePattern(Bytes working_set, std::uint64_t seed)
    : lines_(lines_for(working_set)), next_(lines_) {
  // Sattolo's algorithm produces a uniformly random single cycle, so a
  // walk visits every line exactly once per lap — the defining
  // property of the Drepper chase.
  std::iota(next_.begin(), next_.end(), 0u);
  Rng rng(seed);
  for (std::uint64_t i = lines_ - 1; i > 0; --i) {
    const std::uint64_t j = rng.below(i);  // j in [0, i)
    std::swap(next_[i], next_[j]);
  }
}

Pattern::Step PointerChasePattern::step(std::uint64_t /*draw*/) {
  const Bytes offset = static_cast<Bytes>(cursor_) * kLineBytes;
  cursor_ = next_[cursor_];
  return Step{offset, false};
}

SequentialPattern::SequentialPattern(Bytes working_set) : lines_(lines_for(working_set)) {}

Pattern::Step SequentialPattern::step(std::uint64_t /*draw*/) {
  const Bytes offset = cursor_ * kLineBytes;
  ++cursor_;
  cursor_ = cursor_ == lines_ ? 0 : cursor_;
  return Step{offset, false};
}

StridedPattern::StridedPattern(Bytes working_set, std::uint64_t stride_lines)
    : lines_(lines_for(working_set)), stride_(std::max<std::uint64_t>(1, stride_lines)) {
  // A stride sharing a factor with the line count would visit only a
  // subset of the working set; nudge it to be coprime-ish.
  while (lines_ > 1 && std::gcd(stride_, lines_) != 1) ++stride_;
  // Reduced once here, the wrap is a conditional subtract:
  // a + s mod n == a + (s mod n) mod n.
  stride_ %= lines_;
}

Pattern::Step StridedPattern::step(std::uint64_t /*draw*/) {
  const Bytes offset = cursor_ * kLineBytes;
  cursor_ += stride_;
  cursor_ = cursor_ >= lines_ ? cursor_ - lines_ : cursor_;
  return Step{offset, false};
}

UniformRandomPattern::UniformRandomPattern(Bytes working_set) : lines_(lines_for(working_set)) {}

Pattern::Step UniformRandomPattern::step(std::uint64_t draw) {
  return Step{static_cast<Bytes>(Rng::bounded(draw, lines_)) * kLineBytes, true};
}

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

// --- stream compilation (the v2 format; see compiled_stream.hpp) -------

std::unique_ptr<CompiledStream> PointerChasePattern::compile(std::uint64_t /*seed*/) const {
  return std::make_unique<ChaseRingStream>(next_);
}

std::unique_ptr<CompiledStream> SequentialPattern::compile(std::uint64_t /*seed*/) const {
  return std::make_unique<SequentialStream>(lines_);
}

std::unique_ptr<CompiledStream> StridedPattern::compile(std::uint64_t /*seed*/) const {
  return std::make_unique<StridedStream>(lines_, stride_);
}

std::unique_ptr<CompiledStream> UniformRandomPattern::compile(std::uint64_t seed) const {
  return std::make_unique<UniformStream>(lines_, seed);
}

std::unique_ptr<CompiledStream> ZipfPattern::compile(std::uint64_t seed) const {
  return std::make_unique<ZipfStream>(table_, perm_, seed);
}

std::unique_ptr<CompiledStream> PhasedPattern::compile(std::uint64_t seed) const {
  std::vector<PhasedStream::Phase> phases;
  phases.reserve(phases_.size());
  std::uint64_t sub_seed = seed;
  for (const auto& phase : phases_) {
    auto child = phase.pattern->compile(splitmix64(sub_seed));
    if (child == nullptr) return nullptr;  // uncompilable child: stay on v1
    phases.push_back(PhasedStream::Phase{std::move(child), phase.accesses});
  }
  return std::make_unique<PhasedStream>(std::move(phases));
}

}  // namespace kyoto::mem
