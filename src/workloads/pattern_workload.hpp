// Generic workload driven by a mem::Pattern.
//
// Every concrete application model (micro-benchmarks, blockie, SPEC
// profiles) is a PatternWorkload: a reference pattern plus the
// instruction-mix parameters of WorkloadSpec.
//
// Stream formats (WorkloadSpec::stream):
//
//  * v1 (default) — the frozen per-op generator: uniform() Bernoulli
//    draws for the instruction mix, one pattern->next_offset per
//    memory op.  This stream is bit-identical to the seed behavior and
//    must stay that way (tests/workloads/stream_equivalence_test.cpp
//    pins it with hard-coded checksums).  next_ref_batch serves it
//    natively, making the identical draws but counting compute runs
//    as gaps instead of materializing Ops.
//  * v2 — the compiled generator: *geometric-skip* op generation.
//    Instead of one Bernoulli draw per instruction, the run of
//    compute instructions before each memory reference is drawn in
//    one shot from the geometric distribution Geom(mem_ratio) — the
//    exact distribution of that run under per-op Bernoulli draws —
//    through an inverse-CDF table (GeometricGap below).  Offsets come
//    from the pattern's CompiledStream a block at a time (one virtual
//    fill per kOffsetBlock memory ops, zero per-op pattern dispatch).
//    Work per simulated instruction therefore collapses to work per
//    *memory reference*; next_ref_batch exposes that form directly
//    and next()/next_batch() rematerialize per-op streams from it
//    unchanged.  The v2 RNG stream derives from the same user seed
//    through a version salt, so v1 figures stay regenerable from
//    their seeds while v2 runs are decorrelated from them.
#pragma once

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "mem/compiled_stream.hpp"
#include "mem/patterns.hpp"
#include "workloads/workload.hpp"

namespace kyoto::workloads {

/// Exact inverse-CDF sampler for the geometric gap distribution
/// P(gap = k) = (1-p)^k p, k >= 0 — the length of the compute run
/// before the next memory reference when each instruction is a
/// memory op with probability p.  The CDF is precomputed until it
/// saturates to 1.0 in double precision (a few hundred entries even
/// for the smallest in-tree p) and a mem::QuantileIndex maps the top
/// bits of the uniform draw to a one- or two-entry search range, so
/// a draw is O(1) with no transcendental math.
class GeometricGap {
 public:
  GeometricGap() = default;

  /// `p` is the per-instruction memory probability in (0, 1]; p >= 1
  /// degenerates to gap == 0 without consuming draws.
  explicit GeometricGap(double p) {
    if (p >= 1.0) {
      always_zero_ = true;
      return;
    }
    KYOTO_CHECK_MSG(p > 0.0, "geometric gap needs p in (0, 1]");
    const double q = 1.0 - p;
    double f = 0.0;   // F(k-1)
    double qk = 1.0;  // q^k
    while (f < 1.0) {
      qk *= q;
      const double next = 1.0 - qk;  // F(k)
      cdf_.push_back(next <= f ? 1.0 : next);  // force progress at saturation
      if (cdf_.back() >= 1.0) cdf_.back() = 1.0;
      f = cdf_.back();
      if (cdf_.size() > 1u << 20) {  // paranoia bound; unreachable for real p
        cdf_.back() = 1.0;
        break;
      }
    }
    quantile_ = mem::QuantileIndex(cdf_);
  }

  /// Draws a gap; consumes exactly one RNG word (none when p >= 1).
  std::uint32_t draw(Rng& rng) const {
    if (always_zero_) return 0;
    return quantile_.lookup(cdf_, rng.uniform());
  }

 private:
  std::vector<double> cdf_;  // cdf_[k] = P(gap <= k)
  mem::QuantileIndex quantile_;
  bool always_zero_ = false;
};

class PatternWorkload final : public Workload {
 public:
  /// `spec.working_set` is overwritten with the pattern's actual
  /// (line-rounded) working set.  `seed` drives the instruction mix
  /// and any stochastic pattern decisions.  A spec requesting
  /// StreamVersion::kV2 is honored iff the pattern compiles (all
  /// in-tree patterns do); otherwise the workload falls back to v1
  /// and reports that via stream_version().
  PatternWorkload(WorkloadSpec spec, std::unique_ptr<mem::Pattern> pattern,
                  std::uint64_t seed)
      : spec_(std::move(spec)), pattern_(std::move(pattern)), seed_(seed), rng_(seed) {
    KYOTO_CHECK(pattern_ != nullptr);
    KYOTO_CHECK_MSG(spec_.mem_ratio >= 0.0 && spec_.mem_ratio <= 1.0, "mem_ratio in [0,1]");
    KYOTO_CHECK_MSG(spec_.write_ratio >= 0.0 && spec_.write_ratio <= 1.0,
                    "write_ratio in [0,1]");
    KYOTO_CHECK_MSG(spec_.mlp >= 1.0, "mlp must be >= 1");
    spec_.working_set = pattern_->working_set();
    if (spec_.stream == StreamVersion::kV2) {
      compiled_ = spec_.mem_ratio > 0.0 ? pattern_->compile(v2_stream_seed()) : nullptr;
      if (compiled_ == nullptr) {
        spec_.stream = StreamVersion::kV1;  // uncompilable pattern: stay on v1
      } else {
        gap_dist_ = GeometricGap(spec_.mem_ratio);
        write_threshold_ = fixed_threshold(spec_.write_ratio);
        offsets_.resize(kOffsetBlock);
        rng_.reseed(v2_mix_seed());
      }
    }
  }

  PatternWorkload(const PatternWorkload& other)
      : spec_(other.spec_),
        pattern_(other.pattern_->clone()),
        seed_(other.seed_),
        rng_(other.rng_),
        compiled_(other.compiled_ != nullptr ? other.compiled_->clone() : nullptr),
        gap_dist_(other.gap_dist_),
        write_threshold_(other.write_threshold_),
        offsets_(other.offsets_),
        off_pos_(other.off_pos_),
        off_len_(other.off_len_),
        gap_left_(other.gap_left_),
        have_ref_(other.have_ref_),
        ref_addr_(other.ref_addr_),
        ref_write_(other.ref_write_) {}
  PatternWorkload& operator=(const PatternWorkload&) = delete;

  mem::Op next() override {
    if (compiled_ != nullptr) return next_v2();
    mem::Op op;
    if (rng_.chance(spec_.mem_ratio)) {
      op.kind = rng_.chance(spec_.write_ratio) ? mem::OpKind::kStore : mem::OpKind::kLoad;
      op.addr = pattern_->next_offset(rng_);
    }
    return op;
  }

  RefBatch next_ref_batch(AccessRef* out, std::size_t max_refs, std::size_t max_ops,
                          std::uint32_t* trailing_gap) override {
    if (compiled_ == nullptr) return next_ref_batch_v1(out, max_refs, max_ops, trailing_gap);
    // Geometric-skip fast path: one loop iteration per memory
    // reference; compute runs are emitted as gap counts, never
    // iterated.
    RefBatch batch;
    std::uint32_t spill = 0;
    while (batch.refs < max_refs) {
      ensure_ref();
      const std::uint64_t need = static_cast<std::uint64_t>(gap_left_) + 1;
      if (batch.ops + need > max_ops) {
        // The whole pending run does not fit: consume only compute
        // instructions up to the op budget and leave the reference
        // pending for the next call.
        const auto take = static_cast<std::uint32_t>(max_ops - batch.ops);
        gap_left_ -= take;
        spill = take;
        batch.ops = max_ops;
        break;
      }
      batch.ops += static_cast<std::size_t>(need);
      out[batch.refs++] = AccessRef{ref_addr_, gap_left_, ref_write_};
      gap_left_ = 0;
      have_ref_ = false;
    }
    *trailing_gap = spill;
    return batch;
  }

 protected:
  std::size_t do_next_batch(mem::Op* out, std::size_t n) override {
    if (compiled_ != nullptr) {
      for (std::size_t i = 0; i < n; ++i) out[i] = next_v2();
      return n;
    }
    // v1: same draws in the same order as next(), with the per-op
    // virtual dispatch and the spec_ field reloads hoisted out of the
    // loop.
    const double mem_ratio = spec_.mem_ratio;
    const double write_ratio = spec_.write_ratio;
    mem::Pattern* pattern = pattern_.get();
    for (std::size_t i = 0; i < n; ++i) {
      mem::Op op;
      if (rng_.chance(mem_ratio)) {
        op.kind = rng_.chance(write_ratio) ? mem::OpKind::kStore : mem::OpKind::kLoad;
        op.addr = pattern->next_offset(rng_);
      }
      out[i] = op;
    }
    return n;
  }

 public:

  void reset() override {
    pattern_->reset();
    if (compiled_ != nullptr) {
      compiled_->reset();
      rng_.reseed(v2_mix_seed());
      off_pos_ = off_len_ = 0;
      gap_left_ = 0;
      have_ref_ = false;
    } else {
      rng_.reseed(seed_);
    }
  }

  std::unique_ptr<Workload> clone() const override {
    return std::make_unique<PatternWorkload>(*this);
  }

  const WorkloadSpec& spec() const override { return spec_; }

  StreamVersion stream_version() const override { return spec_.stream; }

 private:
  /// Offsets pulled from the compiled stream per refill: one virtual
  /// fill() amortized over this many memory references.
  static constexpr std::size_t kOffsetBlock = 512;

  /// Version salts: v2 streams draw from RNG streams derived from the
  /// user seed but decorrelated from the v1 stream (and from each
  /// other), so opting a scenario into v2 never replays v1 draws.
  std::uint64_t v2_stream_seed() const {
    std::uint64_t s = seed_ ^ 0x5eedc0de00000002ull;
    return splitmix64(s);
  }
  std::uint64_t v2_mix_seed() const {
    std::uint64_t s = seed_ ^ 0x3713c0de00000002ull;
    return splitmix64(s);
  }

  /// Probability as a 64-bit fixed-point threshold:
  /// P(draw < threshold) == p to within 2^-64.
  static std::uint64_t fixed_threshold(double p) {
    if (p <= 0.0) return 0;
    if (p >= 1.0) return ~0ull;
    return static_cast<std::uint64_t>(p * 18446744073709551616.0);
  }

  /// Draws the next (gap, reference) pair if none is pending.  Draw
  /// order per reference is fixed — gap, then store/load, then the
  /// compiled offset — and shared by every consumption form, so
  /// next(), next_batch() and next_ref_batch() emit one identical
  /// stream.
  void ensure_ref() {
    if (have_ref_) return;
    gap_left_ += gap_dist_.draw(rng_);
    ref_write_ = rng_() < write_threshold_;
    if (off_pos_ == off_len_) refill_offsets();
    ref_addr_ = offsets_[off_pos_++];
    have_ref_ = true;
  }

  mem::Op next_v2() {
    ensure_ref();
    mem::Op op;
    if (gap_left_ > 0) {
      --gap_left_;
      return op;  // compute
    }
    op.kind = ref_write_ ? mem::OpKind::kStore : mem::OpKind::kLoad;
    op.addr = ref_addr_;
    have_ref_ = false;
    return op;
  }

  /// v1 ref batches: the same draws in the same order as next() — the
  /// mem_ratio Bernoulli per instruction, then for a memory op the
  /// store/load draw and the pattern offset — with compute runs
  /// counted into gaps instead of written out as Ops.  The RNG lives
  /// in a local for the batch so the compute-run draws stay in
  /// registers across the pattern's virtual next_offset.
  RefBatch next_ref_batch_v1(AccessRef* out, std::size_t max_refs, std::size_t max_ops,
                             std::uint32_t* trailing_gap) {
    const double mem_ratio = spec_.mem_ratio;
    const double write_ratio = spec_.write_ratio;
    mem::Pattern* pattern = pattern_.get();
    Rng rng = rng_;
    RefBatch batch;
    std::uint32_t gap = 0;
    while (batch.ops < max_ops && batch.refs < max_refs) {
      ++batch.ops;
      if (!rng.chance(mem_ratio)) {
        ++gap;
        continue;
      }
      const bool write = rng.chance(write_ratio);
      out[batch.refs++] = AccessRef{pattern->next_offset(rng), gap, write};
      gap = 0;
    }
    rng_ = rng;
    *trailing_gap = gap;
    return batch;
  }

  void refill_offsets() {
    compiled_->fill(offsets_.data(), kOffsetBlock);
    off_pos_ = 0;
    off_len_ = kOffsetBlock;
  }

  WorkloadSpec spec_;
  std::unique_ptr<mem::Pattern> pattern_;
  std::uint64_t seed_;
  Rng rng_;

  // v2 state (null/unused under v1).
  std::unique_ptr<mem::CompiledStream> compiled_;
  GeometricGap gap_dist_;
  std::uint64_t write_threshold_ = 0;
  std::vector<Bytes> offsets_;
  std::size_t off_pos_ = 0;
  std::size_t off_len_ = 0;
  /// Pending geometric-skip run: gap_left_ compute instructions, then
  /// (when have_ref_) the reference itself.
  std::uint32_t gap_left_ = 0;
  bool have_ref_ = false;
  Bytes ref_addr_ = 0;
  bool ref_write_ = false;
};

}  // namespace kyoto::workloads
