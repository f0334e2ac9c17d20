// Generic workload driven by a mem::Pattern.
//
// Every concrete application model (micro-benchmarks, blockie, SPEC
// profiles) is a PatternWorkload: a reference pattern plus the
// instruction-mix parameters of WorkloadSpec.
//
// Stream formats (WorkloadSpec::stream):
//
//  * v1 (default) — the frozen per-op stream: one uniform() Bernoulli
//    draw per instruction for the instruction mix, then for a memory
//    op the store/load draw and the pattern's offset.  This stream is
//    bit-identical to the seed behavior and must stay that way
//    (tests/workloads/stream_equivalence_test.cpp pins it with
//    hard-coded checksums).  It is generated a word buffer at a time:
//    the RNG's raw outputs are drawn ahead kDrawAhead at a time, with
//    a mask of the words that, read as the instruction-mix draw, make
//    a memory op (the exact integer form of `uniform() < p`).  Every
//    consumption form scans that mask with countr_zero — a compute
//    run costs one count, not one data-random branch per instruction
//    — and takes the store/load and pattern draws from the same
//    buffer in the per-op order.
//  * v2 — the compiled generator: *geometric-skip* op generation.
//    Instead of one Bernoulli draw per instruction, the run of
//    compute instructions before each memory reference is drawn in
//    one shot from the geometric distribution Geom(mem_ratio) — the
//    exact distribution of that run under per-op Bernoulli draws —
//    through an inverse-CDF table (GeometricGap below).  Offsets come
//    from the pattern's compile()d stream a block at a time (one
//    virtual fill per kOffsetBlock memory ops).  Work per simulated
//    instruction therefore collapses to work per *memory reference*;
//    scan_v2 walks it one reference at a time with scan_v1's emit
//    contract, so every consumption form serves one stream.  The v2
//    RNG streams derive from the same user seed through version
//    salts, so v1 figures stay regenerable from their seeds while v2
//    runs are decorrelated from them.  A workload with mem_ratio == 0
//    has no references to skip to and serves v1.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "mem/patterns.hpp"
#include "mem/quantile_index.hpp"
#include "workloads/workload.hpp"

namespace kyoto::workloads {

/// Exact inverse-CDF sampler for the geometric gap distribution
/// P(gap = k) = (1-p)^k p, k >= 0 — the length of the compute run
/// before the next memory reference when each instruction is a
/// memory op with probability p.  The table
/// (mem::shared_geometric_table) is shared per p, and its quantile
/// index maps the top bits of the uniform draw to a short search
/// range, so a draw is O(1) with no transcendental math.
class GeometricGap {
 public:
  GeometricGap() = default;

  /// `p` is the per-instruction memory probability in (0, 1]; p >= 1
  /// degenerates to gap == 0 without consuming draws.
  explicit GeometricGap(double p)
      : quantile_(p < 1.0 ? mem::shared_geometric_table(p) : nullptr) {}

  /// Draws a gap; consumes exactly one RNG word (none when p >= 1).
  std::uint32_t draw(Rng& rng) const {
    if (quantile_ == nullptr) return 0;
    return quantile_->lookup(rng.uniform());
  }

 private:
  std::shared_ptr<const mem::QuantileIndex> quantile_;
};

class PatternWorkload final : public Workload {
 public:
  /// `spec.working_set` is overwritten with the pattern's actual
  /// (line-rounded) working set.  `seed` drives the instruction mix
  /// and any stochastic pattern decisions.  A spec requesting
  /// StreamVersion::kV2 is honored unless mem_ratio == 0; then the
  /// workload falls back to v1 and reports that via stream_version().
  PatternWorkload(WorkloadSpec spec, std::unique_ptr<mem::Pattern> pattern,
                  std::uint64_t seed)
      : spec_(std::move(spec)), pattern_(std::move(pattern)), seed_(seed), rng_(seed) {
    KYOTO_CHECK(pattern_ != nullptr);
    KYOTO_CHECK_MSG(spec_.mem_ratio >= 0.0 && spec_.mem_ratio <= 1.0, "mem_ratio in [0,1]");
    KYOTO_CHECK_MSG(spec_.write_ratio >= 0.0 && spec_.write_ratio <= 1.0,
                    "write_ratio in [0,1]");
    KYOTO_CHECK_MSG(spec_.mlp >= 1.0, "mlp must be >= 1");
    spec_.working_set = pattern_->working_set();
    mem_chance_ = Rng::chance_threshold(spec_.mem_ratio);
    write_chance_ = Rng::chance_threshold(spec_.write_ratio);
    if (spec_.stream == StreamVersion::kV2 && spec_.mem_ratio == 0.0) {
      spec_.stream = StreamVersion::kV1;  // no references to skip to
    }
    if (spec_.stream == StreamVersion::kV2) {
      compiled_ = pattern_->compile(v2_stream_seed());
      gap_dist_ = GeometricGap(spec_.mem_ratio);
      write_threshold_ = fixed_threshold(spec_.write_ratio);
      offsets_.resize(kOffsetBlock);
      rng_.reseed(v2_mix_seed());
    }
  }

  PatternWorkload(const PatternWorkload& other)
      : spec_(other.spec_),
        pattern_(other.pattern_->clone()),
        seed_(other.seed_),
        rng_(other.rng_),
        mem_chance_(other.mem_chance_),
        write_chance_(other.write_chance_),
        draws_(other.draws_),
        mem_mask_(other.mem_mask_),
        draw_pos_(other.draw_pos_),
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
    mem::Op op;
    do_next_batch(&op, 1);
    return op;
  }

  RefBatch next_ref_batch(AccessRef* out, std::size_t max_refs, std::size_t max_ops,
                          std::uint32_t* trailing_gap) override {
    return scan(max_refs, max_ops, trailing_gap,
                [out](std::size_t ref, std::size_t /*op*/, std::uint32_t gap, Bytes addr,
                      bool write) { out[ref] = AccessRef{addr, gap, write}; });
  }

 protected:
  std::size_t do_next_batch(mem::Op* out, std::size_t n) override {
    // Every slot starts as a compute op; the scan then writes only the
    // memory ops.
    std::fill_n(out, n, mem::Op{});
    std::uint32_t trailing = 0;
    scan(n, n, &trailing,
         [out](std::size_t /*ref*/, std::size_t op, std::uint32_t /*gap*/, Bytes addr,
               bool write) {
           out[op].kind = write ? mem::OpKind::kStore : mem::OpKind::kLoad;
           out[op].addr = addr;
         });
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
      draw_pos_ = kDrawAhead;
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

  /// Draws the next kDrawAhead raw outputs into draws_ and returns
  /// their memory-op mask: bit i is set iff draws_[i], read as the
  /// instruction-mix draw, is a memory op.  The RNG lives in a local
  /// for the refill, so its state stays in registers.
  std::uint64_t refill_draws() {
    Rng rng = rng_;
    const std::uint64_t mem_chance = mem_chance_;
    std::uint64_t mask = 0;
    for (unsigned i = 0; i < kDrawAhead; ++i) {
      const std::uint64_t x = rng();
      draws_[i] = x;
      mask |= static_cast<std::uint64_t>((x >> 11) < mem_chance) << i;
    }
    rng_ = rng;
    return mask;
  }

  /// The v1 stream, up to `max_ops` instructions and `max_refs`
  /// memory ops, with the Workload::next_ref_batch contract.  Per
  /// instruction the stream reads one buffered word as the
  /// instruction-mix draw; for a memory op the next word is the
  /// store/load draw and the one after it is handed to the pattern,
  /// consumed only if the pattern draws.  Compute runs are found by
  /// countr_zero over the memory-op mask.  `emit(ref, op, gap, offset,
  /// write)` receives each memory op: its index among the batch's refs
  /// and among its instructions, and its preceding compute run.  The
  /// cursor and mask stay in locals: the pattern's virtual step() can
  /// neither see nor spill them.
  template <typename Emit>
  RefBatch scan_v1(std::size_t max_refs, std::size_t max_ops, std::uint32_t* trailing_gap,
                   Emit&& emit) {
    const std::uint64_t write_chance = write_chance_;
    mem::Pattern* const pattern = pattern_.get();
    unsigned pos = draw_pos_;
    std::uint64_t mask = mem_mask_;
    const auto refill_if_empty = [&] {
      if (pos == kDrawAhead) {
        mask = refill_draws();
        pos = 0;
      }
    };
    RefBatch batch;
    std::uint32_t gap = 0;
    while (batch.ops < max_ops && batch.refs < max_refs) {
      refill_if_empty();
      // Compute instructions before the next memory op; all the rest
      // of the buffer when it holds none.
      const std::uint64_t ahead = mask >> pos;
      const std::size_t run =
          ahead != 0 ? static_cast<std::size_t>(std::countr_zero(ahead)) : kDrawAhead - pos;
      const std::size_t budget = max_ops - batch.ops;
      if (run >= budget) {
        gap += static_cast<std::uint32_t>(budget);
        pos += static_cast<unsigned>(budget);
        batch.ops = max_ops;
        break;
      }
      gap += static_cast<std::uint32_t>(run);
      pos += static_cast<unsigned>(run);
      batch.ops += run;
      if (ahead == 0) continue;
      ++pos;  // the memory op's instruction-mix draw
      refill_if_empty();
      const bool write = (draws_[pos++] >> 11) < write_chance;
      refill_if_empty();
      const mem::Pattern::Step step = pattern->step(draws_[pos]);
      pos += step.drew ? 1u : 0u;
      emit(batch.refs, batch.ops, gap, step.offset, write);
      ++batch.ops;
      ++batch.refs;
      gap = 0;
    }
    draw_pos_ = pos;
    mem_mask_ = mask;
    *trailing_gap = gap;
    return batch;
  }

  /// The v2 stream with scan_v1's contract: one iteration per memory
  /// reference, compute runs emitted as gap counts, never iterated.
  /// A reference whose run does not fit the op budget stays pending,
  /// with the instructions consumed from its run subtracted.
  template <typename Emit>
  RefBatch scan_v2(std::size_t max_refs, std::size_t max_ops, std::uint32_t* trailing_gap,
                   Emit&& emit) {
    RefBatch batch;
    std::uint32_t spill = 0;
    while (batch.refs < max_refs) {
      ensure_ref();
      if (batch.ops + gap_left_ >= max_ops) {
        spill = static_cast<std::uint32_t>(max_ops - batch.ops);
        gap_left_ -= spill;
        batch.ops = max_ops;
        break;
      }
      batch.ops += gap_left_;
      emit(batch.refs, batch.ops, gap_left_, ref_addr_, ref_write_);
      ++batch.ops;
      ++batch.refs;
      gap_left_ = 0;
      have_ref_ = false;
    }
    *trailing_gap = spill;
    return batch;
  }

  template <typename Emit>
  RefBatch scan(std::size_t max_refs, std::size_t max_ops, std::uint32_t* trailing_gap,
                Emit&& emit) {
    return compiled_ != nullptr ? scan_v2(max_refs, max_ops, trailing_gap, emit)
                                : scan_v1(max_refs, max_ops, trailing_gap, emit);
  }

  void refill_offsets() {
    // The compiled stream walks on its own RNG; rng_ is not drawn.
    compiled_->fill(rng_, offsets_.data(), kOffsetBlock);
    off_pos_ = 0;
    off_len_ = kOffsetBlock;
  }

  WorkloadSpec spec_;
  std::unique_ptr<mem::Pattern> pattern_;
  std::uint64_t seed_;
  Rng rng_;

  // v1 state.  The draw-ahead buffer is part of the stream state:
  // clones copy it, reset() empties it.  At 32 words refills stay rare
  // and each workload (the churn engine creates thousands) stays small.
  static constexpr unsigned kDrawAhead = 32;
  static_assert(kDrawAhead <= 64, "the memory-op mask is one 64-bit word");
  std::uint64_t mem_chance_ = 0;    // Rng::chance_threshold(mem_ratio)
  std::uint64_t write_chance_ = 0;  // Rng::chance_threshold(write_ratio)
  std::array<std::uint64_t, kDrawAhead> draws_{};  // raw outputs drawn ahead of the stream
  std::uint64_t mem_mask_ = 0;                     // memory-op mask of draws_ (refill_draws)
  unsigned draw_pos_ = kDrawAhead;                 // next unread word; kDrawAhead = empty

  // v2 state (null/unused under v1).
  std::unique_ptr<mem::Pattern> compiled_;  // pattern_->compile(v2_stream_seed())
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
