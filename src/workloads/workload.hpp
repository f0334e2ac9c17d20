// Workload abstraction: an application's instruction/reference stream.
//
// A workload stands in for a benchmark application running inside a
// VM (SPEC CPU2006 program, blockie, or a Drepper micro-benchmark).
// It emits one operation per retired instruction: compute ops retire
// in one cycle, memory ops carry a *VM-local byte offset* which the
// executing vCPU translates through its VM's AddressSpace.
//
// Workloads are clonable mid-run: the McSim replay monitor (paper
// §3.3, second solution) captures the live instruction stream at an
// arbitrary point and replays the continuation in a private simulator
// — clone() is the "pin tool" attach point.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "mem/access.hpp"

namespace kyoto::workloads {

/// One memory reference plus the run of compute instructions that
/// preceded it — the geometric-skip form of the op stream.  A batch
/// of AccessRefs is equivalent to the Op stream with every compute
/// run collapsed into `gap`: replay loops charge `gap` one-cycle
/// instructions in one addition instead of iterating them.
struct AccessRef {
  Bytes addr = 0;           // VM-local byte offset of the access
  std::uint32_t gap = 0;    // compute instructions retired before it
  bool write = false;
};

/// Reference-stream format of a workload (seed-versioned; see
/// README "Stream versioning"):
///
///  * kV1 — the frozen per-op format: one Bernoulli draw per
///    instruction, one pattern dispatch per memory op.  Bit-identical
///    to the seed behavior forever, so every committed figure and
///    golden remains regenerable.
///  * kV2 — the geometric-skip format (workloads/pattern_workload.hpp):
///    one gap draw per memory reference, offsets from the pattern's
///    compile()d stream a block at a time, a decorrelated RNG stream
///    derived from the same user seed.
///    Statistically equivalent to kV1 (chi-square line frequencies,
///    miss rates within tolerance — tests/workloads/
///    stream_equivalence_test.cpp) but not bit-identical; scenario
///    files opt in via `[workload] stream = v2`.
enum class StreamVersion : unsigned char { kV1 = 1, kV2 = 2 };

/// Static description of a workload, used for reporting and for the
/// execution model.
struct WorkloadSpec {
  std::string name;
  Bytes working_set = 0;   // bytes the reference stream touches
  double mem_ratio = 0.0;  // fraction of instructions that access memory
  double write_ratio = 0.0;  // fraction of memory ops that are stores
  /// Total instructions in one complete run of the application; 0
  /// means the workload is an endless loop.
  Instructions length = 0;
  /// Memory-level-parallelism factor: how much of the raw miss
  /// latency the core hides (out-of-order overlap + hardware
  /// prefetching).  Dependent pointer chases have mlp ~1 (each load's
  /// address depends on the previous), streaming kernels 2-4.  The
  /// effective stall of an access with latency L is max(1, L/mlp).
  double mlp = 1.0;
  /// Requested reference-stream format (see StreamVersion).
  StreamVersion stream = StreamVersion::kV1;
};

/// The stall of an access with `latency` cycles on a core that hides
/// the rest behind independent work: latency * inv_mlp (inv_mlp =
/// 1/mlp) rounded half up, and at least one cycle.  Equal to
/// max(1, lround(latency * inv_mlp)) without the libm call: for these
/// non-negative values the two roundings differ only below 0.5, where
/// both clamp to 1.  One definition for both execution engines, the
/// machine's vCPU loop and the McSim replay.
inline Cycles mlp_stall(Cycles latency, double inv_mlp) {
  return std::max<Cycles>(
      1, static_cast<Cycles>(static_cast<double>(latency) * inv_mlp + 0.5));
}

/// One application instance.  Implementations are not thread-safe;
/// each vCPU owns one workload.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Produces the next instruction.  Op::addr for loads/stores is a
  /// VM-local byte offset in [0, spec().working_set).
  virtual mem::Op next() = 0;

  /// Fills `out` with the next `n` operations of the stream and
  /// returns `n` — the materialized per-op form, for trace capture
  /// and stream tests.  Non-virtual on purpose: one
  /// virtual dispatch per block instead of one per simulated
  /// instruction.  The produced stream is identical to `n` calls of
  /// next().
  std::size_t next_batch(mem::Op* out, std::size_t n) { return do_next_batch(out, n); }

  /// Geometric-skip form: advances the stream by up to `max_ops`
  /// instructions, writing one AccessRef per memory reference (at
  /// most `max_refs`).  Returns {ops consumed, refs written}; a tail
  /// of trailing compute ops that was consumed without a following
  /// memory reference is reported in `*trailing_gap` (those
  /// instructions are part of `ops` but belong to no ref).  The
  /// described instruction stream is identical to next_batch over the
  /// same window — this is a consumption format, not a different
  /// stream — and it is the only one the execution engines (the
  /// machine's vCPU loop, the McSim replay) consume.  The default
  /// implementation compresses next(); PatternWorkload serves both
  /// stream formats natively.
  struct RefBatch {
    std::size_t ops = 0;
    std::size_t refs = 0;
  };
  virtual RefBatch next_ref_batch(AccessRef* out, std::size_t max_refs, std::size_t max_ops,
                                  std::uint32_t* trailing_gap);

  /// Restarts the application from the beginning (including RNG).
  virtual void reset() = 0;

  /// Deep copy including all cursor/RNG state, so the clone's future
  /// stream equals this workload's future stream.
  virtual std::unique_ptr<Workload> clone() const = 0;

  virtual const WorkloadSpec& spec() const = 0;

  /// The stream format this workload actually emits.  kV1 unless the
  /// implementation honored a kV2 request (PatternWorkload serves v1
  /// when v2 is asked for with mem_ratio == 0).
  virtual StreamVersion stream_version() const { return StreamVersion::kV1; }

 protected:
  /// Batch fallback: any workload works unmodified at one virtual
  /// call per op; concrete classes override with a tight loop.
  virtual std::size_t do_next_batch(mem::Op* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = next();
    return n;
  }
};

/// Compresses a per-op stream into AccessRefs with the
/// Workload::next_ref_batch contract; `next_op()` yields one
/// instruction per call and is called exactly `ops` times.
template <typename NextOp>
Workload::RefBatch compress_ops(NextOp&& next_op, AccessRef* out, std::size_t max_refs,
                                std::size_t max_ops, std::uint32_t* trailing_gap) {
  Workload::RefBatch batch;
  std::uint32_t gap = 0;
  while (batch.ops < max_ops && batch.refs < max_refs) {
    const mem::Op op = next_op();
    ++batch.ops;
    if (op.kind == mem::OpKind::kCompute) {
      ++gap;
      continue;
    }
    out[batch.refs++] = AccessRef{op.addr, gap, op.kind == mem::OpKind::kStore};
    gap = 0;
  }
  *trailing_gap = gap;
  return batch;
}

inline Workload::RefBatch Workload::next_ref_batch(AccessRef* out, std::size_t max_refs,
                                                   std::size_t max_ops,
                                                   std::uint32_t* trailing_gap) {
  return compress_ops([this] { return next(); }, out, max_refs, max_ops, trailing_gap);
}

}  // namespace kyoto::workloads
