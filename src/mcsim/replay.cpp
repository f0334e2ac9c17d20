#include "mcsim/replay.hpp"

#include <algorithm>

#include "cache/topology.hpp"
#include "common/check.hpp"

namespace kyoto::mcsim {

ReplaySimulator::ReplaySimulator(const cache::MemSystemConfig& mem, KHz freq_khz)
    : mem_config_(mem), freq_khz_(freq_khz) {
  KYOTO_CHECK_MSG(freq_khz > 0, "replay frequency must be positive");
}

ReplayResult ReplaySimulator::replay_live(const workloads::Workload& live, Instructions n) {
  auto clone = live.clone();
  return run(*clone, n);
}

namespace {

/// Refs per refill of the replay loop (one virtual workload dispatch
/// per block).
constexpr std::size_t kReplayBlock = 256;

}  // namespace

/// Geometric-skip replay of `n` instructions of `clone`, delivered as
/// AccessRefs by Workload::next_ref_batch, against a fresh hierarchy,
/// counting only the post-warmup region.  Each compute gap is charged
/// in one addition; a gap (or trailing run) that straddles the warmup
/// boundary is split arithmetically — only the instructions at index
/// >= warmup count — so the counters equal a per-op replay of the same
/// stream bit-for-bit.
ReplayResult ReplaySimulator::run(workloads::Workload& clone, Instructions n) {
  // A fresh single-core hierarchy per replay: the simulator's caches
  // start cold, exactly like McSimA+ replaying a sampled window.
  cache::MemorySystem memory(cache::Topology{1, 1}, mem_config_, kReplaySeed);
  auto ctx = memory.context(/*core=*/0, /*home_node=*/0, /*vm=*/0);
  const workloads::WorkloadSpec& spec = clone.spec();
  const double inv_mlp = 1.0 / std::max(1.0, spec.mlp);
  const Bytes ws = std::max<Bytes>(spec.working_set, mem::kLineBytes);
  const Instructions warmup = static_cast<Instructions>(
      kReplayWarmupFraction * static_cast<double>(n));

  // Counts the post-warmup slice of a pure-compute run covering
  // instruction indices [i, i + len): each costs one cycle.
  const auto counted_run = [warmup](Instructions i, Instructions len) {
    if (i >= warmup) return len;
    const Instructions end = i + len;
    return end > warmup ? end - warmup : 0;
  };

  ReplayResult result;
  workloads::AccessRef refs[kReplayBlock];
  for (Instructions i = 0; i < n;) {
    std::uint32_t trailing = 0;
    const workloads::Workload::RefBatch batch =
        clone.next_ref_batch(refs, kReplayBlock, static_cast<std::size_t>(n - i), &trailing);
    if (batch.ops == 0) break;  // exhausted stream
    for (std::size_t r = 0; r < batch.refs; ++r) {
      const workloads::AccessRef ref = refs[r];
      const Instructions gap = ref.gap;
      const Instructions counted_gap = counted_run(i, gap);
      result.cycles += counted_gap;
      result.instructions += counted_gap;
      i += gap;
      const bool counted = i >= warmup;
      const auto access = ctx.access((1ull << 30) + ref.addr % ws, ref.write);
      const Cycles cost = workloads::mlp_stall(access.latency, inv_mlp);
      if (counted) {
        if (access.llc_reference) {
          ++result.llc_references;
          if (access.llc_miss) ++result.llc_misses;
        }
        result.cycles += cost;
        ++result.instructions;
      }
      ++i;
    }
    if (trailing > 0) {
      const Instructions counted_gap = counted_run(i, trailing);
      result.cycles += counted_gap;
      result.instructions += counted_gap;
      i += trailing;
    }
  }
  return result;
}

}  // namespace kyoto::mcsim
