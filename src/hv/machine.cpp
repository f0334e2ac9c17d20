#include "hv/machine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "mem/access.hpp"

namespace kyoto::hv {

Machine::Machine(const MachineConfig& config)
    : config_(config),
      memory_(std::make_unique<cache::MemorySystem>(config.topology, config.mem, config.seed)),
      pmus_(static_cast<std::size_t>(config.topology.total_cores())) {
  KYOTO_CHECK_MSG(config.freq_khz > 0, "machine frequency must be positive");
}

pmc::CorePmu& Machine::pmu(int core) {
  KYOTO_CHECK(core >= 0 && core < config_.topology.total_cores());
  return pmus_[static_cast<std::size_t>(core)];
}

const pmc::CorePmu& Machine::pmu(int core) const {
  KYOTO_CHECK(core >= 0 && core < config_.topology.total_cores());
  return pmus_[static_cast<std::size_t>(core)];
}

Machine::RunResult Machine::run_vcpu(Vcpu& vcpu, int core, Cycles budget,
                                     std::int64_t wall_cycle_base) {
  KYOTO_CHECK(core >= 0 && core < config_.topology.total_cores());
  if (vcpu.done()) {
    RunResult result;
    result.vcpu_halted = true;
    return result;
  }
  Vcpu::RefBuffer& rb = vcpu.ref_buffer();
  KYOTO_CHECK_MSG(rb.refs != nullptr, "vCPU has no ref storage attached");

  // One consumption loop for both stream formats: the vCPU's
  // RefBuffer holds AccessRefs pulled via Workload::next_ref_batch,
  // and each compute gap retires in one add.  Requester/socket/home-
  // node resolution is hoisted out of the loop.
  RunResult result;
  auto& workload = vcpu.workload();
  const auto& spec = workload.spec();
  auto& space = vcpu.vm().address_space();
  const int home_node = space.home_node();
  const int vm_id = vcpu.vm().id();
  const double inv_mlp = 1.0 / spec.mlp;
  const bool unit_mlp = spec.mlp == 1.0;
  pmc::CorePmu& core_pmu = pmus_[static_cast<std::size_t>(core)];
  const Instructions run_length = spec.length;
  cache::MemorySystem::AccessContext mem_ctx = memory_->context(core, home_node, vm_id);
  // Refill bound in instructions (see Vcpu::RefBuffer).
  const std::size_t lookahead = workload.stream_version() == workloads::StreamVersion::kV1
                                    ? Vcpu::RefBuffer::kV1MaxOps
                                    : Vcpu::RefBuffer::kMaxOps;

  // Lookahead staging: the ref buffer knows the reference stream a
  // block ahead, so pull the LLC metadata rows of the access a few
  // refs out toward the host core while the current one simulates
  // (AccessContext::stage is semantically a no-op).  Only for
  // workloads that spill past the private caches — ILC-resident
  // streams never probe the LLC and staging would only pollute the
  // host cache.
  constexpr std::uint32_t kStageAhead = 8;
  const bool stage_ahead = spec.working_set > config_.mem.l2.size;

  // Hot counters live in locals for the whole burst: the compiler
  // cannot keep result/rb fields in registers across the opaque
  // access() call (it must assume aliasing), so mirroring them here
  // removes a load/store pair per field per reference.  They are
  // flushed back at every exit and before each completion check.
  Cycles used = 0;
  Instructions instructions = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t pmu_llc_refs = 0;  // PMU deltas accumulate here and
  std::uint64_t pmu_llc_miss = 0;  // flush once per burst (same sums)

  // Completion bookkeeping.  Refills are clamped to the remaining run
  // length (never generating past the end of a finite run: completion
  // restarts looping workloads), so completion can only land exactly
  // at the end of a batched add — checking after each add is
  // therefore equivalent to a per-op check after every instruction.
  const auto run_completed = [&]() -> bool {
    if (run_length == 0 || vcpu.retired_in_run() + instructions < run_length) {
      return false;
    }
    vcpu.note_progress(instructions, used);
    core_pmu.add(pmc::Counter::kInstructions, static_cast<std::uint64_t>(instructions));
    core_pmu.add(pmc::Counter::kUnhaltedCycles, static_cast<std::uint64_t>(used));
    core_pmu.add(pmc::Counter::kLlcReferences, pmu_llc_refs);
    core_pmu.add(pmc::Counter::kLlcMisses, pmu_llc_miss);
    vcpu.note_run_complete(wall_cycle_base + used);
    result.cycles_used = used;
    result.instructions = instructions;
    result.llc_misses = llc_misses;
    result.vcpu_halted = vcpu.done();
    return true;
  };

  while (used < budget) {
    if (rb.empty()) {
      if (rb.block_left == 0) {
        // A new block opens where the per-op engine refilled; its
        // first piece follows (see Vcpu::RefBuffer).
        std::size_t block = lookahead;
        if (run_length > 0) {
          const Instructions remaining = run_length - (vcpu.retired_in_run() + instructions);
          block = std::min<std::size_t>(block, static_cast<std::size_t>(remaining));
        }
        rb.block_left = static_cast<std::uint32_t>(block);
        rb.block_refs = Vcpu::RefBuffer::kBlock;
      }
      const std::uint32_t want_ops = std::min(rb.piece, rb.block_left);
      if (rb.piece < lookahead) rb.piece *= 2;
      std::uint32_t trailing = 0;
      const workloads::Workload::RefBatch batch =
          workload.next_ref_batch(rb.refs, rb.block_refs, want_ops, &trailing);
      KYOTO_DCHECK(batch.ops > 0);
      KYOTO_DCHECK(batch.ops <= rb.block_left);
      rb.block_left -= static_cast<std::uint32_t>(batch.ops);
      rb.block_refs -= static_cast<std::uint32_t>(batch.refs);
      if (rb.block_refs == 0) rb.block_left = 0;
      rb.pos = 0;
      rb.len = static_cast<std::uint32_t>(batch.refs);
      rb.trailing = trailing;
      rb.gap_done = 0;
    }

    const workloads::AccessRef* const refs = rb.refs;
    std::uint32_t pos = rb.pos;
    const std::uint32_t len = rb.len;
    std::uint32_t gap_done = rb.gap_done;
    while (pos < len && used < budget) {
      const workloads::AccessRef ref = refs[pos];
      if (const std::uint32_t gap_remaining = ref.gap - gap_done; gap_remaining > 0) {
        // The whole compute run retires in one add: gap one-cycle
        // instructions, clipped to the cycle budget (compute ops
        // execute only while cycles remain).
        const Cycles take =
            std::min<Cycles>(static_cast<Cycles>(gap_remaining), budget - used);
        used += take;
        instructions += take;
        gap_done += static_cast<std::uint32_t>(take);
        rb.pos = pos;
        rb.gap_done = gap_done;
        if (run_completed()) return result;
        if (used >= budget) break;  // the reference stays pending
      }
      if (stage_ahead && pos + kStageAhead < len) {
        mem_ctx.stage(space.translate(refs[pos + kStageAhead].addr));
      }
      // Workload offsets are already inside the VM's address space
      // (patterns emit < working_set, the VM constructor enforces
      // working_set <= memory): translate() only DCHECKs the bound.
      const Address addr = space.translate(ref.addr);
      const cache::AccessResult access =
          mem_ctx.access(addr, ref.write, wall_cycle_base + used);
      // Memory-level parallelism: the core hides part of the latency
      // behind independent work (out-of-order window + prefetchers).
      // With mlp == 1 the stall is the raw latency.
      const Cycles cost = unit_mlp ? std::max<Cycles>(1, access.latency)
                                   : workloads::mlp_stall(access.latency, inv_mlp);
      // Branchless event accounting: the llc_reference/llc_miss flags
      // are data-random in miss-heavy mixes.
      pmu_llc_refs +=
          static_cast<std::uint64_t>(access.llc_reference) + access.prefetch_llc_references;
      pmu_llc_miss +=
          static_cast<std::uint64_t>(access.llc_miss) + access.prefetch_llc_misses;
      llc_misses +=
          static_cast<std::uint64_t>(access.llc_miss) + access.prefetch_llc_misses;
      used += cost;
      ++instructions;
      ++pos;
      gap_done = 0;
      if (run_length > 0) {
        rb.pos = pos;
        rb.gap_done = gap_done;
        if (run_completed()) return result;
      }
    }
    rb.pos = pos;
    rb.gap_done = gap_done;

    if (pos == len && rb.trailing > 0 && used < budget) {
      const Cycles take =
          std::min<Cycles>(static_cast<Cycles>(rb.trailing), budget - used);
      used += take;
      instructions += take;
      rb.trailing -= static_cast<std::uint32_t>(take);
      if (run_completed()) return result;
    }
  }

  vcpu.note_progress(instructions, used);
  core_pmu.add(pmc::Counter::kInstructions, static_cast<std::uint64_t>(instructions));
  core_pmu.add(pmc::Counter::kUnhaltedCycles, static_cast<std::uint64_t>(used));
  core_pmu.add(pmc::Counter::kLlcReferences, pmu_llc_refs);
  core_pmu.add(pmc::Counter::kLlcMisses, pmu_llc_miss);
  result.cycles_used = used;
  result.instructions = instructions;
  result.llc_misses = llc_misses;
  return result;
}

}  // namespace kyoto::hv
