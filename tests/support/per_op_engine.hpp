// Frozen per-op engines: test oracles for the ref-batch consumption
// loops.
//
// Machine::run_vcpu and mcsim::ReplaySimulator consume every workload
// as geometric-skip ref batches.  The loops below are the per-op
// engines they replaced, kept here unchanged in behavior: ops are
// pulled through Workload::next_batch and executed one instruction at
// a time, with PMU events added per access.  Suites drive them side by
// side with the library to prove the ref-batch loops are a
// consumption format, not a different simulation.  (Lookahead staging
// is omitted: AccessContext::stage is semantically a no-op.)
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <vector>

#include "cache/memory_system.hpp"
#include "cache/topology.hpp"
#include "hv/machine.hpp"
#include "hv/vm.hpp"
#include "mcsim/replay.hpp"
#include "mem/access.hpp"

namespace kyoto::test {

/// Per-op vCPU execution on `machine`'s memory system and PMUs, with
/// its own 256-op block buffer per vCPU.
class PerOpEngine {
 public:
  explicit PerOpEngine(hv::Machine& machine) : machine_(machine) {}

  hv::Machine::RunResult run_vcpu(hv::Vcpu& vcpu, int core, Cycles budget,
                                  std::int64_t wall_cycle_base) {
    hv::Machine::RunResult result;
    if (vcpu.done()) {
      result.vcpu_halted = true;
      return result;
    }
    auto& workload = vcpu.workload();
    const auto& spec = workload.spec();
    auto& space = vcpu.vm().address_space();
    const double inv_mlp = 1.0 / spec.mlp;
    const bool unit_mlp = spec.mlp == 1.0;
    pmc::CorePmu& core_pmu = machine_.pmu(core);
    const Instructions run_length = spec.length;
    auto mem_ctx = machine_.memory().context(core, space.home_node(), vcpu.vm().id());
    OpBuffer& ops = buffers_[vcpu.id()];

    while (result.cycles_used < budget) {
      if (ops.empty()) {
        std::size_t want = OpBuffer::kBlock;
        if (run_length > 0) {
          const Instructions remaining =
              run_length - (vcpu.retired_in_run() + result.instructions);
          want = std::min<std::size_t>(want, static_cast<std::size_t>(remaining));
        }
        ops.len = static_cast<std::uint32_t>(workload.next_batch(ops.ops.data(), want));
        ops.pos = 0;
      }
      const mem::Op op = ops.ops[ops.pos++];
      Cycles cost = 1;
      if (op.kind != mem::OpKind::kCompute) {
        const cache::AccessResult access =
            mem_ctx.access(space.translate(op.addr), op.kind == mem::OpKind::kStore,
                           wall_cycle_base + result.cycles_used);
        cost = unit_mlp ? std::max<Cycles>(1, access.latency)
                        : std::max<Cycles>(
                              1, static_cast<Cycles>(
                                     static_cast<double>(access.latency) * inv_mlp + 0.5));
        core_pmu.add(pmc::Counter::kLlcReferences,
                     static_cast<std::uint64_t>(access.llc_reference) +
                         access.prefetch_llc_references);
        core_pmu.add(pmc::Counter::kLlcMisses,
                     static_cast<std::uint64_t>(access.llc_miss) + access.prefetch_llc_misses);
        result.llc_misses +=
            static_cast<std::uint64_t>(access.llc_miss) + access.prefetch_llc_misses;
      }
      result.cycles_used += cost;
      ++result.instructions;

      if (run_length > 0 && vcpu.retired_in_run() + result.instructions >= run_length) {
        vcpu.note_progress(result.instructions, result.cycles_used);
        core_pmu.add(pmc::Counter::kInstructions,
                     static_cast<std::uint64_t>(result.instructions));
        core_pmu.add(pmc::Counter::kUnhaltedCycles,
                     static_cast<std::uint64_t>(result.cycles_used));
        vcpu.note_run_complete(wall_cycle_base + result.cycles_used);
        result.vcpu_halted = vcpu.done();
        return result;
      }
    }
    vcpu.note_progress(result.instructions, result.cycles_used);
    core_pmu.add(pmc::Counter::kInstructions, static_cast<std::uint64_t>(result.instructions));
    core_pmu.add(pmc::Counter::kUnhaltedCycles, static_cast<std::uint64_t>(result.cycles_used));
    return result;
  }

 private:
  struct OpBuffer {
    static constexpr std::size_t kBlock = 256;
    std::array<mem::Op, kBlock> ops;
    std::uint32_t pos = 0;
    std::uint32_t len = 0;
    bool empty() const { return pos == len; }
  };

  hv::Machine& machine_;
  std::map<int, OpBuffer> buffers_;  // by vCPU id
};

/// Per-op McSim replay of a materialized op stream against a fresh
/// single-core hierarchy, counting only the post-warmup region.
inline mcsim::ReplayResult per_op_replay(const cache::MemSystemConfig& mem_config,
                                         std::uint64_t seed, double warmup_fraction,
                                         const workloads::WorkloadSpec& spec,
                                         const std::vector<mem::Op>& ops) {
  cache::MemorySystem memory(cache::Topology{1, 1}, mem_config, seed);
  auto ctx = memory.context(/*core=*/0, /*home_node=*/0, /*vm=*/0);
  const double inv_mlp = 1.0 / std::max(1.0, spec.mlp);
  const Bytes ws = std::max<Bytes>(spec.working_set, mem::kLineBytes);
  const auto warmup = static_cast<Instructions>(warmup_fraction *
                                                static_cast<double>(ops.size()));
  mcsim::ReplayResult result;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const mem::Op op = ops[i];
    const bool counted = static_cast<Instructions>(i) >= warmup;
    Cycles cost = 1;
    if (op.kind != mem::OpKind::kCompute) {
      const auto access =
          ctx.access((1ull << 30) + op.addr % ws, op.kind == mem::OpKind::kStore);
      cost = std::max<Cycles>(
          1, static_cast<Cycles>(std::lround(static_cast<double>(access.latency) * inv_mlp)));
      if (counted && access.llc_reference) {
        ++result.llc_references;
        if (access.llc_miss) ++result.llc_misses;
      }
    }
    if (counted) {
      result.cycles += cost;
      ++result.instructions;
    }
  }
  return result;
}

}  // namespace kyoto::test
