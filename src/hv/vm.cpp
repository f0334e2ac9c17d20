#include "hv/vm.hpp"

#include <algorithm>

namespace kyoto::hv {

Vcpu::Vcpu(Vm& vm, int index, int global_id, std::unique_ptr<workloads::Workload> workload)
    : vm_(&vm), index_(index), id_(global_id), workload_(std::move(workload)) {
  KYOTO_CHECK(workload_ != nullptr);
}

bool Vcpu::done() const {
  const auto length = workload_->spec().length;
  if (length <= 0) return false;  // endless workload never completes
  if (vm_->loops()) return false;
  return completed_runs_ > 0;
}

std::unique_ptr<workloads::Workload> Vcpu::clone_at_block_end() const {
  auto clone = workload_->clone();
  const RefBuffer& rb = ref_buffer_;
  if (rb.block_left > 0) {
    workloads::AccessRef discard[RefBuffer::kBlock];
    std::uint32_t trailing = 0;
    [[maybe_unused]] const workloads::Workload::RefBatch batch =
        clone->next_ref_batch(discard, rb.block_refs, rb.block_left, &trailing);
    // The block ends after block_left instructions unless its
    // reference budget runs out first (only v2 blocks reach it).
    KYOTO_DCHECK(batch.ops == rb.block_left || batch.refs == rb.block_refs);
  }
  return clone;
}

void Vcpu::note_progress(Instructions retired, Cycles cycles) {
  retired_in_run_ += retired;
  retired_total_ += retired;
  cpu_cycles_ += cycles;
}

void Vcpu::note_run_complete(std::int64_t wall_cycle) {
  ++completed_runs_;
  if (first_completion_wall_cycle_ < 0) first_completion_wall_cycle_ = wall_cycle;
  retired_in_run_ = 0;
  if (vm_->loops()) workload_->reset();
}

Vm::Vm(int id, VmConfig config, std::vector<std::unique_ptr<workloads::Workload>> workloads,
       int first_vcpu_id)
    : id_(id), config_(std::move(config)) {
  KYOTO_CHECK_MSG(!workloads.empty(), "a VM needs at least one vCPU workload");
  Bytes memory = config_.memory;
  if (memory == 0) {
    for (const auto& w : workloads) memory = std::max(memory, w->spec().working_set);
    memory = std::max<Bytes>(memory, mem::kLineBytes);
  }
  for (const auto& w : workloads) {
    KYOTO_CHECK_MSG(w->spec().working_set <= memory,
                    "VM '" << config_.name << "' memory (" << memory
                           << " B) smaller than workload working set ("
                           << w->spec().working_set << " B)");
  }
  space_ = std::make_unique<mem::AddressSpace>(id_, memory, config_.home_node);
  vcpus_.reserve(workloads.size());
  int index = 0;
  for (auto& w : workloads) {
    vcpus_.push_back(std::make_unique<Vcpu>(*this, index, first_vcpu_id + index, std::move(w)));
    ++index;
  }
}

pmc::CounterSet Vm::counters() const {
  pmc::CounterSet total;
  for (const auto& v : vcpus_) total += v->counters().read();
  return total;
}

bool Vm::done() const {
  return std::all_of(vcpus_.begin(), vcpus_.end(),
                     [](const auto& v) { return v->done(); });
}

}  // namespace kyoto::hv
