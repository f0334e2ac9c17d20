// Virtual machines and virtual CPUs.
//
// A VM owns an address space, a configuration (CPU weight/cap plus
// the paper's new parameter: the booked LLC pollution permit
// `llc_cap`) and one or more vCPUs.  Each vCPU executes one workload;
// the paper's experiments use single-vCPU VMs pinned to cores
// (§2.2: "any VM runs a single application type and is configured
// with a single vCPU which is pinned to a single core"), but
// multi-vCPU VMs are supported (Fig 6 colocates up to 15 disruptive
// vCPUs).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "mem/address_space.hpp"
#include "pmc/perfctr.hpp"
#include "workloads/workload.hpp"

namespace kyoto::hv {

class Vm;

/// Static configuration of a VM, set at instantiation time ("booked"
/// by the cloud user).
struct VmConfig {
  std::string name;
  /// Xen credit-scheduler weight (default 256, like Xen).
  int weight = 256;
  /// CPU cap in percent of one core; 0 = uncapped (Xen semantics).
  /// Fig 3 varies this knob on the disruptive VM.
  int cpu_cap_percent = 0;
  /// The paper's new booking parameter: permitted pollution level in
  /// LLC misses per millisecond of on-CPU time (Equation 1 units).
  /// 0 = no permit booked (VM is never punished).
  double llc_cap = 0.0;
  /// Address-space size; 0 = sized automatically to the largest
  /// workload working set.
  Bytes memory = 0;
  /// NUMA node where the VM's memory lives.
  int home_node = 0;
  /// If true, each vCPU's workload restarts when it completes, so the
  /// VM acts as a persistent (dis)turber.
  bool loop_workload = false;
};

/// One virtual CPU.  Scheduler-agnostic: scheduling state lives in
/// the scheduler implementations, keyed by id().
class Vcpu {
 public:
  Vcpu(Vm& vm, int index, int global_id, std::unique_ptr<workloads::Workload> workload);

  Vcpu(const Vcpu&) = delete;
  Vcpu& operator=(const Vcpu&) = delete;

  Vm& vm() { return *vm_; }
  const Vm& vm() const { return *vm_; }
  /// Index of this vCPU within its VM.
  int index() const { return index_; }
  /// Hypervisor-wide unique id (dense, usable as an array index).
  int id() const { return id_; }

  workloads::Workload& workload() { return *workload_; }
  const workloads::Workload& workload() const { return *workload_; }

  /// Physical core this vCPU is pinned to (every vCPU is pinned; the
  /// hypervisor assigns a default at creation).
  int pinned_core() const { return pinned_core_; }
  void set_pinned_core(int core) { pinned_core_ = core; }

  pmc::VirtualCounters& counters() { return counters_; }
  const pmc::VirtualCounters& counters() const { return counters_; }

  // --- execution bookkeeping (updated by the Machine) ----------------
  /// Instructions retired in the current run of the workload.
  Instructions retired_in_run() const { return retired_in_run_; }
  /// Instructions retired since creation (across looped runs).
  Instructions retired_total() const { return retired_total_; }
  /// Completed workload runs (0 or 1 unless the VM loops).
  std::int64_t completed_runs() const { return completed_runs_; }
  /// Virtual wall-clock cycle at which the first run completed
  /// (negative while not yet complete).  This is an experiment's
  /// "execution time".
  std::int64_t first_completion_wall_cycle() const { return first_completion_wall_cycle_; }
  /// Total cycles this vCPU has spent on a core.
  Cycles cpu_cycles() const { return cpu_cycles_; }

  /// True when the workload has a finite length, has completed it,
  /// and the VM does not loop — the vCPU halts forever.
  bool done() const;

  /// Called by the Machine after executing instructions.
  void note_progress(Instructions retired, Cycles cycles);
  /// Called by the Machine when the current run completes at virtual
  /// wall cycle `wall_cycle`; restarts the workload if looping.
  void note_run_complete(std::int64_t wall_cycle);

  /// Block buffer between this vCPU's workload and the execution
  /// engine: AccessRef records pulled via Workload::next_ref_batch (one
  /// virtual dispatch per block, not per instruction), so the
  /// machine's loop advances the cycle clock by whole compute gaps
  /// instead of iterating per-op.  Refs left over when a cycle budget
  /// expires persist here, so the *consumed* instruction sequence is
  /// exactly the workload stream regardless of burst boundaries.  Each
  /// refill is capped at a lookahead bound in *instructions* (refs plus
  /// their gaps) and never outruns a finite workload's run length, so
  /// the buffer is always drained when a run completes.  `refs` storage
  /// is attached externally — the hypervisor carves it from its bump
  /// arena at create_vm time.
  ///
  /// Blocks and pieces: a refill of an empty buffer opens a *block*
  /// where the retired per-op engine refilled — the lookahead bound
  /// (kV1MaxOps = 256 for v1, kMaxOps for v2) clamped to the run's
  /// remaining length, ending early at its kBlock-th reference.  A
  /// vCPU's first block is generated in pieces of kFirstPiece,
  /// 2·kFirstPiece, … instructions, none crossing the block end, so a
  /// tenant that retires a handful of instructions before it is
  /// destroyed generates a handful, not a whole block.  Once the piece
  /// size reaches the bound every refill is one whole block.
  ///
  /// Attach point: between bursts the generator sits `block_left`
  /// instructions *behind* the block end, which is where the per-op
  /// engine left its generator.  Pin-style sampling (McSimMonitor)
  /// therefore attaches through clone_at_block_end(), which discards
  /// those instructions from the clone, so the replayed window — and
  /// every outcome, McSim jobs included — stays byte-identical to
  /// whole-block refills (for v1, to the seed behavior).  A raw
  /// workload().clone() sees the future from the generator position
  /// instead.
  struct RefBuffer {
    static constexpr std::size_t kBlock = 256;       // max refs per refill
    static constexpr std::size_t kV1MaxOps = 256;    // v1 lookahead, in instructions
    static constexpr std::size_t kMaxOps = 4096;     // v2 lookahead, in instructions
    static constexpr std::uint32_t kFirstPiece = 16;  // first piece of a first block
    workloads::AccessRef* refs = nullptr;
    std::uint32_t pos = 0;       // next ref to consume
    std::uint32_t len = 0;       // refs valid in `refs`
    std::uint32_t trailing = 0;  // batch-tail compute ops not yet retired
    std::uint32_t gap_done = 0;  // compute ops of refs[pos] already retired
    std::uint32_t block_left = 0;       // open block's instructions not yet generated
    std::uint32_t block_refs = 0;       // refs the open block may still generate
    std::uint32_t piece = kFirstPiece;  // instructions of the next piece
    bool empty() const { return pos == len && trailing == 0; }
  };
  RefBuffer& ref_buffer() { return ref_buffer_; }
  /// Attaches kBlock AccessRefs of storage (arena-owned by the caller).
  void set_ref_storage(workloads::AccessRef* storage) { ref_buffer_.refs = storage; }

  /// A clone of the workload advanced to the end of the open block:
  /// the future the per-op engine's generator would have, and the
  /// attach point of pin-style sampling (see RefBuffer).
  std::unique_ptr<workloads::Workload> clone_at_block_end() const;

 private:
  Vm* vm_;
  int index_;
  int id_;
  std::unique_ptr<workloads::Workload> workload_;
  int pinned_core_ = -1;
  pmc::VirtualCounters counters_;
  RefBuffer ref_buffer_;

  Instructions retired_in_run_ = 0;
  Instructions retired_total_ = 0;
  std::int64_t completed_runs_ = 0;
  std::int64_t first_completion_wall_cycle_ = -1;
  Cycles cpu_cycles_ = 0;
};

class Vm {
 public:
  /// `first_vcpu_id` is the global id of vCPU 0; further vCPUs get
  /// consecutive ids.
  Vm(int id, VmConfig config, std::vector<std::unique_ptr<workloads::Workload>> workloads,
     int first_vcpu_id);

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  int id() const { return id_; }
  const VmConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }

  mem::AddressSpace& address_space() { return *space_; }
  const mem::AddressSpace& address_space() const { return *space_; }

  std::vector<std::unique_ptr<Vcpu>>& vcpus() { return vcpus_; }
  const std::vector<std::unique_ptr<Vcpu>>& vcpus() const { return vcpus_; }
  Vcpu& vcpu(int index) { return *vcpus_.at(static_cast<std::size_t>(index)); }

  bool loops() const { return config_.loop_workload; }

  /// Aggregated virtualized counters over all vCPUs, always exact: a
  /// vCPU left resident on a core by the identity-switch fast path
  /// contributes its in-flight delta live (VirtualCounters::read).
  pmc::CounterSet counters() const;

  /// True when every vCPU is done.
  bool done() const;

 private:
  int id_;
  VmConfig config_;
  std::unique_ptr<mem::AddressSpace> space_;
  std::vector<std::unique_ptr<Vcpu>> vcpus_;
};

}  // namespace kyoto::hv
