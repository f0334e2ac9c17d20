// The hypervisor: ties machine, scheduler and VMs into a tick loop.
//
// Time advances in 10 ms ticks.  At each tick the scheduler picks one
// vCPU per core; the machine then executes all picked vCPUs for the
// tick's cycle budget in fine-grained interleaved sub-quanta, so that
// cores genuinely contend on the shared LLC *within* a tick (without
// interleaving, "parallel" execution would degenerate into coarse
// alternation and Fig 1's parallel-vs-alternative contrast would
// vanish).  After execution, each vCPU's burst is accounted to the
// scheduler together with its perfctr PMC delta; every third tick the
// slice ends (Xen's 30 ms accounting period).
//
// Execution is partitioned per socket (see README "Threading model"):
// cores of different sockets share no mutable state during a tick —
// private L1/L2 and PMU per core, LLC / memory bus / replacement RNG
// per socket, scheduler decisions frozen in the serial prologue — so
// each socket's sub-quantum interleaving can run on its own thread
// while producing bit-identical results to the serial engine.  The
// prologue (scheduler picks) and epilogue (PMC accounting, tick
// hooks) always run serially in fixed core order: they ARE the
// deterministic merge.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/align.hpp"
#include "common/arena.hpp"
#include "hv/machine.hpp"
#include "hv/scheduler.hpp"
#include "hv/vm.hpp"

namespace kyoto {
class ThreadPool;
}

namespace kyoto::hv {

class Hypervisor {
 public:
  /// Sub-quanta per tick: granularity of intra-tick core interleaving.
  /// Each sub-quantum grants a core at most max(1, cpt / 64) cycles
  /// (cpt = cycles per tick), so for cpt >= 64 a tick's sub-quanta
  /// cover only 64 * floor(cpt / 64) cycles of a core's budget: a
  /// compute-bound vCPU runs 64 of 100 cycles per tick at
  /// freq_khz = 10, and 437,440 of 437,500 at the default 43,750 kHz.
  /// The remainder is dropped, not carried over.  Closing the gap
  /// moves every pinned fingerprint, so it is left as is (ROADMAP).
  static constexpr int kSubQuantaPerTick = 64;

  Hypervisor(const MachineConfig& machine_config, std::unique_ptr<Scheduler> scheduler);
  ~Hypervisor();

  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  /// Creates a VM with one workload per vCPU.  vCPUs are pinned
  /// round-robin over all cores unless `pinned_cores` is given (one
  /// entry per vCPU).
  Vm& create_vm(const VmConfig& config,
                std::vector<std::unique_ptr<workloads::Workload>> vcpu_workloads,
                const std::vector<int>& pinned_cores = {});

  /// Convenience: single-vCPU VM pinned to `core`.
  Vm& create_vm(const VmConfig& config, std::unique_ptr<workloads::Workload> workload,
                int core);

  /// Tears a VM down mid-run (churn departure), at a tick boundary:
  /// every vCPU is dequeued from the scheduler (vcpu_removed), its
  /// arena ref-block is recycled for a future create_vm, vm-removed
  /// hooks fire (monitors abort campaigns, controllers drop slots)
  /// while the Vm object is still alive, and the VM's LLC lines are
  /// invalidated with exact attribution bookkeeping
  /// (MemorySystem::release_vm_lines).  VM ids are never reused: the
  /// slot stays null forever, vm() CHECK-fails for it, find_vm
  /// returns nullptr, and vms() skips it.
  void destroy_vm(int vm_id);

  /// Moves a vCPU to another core (at a tick boundary; callable from
  /// tick hooks and monitors).  Private caches are NOT flushed — the
  /// vCPU simply goes cold on the new core, and NUMA-remote memory
  /// accesses now pay the remote latency if the new core is on
  /// another node (Fig 9's overhead).
  void migrate(Vcpu& vcpu, int new_core);

  /// Tick-execution worker threads.  1 (default) runs the serial
  /// engine; N > 1 executes up to min(N, sockets) socket partitions
  /// concurrently — results are bit-identical either way, which
  /// tests/integration/parallel_equivalence_test.cpp enforces.
  void set_execution_threads(int threads);
  int execution_threads() const { return exec_threads_; }

  /// Ticks on which a scheduled core kept its resident vCPU and the
  /// switch-out/switch-in pair was skipped (identity-switch fast
  /// path).
  std::int64_t identity_switch_ticks() const { return identity_switch_ticks_; }

  /// Advances virtual time.
  void run_ticks(Tick n);
  void run_slices(Tick n) { run_ticks(n * kTicksPerSlice); }
  /// Runs until `predicate()` is true or `max_ticks` elapse; returns
  /// the number of ticks executed.
  Tick run_until(const std::function<bool()>& predicate, Tick max_ticks);

  Tick now() const { return now_; }
  std::int64_t wall_cycle() const { return now_ * machine_->cycles_per_tick(); }

  Machine& machine() { return *machine_; }
  const Machine& machine() const { return *machine_; }
  Scheduler& scheduler() { return *scheduler_; }

  /// The live VMs (destroyed slots are skipped), in id order.
  std::vector<Vm*> vms();
  /// The VM with id `id`; CHECK-fails if it was destroyed (find_vm is
  /// the churn-tolerant lookup).
  Vm& vm(int id) {
    Vm* v = vms_.at(static_cast<std::size_t>(id)).get();
    KYOTO_CHECK_MSG(v != nullptr, "vm " << id << " was destroyed");
    return *v;
  }
  /// The VM with id `id`, or nullptr when it was destroyed or never
  /// existed.
  Vm* find_vm(int id) {
    if (id < 0 || static_cast<std::size_t>(id) >= vms_.size()) return nullptr;
    return vms_[static_cast<std::size_t>(id)].get();
  }
  /// Number of VM ids ever allocated (ids are dense in
  /// [0, vm_count()), but some may be destroyed — see live_vm_count).
  int vm_count() const { return static_cast<int>(vms_.size()); }
  /// Number of VMs currently alive.
  int live_vm_count() const;

  /// Observers called after every tick (timeline sampling, monitors).
  using TickHook = std::function<void(Hypervisor&, Tick)>;
  void add_tick_hook(TickHook hook) { tick_hooks_.push_back(std::move(hook)); }

  /// Observers of per-burst accounting, called in the tick's serial
  /// epilogue immediately after the scheduler's own account() for the
  /// same burst (fixed core order — the deterministic merge).  This is
  /// the shadow-monitoring attach point: a hook sees exactly the
  /// RunReports the scheduler's monitor sees, on fully merged machine
  /// state, without being the scheduler's monitor.  Hooks must only
  /// observe — mutating scheduler or machine state from here would
  /// perturb the run they are shadowing.
  using AccountHook = std::function<void(Vcpu&, const RunReport&)>;
  void add_account_hook(AccountHook hook) { account_hooks_.push_back(std::move(hook)); }

  /// Observers of VM destruction, called from destroy_vm in
  /// registration order while the Vm object is still fully alive
  /// (before its LLC lines are released).  Monitors use this to abort
  /// sampling campaigns targeting the departing VM; controllers to
  /// stop charging it.
  using VmRemovedHook = std::function<void(Hypervisor&, Vm&)>;
  void add_vm_removed_hook(VmRemovedHook hook) {
    vm_removed_hooks_.push_back(std::move(hook));
  }

  /// Hot-path arena introspection: the zero-alloc churn gate pins
  /// that steady-state churn stops growing it once ref-block
  /// recycling kicks in (tests/hv/zero_alloc_test.cpp).
  const BumpArena& exec_arena() const { return exec_arena_; }

  /// Per-core idle ticks so far (no runnable vCPU or punished VMs).
  std::int64_t idle_ticks(int core) const;
  /// Ticks in which `vcpu` was scheduled.
  std::int64_t sched_ticks(const Vcpu& vcpu) const;

 private:
  /// Per-core execution state of the tick in flight.  Padded to a
  /// cache line: `ran`/`remaining` are written from inside the socket
  /// partitions, and adjacent cores across a socket boundary must not
  /// share a host line.
  struct alignas(kCacheLineBytes) CoreSlot {
    Vcpu* vcpu = nullptr;
    Cycles remaining = 0;
    Cycles ran = 0;
  };

  /// The single tick entry point (run_ticks and run_until both funnel
  /// here, so instrumentation cannot diverge between them): serial
  /// prologue -> per-socket execution -> serial merge/epilogue.
  void run_one_tick();
  /// Executes one socket's cores through the tick's sub-quantum
  /// interleaving, visiting only the cores that still have budget and
  /// stopping once all are spent.  The run_vcpu calls (order and
  /// arguments) are those of a walk over every core of the rotated
  /// block.  Touches only socket-local state; safe to run
  /// concurrently for different sockets.
  void execute_partition(int socket, CoreSlot* slots);
  /// Materializes `core`'s lazy resident (identity-switch fast path):
  /// switch-out folds the in-flight PMU delta into the vCPU's
  /// accumulated counters.  No-op when the core has none.
  void flush_resident(int core);

  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Scheduler> scheduler_;
  /// Bump arena for hot per-vCPU execution buffers (currently the
  /// ref-batch storage carved out in create_vm): allocation happens at
  /// admission time, never from the tick loop, and all vCPUs' hot
  /// buffers land contiguously instead of scattered across the heap.
  BumpArena exec_arena_;
  std::vector<std::unique_ptr<Vm>> vms_;  // by vm id; null = destroyed
  std::vector<TickHook> tick_hooks_;
  std::vector<AccountHook> account_hooks_;
  std::vector<VmRemovedHook> vm_removed_hooks_;
  /// Ref-blocks of destroyed vCPUs, recycled by create_vm so
  /// steady-state churn stops growing the arena once the live-VM
  /// high-water mark is reached (the zero-alloc churn gate).
  std::vector<workloads::AccessRef*> free_ref_blocks_;
  Tick now_ = 0;
  int next_vcpu_id_ = 0;
  int next_default_core_ = 0;
  std::vector<std::int64_t> idle_ticks_;        // per core
  std::vector<std::int64_t> sched_tick_count_;  // per vcpu id
  std::vector<CoreSlot> slots_;                 // per core, reused every tick
  /// Per core: execute_partition's live list.  Each socket uses only
  /// its own [first_core, first_core + cores_per_socket) segment, so
  /// concurrent partitions share nothing and the tick allocates
  /// nothing.
  std::vector<int> live_;
  /// Per core: vCPU still switched in from an earlier tick.  Any
  /// event that invalidates the pairing — a different pick, migrate,
  /// destroy_vm — flushes it through VirtualCounters::switch_out
  /// before proceeding.  Its semantics are those of an eager
  /// switch-out/in every tick: each VM's counters equal the sum of
  /// its per-tick RunReport deltas (tests/support/counter_ledger.hpp
  /// checks exactly that).
  std::vector<Vcpu*> resident_;
  /// Batched PMU virtualization: prologue snapshot and epilogue delta
  /// per core, flushed in one straight-line fixed-core-order pass so
  /// the accounting loop consumes plain values instead of interleaving
  /// PMU reads with branchy scheduler work.
  std::vector<pmc::CounterSet> tick_pmu_base_;
  std::vector<pmc::CounterSet> tick_pmu_delta_;
  std::int64_t identity_switch_ticks_ = 0;
  int exec_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // non-null only when partitions run concurrently
  bool in_tick_execution_ = false;    // guards structural mutation from partitions
};

}  // namespace kyoto::hv
