#include "hv/hypervisor.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace kyoto::hv {

Hypervisor::Hypervisor(const MachineConfig& machine_config,
                       std::unique_ptr<Scheduler> scheduler)
    : machine_(std::make_unique<Machine>(machine_config)), scheduler_(std::move(scheduler)) {
  KYOTO_CHECK(scheduler_ != nullptr);
  const auto cores = static_cast<std::size_t>(machine_->topology().total_cores());
  idle_ticks_.assign(cores, 0);
  slots_.resize(cores);
  live_.resize(cores);
  resident_.assign(cores, nullptr);
  tick_pmu_base_.resize(cores);
  tick_pmu_delta_.resize(cores);
  scheduler_->attach(*this);
}

Hypervisor::~Hypervisor() = default;

Vm& Hypervisor::create_vm(const VmConfig& config,
                          std::vector<std::unique_ptr<workloads::Workload>> vcpu_workloads,
                          const std::vector<int>& pinned_cores) {
  KYOTO_CHECK_MSG(!vcpu_workloads.empty(), "VM needs at least one vCPU");
  KYOTO_CHECK_MSG(pinned_cores.empty() || pinned_cores.size() == vcpu_workloads.size(),
                  "pinned_cores must match vCPU count");
  const int vm_id = static_cast<int>(vms_.size());
  const int first_id = next_vcpu_id_;
  next_vcpu_id_ += static_cast<int>(vcpu_workloads.size());
  vms_.push_back(std::make_unique<Vm>(vm_id, config, std::move(vcpu_workloads), first_id));
  Vm& vm = *vms_.back();
  // Pre-size the LLCs' per-VM attribution slots so the access hot
  // path never grows them mid-run.
  machine_->memory().reserve_vm_slots(vm_id + 1);

  const int cores = machine_->topology().total_cores();
  for (std::size_t i = 0; i < vm.vcpus().size(); ++i) {
    Vcpu& vcpu = *vm.vcpus()[i];
    int core;
    if (!pinned_cores.empty()) {
      core = pinned_cores[i];
      KYOTO_CHECK_MSG(core >= 0 && core < cores, "pin target out of range: " << core);
    } else {
      core = next_default_core_;
      next_default_core_ = (next_default_core_ + 1) % cores;
    }
    vcpu.set_pinned_core(core);
    // Ref-batch storage comes from the hypervisor's bump arena: the
    // only allocation the fast engine ever needs, paid here at
    // admission time.  Blocks freed by destroy_vm are recycled first,
    // so steady-state churn stops growing the arena once the live-VM
    // high-water mark is reached.
    if (!free_ref_blocks_.empty()) {
      vcpu.set_ref_storage(free_ref_blocks_.back());
      free_ref_blocks_.pop_back();
    } else {
      vcpu.set_ref_storage(
          exec_arena_.allocate<workloads::AccessRef>(Vcpu::RefBuffer::kBlock));
    }
    scheduler_->vcpu_added(vcpu);
  }
  sched_tick_count_.resize(static_cast<std::size_t>(next_vcpu_id_), 0);
  return vm;
}

Vm& Hypervisor::create_vm(const VmConfig& config,
                          std::unique_ptr<workloads::Workload> workload, int core) {
  std::vector<std::unique_ptr<workloads::Workload>> w;
  w.push_back(std::move(workload));
  return create_vm(config, std::move(w), std::vector<int>{core});
}

void Hypervisor::destroy_vm(int vm_id) {
  // Like migrate: structural mutation only at the merge points (tick
  // hooks), never from inside a socket partition.
  KYOTO_CHECK_MSG(!in_tick_execution_, "destroy_vm called during tick execution");
  KYOTO_CHECK_MSG(vm_id >= 0 && static_cast<std::size_t>(vm_id) < vms_.size(),
                  "destroy_vm: unknown vm id " << vm_id);
  std::unique_ptr<Vm>& slot = vms_[static_cast<std::size_t>(vm_id)];
  KYOTO_CHECK_MSG(slot != nullptr, "destroy_vm: vm " << vm_id << " already destroyed");
  Vm& vm = *slot;
  for (const auto& vcpu : vm.vcpus()) {
    // A departing vCPU may still be lazily resident on its core; fold
    // its in-flight PMU delta before the counters become a final
    // accounting record.
    if (resident_[static_cast<std::size_t>(vcpu->pinned_core())] == vcpu.get()) {
      flush_resident(vcpu->pinned_core());
    }
    scheduler_->vcpu_removed(*vcpu);
    if (vcpu->ref_buffer().refs != nullptr) {
      free_ref_blocks_.push_back(vcpu->ref_buffer().refs);
    }
  }
  // Monitors abort campaigns / controllers drop slots while the Vm
  // object is still fully alive.
  for (const auto& hook : vm_removed_hooks_) hook(*this, vm);
  // LLC handoff: drop the VM's lines with exact attribution
  // bookkeeping.  Private-cache lines are left to go cold, exactly as
  // after a migration — address spaces are disjoint, so they can
  // never hit again.
  machine_->memory().release_vm_lines(vm_id);
  // The id is never reused; per-id state elsewhere stays allocated
  // but permanently idle.
  slot.reset();
}

void Hypervisor::migrate(Vcpu& vcpu, int new_core) {
  // Migration re-homes scheduler state and changes the vCPU's socket:
  // it must happen at the merge points (tick hooks, accounting), never
  // from inside a socket partition.
  KYOTO_CHECK_MSG(!in_tick_execution_, "migrate called during tick execution");
  const int cores = machine_->topology().total_cores();
  KYOTO_CHECK_MSG(new_core >= 0 && new_core < cores, "migration target out of range");
  const int old_core = vcpu.pinned_core();
  if (old_core == new_core) return;
  // The fast path keys residency on the (core, vCPU) pairing; a move
  // breaks it, so the lazy delta is folded against the old core's PMU
  // before the pin changes.
  if (resident_[static_cast<std::size_t>(old_core)] == &vcpu) flush_resident(old_core);
  vcpu.set_pinned_core(new_core);
  scheduler_->vcpu_migrated(vcpu, old_core);
}

void Hypervisor::set_execution_threads(int threads) {
  KYOTO_CHECK_MSG(threads >= 1, "execution threads must be >= 1");
  exec_threads_ = threads;
  // One partition per socket is the unit of parallelism; extra lanes
  // would only idle.
  const int lanes = std::min(threads, machine_->topology().sockets);
  if (lanes <= 1) {
    pool_.reset();
    return;
  }
  if (pool_ == nullptr || pool_->lanes() != lanes) {
    pool_ = std::make_unique<ThreadPool>(lanes);
  }
}

void Hypervisor::flush_resident(int core) {
  Vcpu*& res = resident_[static_cast<std::size_t>(core)];
  if (res == nullptr) return;
  res->counters().switch_out(machine_->pmu(core));
  res = nullptr;
}

void Hypervisor::run_ticks(Tick n) {
  run_until([] { return false; }, n);
}

Tick Hypervisor::run_until(const std::function<bool()>& predicate, Tick max_ticks) {
  Tick executed = 0;
  while (executed < max_ticks && !predicate()) {
    run_one_tick();
    ++executed;
  }
  return executed;
}

void Hypervisor::execute_partition(int socket, CoreSlot* slots) {
  const cache::Topology& topo = machine_->topology();
  const int cores = topo.total_cores();
  const int base = topo.first_core(socket);
  const int per = topo.cores_per_socket;
  const Cycles cpt = machine_->cycles_per_tick();
  const Cycles chunk = std::max<Cycles>(1, cpt / kSubQuantaPerTick);
  const std::int64_t wall_base = now_ * cpt;

  // Interleaved execution: the socket's cores advance in lockstep
  // sub-quanta so that parallel LLC contention happens at fine grain.
  // The serial engine rotates the starting core every sub-quantum so
  // no core systematically goes first (which would give it de-facto
  // priority at the shared memory bus); restricted to this socket's
  // contiguous core block, that global rotation is a rotation of the
  // block starting at the global origin when it falls inside the
  // block and at the block head otherwise.  Reproducing it here makes
  // the per-socket execution order — and therefore every LLC/bus/RNG
  // state transition — identical to the serial engine's.
  //
  // Only live cores are visited: `live` holds the local indices of
  // this socket's cores that still have budget, ascending, in the
  // socket's own segment of live_.  A sub-quantum starts at the first
  // live core at or after the rotation's local start and wraps, which
  // is the rotated block order with the spent cores skipped.  A core
  // leaves the list once its budget is spent or its vCPU halts, and
  // the partition stops early when none is left.
  int* const live = live_.data() + base;
  int n = 0;
  for (int i = 0; i < per; ++i) {
    const CoreSlot& slot = slots[base + i];
    if (slot.vcpu != nullptr && slot.remaining > 0) live[n++] = i;
  }
  int origin = 0;
  for (int sub = 0; sub < kSubQuantaPerTick && n > 0; ++sub) {
    const int local = (origin > base && origin < base + per) ? origin - base : 0;
    int at = static_cast<int>(std::lower_bound(live, live + n, local) - live);
    if (at == n) at = 0;
    bool spent = false;
    for (int k = 0; k < n; ++k) {
      const int core = base + live[at];
      CoreSlot& slot = slots[core];
      const Cycles budget = std::min(chunk, slot.remaining);
      const auto result =
          machine_->run_vcpu(*slot.vcpu, core, budget, wall_base + slot.ran);
      slot.ran += result.cycles_used;
      slot.remaining -= std::max<Cycles>(result.cycles_used, 1);
      if (result.vcpu_halted) slot.remaining = 0;  // completed, core idles out the tick
      spent |= slot.remaining <= 0;
      if (++at == n) at = 0;
    }
    if (spent) {
      n = static_cast<int>(
          std::remove_if(live, live + n,
                         [&](int i) { return slots[base + i].remaining <= 0; }) -
          live);
    }
    if (++origin == cores) origin = 0;
  }
}

void Hypervisor::run_one_tick() {
  const int cores = machine_->topology().total_cores();
  const int sockets = machine_->topology().sockets;
  const Cycles cpt = machine_->cycles_per_tick();

  // --- prologue (serial, fixed core order): scheduler decisions are
  // frozen before any execution so partitions never touch scheduler
  // state.
  for (int core = 0; core < cores; ++core) {
    auto& slot = slots_[static_cast<std::size_t>(core)];
    slot = CoreSlot{};
    Vcpu* v = scheduler_->pick(core, now_);
    if (v == nullptr) {
      ++idle_ticks_[static_cast<std::size_t>(core)];
      continue;
    }
    KYOTO_CHECK_MSG(v->pinned_core() == core,
                    "scheduler picked vCPU " << v->id() << " for core " << core
                                             << " but it is pinned to " << v->pinned_core());
    slot.vcpu = v;
    slot.remaining = scheduler_->max_burst(*v, cpt);
    tick_pmu_base_[static_cast<std::size_t>(core)] = machine_->pmu(core).read();
    // Identity-switch fast path: the same vCPU picked again stays
    // switched in — its in-flight PMU delta keeps accruing and is
    // materialized at the next real switch (or read exactly via
    // VirtualCounters::read in the meantime).
    Vcpu*& res = resident_[static_cast<std::size_t>(core)];
    if (res == v) {
      ++identity_switch_ticks_;
    } else {
      if (res != nullptr) res->counters().switch_out(machine_->pmu(core));
      v->counters().switch_in(machine_->pmu(core));
      res = v;
    }
    ++sched_tick_count_[static_cast<std::size_t>(v->id())];
  }

  // --- execution: one partition per socket.  Serial when no pool is
  // configured (or the machine has one socket); the pool barrier
  // otherwise.  Either way the post-execution state is bit-identical:
  // partitions share no mutable state, and within a partition the
  // sub-quantum order matches the serial engine.
  CoreSlot* slots = slots_.data();
  in_tick_execution_ = true;
  if (pool_ != nullptr && sockets > 1) {
    ThreadPool& pool = *pool_;
    pool.run(static_cast<std::size_t>(sockets),
             [this, slots](std::size_t socket) {
               execute_partition(static_cast<int>(socket), slots);
             });
  } else {
    for (int socket = 0; socket < sockets; ++socket) execute_partition(socket, slots);
  }
  in_tick_execution_ = false;

  // --- epilogue (serial, fixed core order): the deterministic merge.
  // Per-socket results are folded back through PMC switch-out and
  // scheduler accounting in core order, so scheduler events, monitor
  // attributions and any stats the hooks read are ordered exactly as
  // in the serial engine regardless of which thread ran which socket.
  // Batched PMU virtualization: one straight-line pass computes every
  // core's tick delta from the prologue snapshots, in fixed core
  // order, so the accounting loop below consumes plain values instead
  // of interleaving PMU reads with branchy scheduler work.
  for (int core = 0; core < cores; ++core) {
    const auto c = static_cast<std::size_t>(core);
    if (slots_[c].vcpu == nullptr) continue;
    tick_pmu_delta_[c] = machine_->pmu(core).read() - tick_pmu_base_[c];
  }
  for (int core = 0; core < cores; ++core) {
    auto& slot = slots_[static_cast<std::size_t>(core)];
    if (slot.vcpu == nullptr) continue;
    RunReport report;
    report.core = core;
    report.tick = now_;
    report.ran = slot.ran;
    report.pmc_delta = tick_pmu_delta_[static_cast<std::size_t>(core)];
    scheduler_->account(*slot.vcpu, report);
    for (const auto& hook : account_hooks_) hook(*slot.vcpu, report);
  }

  for (const auto& hook : tick_hooks_) hook(*this, now_);

  ++now_;
  if (now_ % kTicksPerSlice == 0) scheduler_->slice_end(now_);
}

std::vector<Vm*> Hypervisor::vms() {
  std::vector<Vm*> out;
  out.reserve(vms_.size());
  for (auto& vm : vms_) {
    if (vm != nullptr) out.push_back(vm.get());
  }
  return out;
}

int Hypervisor::live_vm_count() const {
  int live = 0;
  for (const auto& vm : vms_) live += vm != nullptr ? 1 : 0;
  return live;
}

std::int64_t Hypervisor::idle_ticks(int core) const {
  KYOTO_CHECK(core >= 0 && static_cast<std::size_t>(core) < idle_ticks_.size());
  return idle_ticks_[static_cast<std::size_t>(core)];
}

std::int64_t Hypervisor::sched_ticks(const Vcpu& vcpu) const {
  const auto id = static_cast<std::size_t>(vcpu.id());
  KYOTO_CHECK(id < sched_tick_count_.size());
  return sched_tick_count_[id];
}

}  // namespace kyoto::hv
