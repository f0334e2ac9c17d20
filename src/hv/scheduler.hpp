// Scheduler interface: the hypervisor's per-core vCPU selection.
//
// The contract mirrors what KS4Xen needed from Xen: a per-tick pick
// per core, per-run accounting (with the perfctr PMC delta of that
// run, which is what Kyoto's monitoring consumes), and a slice-end
// hook (Xen's 30 ms accounting period) where credits — and for Kyoto,
// pollution quotas — are replenished.
//
// Kyoto gating is wired through compact per-VM bitmasks instead of
// virtual predicates: the PollutionController maintains a punished
// bitset (one bit per VM id), and the Ks4* schedulers hand the base
// scheduler a pointer to it at attach() via set_kyoto_gate.  The hot
// pick/accounting loops then test gate bits with plain word
// arithmetic — no per-entry virtual dispatch, no data-dependent
// branches.  A scheduler with no gate wired (the vanilla XCS/CFS/
// Pisces baselines) sees "never blocked".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "hv/vm.hpp"
#include "pmc/counters.hpp"

namespace kyoto::hv {

class Hypervisor;

/// What one vCPU did during one scheduled burst (one tick on a core).
struct RunReport {
  int core = -1;
  Tick tick = 0;
  Cycles ran = 0;                 // cycles actually executed
  pmc::CounterSet pmc_delta;      // per-vCPU counter delta for the burst
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Called once when the hypervisor adopts this scheduler.
  virtual void attach(Hypervisor& hv) { hv_ = &hv; }

  /// Registers a vCPU (already pinned to its core).
  virtual void vcpu_added(Vcpu& vcpu) = 0;

  /// Re-homes a vCPU after migration to a new pinned core.
  virtual void vcpu_migrated(Vcpu& vcpu, int old_core) = 0;

  /// Unregisters a vCPU whose VM is being destroyed: the scheduler
  /// must drop it from every runqueue and forget its per-id state so
  /// the next pick() cannot return it.  Called at a tick boundary
  /// (never from inside execution), before the VM object dies.  The
  /// default rejects destruction so schedulers that predate churn
  /// fail loudly instead of dangling.
  virtual void vcpu_removed(Vcpu& vcpu) {
    KYOTO_CHECK_MSG(false, "scheduler " << name() << " cannot remove vCPU " << vcpu.id()
                                        << ": vcpu_removed not implemented");
  }

  /// Chooses the vCPU to run on `core` for tick `now`; nullptr idles
  /// the core.  A vCPU must never be returned for two cores in the
  /// same tick.
  virtual Vcpu* pick(int core, Tick now) = 0;

  /// Upper bound on the cycles the picked vCPU may execute this tick
  /// (sub-tick enforcement of caps).  Default: the full budget.
  virtual Cycles max_burst(const Vcpu& vcpu, Cycles tick_budget) {
    (void)vcpu;
    return tick_budget;
  }

  /// Accounts one finished burst (called after the tick's execution).
  virtual void account(Vcpu& vcpu, const RunReport& report) = 0;

  /// Called every kTicksPerSlice ticks, after accounting.
  virtual void slice_end(Tick now) = 0;

  /// Wires the Kyoto punish gate (bit per VM id): a set bit makes
  /// the VM's vCPUs unschedulable; null means "no gate".  The vector
  /// stays owned by the controller and may grow — the pointee is
  /// re-read on every test, so growth is safe.
  void set_kyoto_gate(const std::vector<std::uint64_t>* blocked) { kyoto_blocked_ = blocked; }

 protected:
  static bool test_vm_bit(const std::vector<std::uint64_t>* words, int vm_id) {
    if (words == nullptr) return false;
    const auto w = static_cast<std::size_t>(vm_id) >> 6;
    if (w >= words->size()) return false;
    return (((*words)[w] >> (static_cast<unsigned>(vm_id) & 63u)) & 1u) != 0;
  }
  bool vm_blocked(int vm_id) const { return test_vm_bit(kyoto_blocked_, vm_id); }

  Hypervisor* hv_ = nullptr;
  const std::vector<std::uint64_t>* kyoto_blocked_ = nullptr;
};

}  // namespace kyoto::hv
