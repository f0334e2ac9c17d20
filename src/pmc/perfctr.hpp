// Perfctr-style PMC virtualization (Nikolaev & Back, VEE 2011 [18]).
//
// perfctr-xen gives each vCPU the illusion of private counters by
// snapshotting the core PMU at context-switch-in and accumulating the
// delta at switch-out.  The resulting per-vCPU counts are exact in
// the sense that every counted event happened while that vCPU held
// the core — but LLC misses counted this way still *include
// contention-induced misses* caused by other VMs evicting this vCPU's
// lines, which is exactly the attribution problem the paper's
// monitoring strategies (socket dedication, McSim replay) address.
//
// Identity-switch fast path: the hypervisor may leave a vCPU
// "resident" on a core across ticks without a switch-out/switch-in
// pair, so the in-flight delta spans many ticks.  To keep reads exact
// without forcing callers to know which core the vCPU sits on,
// switch_in remembers the core's PMU; read() folds the in-flight
// delta in from there.  The lazy delta is materialized into
// accumulated_ at the next real switch-out, and discarded/re-anchored
// at reset() (a monitoring window boundary must not resurrect
// pre-window history).
#pragma once

#include "common/check.hpp"
#include "pmc/counters.hpp"
#include "pmc/pmu.hpp"

namespace kyoto::pmc {

/// Per-vCPU virtualized counter state.
class VirtualCounters {
 public:
  /// Called when the vCPU is placed on a core.
  void switch_in(const CorePmu& pmu) {
    KYOTO_CHECK_MSG(!running_, "vCPU already running on a core");
    running_ = true;
    core_ = &pmu;
    snapshot_ = pmu.read();
  }

  /// Called when the vCPU is descheduled from the same core.
  void switch_out(const CorePmu& pmu) {
    KYOTO_CHECK_MSG(running_, "vCPU not running");
    running_ = false;
    core_ = nullptr;
    accumulated_ += pmu.read() - snapshot_;
  }

  /// Current virtualized counts, always exact: a running vCPU's
  /// in-flight delta (possibly spanning several identity-switch
  /// ticks) is read live from the core it was switched in on.  The
  /// optional argument is kept for callers that track the core
  /// themselves; when given it must be that same core.
  CounterSet read([[maybe_unused]] const CorePmu* current_core = nullptr) const {
    CounterSet result = accumulated_;
    if (running_) {
      KYOTO_DCHECK(current_core == nullptr || current_core == core_);
      result += core_->read() - snapshot_;
    }
    return result;
  }

  bool running() const { return running_; }

  /// Forgets history (used when a monitoring window starts).  A
  /// resident vCPU's in-flight delta belongs to the *old* window, so
  /// the snapshot re-anchors at the current counts; while descheduled
  /// this matches an eager switch-out/in every tick exactly (nothing
  /// runs between the epilogue and the next prologue).
  void reset() {
    accumulated_.clear();
    if (running_) snapshot_ = core_->read();
  }

 private:
  CounterSet accumulated_;
  CounterSet snapshot_;
  const CorePmu* core_ = nullptr;  // non-null while running_
  bool running_ = false;
};

}  // namespace kyoto::pmc
