// The Xen credit scheduler (XCS), as described in §3.2 of the paper
// and Cherkasova et al. [16].
//
// Each VM is configured with a weight (its credit share) and an
// optional cap.  Every accounting period (time slice = 30 ms), each
// vCPU's remainCredit is replenished proportionally to its weight;
// running burns 100 credits per 10 ms tick.  vCPUs with positive
// credit are priority UNDER and run first (round-robin); exhausted
// vCPUs fall to OVER and only run work-conservingly.  A capped VM
// whose cap budget for the slice is spent cannot run at all — the cap
// is the knob Fig 3 turns to throttle the disruptor's computing
// capacity.
//
// Hot per-vCPU state lives in struct-of-arrays form (parallel arrays
// by vCPU id, sized at admission), and the default pick/accounting
// engine is branch-light: runqueue selection builds compact UNDER
// and OVER runnable bitmasks and takes the lowest set bit of the
// first non-empty band; credit burn, cap decrement and the Kyoto
// gate are mask/select arithmetic.  The pre-rework branchy
// control flow lives on only as a frozen test oracle
// (tests/support/reference_control_plane.hpp); the accounting oracle
// test runs it side by side with this engine and demands
// bit-identical decisions.
//
// KS4Xen (kyoto/ks4xen.hpp) extends this class exactly where the
// paper patched Xen: the punish gate bitmask (set_kyoto_gate), which
// takes a punished VM out of both bands, and extra slice-end
// bookkeeping.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hv/scheduler.hpp"

namespace kyoto::hv {

class CreditScheduler : public Scheduler {
 public:
  /// Credits burned by one tick of execution.
  static constexpr int kCreditPerTick = 100;
  /// Credits a weight-256 vCPU earns per slice (one full slice's worth).
  static constexpr int kCreditPerSlice = kCreditPerTick * static_cast<int>(kTicksPerSlice);
  /// Default Xen weight.
  static constexpr int kDefaultWeight = 256;

  std::string name() const override { return "XCS"; }

  void attach(Hypervisor& hv) override;
  void vcpu_added(Vcpu& vcpu) override;
  void vcpu_migrated(Vcpu& vcpu, int old_core) override;
  void vcpu_removed(Vcpu& vcpu) override;
  Vcpu* pick(int core, Tick now) override;
  /// Capped vCPUs may not run past their remaining slice budget.
  Cycles max_burst(const Vcpu& vcpu, Cycles tick_budget) override;
  void account(Vcpu& vcpu, const RunReport& report) override;
  void slice_end(Tick now) override;

  // --- introspection (benches/tests) ----------------------------------
  int remain_credit(const Vcpu& vcpu) const;
  bool in_over(const Vcpu& vcpu) const;
  /// Fraction of the last slice's cap budget left (1.0 if uncapped).
  double cap_budget_fraction(const Vcpu& vcpu) const;

 private:
  /// Per-core stickiness: Xen runs the chosen vCPU for a full 30 ms
  /// scheduling slice (not one 10 ms tick) unless it stops being
  /// runnable or falls to OVER.
  struct CoreCursor {
    int current = -1;     // vcpu id currently holding the core
    int consecutive = 0;  // ticks it has held it
  };

  std::size_t checked_id(const Vcpu& vcpu) const;
  Cycles slice_cap_budget(const Vcpu& vcpu) const;
  void ensure_capacity(std::size_t id);

  /// True if the vCPU may be handed a core right now, as a 0/1 word
  /// over the SoA state: not done, not Kyoto-blocked, and (if capped)
  /// cap budget left.
  unsigned runnable_bit(std::size_t id) const {
    const unsigned not_done = static_cast<unsigned>(done_[id]) ^ 1u;
    const unsigned allowed = static_cast<unsigned>(vm_blocked(vm_id_[id])) ^ 1u;
    const unsigned cap_ok = (static_cast<unsigned>(capped_[id]) &
                             static_cast<unsigned>(cap_budget_[id] <= 0)) ^ 1u;
    return not_done & allowed & cap_ok;
  }

  /// Hot per-vCPU state, struct-of-arrays by vCPU id.  `vcpu_` doubles
  /// as the registration flag (null = never added or removed); ids are
  /// never reused.  `done_` caches Vcpu::done(), refreshed at
  /// admission and at every account() — exact, because done-ness only
  /// flips while a vCPU runs, and account() always follows a run.
  std::vector<Vcpu*> vcpu_;
  std::vector<int> remain_credit_;
  std::vector<Cycles> cap_budget_;   // cycles left this slice (capped VMs)
  std::vector<Cycles> cap_refill_;   // per-slice cap budget (0 = uncapped)
  std::vector<std::uint8_t> capped_;
  std::vector<std::uint8_t> done_;
  std::vector<int> vm_id_;
  std::vector<int> weight_;

  /// Per-core run queues hold a handful of vcpu ids each; a plain
  /// vector keeps the round-robin rotation (erase + push_back within
  /// capacity) free of the per-node heap churn a deque pays at block
  /// boundaries — the tick loop must not allocate in steady state.
  std::vector<std::vector<int>> runqueue_;  // per core, vcpu ids, RR order
  std::vector<CoreCursor> cursors_;         // per core
  Cycles cycles_per_tick_ = 0;              // cached at attach
};

}  // namespace kyoto::hv
