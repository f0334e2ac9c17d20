// Pollution-quota accounting — the heart of the Kyoto system (§3.2).
//
// Each VM booked with an llc_cap holds a pollution_quota, denominated
// in LLC misses.  While the VM runs, the quota is debited by the
// monitor-attributed pollution (rate × on-CPU milliseconds — with the
// direct monitor this equals the measured miss count exactly).  When
// the quota goes negative the VM is *punished*: the owning scheduler
// refuses to run any of its vCPUs ("priority OVER ... it cannot use
// the processor any more").  At the end of every time slice each VM
// earns llc_cap × 30 ms worth of quota, clamped to a small bank; once
// the quota recovers to zero or above the VM is schedulable again
// ("marked UNDER").
//
// The controller is scheduler-agnostic: KS4Xen, KS4Linux and
// KS4Pisces all embed one and differ only in which base scheduler
// they extend — mirroring how the paper ported ~110 LOCs across Xen,
// Linux/CFS and Pisces.
//
// All controller entry points (account from scheduler accounting,
// on_tick from the tick hooks, slice_end) execute in the tick's
// serial epilogue in fixed core/VM order, so quota debits and
// punishment transitions are deterministic regardless of how many
// threads executed the tick's socket partitions.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "hv/hypervisor.hpp"
#include "hv/scheduler.hpp"
#include "kyoto/monitor.hpp"

namespace kyoto::core {

class PollutionController {
 public:
  struct VmState {
    double booked = 0.0;             // llc_cap, misses/ms (0 = unbooked)
    double quota = 0.0;              // misses; negative = in debt
    double last_rate = 0.0;          // last attributed rate, misses/ms
    bool punished = false;
    std::int64_t punish_events = 0;  // quota-went-negative transitions
    std::int64_t punished_ticks = 0; // ticks spent deprived of CPU
    double debited_total = 0.0;      // lifetime attributed pollution (misses)
  };

  explicit PollutionController(std::unique_ptr<PollutionMonitor> monitor);

  /// Wires the controller into the hypervisor: attaches the monitor
  /// and registers the per-tick hook.
  void attach(hv::Hypervisor& hv);

  /// Scheduler accounting hook: debit pollution for one burst.
  void account(hv::Vcpu& vcpu, const hv::RunReport& report);

  /// Scheduler slice-end hook: live VMs earn quota, expired
  /// punishments lift.
  void slice_end();

  /// Punish gate as a compact bitmask (bit per VM id), for the
  /// schedulers' branch-light pick loops (Scheduler::set_kyoto_gate):
  /// a set bit makes the VM unschedulable.  The bits mirror
  /// VmState::punished exactly — every transition updates both.
  const std::vector<std::uint64_t>* punished_gate() const { return &punished_words_; }

  const VmState& state(const hv::Vm& vm) const;
  /// Same, by id — valid for departed tenants too (churn metrics read
  /// the final accounting record after the Vm object is gone).
  const VmState& state_by_id(int vm_id) const;
  PollutionMonitor& monitor() { return *monitor_; }
  const PollutionMonitor& monitor() const { return *monitor_; }

 private:
  void on_tick(hv::Hypervisor& hv, Tick now);
  /// Hypervisor vm-removed hook: forwards to the monitor (campaign
  /// aborts) and freezes the departing VM's punishment accounting.
  void vm_removed(hv::Vm& vm);
  VmState& slot(const hv::Vm& vm);
  /// Single write point for punishment transitions: keeps the
  /// punished flag and its gate bit in lockstep.
  void set_punished(std::size_t vm_id, bool punished);

  std::unique_ptr<PollutionMonitor> monitor_;
  hv::Hypervisor* hv_ = nullptr;
  std::vector<VmState> states_;  // by vm id
  /// Bit per VM id, set iff states_[id].punished — the schedulers'
  /// gate masks point here (grown in lockstep with states_).
  std::vector<std::uint64_t> punished_words_;
  /// Bit per VM id, set from the VM's first accounting (slot()) until
  /// it departs (vm_removed()) — the set slice_end walks.
  std::vector<std::uint64_t> live_words_;
};

}  // namespace kyoto::core
