// Pollution monitoring strategies (paper §3.3).
//
// The monitor answers one question for the Kyoto scheduler: at what
// rate (LLC misses per millisecond, Equation 1) is this VM polluting
// the LLC?  The hard part is attribution — "a VM should not be
// punished for the pollution of another VM" — and the paper gives
// three answers, all implemented here:
//
//  * DirectPmcMonitor — trust the per-vCPU perfctr counters as-is.
//    Cheap and always available, but counts *contention-induced*
//    misses against the victim.  This is what vanilla PMC
//    virtualization gives you, and the self-correcting behaviour of
//    punishment makes it adequate in practice (Fig 5: the polluter
//    is throttled quickly, so the victim's inflated counts subside).
//
//  * SocketDedicationMonitor — the paper's first solution: during a
//    sampling window, migrate every other vCPU off the target's
//    socket so the target's counters are uncontended; migrate them
//    back "after a random period".  Costs remote-NUMA penalties for
//    the migrated vCPUs (Fig 9), so two skip heuristics avoid
//    isolation when it cannot change the answer (Fig 10/11): a vCPU
//    with very low miss rate is neither polluter nor victim, and a
//    vCPU whose co-runners all have very low miss rates is measured
//    accurately without isolation.
//
//  * McSimMonitor — the paper's second solution: pin-capture the
//    VM's instruction stream and replay it in a McSimA+-style
//    simulator with a private cache hierarchy on a dedicated host;
//    the replayed PMCs are intrinsic by construction.
//
// Each estimator runs one schedule, the paper's, written as named
// constants on its class rather than settings: McSim replays 150,000
// instructions of every live VM each 30 ticks; socket dedication takes
// one campaign step each 12 ticks (2 warm ticks, a 3-tick counted
// window, co-runners home 0-3 ticks later) and skips targets, or
// co-runner sets, below 5 miss/ms.  The rate a monitor stores per VM
// lives once, in PollutionMonitor (cached_rate()).
//
// Threading contract (see README "Threading model"): both monitor
// entry points run at the hypervisor tick's *merge points*, never
// inside a socket execution partition — pollution_rate() from the
// scheduler's accounting in the serial epilogue (fixed core order),
// on_tick() from the serial tick hooks after accounting.  Monitors
// therefore always observe fully merged machine state and may freely
// migrate vCPUs across sockets (SocketDedicationMonitor does), read
// any socket's LLC attribution, or clone workloads — the parallel
// equivalence suite pins that none of this can observe a
// half-executed tick.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hv/hypervisor.hpp"
#include "hv/scheduler.hpp"
#include "mcsim/replay.hpp"

namespace kyoto::core {

class PollutionMonitor {
 public:
  virtual ~PollutionMonitor() = default;

  virtual std::string name() const = 0;

  /// Called once when the owning scheduler is attached.
  virtual void attach(hv::Hypervisor& hv) { hv_ = &hv; }

  /// Attributed pollution rate (misses/ms) for the burst described by
  /// `report`.  Called from the scheduler's accounting path.
  virtual double pollution_rate(hv::Vcpu& vcpu, const hv::RunReport& report) = 0;

  /// Per-tick orchestration hook (sampling state machines).
  virtual void on_tick(hv::Hypervisor& hv, Tick now) {
    (void)hv;
    (void)now;
  }

  /// A VM is being destroyed (churn departure); called from the
  /// hypervisor's vm-removed hooks with the Vm object still alive.
  /// Monitors holding raw Vm/Vcpu pointers or campaigns targeting it
  /// must drop them here.  Default: nothing — plain per-id caches are
  /// harmless because ids are never reused.
  virtual void vm_removed(hv::Vm& vm) { (void)vm; }

  /// Last rate this monitor stored for a VM (misses/ms); <0 if it has
  /// stored none yet — always, for a monitor that stores no rate
  /// (DirectPmcMonitor).
  double cached_rate(int vm_id) const;

 protected:
  /// Pre-sizes a per-VM slot vector to the hypervisor's VM count
  /// (slots start at -1 = "never sampled").  Called from cold spots —
  /// attach, tick prologues, and the one-off moment right after a VM
  /// is admitted — so the steady-state accounting path only indexes
  /// (with a KYOTO_DCHECK) instead of growing storage.
  void sync_vm_slots(std::vector<double>& v) const {
    const std::size_t n =
        hv_ == nullptr ? std::size_t{0} : static_cast<std::size_t>(hv_->vm_count());
    if (v.size() < n) v.resize(n, -1.0);
  }

  hv::Hypervisor* hv_ = nullptr;
  /// Stored rate by vm id (<0 = none yet): the McSim sample, the
  /// dedicated window's rate, or the ground truth's last charge.
  std::vector<double> cache_;
};

/// Raw perfctr attribution: Equation 1 over the burst's PMC delta.
class DirectPmcMonitor final : public PollutionMonitor {
 public:
  std::string name() const override { return "direct-pmc"; }
  double pollution_rate(hv::Vcpu& vcpu, const hv::RunReport& report) override;
};

/// McSimA+ replay on a dedicated simulation host.
class McSimMonitor final : public PollutionMonitor {
 public:
  /// Re-sample every live VM this often.
  static constexpr Tick kSamplePeriodTicks = 30;
  /// Instructions replayed per sample.
  static constexpr Instructions kSampleInstructions = 150'000;

  std::string name() const override { return "mcsim-replay"; }
  void attach(hv::Hypervisor& hv) override;
  double pollution_rate(hv::Vcpu& vcpu, const hv::RunReport& report) override;
  void on_tick(hv::Hypervisor& hv, Tick now) override;

 private:
  void sample_vm(hv::Vm& vm);

  std::unique_ptr<mcsim::ReplaySimulator> simulator_;
};

/// Socket dedication with skip heuristics.
class SocketDedicationMonitor final : public PollutionMonitor {
 public:
  /// Gap between the end of one sampling campaign step and the next.
  static constexpr Tick kSamplePeriodTicks = 12;
  /// Ticks after the migration before counting starts: the target
  /// re-loads lines its (now departed) co-runners evicted, and that
  /// reload burst must not contaminate the "clean" sample.
  static constexpr Tick kWarmTicks = 2;
  /// Length of the counted window ("about one billion cycles" on the
  /// real machine ≈ a few ticks here).
  static constexpr Tick kWindowTicks = 3;
  /// Return-migration happens a random 0..N ticks after the window
  /// (the paper returns "after a random period").
  static constexpr Tick kMaxReturnDelayTicks = 3;
  /// Below this direct rate (misses/ms) a vCPU is neither polluter nor
  /// victim: skip isolating it (Fig 10, first heuristic).  If every
  /// co-runner on the socket is below it, the direct measurement is
  /// already clean: skip too (second heuristic).
  static constexpr double kLowRateThreshold = 5.0;
  /// Seed of the return-delay draws.
  static constexpr std::uint64_t kSeed = 7;

  std::string name() const override { return "socket-dedication"; }
  void attach(hv::Hypervisor& hv) override;
  double pollution_rate(hv::Vcpu& vcpu, const hv::RunReport& report) override;
  void on_tick(hv::Hypervisor& hv, Tick now) override;
  /// Aborts any in-flight campaign step involving the departing VM:
  /// its displaced vCPUs are forgotten (they are about to die), and if
  /// it was the sampling target the remaining displaced vCPUs return
  /// home immediately and the monitor goes idle.
  void vm_removed(hv::Vm& vm) override;

  /// Counters for the ablation bench.
  std::int64_t isolations_performed() const { return isolations_; }
  std::int64_t isolations_skipped() const { return skips_; }
  std::int64_t migrations_performed() const { return migrations_; }
  /// True while a dedication step is in flight (vCPUs displaced).
  bool campaign_active() const { return phase_ != Phase::kIdle; }

 private:
  enum class Phase { kIdle, kWarming, kSampling, kAwaitReturn };

  struct Displaced {
    hv::Vcpu* vcpu = nullptr;
    int original_core = -1;
  };

  void begin_campaign_step(hv::Hypervisor& hv, Tick now);
  void finish_window(hv::Hypervisor& hv, Tick now);
  void return_displaced(hv::Hypervisor& hv);
  double direct_rate(int vm_id) const;

  Rng rng_{kSeed};
  Phase phase_ = Phase::kIdle;
  Tick next_event_ = 0;
  std::size_t next_target_ = 0;  // round-robin cursor over VMs

  hv::Vm* target_ = nullptr;
  pmc::CounterSet window_start_counters_;
  std::vector<Displaced> displaced_;

  std::vector<double> direct_ema_;  // direct-rate EMA by vm id (skip decisions)
  std::int64_t isolations_ = 0;
  std::int64_t skips_ = 0;
  std::int64_t migrations_ = 0;
};

}  // namespace kyoto::core
