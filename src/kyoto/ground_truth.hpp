// Ground-truth pollution monitoring — the oracle the paper could not
// have.
//
// The paper's three monitors (monitor.hpp) are *estimators*: they
// infer a VM's intrinsic pollution rate from PMCs, paying either
// accuracy (direct), migrations (socket dedication) or a simulation
// host (McSim replay).  The simulator, however, knows the answer
// exactly: the SetAssocCache attributes every LLC line to its owning
// VM (O(1) footprint counters since the access-engine overhaul) and,
// while ground truth is observed, classifies every miss as intrinsic
// or contention-induced on its eviction path (cache::VmPollution).
// Observation is on demand: both tools below call
// MemorySystem::observe_ground_truth() when they attach, which must be
// before the machine's first LLC access, so the counts are exact from
// power-on; a run with neither tool never pays for the oracle.  This
// header turns that into two tools:
//
//  * GroundTruthMonitor — a fourth PollutionMonitor: the Kyoto
//    scheduler charges each VM its *intrinsic* miss rate (misses
//    minus re-misses caused by other VMs' evictions), read straight
//    from the simulated LLCs at the accounting merge point.  The
//    upper bound every estimator is judged against — and a usable
//    scheduler input in its own right ("what if attribution were
//    perfect?").
//
//  * GroundTruthShadow — shadow mode: pure observer hooks that
//    record, per tick and per VM, the oracle's view next to whatever
//    rate the run's actual monitor charged.  Neither observing ground
//    truth nor attaching a shadow perturbs the run: the trace with
//    observation off equals the trace with it on, and a shadowed
//    run equals an observed bare run including every LLC oracle
//    counter — at any thread count and under SweepRunner lanes
//    (pinned by tests/kyoto/monitor_conformance_test.cpp).
//    The accuracy layer (sim/monitor_accuracy.hpp) scores estimators
//    against these recordings.
//
// Threading contract: both classes touch the machine only from the
// tick's serial merge points — pollution_rate/account hooks from the
// epilogue, tick hooks after accounting — so they always observe
// fully merged, deterministic state (see README "Threading model").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hv/hypervisor.hpp"
#include "kyoto/controller.hpp"
#include "kyoto/monitor.hpp"

namespace kyoto::core {

/// One VM's exact LLC state, summed over every socket's LLC (a VM's
/// lines may span sockets after migrations).  All counters cumulative
/// since machine construction except `footprint_lines` (instantaneous).
struct GroundTruthReading {
  std::uint64_t footprint_lines = 0;
  std::uint64_t misses = 0;                      // cache-attributed LLC misses
  std::uint64_t contention_misses = 0;           // re-misses caused by other VMs
  std::uint64_t cross_evictions_inflicted = 0;   // other VMs' lines displaced
  std::uint64_t cross_evictions_suffered = 0;    // own lines displaced by others
  /// Misses the VM would (to first order) have taken with the LLC to
  /// itself — the quantity dedication/McSim exist to estimate.
  std::uint64_t intrinsic_misses() const { return misses - contention_misses; }
};

/// Reads the oracle for one VM from the machine's LLCs.  O(sockets).
/// Throws unless the machine observes ground truth.
GroundTruthReading read_ground_truth(const hv::Hypervisor& hv, int vm_id);

/// The fourth monitor: perfect attribution, for free, at the merge
/// point.  pollution_rate() charges the burst the VM-wide *intrinsic*
/// miss delta since the VM's previous accounting call (for the
/// paper's single-vCPU VMs that is exactly the burst's intrinsic
/// Equation-1 rate; for multi-vCPU VMs the per-burst split is
/// arbitrary but the per-tick total debit is exact).
class GroundTruthMonitor final : public PollutionMonitor {
 public:
  std::string name() const override { return "ground-truth"; }
  /// Also starts observing ground truth on `hv`'s machine (schedulers
  /// attach their monitor at hypervisor construction, before any
  /// access).
  void attach(hv::Hypervisor& hv) override;
  double pollution_rate(hv::Vcpu& vcpu, const hv::RunReport& report) override;

 private:
  std::vector<std::uint64_t> last_intrinsic_;  // cumulative snapshot by vm id
};

/// Shadow-mode recorder.  Construct it against a hypervisor before
/// its machine's first LLC access (after creating the VMs is
/// simplest — sim::HvObserver runs at such a point — and VMs admitted
/// later are picked up automatically); the constructor starts
/// observing ground truth and registers an account hook and a tick
/// hook, which observe and never write simulated state.  Must
/// outlive the run it shadows.
class GroundTruthShadow {
 public:
  /// One VM-tick of ground truth next to the estimator's output.
  struct Sample {
    Tick tick = 0;
    bool ran = false;                    // VM held a core this tick
    std::uint64_t footprint_lines = 0;   // instantaneous, end of tick
    std::uint64_t misses = 0;            // deltas over this tick:
    std::uint64_t contention_misses = 0;
    std::uint64_t cross_evictions_inflicted = 0;
    std::uint64_t cross_evictions_suffered = 0;
    std::uint64_t cycles = 0;            // on-CPU cycles this tick
    double true_rate = 0.0;       // intrinsic Equation 1 over this tick
    double direct_rate = 0.0;     // raw (contaminated) Equation 1 over this tick
    /// Rate the run's actual monitor charged at the VM's last burst
    /// this tick (PollutionController::VmState::last_rate); -1 when
    /// the VM did not run or no controller was given.
    double estimator_rate = -1.0;

    bool operator==(const Sample&) const = default;
  };

  /// `controller` may be null (shadowing a non-Kyoto run records only
  /// the oracle columns).  The controller is read, never written.
  explicit GroundTruthShadow(hv::Hypervisor& hv,
                             const PollutionController* controller = nullptr);

  GroundTruthShadow(const GroundTruthShadow&) = delete;
  GroundTruthShadow& operator=(const GroundTruthShadow&) = delete;

  /// Per-VM sample series, indexed by vm id then tick order.  A VM
  /// admitted at tick T has samples from T on (Sample::tick tells).
  const std::vector<std::vector<Sample>>& samples() const { return samples_; }
  const std::vector<Sample>& samples_for(int vm_id) const {
    return samples_.at(static_cast<std::size_t>(vm_id));
  }

 private:
  struct VmCursor {
    GroundTruthReading last;        // cumulative oracle snapshot
    pmc::CounterSet last_counters;  // cumulative virtualized PMCs
    // Per-tick scratch, written by the account hook, consumed and
    // reset by the tick hook.
    bool ran_this_tick = false;
    double last_burst_rate = -1.0;
  };

  void on_account(hv::Vcpu& vcpu, const hv::RunReport& report);
  void on_tick(hv::Hypervisor& hv, Tick now);

  const PollutionController* controller_ = nullptr;
  std::vector<VmCursor> cursors_;              // by vm id
  std::vector<std::vector<Sample>> samples_;   // by vm id
};

}  // namespace kyoto::core
