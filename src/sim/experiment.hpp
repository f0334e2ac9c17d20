// Experiment harness: declarative scenario construction and metric
// collection.
//
// Every paper experiment follows the same skeleton — build a machine,
// place VMs, run, compare a VM's performance against its solo
// baseline — so the harness provides exactly that: a RunSpec (machine
// + scheduler factory + measurement window), VmPlans (config +
// workload factory + placement), windowed metrics (IPC, Equation-1
// rate), run-to-completion timing, and per-tick timeline sampling for
// the figures that plot time series (Figs 2 and 5).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "hv/credit_scheduler.hpp"
#include "hv/hypervisor.hpp"
#include "kyoto/controller.hpp"
#include "workloads/workload.hpp"

namespace kyoto::sim {

/// Factory for a workload instance (called once per vCPU; `seed`
/// varies per vCPU so clones are decorrelated).
using WorkloadFactory =
    std::function<std::unique_ptr<workloads::Workload>(std::uint64_t seed)>;

/// Factory for the scheduler under test.
using SchedulerFactory = std::function<std::unique_ptr<hv::Scheduler>()>;

struct ChurnPlan;  // sim/churn_engine.hpp

/// Machine + scheduler + measurement window.
struct RunSpec {
  hv::MachineConfig machine;
  SchedulerFactory scheduler = [] { return std::make_unique<hv::CreditScheduler>(); };
  /// Ticks run before measurement starts (cache warm-up).
  Tick warmup_ticks = 6;
  /// Measurement window length.
  Tick measure_ticks = 60;
  std::uint64_t seed = 42;
  /// Tick-execution threads (Hypervisor::set_execution_threads): 1 =
  /// serial engine, N > 1 runs up to min(N, sockets) socket
  /// partitions concurrently.  Results are bit-identical either way
  /// (tests/integration/parallel_equivalence_test.cpp), so this is
  /// purely a wall-clock knob.
  int threads = 1;
  /// Optional tenant churn: arrivals/departures from a deterministic
  /// trace, applied across warm-up AND measurement (the engine runs
  /// for the whole scenario).  Shared-const so RunSpec stays cheaply
  /// copyable for sweep fan-out.  Null = static scenario.
  std::shared_ptr<const ChurnPlan> churn;
};

/// One VM to place.
struct VmPlan {
  hv::VmConfig config;
  WorkloadFactory workload;
  /// One core per vCPU; the number of vCPUs equals pinned_cores.size()
  /// (at least one entry required).
  std::vector<int> pinned_cores = {0};
};

/// Windowed per-VM measurement.
struct VmMetrics {
  std::string name;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;        // on-CPU (unhalted) cycles in window
  std::uint64_t llc_references = 0;
  std::uint64_t llc_misses = 0;
  double ipc = 0.0;
  /// Equation 1 over the window: misses/ms of on-CPU time.
  double llc_cap_act = 0.0;
  /// Instructions per tick of wall time — the throughput metric used
  /// for degradation percentages (captures both IPC loss and CPU
  /// deprivation).
  double throughput = 0.0;
  /// On-CPU cycles as a percentage of ONE core's cycle budget over the
  /// window (so a multi-vCPU VM can exceed 100).  The CPU-share lever
  /// the schedulers pull: punished VMs show it dropping.
  double cpu_share_pct = 0.0;
  std::int64_t punish_events = 0;
  std::int64_t punished_ticks = 0;

  /// Exact equality — the simulator is deterministic, so equal runs
  /// produce bit-equal metrics (the sweep determinism gate relies on
  /// this; never weaken it to tolerances).
  bool operator==(const VmMetrics&) const = default;
};

struct RunOutcome {
  /// In VmPlan order.  Under churn, the VMs alive at window end in id
  /// order (plan VMs first): departed tenants are excluded here —
  /// ChurnEngine::tenants() carries their full records.
  std::vector<VmMetrics> vms;
  Tick measured_ticks = 0;
  /// Completion-mode results (run_to_completion / SweepRunner::
  /// add_completion — the Figs 8 & 12 job shape): the virtual
  /// wall-clock cycle at which the target VM finished its first
  /// workload run, and the same instant in milliseconds.  Both stay
  /// -1 for windowed scenario jobs and when the target never
  /// completed within max_ticks.
  std::int64_t completion_wall_cycles = -1;
  double completion_ms = -1.0;

  bool operator==(const RunOutcome&) const = default;
};

/// Builds the hypervisor, creates the planned VMs and returns it
/// (for experiments needing manual control).
std::unique_ptr<hv::Hypervisor> build_scenario(const RunSpec& spec,
                                               const std::vector<VmPlan>& plans);

/// Hook into a scenario's hypervisor right after construction (before
/// warm-up): the attach point for pure observers — shadow monitors,
/// timeline samplers.  An observer must not perturb the run (the
/// shadow-mode conformance suite pins that attaching one leaves every
/// trace byte-identical); state it allocates must outlive the run.
using HvObserver = std::function<void(hv::Hypervisor&)>;

/// Runs warm-up + measurement window and collects per-VM metrics.
RunOutcome run_scenario(const RunSpec& spec, const std::vector<VmPlan>& plans);
/// Same, invoking `observe` on the freshly built hypervisor first.
RunOutcome run_scenario(const RunSpec& spec, const std::vector<VmPlan>& plans,
                        const HvObserver& observe);

/// Runs until VM index `target` completes one workload run (or
/// `max_ticks` elapse).  `vms` stays empty; `completion_wall_cycles`
/// / `completion_ms` carry the target's first-completion instant (-1
/// if it never completed).  This is the job shape
/// SweepRunner::add_completion executes, so run-to-completion figures
/// (8 and 12) batch exactly like windowed ones.
RunOutcome run_to_completion(const RunSpec& spec, const std::vector<VmPlan>& plans,
                             std::size_t target, Tick max_ticks);

/// Performance-degradation percentage used throughout the paper:
/// how much of the baseline performance is lost.
inline double degradation_pct(double baseline, double observed) {
  if (baseline <= 0.0) return 0.0;
  return (baseline - observed) / baseline * 100.0;
}

/// Convenience: single-VM solo run of `factory` on the given machine.
VmMetrics run_solo(const RunSpec& spec, const WorkloadFactory& factory,
                   const std::string& name = "solo");

/// Per-tick time series of one VM (Figs 2 and 5).  Attach before
/// running; samples accumulate every tick.
class TimelineSampler {
 public:
  struct Sample {
    Tick tick = 0;
    std::uint64_t llc_misses = 0;   // misses during this tick
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;       // on-CPU cycles during this tick
    double rate = 0.0;              // Equation 1 for this tick
    bool ran = false;               // was scheduled this tick
    double quota = 0.0;             // pollution quota (Kyoto runs)
    bool punished = false;
  };

  /// `controller` may be null (non-Kyoto runs: quota/punished stay 0).
  TimelineSampler(hv::Hypervisor& hv, hv::Vm& vm,
                  const core::PollutionController* controller = nullptr);

  const std::vector<Sample>& samples() const { return samples_; }

 private:
  std::vector<Sample> samples_;
};

}  // namespace kyoto::sim
