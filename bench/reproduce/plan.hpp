// The plan vocabulary every figure of bench_reproduce is written in.
//
// A figure is a function that submits jobs to its own sim::SweepRunner
// (one hypervisor per job, results in submission order, byte-identical
// at any lane count), prints its tables and returns bench::verdict.
// The jobs are spelled with three small pieces:
//   - workload factories: app("gcc", mem), micro_rep / micro_dis;
//   - Vm, a VmPlan builder: name, workload and pinned core, plus the
//     optional permit, loop, CPU cap and home node;
//   - scheduler factories: xcs(), ks4xen(), pisces(), ks4pisces().
#pragma once

#include <memory>
#include <string>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "hv/pisces.hpp"
#include "kyoto/ks4pisces.hpp"
#include "kyoto/ks4xen.hpp"
#include "sim/sweep_runner.hpp"
#include "workloads/catalog.hpp"

namespace kyoto::bench {

inline sim::WorkloadFactory app(const std::string& name, const cache::MemSystemConfig& mem) {
  return [name, mem](std::uint64_t s) { return workloads::make_app(name, mem, s); };
}

inline sim::WorkloadFactory micro_rep(workloads::MicroClass cls,
                                      const cache::MemSystemConfig& mem) {
  return [cls, mem](std::uint64_t s) { return workloads::micro_representative(cls, mem, s); };
}

inline sim::WorkloadFactory micro_dis(workloads::MicroClass cls,
                                      const cache::MemSystemConfig& mem) {
  return [cls, mem](std::uint64_t s) { return workloads::micro_disruptive(cls, mem, s); };
}

/// One VM pinned to one core; converts to sim::VmPlan.
struct Vm {
  sim::VmPlan plan;

  Vm(std::string name, sim::WorkloadFactory workload, int core) {
    plan.config.name = std::move(name);
    plan.workload = std::move(workload);
    plan.pinned_cores = {core};
  }
  Vm& permit(double llc_cap) { plan.config.llc_cap = llc_cap; return *this; }
  Vm& loop() { plan.config.loop_workload = true; return *this; }
  Vm& cap(int percent) { plan.config.cpu_cap_percent = percent; return *this; }
  Vm& home(int node) { plan.config.home_node = node; return *this; }
  operator sim::VmPlan() const { return plan; }
};

template <class Scheduler>
sim::SchedulerFactory scheduler() {
  return []() -> std::unique_ptr<hv::Scheduler> { return std::make_unique<Scheduler>(); };
}
inline sim::SchedulerFactory xcs() { return scheduler<hv::CreditScheduler>(); }
inline sim::SchedulerFactory ks4xen() { return scheduler<core::Ks4Xen>(); }
inline sim::SchedulerFactory pisces() { return scheduler<hv::PiscesScheduler>(); }
inline sim::SchedulerFactory ks4pisces() { return scheduler<core::Ks4Pisces>(); }

/// A measurement window on `machine` under `sched`.
inline sim::RunSpec window(const hv::MachineConfig& machine, Tick warmup, Tick measure,
                           sim::SchedulerFactory sched = xcs()) {
  sim::RunSpec spec;
  spec.machine = machine;
  spec.warmup_ticks = warmup;
  spec.measure_ticks = measure;
  spec.scheduler = std::move(sched);
  return spec;
}

/// The permit the figures book for a sensitive VM: comfortably above
/// its solo Equation-1 rate, far below any disruptor's (the scaled
/// analog of the paper's 250k).
inline double permit_for(const sim::VmMetrics& solo) { return solo.llc_cap_act * 1.5 + 8.0; }

// The figures, in paper order.  Each prints its tables and verdicts
// and returns 0 when every shape check passed, 1 otherwise.
int fig1();
int fig2();
int fig3();
int fig4();
int fig5();
int fig6();
int fig8();
int fig9();
int fig10();
int fig11();
int fig12();
int table1();
int ablation_baselines();
int ablation_memsys();
int ablation_replacement();

}  // namespace kyoto::bench
