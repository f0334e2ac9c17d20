#include "sim/experiment.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "kyoto/kyoto_scheduler.hpp"
#include "kyoto/pollution.hpp"
#include "sim/churn_engine.hpp"

namespace kyoto::sim {
namespace {

/// Seed for a spec's churn engine: decorrelated from the VmPlan
/// workload-seed chain (which starts at spec.seed itself).
std::uint64_t churn_seed(const RunSpec& spec) {
  std::uint64_t state = spec.seed ^ 0x636875726e5f7673ull;  // "churn_vs"
  return splitmix64(state);
}

/// Attaches the churn engine when the spec asks for one (before
/// warm-up, so tick-0 arrivals land exactly like planned VMs).
std::unique_ptr<ChurnEngine> maybe_churn(const RunSpec& spec, hv::Hypervisor& hv) {
  if (spec.churn == nullptr) return nullptr;
  return std::make_unique<ChurnEngine>(hv, *spec.churn, churn_seed(spec));
}

pmc::CounterSet vm_counters(hv::Vm& vm) { return vm.counters(); }

VmMetrics metrics_from_delta(const std::string& name, const pmc::CounterSet& delta,
                             KHz freq_khz, Tick window_ticks) {
  VmMetrics m;
  m.name = name;
  m.instructions = delta.get(pmc::Counter::kInstructions);
  m.cycles = delta.get(pmc::Counter::kUnhaltedCycles);
  m.llc_references = delta.get(pmc::Counter::kLlcReferences);
  m.llc_misses = delta.get(pmc::Counter::kLlcMisses);
  m.ipc = delta.ipc();
  m.llc_cap_act = core::equation1(delta, freq_khz);
  if (window_ticks > 0) {
    m.throughput = static_cast<double>(m.instructions) / static_cast<double>(window_ticks);
    const double budget =
        static_cast<double>(window_ticks) * static_cast<double>(cycles_per_tick(freq_khz));
    m.cpu_share_pct = static_cast<double>(m.cycles) / budget * 100.0;
  }
  return m;
}

}  // namespace

std::unique_ptr<hv::Hypervisor> build_scenario(const RunSpec& spec,
                                               const std::vector<VmPlan>& plans) {
  auto hv = std::make_unique<hv::Hypervisor>(spec.machine, spec.scheduler());
  hv->set_execution_threads(spec.threads);
  std::uint64_t seed = spec.seed;
  for (const auto& plan : plans) {
    KYOTO_CHECK_MSG(!plan.pinned_cores.empty(), "VmPlan needs at least one pinned core");
    KYOTO_CHECK_MSG(plan.workload != nullptr, "VmPlan needs a workload factory");
    std::vector<std::unique_ptr<workloads::Workload>> workloads;
    workloads.reserve(plan.pinned_cores.size());
    for (std::size_t i = 0; i < plan.pinned_cores.size(); ++i) {
      workloads.push_back(plan.workload(splitmix64(seed)));
      KYOTO_CHECK(workloads.back() != nullptr);
    }
    hv->create_vm(plan.config, std::move(workloads), plan.pinned_cores);
  }
  return hv;
}

RunOutcome run_scenario(const RunSpec& spec, const std::vector<VmPlan>& plans) {
  return run_scenario(spec, plans, HvObserver{});
}

RunOutcome run_scenario(const RunSpec& spec, const std::vector<VmPlan>& plans,
                        const HvObserver& observe) {
  auto hv = build_scenario(spec, plans);
  const auto churn = maybe_churn(spec, *hv);
  if (observe != nullptr) observe(*hv);
  hv->run_ticks(spec.warmup_ticks);

  // Snapshot at window start, keyed by VM id: churn can admit and
  // destroy VMs mid-window, so positional indexing into vms() would
  // misattribute baselines.  A VM admitted after the snapshot gets a
  // zero baseline — exactly right, its counters started at zero.
  const auto ids_at_start = static_cast<std::size_t>(hv->vm_count());
  std::vector<pmc::CounterSet> before(ids_at_start);
  std::vector<char> present(ids_at_start, 0);
  std::vector<std::int64_t> punish_before(ids_at_start, 0);
  std::vector<std::int64_t> punished_ticks_before(ids_at_start, 0);
  const core::PollutionController* controller = core::kyoto_controller(hv->scheduler());
  for (hv::Vm* vm : hv->vms()) {
    const auto id = static_cast<std::size_t>(vm->id());
    before[id] = vm_counters(*vm);
    present[id] = 1;
    if (controller != nullptr) {
      punish_before[id] = controller->state(*vm).punish_events;
      punished_ticks_before[id] = controller->state(*vm).punished_ticks;
    }
  }

  hv->run_ticks(spec.measure_ticks);

  RunOutcome outcome;
  outcome.measured_ticks = spec.measure_ticks;
  for (hv::Vm* vm : hv->vms()) {
    // VMs that departed mid-window are simply absent here; the churn
    // engine keeps their lifetime records.
    const auto id = static_cast<std::size_t>(vm->id());
    const bool baselined = id < ids_at_start && present[id] != 0;
    const pmc::CounterSet delta =
        baselined ? vm_counters(*vm) - before[id] : vm_counters(*vm);
    VmMetrics m = metrics_from_delta(vm->name(), delta, hv->machine().freq_khz(),
                                     spec.measure_ticks);
    if (controller != nullptr) {
      m.punish_events =
          controller->state(*vm).punish_events - (baselined ? punish_before[id] : 0);
      m.punished_ticks = controller->state(*vm).punished_ticks -
                         (baselined ? punished_ticks_before[id] : 0);
    }
    outcome.vms.push_back(std::move(m));
  }
  return outcome;
}

RunOutcome run_to_completion(const RunSpec& spec, const std::vector<VmPlan>& plans,
                             std::size_t target, Tick max_ticks) {
  KYOTO_CHECK(target < plans.size());
  auto hv = build_scenario(spec, plans);
  const auto churn = maybe_churn(spec, *hv);
  // Plan VMs get the first ids and are never churned out, so the
  // target is addressable by id even when tenants come and go.
  hv::Vm& vm = hv->vm(static_cast<int>(target));
  KYOTO_CHECK_MSG(vm.vcpu(0).workload().spec().length > 0,
                  "run_to_completion needs a finite-length workload");
  hv->run_until([&] { return vm.vcpu(0).completed_runs() > 0; }, max_ticks);
  RunOutcome outcome;
  const std::int64_t wall = vm.vcpu(0).first_completion_wall_cycle();
  if (wall >= 0) {
    outcome.completion_wall_cycles = wall;
    outcome.completion_ms = cycles_to_ms(wall, hv->machine().freq_khz());
  }
  return outcome;
}

VmMetrics run_solo(const RunSpec& spec, const WorkloadFactory& factory,
                   const std::string& name) {
  VmPlan plan;
  plan.config.name = name;
  plan.workload = factory;
  plan.pinned_cores = {0};
  const RunOutcome outcome = run_scenario(spec, {plan});
  return outcome.vms.at(0);
}

TimelineSampler::TimelineSampler(hv::Hypervisor& hv, hv::Vm& vm,
                                 const core::PollutionController* controller) {
  samples_.reserve(1024);
  // The hook holds state by value; `this` only owns the sample log.
  auto last = std::make_shared<pmc::CounterSet>(vm.counters());
  auto last_sched = std::make_shared<std::int64_t>(0);
  hv::Vm* vm_ptr = &vm;
  hv.add_tick_hook([this, vm_ptr, controller, last, last_sched](hv::Hypervisor& h, Tick now) {
    const pmc::CounterSet current = vm_ptr->counters();
    const pmc::CounterSet delta = current - *last;
    *last = current;
    std::int64_t sched = 0;
    for (const auto& v : vm_ptr->vcpus()) sched += h.sched_ticks(*v);
    Sample s;
    s.tick = now;
    s.llc_misses = delta.get(pmc::Counter::kLlcMisses);
    s.instructions = delta.get(pmc::Counter::kInstructions);
    s.cycles = delta.get(pmc::Counter::kUnhaltedCycles);
    s.rate = core::equation1(delta, h.machine().freq_khz());
    s.ran = sched > *last_sched;
    *last_sched = sched;
    if (controller != nullptr) {
      const auto& st = controller->state(*vm_ptr);
      s.quota = st.quota;
      s.punished = st.punished;
    }
    samples_.push_back(s);
  });
}

}  // namespace kyoto::sim
