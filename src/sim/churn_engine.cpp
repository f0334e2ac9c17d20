#include "sim/churn_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "kyoto/controller.hpp"
#include "kyoto/kyoto_scheduler.hpp"

namespace kyoto::sim {
ChurnEngine::ChurnEngine(hv::Hypervisor& hv, ChurnPlan plan, std::uint64_t seed)
    : hv_(hv), plan_(std::move(plan)), seed_state_(seed) {
  KYOTO_CHECK_MSG(!plan_.apps.empty(), "churn plan needs at least one app factory");
  KYOTO_CHECK_MSG(plan_.tenant_vcpus >= 1, "tenants need at least one vCPU");
  KYOTO_CHECK_MSG(plan_.defer_queue >= 0, "negative deferral queue");
  if (plan_.app_ids.empty()) {
    for (std::size_t i = 0; i < plan_.apps.size(); ++i) {
      plan_.app_ids.push_back("app" + std::to_string(i));
    }
  }
  KYOTO_CHECK_MSG(plan_.app_ids.size() == plan_.apps.size(),
                  "app_ids must parallel apps (" << plan_.app_ids.size() << " vs "
                                                 << plan_.apps.size() << ")");
  trace_ = plan_.explicit_trace.empty() ? generate_churn_trace(plan_.trace)
                                        : plan_.explicit_trace;
  controller_ = core::kyoto_controller(hv_.scheduler());

  // Cores already pinned by the surrounding scenario belong to its
  // static VMs forever — tenants only churn through the rest.
  core_owner_.assign(static_cast<std::size_t>(hv_.machine().topology().total_cores()), -1);
  for (hv::Vm* vm : hv_.vms()) {
    for (const auto& vcpu : vm->vcpus()) {
      core_owner_[static_cast<std::size_t>(vcpu->pinned_core())] = -2;
    }
  }

  hv_.add_tick_hook([this](hv::Hypervisor&, Tick now) { on_tick(now); });
  advance_to(hv_.now());  // tick-0 (or mid-run attach) arrivals
}

void ChurnEngine::on_tick(Tick now) {
  // Runs after the controller's own tick hook, so punishment state for
  // tick `now` is final when polled.
  poll_punishment(now);
  advance_to(now + 1);
}

void ChurnEngine::advance_to(Tick next_tick) {
  // Departures first: they free the capacity this tick's admissions
  // may need.
  while (!departures_.empty() && departures_.begin()->first <= next_tick) {
    const auto it = departures_.begin();
    depart(it->second, it->first);
    departures_.erase(it);
  }
  // Deferred arrivals retry strictly in arrival order — a later
  // arrival never jumps the queue.
  while (!deferred_.empty() && can_admit()) {
    const std::size_t tenant = deferred_.front();
    deferred_.pop_front();
    admit(tenant, next_tick);
  }
  while (next_event_ < trace_.size() && trace_[next_event_].tick <= next_tick) {
    const ChurnEvent& event = trace_[next_event_];
    ++next_event_;
    const std::size_t tenant = tenants_.size();
    TenantMetrics t;
    t.arrival_tick = event.tick;
    t.lifetime_ticks = event.lifetime;
    t.app = plan_.app_ids[tenant % plan_.apps.size()];
    tenants_.push_back(std::move(t));
    ++stats_.arrivals;
    if (deferred_.empty() && can_admit()) {
      admit(tenant, next_tick);
    } else if (deferred_.size() < static_cast<std::size_t>(plan_.defer_queue)) {
      deferred_.push_back(tenant);
      ++stats_.deferred;
    } else {
      tenants_[tenant].rejected = true;
      ++stats_.rejected;
    }
  }
}

bool ChurnEngine::can_admit() const {
  if (plan_.max_tenants > 0 &&
      live_.size() >= static_cast<std::size_t>(plan_.max_tenants)) {
    return false;
  }
  const auto free_cores = std::count(core_owner_.begin(), core_owner_.end(), -1);
  return free_cores >= plan_.tenant_vcpus;
}

void ChurnEngine::admit(std::size_t tenant, Tick now) {
  TenantMetrics& t = tenants_[tenant];
  // Lowest free cores first: deterministic placement.
  std::vector<int> cores;
  for (std::size_t c = 0; c < core_owner_.size(); ++c) {
    if (static_cast<int>(cores.size()) == plan_.tenant_vcpus) break;
    if (core_owner_[c] == -1) cores.push_back(static_cast<int>(c));
  }
  KYOTO_CHECK_MSG(static_cast<int>(cores.size()) == plan_.tenant_vcpus,
                  "admit called without capacity");
  for (int c : cores) core_owner_[static_cast<std::size_t>(c)] = static_cast<int>(tenant);

  const WorkloadFactory& app = plan_.apps[tenant % plan_.apps.size()];
  std::vector<std::unique_ptr<workloads::Workload>> workloads;
  workloads.reserve(cores.size());
  for (std::size_t i = 0; i < cores.size(); ++i) {
    workloads.push_back(app(splitmix64(seed_state_)));
    KYOTO_CHECK(workloads.back() != nullptr);
  }
  hv::VmConfig config = plan_.tenant_config;
  config.name = (config.name.empty() ? std::string("tenant") : config.name) + "-" +
                std::to_string(tenant);
  hv::Vm& vm = hv_.create_vm(config, std::move(workloads), cores);

  t.vm_id = vm.id();
  t.admitted_tick = now;
  live_.push_back(tenant);
  ++stats_.admitted;
  stats_.peak_live = std::max(stats_.peak_live, static_cast<int>(live_.size()));
  if (t.lifetime_ticks > 0) departures_.emplace(now + t.lifetime_ticks, tenant);
}

void ChurnEngine::depart(std::size_t tenant, Tick now) {
  TenantMetrics& t = tenants_[tenant];
  close_out(t);
  t.departed_tick = now;
  for (int& owner : core_owner_) {
    if (owner == static_cast<int>(tenant)) owner = -1;
  }
  hv_.destroy_vm(t.vm_id);
  live_.erase(std::remove(live_.begin(), live_.end(), tenant), live_.end());
  ++stats_.departed;
}

void ChurnEngine::close_out(TenantMetrics& t) {
  hv::Vm* vm = hv_.find_vm(t.vm_id);
  KYOTO_CHECK_MSG(vm != nullptr, "closing out tenant whose VM is already gone");
  const pmc::CounterSet counters = vm->counters();
  t.instructions = counters.get(pmc::Counter::kInstructions);
  t.cycles = counters.get(pmc::Counter::kUnhaltedCycles);
  t.llc_references = counters.get(pmc::Counter::kLlcReferences);
  t.llc_misses = counters.get(pmc::Counter::kLlcMisses);
  if (controller_ != nullptr) {
    const auto& state = controller_->state_by_id(t.vm_id);
    t.punish_events = state.punish_events;
    t.punished_ticks = state.punished_ticks;
  }
}

void ChurnEngine::poll_punishment(Tick now) {
  if (controller_ == nullptr) return;
  for (std::size_t tenant : live_) {
    TenantMetrics& t = tenants_[tenant];
    if (t.first_punished_tick >= 0) continue;
    if (controller_->state_by_id(t.vm_id).punish_events > 0) t.first_punished_tick = now;
  }
}

void ChurnEngine::finalize() {
  if (finalized_) return;
  finalized_ = true;
  for (std::size_t tenant : live_) close_out(tenants_[tenant]);
}

}  // namespace kyoto::sim
