#include "kyoto/monitor.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "kyoto/pollution.hpp"

namespace kyoto::core {
namespace {

/// Exponential moving average used for the skip heuristics' view of a
/// VM's recent direct rate.
constexpr double kEmaAlpha = 0.3;

}  // namespace

double PollutionMonitor::cached_rate(int vm_id) const {
  if (vm_id < 0 || static_cast<std::size_t>(vm_id) >= cache_.size()) return -1.0;
  return cache_[static_cast<std::size_t>(vm_id)];
}

// --------------------------------------------------------------------
// DirectPmcMonitor
// --------------------------------------------------------------------

double DirectPmcMonitor::pollution_rate(hv::Vcpu& /*vcpu*/, const hv::RunReport& report) {
  KYOTO_CHECK_MSG(hv_ != nullptr, "monitor not attached");
  return equation1(report.pmc_delta, hv_->machine().freq_khz());
}

// --------------------------------------------------------------------
// McSimMonitor
// --------------------------------------------------------------------

void McSimMonitor::attach(hv::Hypervisor& hv) {
  PollutionMonitor::attach(hv);
  simulator_ = std::make_unique<mcsim::ReplaySimulator>(hv.machine().config().mem,
                                                        hv.machine().freq_khz());
  sync_vm_slots(cache_);
}

void McSimMonitor::sample_vm(hv::Vm& vm) {
  // The pin tool attaches to vCPU 0: "We assume that vCPUs of the
  // same VM have the same behaviour.  Therefore, only one vCPU of
  // each VM is considered" (§3.3).  It attaches at the end of the
  // vCPU's open lookahead block (Vcpu::RefBuffer).
  const auto clone = vm.vcpu(0).clone_at_block_end();
  const auto result = simulator_->run(*clone, kSampleInstructions);
  sync_vm_slots(cache_);
  KYOTO_DCHECK(static_cast<std::size_t>(vm.id()) < cache_.size());
  cache_[static_cast<std::size_t>(vm.id())] = result.llc_cap_act(simulator_->freq_khz());
}

double McSimMonitor::pollution_rate(hv::Vcpu& vcpu, const hv::RunReport& /*report*/) {
  KYOTO_CHECK_MSG(simulator_ != nullptr, "monitor not attached");
  const auto vm_id = static_cast<std::size_t>(vcpu.vm().id());
  if (vm_id >= cache_.size()) sync_vm_slots(cache_);  // cold: VM admitted mid-run
  KYOTO_DCHECK(vm_id < cache_.size());
  if (cache_[vm_id] < 0.0) sample_vm(vcpu.vm());
  return cache_[vm_id];
}

void McSimMonitor::on_tick(hv::Hypervisor& hv, Tick now) {
  sync_vm_slots(cache_);
  if (now == 0 || now % kSamplePeriodTicks != 0) return;
  for (hv::Vm* vm : hv.vms()) {
    if (!vm->done()) sample_vm(*vm);
  }
}

// --------------------------------------------------------------------
// SocketDedicationMonitor
// --------------------------------------------------------------------

void SocketDedicationMonitor::attach(hv::Hypervisor& hv) {
  PollutionMonitor::attach(hv);
  KYOTO_CHECK_MSG(hv.machine().topology().sockets >= 2,
                  "socket dedication requires a multi-socket machine (vCPUs are "
                  "migrated to the other socket during sampling)");
  sync_vm_slots(cache_);
  sync_vm_slots(direct_ema_);
  next_event_ = kSamplePeriodTicks;
}

double SocketDedicationMonitor::direct_rate(int vm_id) const {
  if (vm_id < 0 || static_cast<std::size_t>(vm_id) >= direct_ema_.size()) return -1.0;
  return direct_ema_[static_cast<std::size_t>(vm_id)];
}

double SocketDedicationMonitor::pollution_rate(hv::Vcpu& vcpu, const hv::RunReport& report) {
  KYOTO_CHECK_MSG(hv_ != nullptr, "monitor not attached");
  const auto vm_id = static_cast<std::size_t>(vcpu.vm().id());
  if (vm_id >= direct_ema_.size() || vm_id >= cache_.size()) {
    // Cold: a VM admitted since the last tick prologue.
    sync_vm_slots(direct_ema_);
    sync_vm_slots(cache_);
  }
  KYOTO_DCHECK(vm_id < direct_ema_.size() && vm_id < cache_.size());
  if (report.pmc_delta.get(pmc::Counter::kUnhaltedCycles) > 0) {
    const double direct = equation1(report.pmc_delta, hv_->machine().freq_khz());
    double& ema = direct_ema_[vm_id];
    ema = ema < 0.0 ? direct : (1.0 - kEmaAlpha) * ema + kEmaAlpha * direct;
  }
  // Before the first dedicated sample completes, fall back to the
  // (possibly contaminated) direct rate.
  if (cache_[vm_id] >= 0.0) return cache_[vm_id];
  return std::max(0.0, direct_ema_[vm_id]);
}

void SocketDedicationMonitor::begin_campaign_step(hv::Hypervisor& hv, Tick now) {
  const auto vms = hv.vms();
  if (vms.empty()) {
    next_event_ = now + kSamplePeriodTicks;
    return;
  }

  // Round-robin target selection over live VMs.
  hv::Vm* target = nullptr;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    hv::Vm* candidate = vms[(next_target_ + i) % vms.size()];
    if (!candidate->done()) {
      target = candidate;
      next_target_ = (next_target_ + i + 1) % vms.size();
      break;
    }
  }
  if (target == nullptr) {
    next_event_ = now + kSamplePeriodTicks;
    return;
  }

  sync_vm_slots(cache_);
  KYOTO_DCHECK(static_cast<std::size_t>(target->id()) < cache_.size());
  const double own_rate = direct_rate(target->id());

  // Skip heuristic 1 (Fig 10, first pair of bars): a very quiet vCPU
  // cannot be mis-measured enough to matter.
  if (own_rate >= 0.0 && own_rate < kLowRateThreshold) {
    cache_[static_cast<std::size_t>(target->id())] = own_rate;
    ++skips_;
    next_event_ = now + kSamplePeriodTicks;
    return;
  }

  const auto& topo = hv.machine().topology();
  const int target_socket = topo.socket_of(target->vcpu(0).pinned_core());

  // Collect co-runners: vCPUs of other VMs pinned to the same socket.
  std::vector<hv::Vcpu*> corunners;
  for (hv::Vm* vm : vms) {
    if (vm == target) continue;
    for (auto& vcpu : vm->vcpus()) {
      if (topo.socket_of(vcpu->pinned_core()) == target_socket && !vcpu->done()) {
        corunners.push_back(vcpu.get());
      }
    }
  }

  if (corunners.empty()) {
    // Already alone on the socket: the direct rate is clean.
    if (own_rate >= 0.0) cache_[static_cast<std::size_t>(target->id())] = own_rate;
    next_event_ = now + kSamplePeriodTicks;
    return;
  }

  // Skip heuristic 2 (Fig 10, second pair; Fig 11): quiet co-runners
  // cannot contaminate the measurement.
  const bool all_quiet = std::all_of(corunners.begin(), corunners.end(), [&](hv::Vcpu* v) {
    const double r = direct_rate(v->vm().id());
    return r >= 0.0 && r < kLowRateThreshold;
  });
  if (all_quiet) {
    if (own_rate >= 0.0) cache_[static_cast<std::size_t>(target->id())] = own_rate;
    ++skips_;
    next_event_ = now + kSamplePeriodTicks;
    return;
  }

  // Dedicate the socket: migrate every co-runner to the next socket.
  const int dest_socket = (target_socket + 1) % topo.sockets;
  int dest_cursor = 0;
  displaced_.clear();
  for (hv::Vcpu* vcpu : corunners) {
    displaced_.push_back(Displaced{vcpu, vcpu->pinned_core()});
    const int dest_core = topo.first_core(dest_socket) + dest_cursor;
    dest_cursor = (dest_cursor + 1) % topo.cores_per_socket;
    hv.migrate(*vcpu, dest_core);
    ++migrations_;
  }
  ++isolations_;
  target_ = target;
  phase_ = Phase::kWarming;
  next_event_ = now + kWarmTicks;
}

void SocketDedicationMonitor::finish_window(hv::Hypervisor& hv, Tick now) {
  KYOTO_CHECK(target_ != nullptr);
  const pmc::CounterSet delta = target_->counters() - window_start_counters_;
  if (delta.get(pmc::Counter::kUnhaltedCycles) > 0) {
    cache_[static_cast<std::size_t>(target_->id())] =
        equation1(delta, hv.machine().freq_khz());
  }
  target_ = nullptr;
  phase_ = Phase::kAwaitReturn;
  // "The return migration ... is performed after a random period"
  // (§4.5) — it models the time KS4Xen takes to finish the campaign.
  next_event_ = now + static_cast<Tick>(rng_.below(
                    static_cast<std::uint64_t>(kMaxReturnDelayTicks) + 1));
}

void SocketDedicationMonitor::return_displaced(hv::Hypervisor& hv) {
  for (const Displaced& d : displaced_) {
    hv.migrate(*d.vcpu, d.original_core);
    ++migrations_;
  }
  displaced_.clear();
}

void SocketDedicationMonitor::on_tick(hv::Hypervisor& hv, Tick now) {
  sync_vm_slots(cache_);
  sync_vm_slots(direct_ema_);
  switch (phase_) {
    case Phase::kIdle:
      if (now >= next_event_) begin_campaign_step(hv, now);
      break;
    case Phase::kWarming:
      if (now >= next_event_) {
        // Reload burst absorbed; start counting clean.
        window_start_counters_ = target_->counters();
        phase_ = Phase::kSampling;
        next_event_ = now + kWindowTicks;
      }
      break;
    case Phase::kSampling:
      if (now >= next_event_) finish_window(hv, now);
      break;
    case Phase::kAwaitReturn:
      if (now >= next_event_) {
        return_displaced(hv);
        phase_ = Phase::kIdle;
        next_event_ = now + kSamplePeriodTicks;
      }
      break;
  }
}

void SocketDedicationMonitor::vm_removed(hv::Vm& vm) {
  // Forget displaced vCPUs that belong to the departing VM: they are
  // about to die and must never be migrated back.
  displaced_.erase(std::remove_if(displaced_.begin(), displaced_.end(),
                                  [&vm](const Displaced& d) { return &d.vcpu->vm() == &vm; }),
                   displaced_.end());
  if (target_ == &vm) {
    // Abort the in-flight step (kWarming/kSampling): the window can
    // never finish, so return the surviving displaced vCPUs home and
    // go idle.  The stale next_event_ just schedules the next step.
    if (hv_ != nullptr) return_displaced(*hv_);
    target_ = nullptr;
    phase_ = Phase::kIdle;
  }
}

}  // namespace kyoto::core
