#include "kyoto/ground_truth.hpp"

#include "common/check.hpp"
#include "kyoto/pollution.hpp"

namespace kyoto::core {

GroundTruthReading read_ground_truth(const hv::Hypervisor& hv, int vm_id) {
  GroundTruthReading reading;
  const cache::MemorySystem& memory = hv.machine().memory();
  const int sockets = hv.machine().topology().sockets;
  for (int socket = 0; socket < sockets; ++socket) {
    const cache::SetAssocCache& llc = memory.llc(socket);
    reading.footprint_lines += llc.footprint_lines(vm_id);
    reading.misses += llc.stats_for_vm(vm_id).misses;
    const cache::VmPollution& pollution = llc.pollution_for_vm(vm_id);
    reading.contention_misses += pollution.contention_misses;
    reading.cross_evictions_inflicted += pollution.cross_evictions_inflicted;
    reading.cross_evictions_suffered += pollution.cross_evictions_suffered;
  }
  return reading;
}

// --------------------------------------------------------------------
// GroundTruthMonitor
// --------------------------------------------------------------------

void GroundTruthMonitor::attach(hv::Hypervisor& hv) {
  PollutionMonitor::attach(hv);
  hv.machine().memory().observe_ground_truth();
  const auto n = static_cast<std::size_t>(hv.vm_count());
  if (last_intrinsic_.size() < n) last_intrinsic_.resize(n, 0);
  sync_vm_slots(cache_);
}

double GroundTruthMonitor::pollution_rate(hv::Vcpu& vcpu, const hv::RunReport& report) {
  KYOTO_CHECK_MSG(hv_ != nullptr, "monitor not attached");
  const int vm_id = vcpu.vm().id();
  const auto idx = static_cast<std::size_t>(vm_id);
  if (idx >= last_intrinsic_.size()) {
    // Cold: a VM admitted since attach.  Its counters started at zero,
    // so a zero snapshot charges exactly its history to this burst.
    last_intrinsic_.resize(idx + 1, 0);
    cache_.resize(idx + 1, -1.0);
  }
  const GroundTruthReading reading = read_ground_truth(*hv_, vm_id);
  const std::uint64_t intrinsic = reading.intrinsic_misses();
  KYOTO_DCHECK(intrinsic >= last_intrinsic_[idx]);
  const std::uint64_t delta = intrinsic - last_intrinsic_[idx];
  last_intrinsic_[idx] = intrinsic;
  const double rate = equation1(delta, hv_->machine().freq_khz(),
                                report.pmc_delta.get(pmc::Counter::kUnhaltedCycles));
  cache_[idx] = rate;
  return rate;
}

// --------------------------------------------------------------------
// GroundTruthShadow
// --------------------------------------------------------------------

GroundTruthShadow::GroundTruthShadow(hv::Hypervisor& hv,
                                     const PollutionController* controller)
    : controller_(controller) {
  hv.machine().memory().observe_ground_truth();
  // Baseline the VMs that already exist: their first sample must
  // cover only the next tick, not history.
  const int n = hv.vm_count();
  cursors_.resize(static_cast<std::size_t>(n));
  samples_.resize(static_cast<std::size_t>(n));
  for (int vm_id = 0; vm_id < n; ++vm_id) {
    const hv::Vm* vm = hv.find_vm(vm_id);
    if (vm == nullptr) continue;  // departed before the shadow attached
    VmCursor& cursor = cursors_[static_cast<std::size_t>(vm_id)];
    cursor.last = read_ground_truth(hv, vm_id);
    cursor.last_counters = vm->counters();
  }
  hv.add_account_hook(
      [this](hv::Vcpu& vcpu, const hv::RunReport& report) { on_account(vcpu, report); });
  hv.add_tick_hook([this](hv::Hypervisor& h, Tick now) { on_tick(h, now); });
}

void GroundTruthShadow::on_account(hv::Vcpu& vcpu, const hv::RunReport& /*report*/) {
  const auto idx = static_cast<std::size_t>(vcpu.vm().id());
  if (idx >= cursors_.size()) {
    cursors_.resize(idx + 1);
    samples_.resize(idx + 1);
  }
  VmCursor& cursor = cursors_[idx];
  cursor.ran_this_tick = true;
  // Read the estimator at burst granularity: for multi-vCPU VMs the
  // tick hook would only see the last burst anyway, and this is the
  // freshest value the controller actually debited with.
  if (controller_ != nullptr) {
    cursor.last_burst_rate = controller_->state(vcpu.vm()).last_rate;
  }
}

void GroundTruthShadow::on_tick(hv::Hypervisor& hv, Tick now) {
  const auto n = static_cast<std::size_t>(hv.vm_count());
  if (cursors_.size() < n) {
    cursors_.resize(n);
    samples_.resize(n);
  }
  const KHz freq = hv.machine().freq_khz();
  for (std::size_t idx = 0; idx < n; ++idx) {
    VmCursor& cursor = cursors_[idx];
    const int vm_id = static_cast<int>(idx);
    const hv::Vm* vm = hv.find_vm(vm_id);
    if (vm == nullptr) continue;  // departed: its sample stream simply ends
    const GroundTruthReading reading = read_ground_truth(hv, vm_id);
    const pmc::CounterSet counters = vm->counters();
    // A VM admitted mid-run gets a default (all-zero) cursor, which is
    // the correct baseline: its counters started at zero, so its first
    // sample covers exactly its first tick.
    Sample sample;
    sample.tick = now;
    sample.ran = cursor.ran_this_tick;
    sample.footprint_lines = reading.footprint_lines;
    sample.misses = reading.misses - cursor.last.misses;
    sample.contention_misses = reading.contention_misses - cursor.last.contention_misses;
    sample.cross_evictions_inflicted =
        reading.cross_evictions_inflicted - cursor.last.cross_evictions_inflicted;
    sample.cross_evictions_suffered =
        reading.cross_evictions_suffered - cursor.last.cross_evictions_suffered;
    const pmc::CounterSet delta = counters - cursor.last_counters;
    sample.cycles = delta.get(pmc::Counter::kUnhaltedCycles);
    sample.true_rate =
        equation1(sample.misses - sample.contention_misses, freq, sample.cycles);
    sample.direct_rate = equation1(delta, freq);
    sample.estimator_rate = cursor.ran_this_tick ? cursor.last_burst_rate : -1.0;
    cursor.last = reading;
    cursor.last_counters = counters;
    cursor.ran_this_tick = false;
    samples_[idx].push_back(sample);
  }
}

}  // namespace kyoto::core
