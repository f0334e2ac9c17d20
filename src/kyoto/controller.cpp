#include "kyoto/controller.hpp"

#include <bit>

#include "common/check.hpp"

namespace kyoto::core {

namespace {

/// Maximum banked quota, in slices' worth of earning.  A small bank
/// lets well-behaved VMs absorb periodic reload bursts (a VM whose
/// lines were evicted while it was descheduled re-misses them at the
/// next slice — the "zigzag" of Fig 2) without being punished for
/// pollution they did not initiate.
constexpr double kBankSlices = 3.0;

/// Quota a freshly booked VM starts with, in slices' worth of
/// earning.  Covers the one-off data-loading phase ("LLC misses occur
/// only during the first time slice", Fig 2) so a VM is not punished
/// merely for starting up.
constexpr double kInitialBankSlices = 10.0;

}  // namespace

PollutionController::PollutionController(std::unique_ptr<PollutionMonitor> monitor)
    : monitor_(std::move(monitor)) {
  KYOTO_CHECK(monitor_ != nullptr);
}

void PollutionController::attach(hv::Hypervisor& hv) {
  hv_ = &hv;
  monitor_->attach(hv);
  hv.add_tick_hook([this](hv::Hypervisor& h, Tick now) { on_tick(h, now); });
  hv.add_vm_removed_hook([this](hv::Hypervisor&, hv::Vm& vm) { vm_removed(vm); });
}

void PollutionController::set_punished(std::size_t vm_id, bool punished) {
  states_[vm_id].punished = punished;
  const std::size_t word = vm_id >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (vm_id & 63);
  punished_words_[word] = punished ? (punished_words_[word] | bit)
                                   : (punished_words_[word] & ~bit);
}

void PollutionController::vm_removed(hv::Vm& vm) {
  monitor_->vm_removed(vm);
  const auto id = static_cast<std::size_t>(vm.id());
  if (id < states_.size()) {
    // The slot survives as the departed tenant's final accounting
    // record (state_by_id): punishment stops ticking and slice_end
    // stops refilling its quota.
    set_punished(id, false);
    live_words_[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
  }
}

PollutionController::VmState& PollutionController::slot(const hv::Vm& vm) {
  const auto id = static_cast<std::size_t>(vm.id());
  if (states_.size() <= id) {
    states_.resize(id + 1);
    punished_words_.resize((states_.size() + 63) / 64, 0);
    live_words_.resize(punished_words_.size(), 0);
  }
  live_words_[id >> 6] |= std::uint64_t{1} << (id & 63);
  VmState& st = states_[id];
  if (st.booked == 0.0 && vm.config().llc_cap > 0.0) {
    st.booked = vm.config().llc_cap;
    // Start-up grace: enough quota to load the working set once.
    st.quota = st.booked * static_cast<double>(kTickMs * kTicksPerSlice) *
               kInitialBankSlices;
  }
  return st;
}

void PollutionController::account(hv::Vcpu& vcpu, const hv::RunReport& report) {
  KYOTO_CHECK_MSG(hv_ != nullptr, "controller not attached");
  // The monitor is consulted unconditionally: sampling monitors keep
  // their direct-rate estimates fresh even for unbooked VMs.
  const double rate = monitor_->pollution_rate(vcpu, report);
  const auto id = static_cast<std::size_t>(vcpu.vm().id());
  VmState& st = slot(vcpu.vm());
  st.last_rate = rate;

  // The unbooked case and the punish transition are select
  // arithmetic (subtracting 0.0 preserves every quota bit
  // pattern that can occur here).
  const bool booked = st.booked > 0.0;
  const double ran_ms = cycles_to_ms(report.ran, hv_->machine().freq_khz());
  const double debit = booked ? rate * ran_ms : 0.0;
  st.quota -= debit;
  st.debited_total += debit;
  const bool newly_punished = booked & (st.quota < 0.0) & !st.punished;
  st.punish_events += static_cast<std::int64_t>(newly_punished);
  set_punished(id, st.punished | newly_punished);
}

void PollutionController::slice_end() {
  const double slice_ms = static_cast<double>(kTickMs * kTicksPerSlice);
  // Walk the live-VM bitset: a departed tenant's record is frozen,
  // and the per-slice cost tracks the live population, not the churn
  // history.
  for (std::size_t w = 0; w < live_words_.size(); ++w) {
    std::uint64_t word = live_words_[w];
    while (word != 0) {
      const std::size_t id = (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      VmState& st = states_[id];
      const bool booked = st.booked > 0.0;
      const double earn = booked ? st.booked * slice_ms : 0.0;
      const double replenished = st.quota + earn;
      const double bank = kBankSlices * earn;
      const double clamped = replenished < bank ? replenished : bank;
      st.quota = booked ? clamped : st.quota;
      const bool lift = st.punished & booked & (st.quota >= 0.0);
      set_punished(id, st.punished & !lift);
    }
  }
}

const PollutionController::VmState& PollutionController::state(const hv::Vm& vm) const {
  return state_by_id(vm.id());
}

const PollutionController::VmState& PollutionController::state_by_id(int vm_id) const {
  static const VmState kEmpty{};
  if (vm_id < 0 || static_cast<std::size_t>(vm_id) >= states_.size()) return kEmpty;
  return states_[static_cast<std::size_t>(vm_id)];
}

void PollutionController::on_tick(hv::Hypervisor& hv, Tick now) {
  monitor_->on_tick(hv, now);
  // Walk the punished bitset instead of polling every (mostly dead,
  // under churn) VM slot: the words mirror the punished flags exactly.
  for (std::size_t w = 0; w < punished_words_.size(); ++w) {
    std::uint64_t word = punished_words_[w];
    while (word != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(word));
      ++states_[(w << 6) + bit].punished_ticks;
      word &= word - 1;
    }
  }
}

}  // namespace kyoto::core
