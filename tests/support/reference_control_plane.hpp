// Frozen control-plane engines: test oracles for the branch-light
// schedulers and the Kyoto pollution controller.
//
// The library's CreditScheduler, CfsScheduler and PollutionController
// run pick, accounting and debit/earn/punish as mask/select arithmetic
// over struct-of-arrays state.  The classes below are the branchy
// control flow they replaced, kept here unchanged in behavior and
// self-contained: each owns its per-vCPU (or per-VM) state and shares
// no code path with the library engine it checks.  They reuse only
// what has a single implementation anyway — the monitors, the Pisces
// scheduler, and the punish-gate bitmask of hv::Scheduler.
// tests/hv/accounting_oracle_test.cpp runs a hypervisor on these
// schedulers next to one on the library schedulers and compares the
// accounting state word for word.
//
// Do not optimize this file; its value is that it does not change.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "hv/credit_scheduler.hpp"
#include "hv/hypervisor.hpp"
#include "hv/pisces.hpp"
#include "hv/scheduler.hpp"
#include "kyoto/controller.hpp"
#include "kyoto/monitor.hpp"

namespace kyoto::test {

/// The Xen credit scheduler with its pre-rework branchy pick, burn
/// and slice-end refill.
class ReferenceCreditScheduler : public hv::Scheduler {
 public:
  static constexpr int kCreditPerTick = hv::CreditScheduler::kCreditPerTick;
  static constexpr int kCreditPerSlice = hv::CreditScheduler::kCreditPerSlice;
  static constexpr int kDefaultWeight = hv::CreditScheduler::kDefaultWeight;

  std::string name() const override { return "XCS (reference)"; }

  void attach(hv::Hypervisor& hv) override {
    Scheduler::attach(hv);
    cycles_per_tick_ = hv.machine().cycles_per_tick();
    const auto cores = static_cast<std::size_t>(hv.machine().topology().total_cores());
    if (runqueue_.size() < cores) runqueue_.resize(cores);
    if (cursors_.size() < cores) cursors_.resize(cores);
  }

  void vcpu_added(hv::Vcpu& vcpu) override {
    KYOTO_CHECK_MSG(hv_ != nullptr, "scheduler not attached");
    KYOTO_CHECK_MSG(vcpu.pinned_core() >= 0, "vCPU must be pinned before registration");
    const auto id = static_cast<std::size_t>(vcpu.id());
    ensure_capacity(id);
    vcpu_[id] = &vcpu;
    remain_credit_[id] = kCreditPerSlice * vcpu.vm().config().weight / kDefaultWeight;
    capped_[id] = vcpu.vm().config().cpu_cap_percent > 0 ? 1 : 0;
    cap_refill_[id] = slice_cap_budget(vcpu);
    cap_budget_[id] = cap_refill_[id];
    vm_id_[id] = vcpu.vm().id();
    weight_[id] = vcpu.vm().config().weight;
    const auto cores = static_cast<std::size_t>(hv_->machine().topology().total_cores());
    if (runqueue_.size() < cores) runqueue_.resize(cores);
    if (cursors_.size() < runqueue_.size()) cursors_.resize(runqueue_.size());
    runqueue_[static_cast<std::size_t>(vcpu.pinned_core())].push_back(vcpu.id());
  }

  void vcpu_migrated(hv::Vcpu& vcpu, int old_core) override {
    KYOTO_CHECK(old_core >= 0 && static_cast<std::size_t>(old_core) < runqueue_.size());
    auto& old_queue = runqueue_[static_cast<std::size_t>(old_core)];
    old_queue.erase(std::remove(old_queue.begin(), old_queue.end(), vcpu.id()),
                    old_queue.end());
    runqueue_[static_cast<std::size_t>(vcpu.pinned_core())].push_back(vcpu.id());
  }

  void vcpu_removed(hv::Vcpu& vcpu) override {
    const std::size_t id = checked_id(vcpu);
    auto& queue = runqueue_[static_cast<std::size_t>(vcpu.pinned_core())];
    queue.erase(std::remove(queue.begin(), queue.end(), vcpu.id()), queue.end());
    for (CoreCursor& cursor : cursors_) {
      if (cursor.current == vcpu.id()) cursor = CoreCursor{};
    }
    vcpu_[id] = nullptr;
    remain_credit_[id] = kCreditPerSlice;
    cap_budget_[id] = 0;
    cap_refill_[id] = 0;
    capped_[id] = 0;
    vm_id_[id] = -1;
    weight_[id] = kDefaultWeight;
  }

  hv::Vcpu* pick(int core, Tick /*now*/) override {
    if (static_cast<std::size_t>(core) >= runqueue_.size()) return nullptr;
    auto& queue = runqueue_[static_cast<std::size_t>(core)];
    if (cursors_.size() < runqueue_.size()) cursors_.resize(runqueue_.size());
    CoreCursor& cursor = cursors_[static_cast<std::size_t>(core)];

    if (cursor.current >= 0 && cursor.consecutive < static_cast<int>(kTicksPerSlice)) {
      const auto cid = static_cast<std::size_t>(cursor.current);
      hv::Vcpu* cv = vcpu_[cid];
      if (cv != nullptr && cv->pinned_core() == core && runnable(*cv) &&
          remain_credit_[cid] > 0) {
        ++cursor.consecutive;
        return cv;
      }
    }
    cursor.current = -1;
    cursor.consecutive = 0;

    enum class Band { kUnder, kOver };
    auto select = [&](Band band) -> hv::Vcpu* {
      for (std::size_t i = 0; i < queue.size(); ++i) {
        const auto id = static_cast<std::size_t>(queue[i]);
        KYOTO_DCHECK(vcpu_[id] != nullptr);
        if (!runnable(*vcpu_[id])) continue;
        const bool under = remain_credit_[id] > 0;
        const Band mine = under ? Band::kUnder : Band::kOver;
        if (mine != band) continue;
        const int chosen = queue[i];
        queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
        queue.push_back(chosen);
        return vcpu_[id];
      }
      return nullptr;
    };

    hv::Vcpu* chosen = select(Band::kUnder);
    if (chosen == nullptr) chosen = select(Band::kOver);
    if (chosen != nullptr) {
      cursor.current = chosen->id();
      cursor.consecutive = 1;
    }
    return chosen;
  }

  Cycles max_burst(const hv::Vcpu& vcpu, Cycles tick_budget) override {
    const std::size_t id = checked_id(vcpu);
    if (capped_[id] == 0) return tick_budget;
    return std::min(std::max<Cycles>(cap_budget_[id], 0), tick_budget);
  }

  void account(hv::Vcpu& vcpu, const hv::RunReport& report) override {
    const std::size_t id = checked_id(vcpu);
    const int burnt = static_cast<int>(
        std::lround(static_cast<double>(kCreditPerTick) * static_cast<double>(report.ran) /
                    static_cast<double>(cycles_per_tick_)));
    remain_credit_[id] -= burnt;
    remain_credit_[id] = std::max(remain_credit_[id], -kCreditPerSlice);
    if (capped_[id] != 0) cap_budget_[id] -= report.ran;
  }

  void slice_end(Tick /*now*/) override {
    for (std::size_t core = 0; core < runqueue_.size(); ++core) {
      long long total_weight = 0;
      for (int qid : runqueue_[core]) {
        const auto id = static_cast<std::size_t>(qid);
        if (vcpu_[id] != nullptr && !vcpu_[id]->done()) {
          total_weight += weight_[id];
        }
      }
      if (total_weight == 0) continue;
      for (int qid : runqueue_[core]) {
        const auto id = static_cast<std::size_t>(qid);
        if (vcpu_[id] == nullptr || vcpu_[id]->done()) continue;
        const long long share =
            static_cast<long long>(kCreditPerSlice) * weight_[id] / total_weight;
        const int earn = static_cast<int>(std::min<long long>(share, kCreditPerSlice));
        remain_credit_[id] = std::min(remain_credit_[id] + earn, std::max(earn, 1));
        cap_budget_[id] = cap_refill_[id];
      }
    }
  }

  int remain_credit(const hv::Vcpu& vcpu) const { return remain_credit_[checked_id(vcpu)]; }
  bool in_over(const hv::Vcpu& vcpu) const { return remain_credit_[checked_id(vcpu)] <= 0; }
  double cap_budget_fraction(const hv::Vcpu& vcpu) const {
    const std::size_t id = checked_id(vcpu);
    if (capped_[id] == 0) return 1.0;
    const Cycles full = cap_refill_[id];
    if (full <= 0) return 0.0;
    return std::max(0.0, static_cast<double>(cap_budget_[id]) / static_cast<double>(full));
  }

 private:
  struct CoreCursor {
    int current = -1;
    int consecutive = 0;
  };

  bool runnable(const hv::Vcpu& vcpu) const {
    if (vcpu.done()) return false;
    if (vm_blocked(vcpu.vm().id())) return false;
    const auto id = static_cast<std::size_t>(vcpu.id());
    if (capped_[id] != 0 && cap_budget_[id] <= 0) return false;
    return true;
  }

  Cycles slice_cap_budget(const hv::Vcpu& vcpu) const {
    const int cap = vcpu.vm().config().cpu_cap_percent;
    if (cap <= 0) return 0;
    const Cycles slice_cycles = hv_->machine().cycles_per_tick() * kTicksPerSlice;
    return slice_cycles * cap / 100;
  }

  std::size_t checked_id(const hv::Vcpu& vcpu) const {
    const auto id = static_cast<std::size_t>(vcpu.id());
    KYOTO_CHECK_MSG(id < vcpu_.size() && vcpu_[id] != nullptr,
                    "unregistered vCPU " << vcpu.id());
    return id;
  }

  void ensure_capacity(std::size_t id) {
    if (vcpu_.size() > id) return;
    const std::size_t n = id + 1;
    vcpu_.resize(n, nullptr);
    remain_credit_.resize(n, kCreditPerSlice);
    cap_budget_.resize(n, 0);
    cap_refill_.resize(n, 0);
    capped_.resize(n, 0);
    vm_id_.resize(n, -1);
    weight_.resize(n, kDefaultWeight);
  }

  std::vector<hv::Vcpu*> vcpu_;
  std::vector<int> remain_credit_;
  std::vector<Cycles> cap_budget_;
  std::vector<Cycles> cap_refill_;
  std::vector<std::uint8_t> capped_;
  std::vector<int> vm_id_;
  std::vector<int> weight_;
  std::vector<std::vector<int>> runqueue_;
  std::vector<CoreCursor> cursors_;
  Cycles cycles_per_tick_ = 0;
};

/// CFS with its pre-rework branchy minimum-vruntime scan.
class ReferenceCfsScheduler : public hv::Scheduler {
 public:
  static constexpr int kNice0Weight = 1024;

  std::string name() const override { return "CFS (reference)"; }

  void vcpu_added(hv::Vcpu& vcpu) override {
    KYOTO_CHECK_MSG(hv_ != nullptr, "scheduler not attached");
    KYOTO_CHECK_MSG(vcpu.pinned_core() >= 0, "vCPU must be pinned before registration");
    const auto id = static_cast<std::size_t>(vcpu.id());
    ensure_capacity(id);
    vcpu_[id] = &vcpu;
    weight_[id] = std::max(1, vcpu.vm().config().weight * kNice0Weight / 256);
    vm_id_[id] = vcpu.vm().id();
    const auto cores = static_cast<std::size_t>(hv_->machine().topology().total_cores());
    if (runqueue_.size() < cores) runqueue_.resize(cores);
    vruntime_[id] = min_vruntime(vcpu.pinned_core());
    runqueue_[static_cast<std::size_t>(vcpu.pinned_core())].push_back(vcpu.id());
  }

  void vcpu_migrated(hv::Vcpu& vcpu, int old_core) override {
    KYOTO_CHECK(old_core >= 0 && static_cast<std::size_t>(old_core) < runqueue_.size());
    auto& oldq = runqueue_[static_cast<std::size_t>(old_core)];
    oldq.erase(std::remove(oldq.begin(), oldq.end(), vcpu.id()), oldq.end());
    const std::size_t id = checked_id(vcpu);
    vruntime_[id] = std::max(vruntime_[id], min_vruntime(vcpu.pinned_core()));
    runqueue_[static_cast<std::size_t>(vcpu.pinned_core())].push_back(vcpu.id());
  }

  void vcpu_removed(hv::Vcpu& vcpu) override {
    const std::size_t id = checked_id(vcpu);
    auto& queue = runqueue_[static_cast<std::size_t>(vcpu.pinned_core())];
    queue.erase(std::remove(queue.begin(), queue.end(), vcpu.id()), queue.end());
    vcpu_[id] = nullptr;
    vruntime_[id] = 0.0;
    weight_[id] = kNice0Weight;
    vm_id_[id] = -1;
  }

  hv::Vcpu* pick(int core, Tick /*now*/) override {
    if (static_cast<std::size_t>(core) >= runqueue_.size()) return nullptr;
    hv::Vcpu* best = nullptr;
    double best_vr = std::numeric_limits<double>::max();
    for (int qid : runqueue_[static_cast<std::size_t>(core)]) {
      const auto id = static_cast<std::size_t>(qid);
      if (vcpu_[id] == nullptr || vcpu_[id]->done() || vm_blocked(vm_id_[id])) continue;
      if (vruntime_[id] < best_vr) {
        best_vr = vruntime_[id];
        best = vcpu_[id];
      }
    }
    return best;
  }

  void account(hv::Vcpu& vcpu, const hv::RunReport& report) override {
    const std::size_t id = checked_id(vcpu);
    vruntime_[id] += static_cast<double>(report.ran) * kNice0Weight / weight_[id];
  }

  void slice_end(Tick /*now*/) override {}

  double vruntime(const hv::Vcpu& vcpu) const { return vruntime_[checked_id(vcpu)]; }

 private:
  double min_vruntime(int core) const {
    if (static_cast<std::size_t>(core) >= runqueue_.size()) return 0.0;
    double best = std::numeric_limits<double>::max();
    bool any = false;
    for (int qid : runqueue_[static_cast<std::size_t>(core)]) {
      const auto id = static_cast<std::size_t>(qid);
      if (vcpu_[id] == nullptr || vcpu_[id]->done()) continue;
      best = std::min(best, vruntime_[id]);
      any = true;
    }
    return any ? best : 0.0;
  }

  std::size_t checked_id(const hv::Vcpu& vcpu) const {
    const auto id = static_cast<std::size_t>(vcpu.id());
    KYOTO_CHECK_MSG(id < vcpu_.size() && vcpu_[id] != nullptr,
                    "unregistered vCPU " << vcpu.id());
    return id;
  }

  void ensure_capacity(std::size_t id) {
    if (vcpu_.size() > id) return;
    const std::size_t n = id + 1;
    vcpu_.resize(n, nullptr);
    vruntime_.resize(n, 0.0);
    weight_.resize(n, kNice0Weight);
    vm_id_.resize(n, -1);
  }

  std::vector<hv::Vcpu*> vcpu_;
  std::vector<double> vruntime_;
  std::vector<int> weight_;
  std::vector<int> vm_id_;
  std::vector<std::vector<int>> runqueue_;
};

/// The Kyoto pollution-quota controller with its pre-rework branchy
/// debit, earn and punished-tick walks.  Punish state is published
/// through the same gate bitmask the schedulers read.
class ReferencePollutionController {
 public:
  using VmState = core::PollutionController::VmState;
  /// The controller's banks, in slices' worth of earning: the clamp
  /// on saved quota and a freshly booked VM's start-up grace.
  static constexpr double kBankSlices = 3.0;
  static constexpr double kInitialBankSlices = 10.0;

  explicit ReferencePollutionController(std::unique_ptr<core::PollutionMonitor> monitor)
      : monitor_(std::move(monitor)) {
    KYOTO_CHECK(monitor_ != nullptr);
  }

  void attach(hv::Hypervisor& hv) {
    hv_ = &hv;
    monitor_->attach(hv);
    hv.add_tick_hook([this](hv::Hypervisor& h, Tick now) { on_tick(h, now); });
    hv.add_vm_removed_hook([this](hv::Hypervisor&, hv::Vm& vm) { vm_removed(vm); });
  }

  void account(hv::Vcpu& vcpu, const hv::RunReport& report) {
    KYOTO_CHECK_MSG(hv_ != nullptr, "controller not attached");
    const double rate = monitor_->pollution_rate(vcpu, report);
    const auto id = static_cast<std::size_t>(vcpu.vm().id());
    VmState& st = slot(vcpu.vm());
    st.last_rate = rate;
    if (st.booked <= 0.0) return;  // no permit booked: never punished
    const double ran_ms = cycles_to_ms(report.ran, hv_->machine().freq_khz());
    const double debit = rate * ran_ms;
    st.quota -= debit;
    st.debited_total += debit;
    if (st.quota < 0.0 && !st.punished) {
      set_punished(id, true);
      ++st.punish_events;
    }
  }

  void slice_end() {
    const double slice_ms = static_cast<double>(kTickMs * kTicksPerSlice);
    for (std::size_t id = 0; id < states_.size(); ++id) {
      if (!live_[id]) continue;
      VmState& st = states_[id];
      if (st.booked <= 0.0) continue;
      const double earn = st.booked * slice_ms;
      st.quota = std::min(st.quota + earn, kBankSlices * earn);
      if (st.punished && st.quota >= 0.0) set_punished(id, false);
    }
  }

  const std::vector<std::uint64_t>* punished_gate() const { return &punished_words_; }

  const VmState& state_by_id(int vm_id) const {
    static const VmState kEmpty{};
    if (vm_id < 0 || static_cast<std::size_t>(vm_id) >= states_.size()) return kEmpty;
    return states_[static_cast<std::size_t>(vm_id)];
  }

 private:
  void on_tick(hv::Hypervisor& hv, Tick now) {
    monitor_->on_tick(hv, now);
    for (VmState& st : states_) {
      if (st.punished) ++st.punished_ticks;
    }
  }

  void vm_removed(hv::Vm& vm) {
    monitor_->vm_removed(vm);
    const auto id = static_cast<std::size_t>(vm.id());
    if (id < states_.size()) {
      set_punished(id, false);
      live_[id] = false;
    }
  }

  VmState& slot(const hv::Vm& vm) {
    const auto id = static_cast<std::size_t>(vm.id());
    if (states_.size() <= id) {
      states_.resize(id + 1);
      live_.resize(id + 1, false);
      punished_words_.resize((states_.size() + 63) / 64, 0);
    }
    live_[id] = true;
    VmState& st = states_[id];
    if (st.booked == 0.0 && vm.config().llc_cap > 0.0) {
      st.booked = vm.config().llc_cap;
      st.quota = st.booked * static_cast<double>(kTickMs * kTicksPerSlice) *
                 kInitialBankSlices;
    }
    return st;
  }

  void set_punished(std::size_t vm_id, bool punished) {
    states_[vm_id].punished = punished;
    const std::uint64_t bit = std::uint64_t{1} << (vm_id & 63);
    if (punished) {
      punished_words_[vm_id >> 6] |= bit;
    } else {
      punished_words_[vm_id >> 6] &= ~bit;
    }
  }

  std::unique_ptr<core::PollutionMonitor> monitor_;
  hv::Hypervisor* hv_ = nullptr;
  std::vector<VmState> states_;  // by vm id
  std::vector<bool> live_;       // accounted at least once and not departed
  std::vector<std::uint64_t> punished_words_;
};

/// A Kyoto scheduler over a reference base: the base scheduler's
/// accounting, then the controller's — the same composition as
/// core::Ks4Xen / Ks4Linux / Ks4Pisces.
template <class Base>
class ReferenceKyotoScheduler final : public Base {
 public:
  explicit ReferenceKyotoScheduler(std::unique_ptr<core::PollutionMonitor> monitor =
                                       std::make_unique<core::DirectPmcMonitor>())
      : controller_(std::move(monitor)) {}

  std::string name() const override { return "Kyoto " + Base::name(); }

  void attach(hv::Hypervisor& hv) override {
    Base::attach(hv);
    controller_.attach(hv);
    this->set_kyoto_gate(controller_.punished_gate());
  }

  void account(hv::Vcpu& vcpu, const hv::RunReport& report) override {
    Base::account(vcpu, report);
    controller_.account(vcpu, report);
  }

  void slice_end(Tick now) override {
    Base::slice_end(now);
    controller_.slice_end();
  }

  const ReferencePollutionController& kyoto() const { return controller_; }

 private:
  ReferencePollutionController controller_;
};

using ReferenceKs4Xen = ReferenceKyotoScheduler<ReferenceCreditScheduler>;
using ReferenceKs4Linux = ReferenceKyotoScheduler<ReferenceCfsScheduler>;
using ReferenceKs4Pisces = ReferenceKyotoScheduler<hv::PiscesScheduler>;

}  // namespace kyoto::test
