// Counter ledger: the identity-switch fast path stated as an
// invariant.
//
// The hypervisor leaves a re-picked vCPU switched in across ticks, so
// its PMU delta is folded into the virtualized counters lazily.  The
// semantics it must keep are those of an eager switch-out/in around
// every tick: each VM's counters are exactly the sum of the per-tick
// RunReport deltas the schedulers were charged.  The ledger keeps that
// sum per VM from the account hooks and compares it with
// Vm::counters() at every tick boundary, when a VM is destroyed (its
// final record), and wherever a test calls check() — e.g. right
// before and after a migrate.
#pragma once

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "hv/hypervisor.hpp"
#include "pmc/counters.hpp"

namespace kyoto::test {

class CounterLedger {
 public:
  /// Registers the hooks; create the ledger before the first tick.
  explicit CounterLedger(hv::Hypervisor& hv) : hv_(hv) {
    hv.add_account_hook([this](hv::Vcpu& vcpu, const hv::RunReport& report) {
      charged(vcpu.vm().id()) += report.pmc_delta;
    });
    hv.add_tick_hook([this](hv::Hypervisor&, Tick now) { check("tick " + std::to_string(now)); });
    hv.add_vm_removed_hook(
        [this](hv::Hypervisor&, hv::Vm& vm) { check_vm(vm, "destroy_vm"); });
  }

  CounterLedger(const CounterLedger&) = delete;
  CounterLedger& operator=(const CounterLedger&) = delete;

  /// Compares every live VM's counters with its ledger sum.
  void check(const std::string& where) {
    ++checks_;
    for (hv::Vm* vm : hv_.vms()) check_vm(*vm, where);
  }

  /// Every mismatch seen so far, one line each (empty = invariant held).
  const std::vector<std::string>& violations() const { return violations_; }
  /// Number of check() passes (tick boundaries included).
  std::size_t checks() const { return checks_; }

 private:
  pmc::CounterSet& charged(int vm_id) {
    const auto id = static_cast<std::size_t>(vm_id);
    if (sums_.size() <= id) sums_.resize(id + 1);
    return sums_[id];
  }

  void check_vm(hv::Vm& vm, const std::string& where) {
    const pmc::CounterSet want = charged(vm.id());
    const pmc::CounterSet got = vm.counters();
    if (want == got) return;
    std::ostringstream msg;
    msg << where << ": vm " << vm.id() << " counters";
    for (std::uint64_t v : got.values) msg << ' ' << v;
    msg << " != ledger";
    for (std::uint64_t v : want.values) msg << ' ' << v;
    violations_.push_back(msg.str());
  }

  hv::Hypervisor& hv_;
  std::vector<pmc::CounterSet> sums_;  // by vm id
  std::vector<std::string> violations_;
  std::size_t checks_ = 0;
};

}  // namespace kyoto::test
