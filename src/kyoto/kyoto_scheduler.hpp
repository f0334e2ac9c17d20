// The Kyoto scheduler: a vanilla scheduler plus the pollution
// controller (§3.2).
//
// Exactly the paper's delta, whatever the base: llc_cap is an extra
// VM configuration parameter; a pollution_quota scheduling variable
// is debited while the VM runs by the monitored llc_cap_act; a
// negative quota takes the VM out of the runnable set until
// slice-end earnings bring the quota back to zero.  Everything else
// (credits, vruntime, enclaves) is inherited unchanged from `Base`,
// mirroring how the paper ported ~110 LOCs across Xen, Linux/CFS and
// Pisces.  The three instantiations are named in kyoto/ks4xen.hpp,
// ks4linux.hpp and ks4pisces.hpp.
#pragma once

#include <memory>
#include <string>

#include "hv/scheduler.hpp"
#include "kyoto/controller.hpp"
#include "kyoto/monitor.hpp"

namespace kyoto::core {

template <class Base, const char* Name>
class KyotoScheduler final : public Base {
 public:
  explicit KyotoScheduler(std::unique_ptr<PollutionMonitor> monitor =
                              std::make_unique<DirectPmcMonitor>())
      : controller_(std::move(monitor)) {}

  std::string name() const override { return Name; }

  void attach(hv::Hypervisor& hv) override {
    Base::attach(hv);
    controller_.attach(hv);
    // Punish gating reaches the base scheduler as a bitmask, not a
    // virtual predicate: the hot pick loop tests controller-owned
    // punished bits with word arithmetic.
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

  PollutionController& kyoto() { return controller_; }
  const PollutionController& kyoto() const { return controller_; }

 private:
  PollutionController controller_;
};

/// The controller of `scheduler` when it is one of the Kyoto
/// schedulers, else null.
const PollutionController* kyoto_controller(hv::Scheduler& scheduler);

}  // namespace kyoto::core
