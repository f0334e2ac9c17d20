// KS4Xen: the Kyoto scheduler for Xen (§3.2).
//
// Exactly the paper's delta on the Xen credit scheduler: llc_cap is
// an extra VM configuration parameter; a pollution_quota scheduling
// variable is debited while the VM runs by the monitored llc_cap_act;
// a negative quota forces the VM out of the runnable set ("priority
// OVER") until slice-end earnings bring the quota back to zero.  All
// credit mechanics (weights, caps, UNDER/OVER, work conservation)
// are inherited unchanged from hv::CreditScheduler, mirroring the
// ~110-LOC patch the paper describes.
#pragma once

#include <memory>
#include <string>

#include "hv/credit_scheduler.hpp"
#include "kyoto/controller.hpp"
#include "kyoto/monitor.hpp"

namespace kyoto::core {

class Ks4Xen final : public hv::CreditScheduler {
 public:
  explicit Ks4Xen(std::unique_ptr<PollutionMonitor> monitor =
                      std::make_unique<DirectPmcMonitor>(),
                  KyotoParams params = {})
      : controller_(std::move(monitor), params) {}

  std::string name() const override { return "KS4Xen"; }

  void attach(hv::Hypervisor& hv) override {
    hv::CreditScheduler::attach(hv);
    controller_.attach(hv);
    // Punish gating reaches the credit engine as bitmasks, not
    // virtual predicates: the hot pick loop tests controller-owned
    // punished bits with word arithmetic.
    set_kyoto_gates(controller_.blocked_gate(), controller_.demoted_gate());
  }

  void account(hv::Vcpu& vcpu, const hv::RunReport& report) override {
    hv::CreditScheduler::account(vcpu, report);
    controller_.account(vcpu, report);
  }

  void slice_end(Tick now) override {
    hv::CreditScheduler::slice_end(now);
    controller_.slice_end();
  }

  PollutionController& kyoto() { return controller_; }
  const PollutionController& kyoto() const { return controller_; }

 private:
  PollutionController controller_;
};

}  // namespace kyoto::core
