// KS4Linux: the Kyoto scheduler for the Linux CFS (KVM vCPU threads).
//
// Same pollution-quota mechanics as KS4Xen, grafted onto CFS the way
// CFS bandwidth control throttles cgroups: a punished VM's vCPU tasks
// are simply not eligible for pick() until their quota recovers.
#pragma once

#include <memory>
#include <string>

#include "hv/cfs_scheduler.hpp"
#include "kyoto/controller.hpp"
#include "kyoto/monitor.hpp"

namespace kyoto::core {

class Ks4Linux final : public hv::CfsScheduler {
 public:
  explicit Ks4Linux(std::unique_ptr<PollutionMonitor> monitor =
                        std::make_unique<DirectPmcMonitor>(),
                    KyotoParams params = {})
      : controller_(std::move(monitor), params) {}

  std::string name() const override { return "KS4Linux"; }

  void attach(hv::Hypervisor& hv) override {
    hv::CfsScheduler::attach(hv);
    controller_.attach(hv);
    set_kyoto_gates(controller_.blocked_gate(), controller_.demoted_gate());
  }

  void account(hv::Vcpu& vcpu, const hv::RunReport& report) override {
    hv::CfsScheduler::account(vcpu, report);
    controller_.account(vcpu, report);
  }

  void slice_end(Tick now) override {
    hv::CfsScheduler::slice_end(now);
    controller_.slice_end();
  }

  PollutionController& kyoto() { return controller_; }
  const PollutionController& kyoto() const { return controller_; }

 private:
  PollutionController controller_;
};

}  // namespace kyoto::core
