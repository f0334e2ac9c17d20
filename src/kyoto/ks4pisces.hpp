// KS4Pisces: the Kyoto controller for the Pisces co-kernel.
//
// Pisces enclaves own their cores, so there is no scheduler queue to
// demote a polluter in; instead a punished enclave's cores are simply
// idled (duty-cycled) until its quota recovers.  This is the version
// Fig 8 evaluates: vanilla Pisces leaves ~24% LLC-contention
// degradation on the table, KS4Pisces closes it.
#pragma once

#include <memory>
#include <string>

#include "hv/pisces.hpp"
#include "kyoto/controller.hpp"
#include "kyoto/monitor.hpp"

namespace kyoto::core {

class Ks4Pisces final : public hv::PiscesScheduler {
 public:
  explicit Ks4Pisces(std::unique_ptr<PollutionMonitor> monitor =
                         std::make_unique<DirectPmcMonitor>(),
                     KyotoParams params = {})
      : controller_(std::move(monitor), params) {}

  std::string name() const override { return "KS4Pisces"; }

  void attach(hv::Hypervisor& hv) override {
    hv::PiscesScheduler::attach(hv);
    controller_.attach(hv);
    set_kyoto_gates(controller_.blocked_gate(), controller_.demoted_gate());
  }

  void account(hv::Vcpu& vcpu, const hv::RunReport& report) override {
    hv::PiscesScheduler::account(vcpu, report);
    controller_.account(vcpu, report);
  }

  void slice_end(Tick now) override {
    hv::PiscesScheduler::slice_end(now);
    controller_.slice_end();
  }

  PollutionController& kyoto() { return controller_; }
  const PollutionController& kyoto() const { return controller_; }

 private:
  PollutionController controller_;
};

}  // namespace kyoto::core
