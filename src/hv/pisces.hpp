// Pisces-style co-kernel "scheduling" (Ouyang et al., HPDC 2015 [4]).
//
// Pisces gives each HPC application an *enclave*: dedicated cores and
// memory managed by a lightweight co-kernel, with no hypervisor in
// the data path.  There is no time sharing at all — a vCPU owns its
// core outright.  That removes every software interference channel,
// but the LLC is still silicon shared by all enclaves on the socket,
// which is exactly the residual interference Fig 8 demonstrates and
// KS4Pisces (kyoto/ks4pisces.hpp) closes by duty-cycling polluting
// enclaves (the punish gate arrives as a bitmask via set_kyoto_gate).
#pragma once

#include <string>
#include <vector>

#include "hv/scheduler.hpp"

namespace kyoto::hv {

class PiscesScheduler : public Scheduler {
 public:
  std::string name() const override { return "Pisces"; }

  /// Each vCPU must be pinned to a core no other vCPU uses (enclaves
  /// own their cores); violations throw.
  void vcpu_added(Vcpu& vcpu) override;
  void vcpu_migrated(Vcpu& vcpu, int old_core) override;
  /// Destroying an enclave releases its core for a later enclave.
  void vcpu_removed(Vcpu& vcpu) override;
  Vcpu* pick(int core, Tick now) override;
  void account(Vcpu& vcpu, const RunReport& report) override {
    (void)vcpu;
    (void)report;
  }
  void slice_end(Tick /*now*/) override {}

 private:
  std::vector<Vcpu*> owner_;      // per core: the enclave vCPU owning it
  std::vector<int> owner_vm_id_;  // per core: owning VM id (-1 = free)
};

}  // namespace kyoto::hv
