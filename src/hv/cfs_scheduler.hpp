// A simplified Linux CFS, the scheduler KVM vCPU threads run under.
//
// Each vCPU is a "task" with a weight; the per-core runqueue is
// ordered by virtual runtime (vruntime), which advances inversely to
// weight while the task runs.  pick() returns the runnable task with
// the smallest vruntime.  This is the substrate KS4Linux
// (kyoto/ks4linux.hpp) extends with pollution-quota throttling, the
// way CFS bandwidth control throttles cgroups.
//
// Hot per-task state is struct-of-arrays (parallel arrays by vCPU id,
// sized at admission); pick is a branch-light running-min over
// vruntime with select arithmetic and a mask-tested Kyoto gate.  The
// pre-rework branchy scan survives only as a frozen test oracle
// (tests/support/reference_control_plane.hpp), bit-identical by the
// accounting oracle test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hv/scheduler.hpp"

namespace kyoto::hv {

class CfsScheduler : public Scheduler {
 public:
  /// Weight of a nice-0 task (Linux convention).
  static constexpr int kNice0Weight = 1024;

  std::string name() const override { return "CFS"; }

  void vcpu_added(Vcpu& vcpu) override;
  void vcpu_migrated(Vcpu& vcpu, int old_core) override;
  void vcpu_removed(Vcpu& vcpu) override;
  Vcpu* pick(int core, Tick now) override;
  void account(Vcpu& vcpu, const RunReport& report) override;
  void slice_end(Tick /*now*/) override {}

  // --- introspection ---------------------------------------------------
  double vruntime(const Vcpu& vcpu) const;

 private:
  std::size_t checked_id(const Vcpu& vcpu) const;
  double min_vruntime(int core) const;
  void ensure_capacity(std::size_t id);

  /// Hot per-task state, struct-of-arrays by vCPU id.  `done_` caches
  /// Vcpu::done() (refreshed at admission and every account(); exact
  /// because done-ness only flips while the task runs).
  std::vector<Vcpu*> vcpu_;
  std::vector<double> vruntime_;
  std::vector<int> weight_;
  std::vector<int> vm_id_;
  std::vector<std::uint8_t> done_;

  std::vector<std::vector<int>> runqueue_;  // per core, vcpu ids (unordered)
};

}  // namespace kyoto::hv
