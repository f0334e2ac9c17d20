#include "hv/cfs_scheduler.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "hv/hypervisor.hpp"

namespace kyoto::hv {

void CfsScheduler::ensure_capacity(std::size_t id) {
  if (vcpu_.size() > id) return;
  const std::size_t n = id + 1;
  vcpu_.resize(n, nullptr);
  vruntime_.resize(n, 0.0);
  weight_.resize(n, kNice0Weight);
  vm_id_.resize(n, -1);
  done_.resize(n, 0);
}

void CfsScheduler::vcpu_added(Vcpu& vcpu) {
  KYOTO_CHECK_MSG(hv_ != nullptr, "scheduler not attached");
  KYOTO_CHECK_MSG(vcpu.pinned_core() >= 0, "vCPU must be pinned before registration");
  const auto id = static_cast<std::size_t>(vcpu.id());
  ensure_capacity(id);
  vcpu_[id] = &vcpu;
  // Map the Xen-style weight (256 = default) onto CFS nice-0 weight.
  weight_[id] = std::max(1, vcpu.vm().config().weight * kNice0Weight / 256);
  vm_id_[id] = vcpu.vm().id();
  done_[id] = vcpu.done() ? 1 : 0;
  const auto cores = static_cast<std::size_t>(hv_->machine().topology().total_cores());
  if (runqueue_.size() < cores) runqueue_.resize(cores);
  // A task entering a runqueue starts at the queue's min vruntime so
  // it neither starves others nor is starved (CFS's place_entity).
  vruntime_[id] = min_vruntime(vcpu.pinned_core());
  runqueue_[static_cast<std::size_t>(vcpu.pinned_core())].push_back(vcpu.id());
}

void CfsScheduler::vcpu_migrated(Vcpu& vcpu, int old_core) {
  KYOTO_CHECK(old_core >= 0 && static_cast<std::size_t>(old_core) < runqueue_.size());
  auto& oldq = runqueue_[static_cast<std::size_t>(old_core)];
  oldq.erase(std::remove(oldq.begin(), oldq.end(), vcpu.id()), oldq.end());
  const std::size_t id = checked_id(vcpu);
  vruntime_[id] = std::max(vruntime_[id], min_vruntime(vcpu.pinned_core()));
  runqueue_[static_cast<std::size_t>(vcpu.pinned_core())].push_back(vcpu.id());
}

void CfsScheduler::vcpu_removed(Vcpu& vcpu) {
  const std::size_t id = checked_id(vcpu);
  auto& queue = runqueue_[static_cast<std::size_t>(vcpu.pinned_core())];
  queue.erase(std::remove(queue.begin(), queue.end(), vcpu.id()), queue.end());
  // vcpu_ = nullptr: the id is never reused.
  vcpu_[id] = nullptr;
  vruntime_[id] = 0.0;
  weight_[id] = kNice0Weight;
  vm_id_[id] = -1;
  done_[id] = 0;
}

double CfsScheduler::min_vruntime(int core) const {
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

Vcpu* CfsScheduler::pick(int core, Tick /*now*/) {
  if (static_cast<std::size_t>(core) >= runqueue_.size()) return nullptr;
  const auto& queue = runqueue_[static_cast<std::size_t>(core)];
  // Branch-light running min over vruntime: eligibility is a 0/1
  // word and the minimum advances by select — strict `<` keeps the
  // first minimum in queue order on ties.
  int best_id = -1;
  double best_vr = std::numeric_limits<double>::max();
  for (int qid : queue) {
    const auto id = static_cast<std::size_t>(qid);
    const unsigned elig = (static_cast<unsigned>(done_[id]) ^ 1u) &
                          (static_cast<unsigned>(vm_blocked(vm_id_[id])) ^ 1u);
    const double vr = vruntime_[id];
    const bool take = elig != 0 && vr < best_vr;
    best_vr = take ? vr : best_vr;
    best_id = take ? qid : best_id;
  }
  return best_id >= 0 ? vcpu_[static_cast<std::size_t>(best_id)] : nullptr;
}

void CfsScheduler::account(Vcpu& vcpu, const RunReport& report) {
  const std::size_t id = checked_id(vcpu);
  vruntime_[id] += static_cast<double>(report.ran) * kNice0Weight / weight_[id];
  done_[id] = vcpu.done() ? 1 : 0;
}

double CfsScheduler::vruntime(const Vcpu& vcpu) const { return vruntime_[checked_id(vcpu)]; }

std::size_t CfsScheduler::checked_id(const Vcpu& vcpu) const {
  const auto id = static_cast<std::size_t>(vcpu.id());
  KYOTO_CHECK_MSG(id < vcpu_.size() && vcpu_[id] != nullptr,
                  "unregistered vCPU " << vcpu.id());
  return id;
}

}  // namespace kyoto::hv
