#include "hv/credit_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"
#include "hv/hypervisor.hpp"

namespace kyoto::hv {

void CreditScheduler::attach(Hypervisor& hv) {
  Scheduler::attach(hv);
  cycles_per_tick_ = hv.machine().cycles_per_tick();
  const auto cores = static_cast<std::size_t>(hv.machine().topology().total_cores());
  if (runqueue_.size() < cores) runqueue_.resize(cores);
  if (cursors_.size() < cores) cursors_.resize(cores);
}

void CreditScheduler::ensure_capacity(std::size_t id) {
  if (vcpu_.size() > id) return;
  const std::size_t n = id + 1;
  vcpu_.resize(n, nullptr);
  remain_credit_.resize(n, kCreditPerSlice);
  cap_budget_.resize(n, 0);
  cap_refill_.resize(n, 0);
  capped_.resize(n, 0);
  done_.resize(n, 0);
  vm_id_.resize(n, -1);
  weight_.resize(n, kDefaultWeight);
}

void CreditScheduler::vcpu_added(Vcpu& vcpu) {
  KYOTO_CHECK_MSG(hv_ != nullptr, "scheduler not attached");
  KYOTO_CHECK_MSG(vcpu.pinned_core() >= 0, "vCPU must be pinned before registration");
  const auto id = static_cast<std::size_t>(vcpu.id());
  ensure_capacity(id);
  vcpu_[id] = &vcpu;
  remain_credit_[id] = kCreditPerSlice * vcpu.vm().config().weight / kDefaultWeight;
  capped_[id] = vcpu.vm().config().cpu_cap_percent > 0 ? 1 : 0;
  cap_refill_[id] = slice_cap_budget(vcpu);
  cap_budget_[id] = cap_refill_[id];
  done_[id] = vcpu.done() ? 1 : 0;
  vm_id_[id] = vcpu.vm().id();
  weight_[id] = vcpu.vm().config().weight;

  const auto cores = static_cast<std::size_t>(hv_->machine().topology().total_cores());
  if (runqueue_.size() < cores) runqueue_.resize(cores);
  if (cursors_.size() < runqueue_.size()) cursors_.resize(runqueue_.size());
  runqueue_[static_cast<std::size_t>(vcpu.pinned_core())].push_back(vcpu.id());
}

void CreditScheduler::vcpu_migrated(Vcpu& vcpu, int old_core) {
  KYOTO_CHECK(old_core >= 0 && static_cast<std::size_t>(old_core) < runqueue_.size());
  auto& old_queue = runqueue_[static_cast<std::size_t>(old_core)];
  old_queue.erase(std::remove(old_queue.begin(), old_queue.end(), vcpu.id()), old_queue.end());
  runqueue_[static_cast<std::size_t>(vcpu.pinned_core())].push_back(vcpu.id());
}

void CreditScheduler::vcpu_removed(Vcpu& vcpu) {
  const std::size_t id = checked_id(vcpu);
  auto& queue = runqueue_[static_cast<std::size_t>(vcpu.pinned_core())];
  queue.erase(std::remove(queue.begin(), queue.end(), vcpu.id()), queue.end());
  // Drop any core's slice stickiness on the departing vCPU so the
  // next pick() re-selects instead of consulting dead state.
  for (CoreCursor& cursor : cursors_) {
    if (cursor.current == vcpu.id()) cursor = CoreCursor{};
  }
  // vcpu_ = nullptr: the id is never reused.
  vcpu_[id] = nullptr;
  remain_credit_[id] = kCreditPerSlice;
  cap_budget_[id] = 0;
  cap_refill_[id] = 0;
  capped_[id] = 0;
  done_[id] = 0;
  vm_id_[id] = -1;
  weight_[id] = kDefaultWeight;
}

Cycles CreditScheduler::slice_cap_budget(const Vcpu& vcpu) const {
  const int cap = vcpu.vm().config().cpu_cap_percent;
  if (cap <= 0) return 0;
  const Cycles slice_cycles = hv_->machine().cycles_per_tick() * kTicksPerSlice;
  return slice_cycles * cap / 100;
}

Vcpu* CreditScheduler::pick(int core, Tick /*now*/) {
  if (static_cast<std::size_t>(core) >= runqueue_.size()) return nullptr;
  auto& queue = runqueue_[static_cast<std::size_t>(core)];
  if (cursors_.size() < runqueue_.size()) cursors_.resize(runqueue_.size());
  CoreCursor& cursor = cursors_[static_cast<std::size_t>(core)];

  // Slice stickiness: keep the incumbent for up to one full 30 ms
  // slice while it stays runnable and UNDER — evaluated as one fused
  // 0/1 predicate over the SoA state.
  if (cursor.current >= 0 && cursor.consecutive < static_cast<int>(kTicksPerSlice)) {
    const auto cid = static_cast<std::size_t>(cursor.current);
    Vcpu* cv = vcpu_[cid];
    if (cv != nullptr) {
      const unsigned keep = static_cast<unsigned>(cv->pinned_core() == core) &
                            runnable_bit(cid) &
                            static_cast<unsigned>(remain_credit_[cid] > 0);
      if (keep != 0) {
        ++cursor.consecutive;
        return cv;
      }
    }
  }
  cursor.current = -1;
  cursor.consecutive = 0;

  // Band selection over compact runnable bitmasks: one pass builds
  // UNDER/OVER masks keyed by queue position (chunks of 64), then the
  // winner is the lowest set bit of the first non-empty band — the
  // first runnable vCPU in queue order within that band, with no
  // per-entry branching.
  const std::size_t n = queue.size();
  int first_under = -1;
  int first_over = -1;
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t chunk = std::min<std::size_t>(64, n - base);
    std::uint64_t under_m = 0;
    std::uint64_t over_m = 0;
    for (std::size_t j = 0; j < chunk; ++j) {
      const auto id = static_cast<std::size_t>(queue[base + j]);
      const auto run = static_cast<std::uint64_t>(runnable_bit(id));
      const auto under = static_cast<std::uint64_t>(remain_credit_[id] > 0);
      under_m |= (run & under) << j;
      over_m |= (run & (under ^ 1u)) << j;
    }
    if (first_under < 0 && under_m != 0)
      first_under = static_cast<int>(base) + std::countr_zero(under_m);
    if (first_over < 0 && over_m != 0)
      first_over = static_cast<int>(base) + std::countr_zero(over_m);
    if (first_under >= 0) break;  // UNDER beats OVER
  }

  // Priority UNDER first, then OVER (work conserving).
  const int pos = first_under >= 0 ? first_under : first_over;
  if (pos < 0) return nullptr;

  // Round-robin: rotate the chosen vCPU to the queue tail.
  const int id = queue[static_cast<std::size_t>(pos)];
  queue.erase(queue.begin() + pos);
  queue.push_back(id);
  cursor.current = id;
  cursor.consecutive = 1;
  return vcpu_[static_cast<std::size_t>(id)];
}

void CreditScheduler::account(Vcpu& vcpu, const RunReport& report) {
  const std::size_t id = checked_id(vcpu);
  // The burn formula's double rounding is part of the pinned behavior
  // (golden traces): keep the exact expression.
  const int burnt = static_cast<int>(
      std::lround(static_cast<double>(kCreditPerTick) * static_cast<double>(report.ran) /
                  static_cast<double>(cycles_per_tick_)));
  const int debited = remain_credit_[id] - burnt;
  remain_credit_[id] = debited > -kCreditPerSlice ? debited : -kCreditPerSlice;
  cap_budget_[id] -= report.ran * static_cast<Cycles>(capped_[id]);
  done_[id] = vcpu.done() ? 1 : 0;
}

Cycles CreditScheduler::max_burst(const Vcpu& vcpu, Cycles tick_budget) {
  const std::size_t id = checked_id(vcpu);
  const Cycles left = cap_budget_[id] > 0 ? cap_budget_[id] : 0;
  const Cycles capped_limit = left < tick_budget ? left : tick_budget;
  return capped_[id] != 0 ? capped_limit : tick_budget;
}

void CreditScheduler::slice_end(Tick /*now*/) {
  // Xen's accounting: each pCPU contributes one slice worth of credit
  // (kCreditPerSlice) distributed among the vCPUs competing for that
  // pCPU proportionally to their weights, with no vCPU earning more
  // than a full slice (it cannot use more than one core).  Inactive
  // (departed/done) entries are masked out by multiply/select instead
  // of branched over.
  for (std::size_t core = 0; core < runqueue_.size(); ++core) {
    const auto& queue = runqueue_[core];
    long long total_weight = 0;
    for (int qid : queue) {
      const auto id = static_cast<std::size_t>(qid);
      const long long active =
          static_cast<long long>(vcpu_[id] != nullptr) &
          static_cast<long long>(static_cast<unsigned>(done_[id]) ^ 1u);
      total_weight += static_cast<long long>(weight_[id]) * active;
    }
    if (total_weight == 0) continue;
    for (int qid : queue) {
      const auto id = static_cast<std::size_t>(qid);
      const long long share =
          static_cast<long long>(kCreditPerSlice) * weight_[id] / total_weight;
      const int earn = static_cast<int>(share < kCreditPerSlice ? share : kCreditPerSlice);
      // No banking beyond one slice's worth of credit (Xen clamps too).
      const int bank = earn > 1 ? earn : 1;
      const int refreshed = remain_credit_[id] + earn;
      const int clamped = refreshed < bank ? refreshed : bank;
      const int active = static_cast<int>(
          static_cast<unsigned>(vcpu_[id] != nullptr) &
          (static_cast<unsigned>(done_[id]) ^ 1u));
      remain_credit_[id] += (clamped - remain_credit_[id]) * active;
      cap_budget_[id] = active != 0 ? cap_refill_[id] : cap_budget_[id];
    }
  }
}

std::size_t CreditScheduler::checked_id(const Vcpu& vcpu) const {
  const auto id = static_cast<std::size_t>(vcpu.id());
  KYOTO_CHECK_MSG(id < vcpu_.size() && vcpu_[id] != nullptr,
                  "unregistered vCPU " << vcpu.id());
  return id;
}

int CreditScheduler::remain_credit(const Vcpu& vcpu) const {
  return remain_credit_[checked_id(vcpu)];
}

bool CreditScheduler::in_over(const Vcpu& vcpu) const {
  return remain_credit_[checked_id(vcpu)] <= 0;
}

double CreditScheduler::cap_budget_fraction(const Vcpu& vcpu) const {
  const std::size_t id = checked_id(vcpu);
  if (capped_[id] == 0) return 1.0;
  const Cycles full = cap_refill_[id];
  if (full <= 0) return 0.0;
  return std::max(0.0, static_cast<double>(cap_budget_[id]) / static_cast<double>(full));
}

}  // namespace kyoto::hv
