// Frozen-reference accounting oracle — the tick-control-plane
// analogue of tests/cache/random_oracle_test.cpp.
//
// The branch-light engines (branchless credit/CFS accounting, mask
// Kyoto gates, the select-arithmetic pollution controller) claim
// bit-identity with the pre-rework control flow.  That code is kept
// as self-contained frozen schedulers in
// tests/support/reference_control_plane.hpp.  This suite runs one
// hypervisor on the library schedulers and one on the reference
// schedulers through ~90 randomized tick sequences (random VM mixes,
// weights, caps, llc_cap bookings, migrations, churn
// departures and arrivals) and compares the full observable
// accounting state word-for-word after every step: virtualized
// counters, sched/idle ticks, credit/vruntime state, cap budgets and
// the controller's quota/punish records, doubles compared by bit
// pattern.  (The identity-switch PMU path is common to both sides; its
// own invariant is checked by the counter ledger in
// tests/hv/vm_lifecycle_test.cpp.)
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "hv/cfs_scheduler.hpp"
#include "hv/credit_scheduler.hpp"
#include "hv/hypervisor.hpp"
#include "hv/pisces.hpp"
#include "kyoto/ks4linux.hpp"
#include "kyoto/ks4pisces.hpp"
#include "kyoto/ks4xen.hpp"
#include "support/reference_control_plane.hpp"
#include "test_util.hpp"
#include "workloads/catalog.hpp"

namespace kyoto::hv {
namespace {

enum class Kind { kCredit, kCfs, kKs4Xen, kKs4Linux, kKs4Pisces };

bool is_kyoto(Kind k) { return k != Kind::kCredit && k != Kind::kCfs; }
bool is_pisces(Kind k) { return k == Kind::kKs4Pisces; }

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// One control-plane implementation: the scheduler classes a Kind maps
/// to, and how to read their accounting state.  Instantiated once for
/// the library and once for the frozen reference engines.
template <class Credit, class Cfs, class Xen, class Linux, class Pisces>
struct Family {
  static std::unique_ptr<Scheduler> make(Kind kind) {
    switch (kind) {
      case Kind::kCredit: return std::make_unique<Credit>();
      case Kind::kCfs: return std::make_unique<Cfs>();
      case Kind::kKs4Xen: return std::make_unique<Xen>();
      case Kind::kKs4Linux: return std::make_unique<Linux>();
      case Kind::kKs4Pisces: return std::make_unique<Pisces>();
    }
    return nullptr;
  }

  static const core::PollutionController::VmState* vm_state(Kind kind, Hypervisor& hv,
                                                             int vm_id) {
    switch (kind) {
      case Kind::kKs4Xen:
        return &static_cast<Xen&>(hv.scheduler()).kyoto().state_by_id(vm_id);
      case Kind::kKs4Linux:
        return &static_cast<Linux&>(hv.scheduler()).kyoto().state_by_id(vm_id);
      case Kind::kKs4Pisces:
        return &static_cast<Pisces&>(hv.scheduler()).kyoto().state_by_id(vm_id);
      default: return nullptr;
    }
  }

  /// Everything the control plane computes, serialized word-for-word.
  static std::vector<std::uint64_t> snapshot(Kind kind, Hypervisor& hv) {
    std::vector<std::uint64_t> out;
    out.push_back(static_cast<std::uint64_t>(hv.now()));
    const int cores = hv.machine().topology().total_cores();
    for (int core = 0; core < cores; ++core) {
      out.push_back(static_cast<std::uint64_t>(hv.idle_ticks(core)));
    }
    for (int id = 0; id < hv.vm_count(); ++id) {
      Vm* vm = hv.find_vm(id);
      out.push_back(vm != nullptr ? 1u : 0u);
      if (vm == nullptr) continue;
      const pmc::CounterSet counters = vm->counters();
      for (const std::uint64_t v : counters.values) out.push_back(v);
      for (const auto& vcpu : vm->vcpus()) {
        out.push_back(static_cast<std::uint64_t>(hv.sched_ticks(*vcpu)));
        out.push_back(static_cast<std::uint64_t>(vcpu->cpu_cycles()));
        switch (kind) {
          case Kind::kCredit:
          case Kind::kKs4Xen: {
            const auto& cs = static_cast<const Credit&>(hv.scheduler());
            out.push_back(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(cs.remain_credit(*vcpu))));
            out.push_back(cs.in_over(*vcpu) ? 1u : 0u);
            out.push_back(bits(cs.cap_budget_fraction(*vcpu)));
            break;
          }
          case Kind::kCfs:
          case Kind::kKs4Linux: {
            const auto& cfs = static_cast<const Cfs&>(hv.scheduler());
            out.push_back(bits(cfs.vruntime(*vcpu)));
            break;
          }
          case Kind::kKs4Pisces: break;
        }
      }
    }
    if (is_kyoto(kind)) {
      // state_by_id is valid for departed tenants too — the frozen
      // final record must match as well.
      for (int id = 0; id < hv.vm_count(); ++id) {
        const auto& st = *vm_state(kind, hv, id);
        out.push_back(bits(st.booked));
        out.push_back(bits(st.quota));
        out.push_back(bits(st.last_rate));
        out.push_back(bits(st.debited_total));
        out.push_back(st.punished ? 1u : 0u);
        out.push_back(static_cast<std::uint64_t>(st.punish_events));
        out.push_back(static_cast<std::uint64_t>(st.punished_ticks));
      }
    }
    return out;
  }
};

using Library = Family<CreditScheduler, CfsScheduler, core::Ks4Xen, core::Ks4Linux,
                       core::Ks4Pisces>;
using Reference = Family<test::ReferenceCreditScheduler, test::ReferenceCfsScheduler,
                         test::ReferenceKs4Xen, test::ReferenceKs4Linux,
                         test::ReferenceKs4Pisces>;

struct VmPlanOracle {
  std::string app;
  std::uint64_t seed = 1;
  int core = 0;
  int weight = 256;
  int cap = 0;
  double llc_cap = 0.0;
  bool loop = true;
};

struct Step {
  int ticks = 1;
  enum class Op { kNone, kMigrate, kDestroy, kCreate } op = Op::kNone;
  int pick = 0;     // victim/mover selector (mod live VMs)
  int core = 0;     // migration/creation target
  VmPlanOracle plan;  // kCreate payload
};

Vm& spawn(Hypervisor& hv, const VmPlanOracle& plan) {
  VmConfig config{.name = plan.app};
  config.weight = plan.weight;
  config.cpu_cap_percent = plan.cap;
  config.llc_cap = plan.llc_cap;
  config.loop_workload = plan.loop;
  return hv.create_vm(config,
                      workloads::make_app(plan.app, test::test_machine().mem, plan.seed),
                      plan.core);
}

void apply(Hypervisor& hv, const Step& step) {
  std::vector<Vm*> live = hv.vms();
  switch (step.op) {
    case Step::Op::kNone: break;
    case Step::Op::kMigrate: {
      Vm* vm = live[static_cast<std::size_t>(step.pick) % live.size()];
      hv.migrate(vm->vcpu(0), step.core);
      break;
    }
    case Step::Op::kDestroy:
      if (live.size() > 1) {
        hv.destroy_vm(live[static_cast<std::size_t>(step.pick) % live.size()]->id());
      }
      break;
    case Step::Op::kCreate: spawn(hv, step.plan); break;
  }
  hv.run_ticks(step.ticks);
}

VmPlanOracle random_plan(std::mt19937_64& rng, Kind kind, int core) {
  static const char* kApps[] = {"gcc", "lbm", "hmmer"};
  VmPlanOracle plan;
  plan.app = kApps[rng() % 3];
  plan.seed = rng() % 1000 + 1;
  plan.core = core;
  plan.weight = 1 << (7 + rng() % 3);  // 128 / 256 / 512
  plan.cap = (rng() % 3 == 0) ? static_cast<int>(30 + rng() % 60) : 0;
  plan.loop = rng() % 4 != 0;
  if (is_kyoto(kind)) {
    // Tight bookings on some VMs so punish transitions actually fire.
    plan.llc_cap = (rng() % 3 != 0) ? 0.5 + static_cast<double>(rng() % 40) : 0.0;
  }
  return plan;
}

/// One randomized round: identical initial placements and an
/// identical event script on a library and a reference hypervisor,
/// snapshots compared after every step.
void run_round(Kind kind, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const int cores = test::test_machine().topology.total_cores();

  std::vector<VmPlanOracle> initial;
  if (is_pisces(kind)) {
    // Pisces enclaves own their cores: one single-vCPU VM per core.
    for (int core = 0; core < cores; ++core) {
      initial.push_back(random_plan(rng, kind, core));
    }
  } else {
    const int nvms = 2 + static_cast<int>(rng() % 5);
    for (int i = 0; i < nvms; ++i) {
      initial.push_back(random_plan(rng, kind, static_cast<int>(rng() % cores)));
    }
  }

  std::vector<Step> script;
  const int steps = 6 + static_cast<int>(rng() % 4);
  for (int i = 0; i < steps; ++i) {
    Step step;
    step.ticks = 1 + static_cast<int>(rng() % 5);
    const auto roll = rng() % 8;
    if (roll == 0 && !is_pisces(kind)) {
      step.op = Step::Op::kMigrate;
      step.pick = static_cast<int>(rng() % 16);
      step.core = static_cast<int>(rng() % cores);
    } else if (roll == 1) {
      step.op = Step::Op::kDestroy;
      step.pick = static_cast<int>(rng() % 16);
    } else if (roll == 2 && !is_pisces(kind)) {
      step.op = Step::Op::kCreate;
      step.plan = random_plan(rng, kind, static_cast<int>(rng() % cores));
    }
    script.push_back(step);
  }

  Hypervisor reference(test::test_machine(), Reference::make(kind));
  Hypervisor library(test::test_machine(), Library::make(kind));
  for (const VmPlanOracle& plan : initial) {
    spawn(reference, plan);
    spawn(library, plan);
  }

  for (std::size_t i = 0; i < script.size(); ++i) {
    apply(reference, script[i]);
    apply(library, script[i]);
    ASSERT_EQ(Reference::snapshot(kind, reference), Library::snapshot(kind, library))
        << "library diverged: seed " << seed << " step " << i;
  }
}

TEST(AccountingOracle, CreditMatchesFrozenReference) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) run_round(Kind::kCredit, 0xC0'0000 + seed);
}

TEST(AccountingOracle, CfsMatchesFrozenReference) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) run_round(Kind::kCfs, 0xCF'0000 + seed);
}

TEST(AccountingOracle, Ks4XenBlockMatchesFrozenReference) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) run_round(Kind::kKs4Xen, 0x4E'0000 + seed);
}

TEST(AccountingOracle, Ks4LinuxMatchesFrozenReference) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    run_round(Kind::kKs4Linux, 0x11'0000 + seed);
  }
}

TEST(AccountingOracle, Ks4PiscesMatchesFrozenReference) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    run_round(Kind::kKs4Pisces, 0x25'0000 + seed);
  }
}

}  // namespace
}  // namespace kyoto::hv
