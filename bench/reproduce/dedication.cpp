// §4 of the paper: measuring llc_cap_act on a NUMA host, and when
// socket dedication can be skipped (2-socket PowerEdge R420 analog).
//
// Fig 9 — migration overhead.  Each of 8 SPEC apps runs alone while a
// campaign migrates its vCPU from numa0 to numa1 and back "after a
// random period"; while displaced every memory access is remote.
// Memory-intensive apps lose the most (paper: up to ~12%);
// cache-resident ones barely notice.  The campaign is an HvObserver
// actuator: it perturbs only its own job's hypervisor, as a pure
// function of the job (fixed Rng seed), so lanes stay byte-identical.
//
// Fig 10 — two skip heuristics: a vCPU with very low LLC activity
// (hmmer) measures the same llc_cap_act isolated or not, even next to
// heavy disruptors; and a vCPU whose co-runners are all quiet (bzip
// among hmmers) needs no isolation either.
//
// Fig 11 — with quiet co-runners, Equation 1 measured without socket
// dedication matches the dedicated measurement for all ten apps: same
// magnitudes, same aggressiveness order.
#include <iostream>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "plan.hpp"

namespace kyoto::bench {
namespace {

/// Every 12 ticks move VM 0's vCPU to numa1; bring it home after a
/// random 1..4 ticks.  State is owned per job.
sim::HvObserver migration_campaign() {
  return [](hv::Hypervisor& h) {
    auto rng = std::make_shared<Rng>(1234);
    auto away_until = std::make_shared<Tick>(-1);
    constexpr Tick period = 12;
    hv::Vcpu* vcpu = &h.vms()[0]->vcpu(0);
    h.add_tick_hook([vcpu, rng, away_until](hv::Hypervisor& hh, Tick now) {
      if (*away_until < 0 && now > 0 && now % period == 0) {
        hh.migrate(*vcpu, 4);  // first core of numa1
        *away_until = now + 1 + static_cast<Tick>(rng->below(4));
      } else if (*away_until >= 0 && now >= *away_until) {
        hh.migrate(*vcpu, 0);
        *away_until = -1;
      }
    });
  };
}

/// `target` on core 0 with `corunners` either on its socket (cores
/// 1, 2, ...) or parked on the other one (cores 4, 5, ...).
std::vector<sim::VmPlan> corun(const cache::MemSystemConfig& mem, const std::string& target,
                               const std::vector<std::string>& corunners, bool isolated) {
  std::vector<sim::VmPlan> plans = {Vm(target, app(target, mem), 0).loop()};
  for (std::size_t i = 0; i < corunners.size(); ++i) {
    const int core = static_cast<int>(i) + (isolated ? 4 : 1);
    plans.push_back(Vm(corunners[i] + "-co" + std::to_string(i + 5), app(corunners[i], mem), core)
                        .loop());
  }
  return plans;
}

}  // namespace

int fig9() {
  header("Fig 9", "vCPU migration overhead per application (2-socket NUMA)",
         "memory-bound apps degrade most (paper: up to ~12%); cache-resident ~0");

  const sim::RunSpec spec = window(hv::scaled_numa_machine(), 6, ticks(90));
  const std::vector<std::string> apps = {"mcf",   "soplex", "milc", "omnetpp",
                                         "xalan", "astar",  "bzip", "lbm"};
  sim::SweepRunner sweep(ThreadPool::hardware_lanes());
  for (const auto& name : apps) {
    const sim::VmPlan solo = Vm(name, app(name, spec.machine.mem), 0).loop().home(0);
    sweep.add(spec, {solo}, name + "/pinned");
    sweep.add(spec, {solo}, migration_campaign(), name + "/migrated");
  }
  const auto outcomes = sweep.run();

  TextTable table({"app", "IPC (pinned)", "IPC (migrated)", "degradation %", "bar"});
  double mem_bound_max = 0.0;
  double cache_resident_max = 0.0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const std::string& name = apps[i];
    const double base = outcomes[2 * i].vms.at(0).ipc;
    const double migrated = outcomes[2 * i + 1].vms.at(0).ipc;
    const double deg = sim::degradation_pct(base, migrated);
    table.add_row({name, fmt_double(base, 3), fmt_double(migrated, 3), fmt_double(deg, 1),
                   ascii_bar(std::max(deg, 0.0), 15.0, 24)});
    if (name == "milc" || name == "lbm" || name == "mcf" || name == "soplex") {
      mem_bound_max = std::max(mem_bound_max, deg);
    }
    if (name == "astar" || name == "bzip") cache_resident_max = std::max(cache_resident_max, deg);
  }
  std::cout << table << '\n';

  bool ok = true;
  ok &= check("some memory-bound app degrades > 3%", mem_bound_max > 3.0);
  ok &= check("degradation stays bounded (< 20%, paper: up to ~12%)", mem_bound_max < 20.0);
  ok &= check("cache-resident apps (astar, bzip) degrade less than the worst "
              "memory-bound app",
              cache_resident_max < mem_bound_max);
  return verdict(ok);
}

int fig10() {
  header("Fig 10", "when socket dedication is unnecessary",
         "hmmer: isolated == not isolated; bzip among hmmers: isolated == not "
         "isolated");

  const sim::RunSpec spec = window(hv::scaled_numa_machine(), 6, ticks(45));
  const std::vector<std::string> heavy = {"lbm", "blockie", "mcf"};
  const std::vector<std::string> quiet = {"hmmer", "hmmer", "hmmer"};

  // Three target/co-runner settings x {shared, isolated}; gcc is the
  // contrast case for the sanity check.
  sim::SweepRunner sweep(ThreadPool::hardware_lanes());
  for (const auto& [target, corunners] :
       {std::pair{"hmmer", heavy}, std::pair{"bzip", quiet}, std::pair{"gcc", heavy}}) {
    for (const bool isolated : {false, true}) {
      sweep.add(spec, corun(spec.machine.mem, target, corunners, isolated),
                std::string(target) + (isolated ? "/isolated" : "/shared"));
    }
  }
  const auto outcomes = sweep.run();
  auto rate = [&](std::size_t job) { return outcomes[job].vms.at(0).llc_cap_act; };
  const double hmmer_not_isolated = rate(0);
  const double hmmer_isolated = rate(1);
  const double bzip_not_isolated = rate(2);
  const double bzip_isolated = rate(3);
  const double gcc_not_isolated = rate(4);
  const double gcc_isolated = rate(5);

  TextTable table({"measurement", "not isolated (miss/ms)", "isolated (miss/ms)",
                   "abs. difference"});
  table.add_row({"hmmer + 3 disruptors", fmt_double(hmmer_not_isolated, 2),
                 fmt_double(hmmer_isolated, 2),
                 fmt_double(std::abs(hmmer_not_isolated - hmmer_isolated), 2)});
  table.add_row({"bzip + 3 hmmer", fmt_double(bzip_not_isolated, 2), fmt_double(bzip_isolated, 2),
                 fmt_double(std::abs(bzip_not_isolated - bzip_isolated), 2)});
  std::cout << table << '\n';

  bool ok = true;
  ok &= check("hmmer's llc_cap_act is tiny and isolation-insensitive (diff < 5 miss/ms)",
              std::abs(hmmer_not_isolated - hmmer_isolated) < 5.0);
  ok &= check("bzip among quiet co-runners: isolation changes little "
              "(diff < 20% of isolated value + 3)",
              std::abs(bzip_not_isolated - bzip_isolated) < 0.2 * bzip_isolated + 3.0);
  // With heavy co-runners a *sensitive* app's direct rate does
  // inflate — the heuristics are about quiet VMs, not everyone.
  ok &= check("contrast: gcc among disruptors IS isolation-sensitive",
              gcc_not_isolated > gcc_isolated * 2.0 + 5.0);
  return verdict(ok);
}

int fig11() {
  header("Fig 11", "Equation 1 with vs without socket dedication (quiet co-runners)",
         "values match and produce the same aggressiveness ordering");

  const sim::RunSpec spec = window(hv::scaled_numa_machine(), 6, ticks(40));
  const auto& mem = spec.machine.mem;
  const auto& apps = workloads::fig4_apps();
  // Two hmmer co-runners: on socket 1 when dedicated, else beside the
  // target.
  auto plans = [&](const std::string& target, bool dedicate) {
    std::vector<sim::VmPlan> p = {Vm(target, app(target, mem), 0).loop()};
    for (int i = 0; i < 2; ++i) {
      const int core = (dedicate ? 4 : 1) + i;
      p.push_back(Vm("hmmer-" + std::to_string(i), app("hmmer", mem), core).loop());
    }
    return p;
  };
  sim::SweepRunner sweep(ThreadPool::hardware_lanes());
  for (const auto& name : apps) {
    sweep.add(spec, plans(name, true), name + "/dedicated");
    sweep.add(spec, plans(name, false), name + "/shared");
  }
  const auto outcomes = sweep.run();

  TextTable table({"app", "socket dedication (miss/ms)", "no dedication (miss/ms)",
                   "rel. diff %"});
  std::vector<double> dedicated;
  std::vector<double> shared;
  double worst_rel = 0.0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const double ded = outcomes[2 * i].vms.at(0).llc_cap_act;
    const double noded = outcomes[2 * i + 1].vms.at(0).llc_cap_act;
    dedicated.push_back(ded);
    shared.push_back(noded);
    const double rel = std::abs(ded - noded) / std::max(ded, 5.0) * 100.0;
    worst_rel = std::max(worst_rel, rel);
    table.add_row({apps[i], fmt_double(ded, 1), fmt_double(noded, 1), fmt_double(rel, 1)});
  }
  std::cout << table << '\n';

  // Quiet (ILC-resident) apps measure ~0 either way; ties at zero
  // would dilute tau-a without meaning disagreement, so the ordering
  // check uses the apps with measurable pollution and the quiet ones
  // are checked to be quiet under both methods.
  std::vector<double> ded_active;
  std::vector<double> sh_active;
  bool quiet_agree = true;
  for (std::size_t i = 0; i < dedicated.size(); ++i) {
    if (std::max(dedicated[i], shared[i]) > 1.0) {
      ded_active.push_back(dedicated[i]);
      sh_active.push_back(shared[i]);
    } else {
      quiet_agree &= dedicated[i] <= 1.0 && shared[i] <= 1.0;
    }
  }
  const double tau = kendall_tau(ded_active, sh_active);
  std::cout << "Kendall's tau between the two orderings (active apps): " << fmt_double(tau, 3)
            << "\n\n";

  bool ok = true;
  ok &= check("orderings of polluting apps agree (tau > 0.85)", tau > 0.85);
  ok &= check("quiet apps are quiet under both methods", quiet_agree);
  ok &= check("per-app values agree within 35% (quiet co-runners can't pollute)",
              worst_rel < 35.0);
  return verdict(ok);
}

}  // namespace kyoto::bench
