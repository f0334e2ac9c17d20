// §2 of the paper: why LLC contention matters and how to measure it.
//
// Fig 1 — contention by VM class and execution mode.  Each
// representative micro-VM v{1,2,3}rep runs against each disruptive
// v{1,2,3}dis: alternative (both on core 0), parallel (dis on core 1)
// and combined (one dis on each).  Expected: C1 victims ~0 everywhere;
// v1dis (ILC-sized) harms nobody; C2/C3 victims are hurt badly by
// C2/C3 disruptors; parallel is far worse than alternative (paper: up
// to 70% vs 13%).
//
// Fig 2 — v2rep's per-tick LLC misses over its first 7 slices in the
// same four settings.  The warm-up is the data, so the window starts
// at tick 0.  Expected: alone loads once then ~0; alternative
// zigzags (each slice's first tick reloads what the disruptor
// evicted); parallel stays high.
//
// Fig 3 — the CPU is a good lever: each sensitive VM runs next to
// lbm while lbm's CPU cap sweeps 10..100%; the victim's degradation
// grows roughly linearly with the cap.
//
// Fig 4 (and Table 2) — Equation 1 vs LLCM as the aggressiveness
// indicator.  Ten apps are profiled solo, then every ordered pair
// co-runs to measure real aggressiveness; Kendall's tau shows the
// Equation-1 order is closer to reality than the LLCM order.
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "plan.hpp"

namespace kyoto::bench {
namespace {

using workloads::MicroClass;

enum class Mode { kAlternative, kParallel, kCombined };

/// The Fig 1 / Fig 2 contention settings around a victim on core 0.
std::vector<sim::VmPlan> contention(Vm victim, const sim::WorkloadFactory& dis, bool same_core,
                                    bool other_core) {
  std::vector<sim::VmPlan> plans = {victim};
  if (same_core) plans.push_back(Vm("dis-alt", dis, 0).loop());
  if (other_core) plans.push_back(Vm("dis-par", dis, 1).loop());
  return plans;
}

std::uint64_t sum(const std::vector<std::uint64_t>& v, std::size_t from, std::size_t to) {
  std::uint64_t total = 0;
  for (std::size_t i = from; i < to && i < v.size(); ++i) total += v[i];
  return total;
}

}  // namespace

int fig1() {
  header("Fig 1", "LLC contention by VM class and execution mode",
         "C1 rows ~0; v1dis harmless; C2/C3 hurt by C2/C3 disruptors; parallel >> alternative");

  const sim::RunSpec spec = window(hv::scaled_machine(), 6, ticks(45));
  const auto& mem = spec.machine.mem;
  const MicroClass classes[] = {MicroClass::kC1, MicroClass::kC2, MicroClass::kC3};
  const char* mode_names[] = {"alternative", "parallel", "combined"};

  // One batch: 3 solos (memoized by representative) + 27 grid jobs.
  sim::SweepRunner sweep(ThreadPool::hardware_lanes());
  std::size_t solo_job[3];
  for (int ri = 0; ri < 3; ++ri) {
    solo_job[ri] = sweep.add_solo(spec, micro_rep(classes[ri], mem),
                                  "micro:c" + std::to_string(ri + 1) + "rep", "rep");
  }
  std::size_t grid_job[3][3][3];  // [mode][rep][dis]
  for (int mi = 0; mi < 3; ++mi) {
    const auto mode = static_cast<Mode>(mi);
    for (int ri = 0; ri < 3; ++ri) {
      for (int di = 0; di < 3; ++di) {
        grid_job[mi][ri][di] = sweep.add(
            spec,
            contention(Vm("rep", micro_rep(classes[ri], mem), 0), micro_dis(classes[di], mem),
                       mode != Mode::kParallel, mode != Mode::kAlternative),
            std::string(mode_names[mi]) + "/v" + std::to_string(ri + 1) + "rep-v" +
                std::to_string(di + 1) + "dis");
      }
    }
  }
  const auto outcomes = sweep.run();

  double deg[3][3][3];
  for (int mi = 0; mi < 3; ++mi) {
    for (int ri = 0; ri < 3; ++ri) {
      const double solo_ipc = outcomes[solo_job[ri]].vms[0].ipc;
      for (int di = 0; di < 3; ++di) {
        deg[mi][ri][di] =
            sim::degradation_pct(solo_ipc, outcomes[grid_job[mi][ri][di]].vms[0].ipc);
      }
    }
  }

  for (int mi = 0; mi < 3; ++mi) {
    std::cout << "--- " << mode_names[mi] << " execution ---\n";
    TextTable table({"victim", "vs v1dis", "vs v2dis", "vs v3dis", "bar (worst)"});
    for (int ri = 0; ri < 3; ++ri) {
      const double worst =
          std::max({deg[mi][ri][0], deg[mi][ri][1], deg[mi][ri][2], 0.0});
      table.add_row({"v" + std::to_string(ri + 1) + "rep",
                     fmt_double(deg[mi][ri][0], 1) + " %", fmt_double(deg[mi][ri][1], 1) + " %",
                     fmt_double(deg[mi][ri][2], 1) + " %", ascii_bar(worst, 80.0, 30)});
    }
    std::cout << table << '\n';
  }

  bool ok = true;
  // Each representative's baseline is requested once: nothing extra
  // simulated, nothing answered twice.
  ok &= check("sweep executed 3 solos + 27 scenarios (no duplicate solo runs)",
              sweep.solo_requests() == 3 && sweep.solo_memo_hits() == 0);

  double c1_worst = 0;
  for (int mi = 0; mi < 3; ++mi) {
    for (int di = 0; di < 3; ++di) c1_worst = std::max(c1_worst, deg[mi][0][di]);
  }
  ok &= check("C1 victims degrade < 6% in every scenario", c1_worst < 6.0);

  double v1dis_worst = 0;
  for (int mi = 0; mi < 3; ++mi) {
    for (int ri = 0; ri < 3; ++ri) v1dis_worst = std::max(v1dis_worst, deg[mi][ri][0]);
  }
  ok &= check("v1dis (ILC-sized) causes < 6% everywhere", v1dis_worst < 6.0);

  double hurt_min = 1e9;
  for (int ri = 1; ri < 3; ++ri) {
    for (int di = 1; di < 3; ++di) hurt_min = std::min(hurt_min, deg[1][ri][di]);
  }
  ok &= check("parallel C2/C3-vs-C2/C3 degradation all > 10%", hurt_min > 10.0);
  ok &= check("worst parallel degradation > 40% (paper: up to ~70%)",
              std::max({deg[1][1][1], deg[1][1][2], deg[1][2][2]}) > 40.0);
  ok &= check("parallel >> alternative (v2rep vs v3dis)",
              deg[1][1][2] > 1.8 * std::max(deg[0][1][2], 1.0));
  return verdict(ok);
}

int fig2() {
  header("Fig 2", "v2rep LLC misses per tick, first 7 slices",
         "alone: load once then ~0; alternative: zigzag at slice starts; "
         "parallel: persistently high");

  constexpr Tick kTicks = 21;  // 7 slices x 3 ticks
  const sim::RunSpec spec = window(hv::scaled_machine(), 0, kTicks);
  const auto& mem = spec.machine.mem;

  struct Scenario {
    const char* label;
    bool dis_same_core;
    bool dis_other_core;
  };
  const Scenario scenarios[] = {{"alone", false, false},
                                {"alternative", true, false},
                                {"parallel", false, true},
                                {"combined", true, true}};
  constexpr std::size_t kScenarios = std::size(scenarios);

  // One sampler slot per job: the observer runs inside the executing
  // lane and writes only its own slot; run()'s barrier publishes.
  sim::SweepRunner sweep(ThreadPool::hardware_lanes());
  std::vector<std::unique_ptr<sim::TimelineSampler>> samplers(kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    sweep.add(spec,
              contention(Vm("v2rep", micro_rep(MicroClass::kC2, mem), 0),
                         micro_dis(MicroClass::kC2, mem), scenarios[i].dis_same_core,
                         scenarios[i].dis_other_core),
              [&samplers, i](hv::Hypervisor& h) {
                samplers[i] = std::make_unique<sim::TimelineSampler>(h, *h.vms()[0]);
              },
              scenarios[i].label);
  }
  sweep.run();

  const auto series_of = [&](std::size_t i) {
    std::vector<std::uint64_t> series;
    for (const auto& s : samplers[i]->samples()) series.push_back(s.llc_misses);
    return series;
  };
  const auto alone = series_of(0);
  const auto alternative = series_of(1);
  const auto parallel = series_of(2);
  const auto combined = series_of(3);

  TextTable table({"tick (10ms)", "alone", "alternative", "parallel", "alt+para"});
  for (Tick t = 0; t < kTicks; ++t) {
    const auto i = static_cast<std::size_t>(t);
    const bool slice_start = t % kTicksPerSlice == 0;
    table.add_row({std::to_string((t + 1) * kTickMs) + (slice_start ? " *" : ""),
                   fmt_count(static_cast<long long>(alone[i])),
                   fmt_count(static_cast<long long>(alternative[i])),
                   fmt_count(static_cast<long long>(parallel[i])),
                   fmt_count(static_cast<long long>(combined[i]))});
  }
  std::cout << table << "\n(* = first tick of a 30 ms time slice)\n\n";

  bool ok = true;
  bool sampled_all = true;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    sampled_all &= samplers[i] != nullptr &&
                   samplers[i]->samples().size() == static_cast<std::size_t>(kTicks);
  }
  ok &= check("all 4 scenarios sampled every tick (sharded observers)", sampled_all);

  // Alone: the first slice carries the load; later slices nearly silent.
  const auto alone_first = sum(alone, 0, 3);
  const auto alone_rest = sum(alone, 3, static_cast<std::size_t>(kTicks));
  ok &= check("alone: first slice >> all later slices combined",
              alone_first > 5 * std::max<std::uint64_t>(alone_rest, 1));

  // Alternative: after the initial load there must be several reload
  // bursts (near the series maximum) AND several near-silent ticks —
  // bimodality detected without assuming a phase.
  std::uint64_t steady_max = 0;
  for (std::size_t i = 3; i < alternative.size(); ++i) {
    steady_max = std::max(steady_max, alternative[i]);
  }
  int bursts = 0;
  int quiet = 0;
  for (std::size_t i = 3; i < alternative.size(); ++i) {
    if (alternative[i] >= steady_max / 2) ++bursts;
    else if (alternative[i] <= steady_max / 10) ++quiet;
  }
  ok &= check("alternative: zigzag (>=2 reload bursts and >=6 near-quiet ticks)",
              steady_max > 500 && bursts >= 2 && quiet >= 6);

  const auto par_rest = sum(parallel, 3, static_cast<std::size_t>(kTicks));
  ok &= check("parallel: steady misses >> alone's steady misses",
              par_rest > 10 * std::max<std::uint64_t>(alone_rest, 1));
  const auto comb_rest = sum(combined, 3, static_cast<std::size_t>(kTicks));
  ok &= check("combined: at least parallel-level misses",
              comb_rest > 5 * std::max<std::uint64_t>(alone_rest, 1));
  return verdict(ok);
}

int fig3() {
  header("Fig 3", "victim degradation vs disruptor CPU cap",
         "roughly linear growth with vdis1's computing capacity");

  const sim::RunSpec spec = window(hv::scaled_machine(), 6, ticks(45));
  const auto& mem = spec.machine.mem;
  const std::vector<int> caps = {10, 20, 40, 60, 80, 100};
  const auto& victims = workloads::sensitive_apps();

  // One batch: 3 solo baselines + the full cap x victim grid.
  sim::SweepRunner sweep(ThreadPool::hardware_lanes());
  std::vector<std::size_t> solo_job;
  for (const auto& victim : victims) {
    solo_job.push_back(sweep.add_solo(spec, app(victim, mem), "app:" + victim, victim));
  }
  std::vector<std::vector<std::size_t>> grid_job(caps.size());
  for (std::size_t ci = 0; ci < caps.size(); ++ci) {
    for (const auto& victim : victims) {
      grid_job[ci].push_back(sweep.add(spec,
                                       {Vm(victim, app(victim, mem), 0),
                                        Vm("lbm", app("lbm", mem), 1).cap(caps[ci]).loop()},
                                       victim + "/cap" + std::to_string(caps[ci])));
    }
  }
  const auto outcomes = sweep.run();

  std::vector<std::string> headers = {"vdis1 cap"};
  for (const auto& v : victims) headers.push_back(v + " deg %");
  TextTable table(headers);
  std::vector<std::vector<double>> series(victims.size());
  for (std::size_t ci = 0; ci < caps.size(); ++ci) {
    std::vector<std::string> row = {std::to_string(caps[ci]) + " %"};
    for (std::size_t vi = 0; vi < victims.size(); ++vi) {
      const double deg = sim::degradation_pct(outcomes[solo_job[vi]].vms[0].ipc,
                                              outcomes[grid_job[ci][vi]].vms[0].ipc);
      series[vi].push_back(deg);
      row.push_back(fmt_double(deg, 1));
    }
    table.add_row(row);
  }
  std::cout << table << '\n';

  bool ok = true;
  ok &= check("sweep executed 3 solos + 18 scenarios (no duplicate solo runs)",
              sweep.solo_requests() == 3 && sweep.solo_memo_hits() == 0);
  const std::vector<double> x(caps.begin(), caps.end());
  for (std::size_t vi = 0; vi < victims.size(); ++vi) {
    const auto fit = linear_fit(x, series[vi]);
    std::cout << "  " << victims[vi] << ": slope " << fmt_double(fit.slope, 3)
              << " %/cap-point, r^2 " << fmt_double(fit.r2, 3) << '\n';
    ok &= check(victims[vi] + ": degradation increases with cap (positive slope)",
                fit.slope > 0.0);
    ok &= check(victims[vi] + ": relationship is roughly linear (r^2 > 0.8)", fit.r2 > 0.8);
    ok &= check(victims[vi] + ": full-cap degradation exceeds 10-cap degradation by > 2x",
                series[vi].back() > 2.0 * std::max(series[vi].front(), 0.5));
  }
  return verdict(ok);
}

int fig4() {
  header("Fig 4", "Equation 1 vs LLCM as the aggressiveness indicator",
         "tau(o3=Eq1, o1=real) > tau(o2=LLCM, o1=real)");

  TextTable t2({"VM", "application"});
  t2.add_row({"vsen1, vsen2, vsen3", "gcc, omnetpp, soplex"});
  t2.add_row({"vdis1, vdis2, vdis3", "lbm, blockie, mcf"});
  std::cout << "Table 2 — experimental VMs\n" << t2 << '\n';

  const sim::RunSpec spec = window(hv::scaled_machine(), 6, ticks(30));
  const auto& mem = spec.machine.mem;
  const auto& apps = workloads::fig4_apps();

  // One batch: 10 solo-profiling jobs + 90 ordered co-run pairs.
  sim::SweepRunner sweep(ThreadPool::hardware_lanes());
  std::map<std::string, std::size_t> solo_job;
  for (const auto& name : apps) solo_job[name] = sweep.add_solo(spec, app(name, mem), name, name);
  struct PairJob {
    std::string aggressor;
    std::string victim;
    std::size_t job = 0;
  };
  std::vector<PairJob> pairs;
  for (const auto& aggressor : apps) {
    for (const auto& victim : apps) {
      if (victim == aggressor) continue;
      pairs.push_back(PairJob{
          aggressor, victim,
          sweep.add(spec,
                    {Vm(victim, app(victim, mem), 0).loop(),
                     Vm(aggressor, app(aggressor, mem), 1).loop()},
                    aggressor + "_vs_" + victim)});
    }
  }
  const auto outcomes = sweep.run();

  std::map<std::string, double> eq1;     // misses/ms (Equation 1)
  std::map<std::string, double> llcm_k;  // total misses of one run, in thousands
  std::map<std::string, double> solo_ipc;
  for (const auto& name : apps) {
    const auto& m = outcomes[solo_job[name]].vms[0];
    solo_ipc[name] = m.ipc;
    eq1[name] = m.llc_cap_act;
    const double miss_per_instr =
        m.instructions ? static_cast<double>(m.llc_misses) / static_cast<double>(m.instructions)
                       : 0.0;
    llcm_k[name] =
        miss_per_instr * static_cast<double>(workloads::app_profile(name).length) / 1000.0;
  }

  std::map<std::string, RunningStats> aggressivity;
  for (const PairJob& pair : pairs) {
    aggressivity[pair.aggressor].add(std::max(
        0.0, sim::degradation_pct(solo_ipc[pair.victim], outcomes[pair.job].vms[0].ipc)));
  }

  auto order_by = [&](auto score) {
    std::vector<std::string> order(apps.begin(), apps.end());
    std::sort(order.begin(), order.end(),
              [&](const std::string& x, const std::string& y) { return score(x) > score(y); });
    return order;
  };
  const auto o1 = order_by([&](const std::string& n) { return aggressivity[n].mean(); });
  const auto o2 = order_by([&](const std::string& n) { return llcm_k[n]; });
  const auto o3 = order_by([&](const std::string& n) { return eq1[n]; });

  TextTable table({"app (by real aggressivity)", "avg aggressivity %", "LLCM (k misses/run)",
                   "Equation 1 (miss/ms)", "bar"});
  for (const auto& name : o1) {
    table.add_row({name, fmt_double(aggressivity[name].mean(), 1),
                   fmt_count(static_cast<long long>(llcm_k[name])), fmt_double(eq1[name], 1),
                   ascii_bar(aggressivity[name].mean(), aggressivity[o1.front()].mean(), 25)});
  }
  std::cout << table << '\n';

  auto print_order = [](const char* label, const std::vector<std::string>& order) {
    std::cout << label << " = (";
    for (std::size_t i = 0; i < order.size(); ++i) std::cout << (i ? ", " : "") << order[i];
    std::cout << ")\n";
  };
  print_order("o1 (real aggressivity)", o1);
  print_order("o2 (LLCM)           ", o2);
  print_order("o3 (Equation 1)     ", o3);

  const double tau_llcm = kendall_tau_orders(o1, o2);
  const double tau_eq1 = kendall_tau_orders(o1, o3);
  std::cout << "\nKendall's tau: tau(o2, o1) = " << fmt_double(tau_llcm, 3)
            << "   tau(o3, o1) = " << fmt_double(tau_eq1, 3) << '\n';

  int disruptive_in_top_half = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    for (const auto& d : workloads::disruptive_apps()) disruptive_in_top_half += o1[i] == d;
  }
  bool ok = true;
  ok &= check("Equation 1 ranks aggressiveness better than LLCM (higher tau)",
              tau_eq1 > tau_llcm);
  ok &= check("Equation 1 order agrees well with reality (tau > 0.6)", tau_eq1 > 0.6);
  ok &= check("milc tops the LLCM order but not the real one (the paper's motivating case)",
              o2.front() == "milc" && o1.front() != "milc");
  ok &= check("the disruptive trio (lbm/blockie/mcf) occupies the real order's top half",
              disruptive_in_top_half == 3);
  return verdict(ok);
}

}  // namespace kyoto::bench
