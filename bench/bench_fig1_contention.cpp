// Fig 1 — "LLC contention could impact some applications."
//
// Each representative micro-VM v{1,2,3}rep runs against each
// disruptive micro-VM v{1,2,3}dis in three execution modes:
//   alternative — both pinned to core 0 (time sharing);
//   parallel    — rep on core 0, dis on core 1 (same socket / LLC);
//   combined    — one dis shares rep's core AND one runs on core 1.
// Reported: % IPC degradation of the representative vs its solo run.
//
// The whole figure is one sim::SweepRunner batch: the three solo
// baselines (memoized — requested once per representative) plus the
// 27 contention scenarios fan out over the hardware lanes as
// share-nothing jobs, byte-identical to the serial loop at any lane
// count (the sweep-runner gate pins that).  Fig 1 uses the default
// credit scheduler everywhere, which is exactly what add_solo
// baselines run under.
//
// Expected shape: C1 victims ~0 everywhere; v1dis (ILC-sized) harms
// nobody; C2/C3 victims are hurt badly by C2/C3 disruptors; parallel
// contention is far worse than alternative (paper: up to 70% vs 13%).
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "sim/sweep_runner.hpp"
#include "workloads/catalog.hpp"

using namespace kyoto;
using workloads::MicroClass;
using workloads::StreamVersion;

namespace {

sim::WorkloadFactory rep_factory(MicroClass cls, const hv::MachineConfig& mc,
                                 StreamVersion stream) {
  const auto mem = mc.mem;
  return [cls, mem, stream](std::uint64_t s) {
    return workloads::micro_representative(cls, mem, s, stream);
  };
}

sim::WorkloadFactory dis_factory(MicroClass cls, const hv::MachineConfig& mc,
                                 StreamVersion stream) {
  const auto mem = mc.mem;
  return [cls, mem, stream](std::uint64_t s) {
    return workloads::micro_disruptive(cls, mem, s, stream);
  };
}

enum class Mode { kAlternative, kParallel, kCombined };

std::vector<sim::VmPlan> contention_plans(const sim::WorkloadFactory& rep,
                                          const sim::WorkloadFactory& dis, Mode mode) {
  std::vector<sim::VmPlan> plans;
  sim::VmPlan r;
  r.config.name = "rep";
  r.workload = rep;
  r.pinned_cores = {0};
  plans.push_back(r);

  auto add_dis = [&](int core, const char* name) {
    sim::VmPlan d;
    d.config.name = name;
    d.config.loop_workload = true;
    d.workload = dis;
    d.pinned_cores = {core};
    plans.push_back(d);
  };
  switch (mode) {
    case Mode::kAlternative:
      add_dis(0, "dis-alt");
      break;
    case Mode::kParallel:
      add_dis(1, "dis-par");
      break;
    case Mode::kCombined:
      add_dis(0, "dis-alt");
      add_dis(1, "dis-par");
      break;
  }
  return plans;
}

}  // namespace

int main(int argc, char** argv) {
  // --stream v1|v2 selects the reference-stream format for every
  // workload in the figure.  v2 (geometric-skip) exercises compiled
  // stream generation end-to-end; the figure's shape checks are
  // format-independent (v2 compiles the same access sequence), so the
  // same gates apply.  Default v1 output is unchanged.
  StreamVersion stream = StreamVersion::kV1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stream") == 0 && i + 1 < argc) {
      const char* v = argv[++i];
      if (std::strcmp(v, "v2") == 0) {
        stream = StreamVersion::kV2;
      } else if (std::strcmp(v, "v1") != 0) {
        std::cerr << "unknown stream version: " << v << " (expected v1 or v2)\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_fig1_contention [--stream v1|v2]\n";
      return 2;
    }
  }

  bench::header(
      "Fig 1", "LLC contention by VM class and execution mode",
      "C1 rows ~0; v1dis harmless; C2/C3 hurt by C2/C3 disruptors; parallel >> alternative");
  if (stream == StreamVersion::kV2) {
    std::cout << "  (stream: v2 geometric-skip — ref-batch vCPU engine end-to-end)\n\n";
  }

  sim::RunSpec spec;
  spec.machine = hv::scaled_machine();
  spec.warmup_ticks = 6;
  spec.measure_ticks = bench::ticks(45);

  const MicroClass classes[] = {MicroClass::kC1, MicroClass::kC2, MicroClass::kC3};
  const char* mode_names[] = {"alternative", "parallel", "combined"};

  // One batch: 3 solos (memoized by representative) + 27 grid jobs.
  sim::SweepRunner sweep(ThreadPool::hardware_lanes());
  // The stream version is baked into the workload, so it must be part
  // of the memo identity: a ":v2" suffix keeps v2 baselines from ever
  // answering a v1 request (and vice versa).
  const std::string stream_tag = stream == StreamVersion::kV2 ? ":v2" : "";
  std::size_t solo_job[3];
  for (int ri = 0; ri < 3; ++ri) {
    solo_job[ri] = sweep.add_solo(spec, rep_factory(classes[ri], spec.machine, stream),
                                  "micro:c" + std::to_string(ri + 1) + "rep" + stream_tag, "rep");
  }
  std::size_t grid_job[3][3][3];  // [mode][rep][dis]
  for (int mi = 0; mi < 3; ++mi) {
    for (int ri = 0; ri < 3; ++ri) {
      const auto rep = rep_factory(classes[ri], spec.machine, stream);
      for (int di = 0; di < 3; ++di) {
        const auto dis = dis_factory(classes[di], spec.machine, stream);
        grid_job[mi][ri][di] =
            sweep.add(spec, contention_plans(rep, dis, static_cast<Mode>(mi)),
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
  // The three representatives' baselines are requested exactly once
  // each, so the memo cache answers zero of the three (no duplicates
  // in this figure — the invariant is that nothing extra simulated).
  ok &= bench::check("sweep executed 3 solos + 27 scenarios (no duplicate solo runs)",
                     sweep.solo_requests() == 3 && sweep.solo_memo_hits() == 0);

  // C1 victims immune in every mode.
  double c1_worst = 0;
  for (int mi = 0; mi < 3; ++mi) {
    for (int di = 0; di < 3; ++di) c1_worst = std::max(c1_worst, deg[mi][0][di]);
  }
  ok &= bench::check("C1 victims degrade < 6% in every scenario", c1_worst < 6.0);

  // v1dis harmless to everyone.
  double v1dis_worst = 0;
  for (int mi = 0; mi < 3; ++mi) {
    for (int ri = 0; ri < 3; ++ri) v1dis_worst = std::max(v1dis_worst, deg[mi][ri][0]);
  }
  ok &= bench::check("v1dis (ILC-sized) causes < 6% everywhere", v1dis_worst < 6.0);

  // C2/C3 victims hurt in parallel by C2/C3 disruptors.
  double hurt_min = 1e9;
  for (int ri = 1; ri < 3; ++ri) {
    for (int di = 1; di < 3; ++di) hurt_min = std::min(hurt_min, deg[1][ri][di]);
  }
  ok &= bench::check("parallel C2/C3-vs-C2/C3 degradation all > 10%", hurt_min > 10.0);
  ok &= bench::check("worst parallel degradation > 40% (paper: up to ~70%)",
                     std::max({deg[1][1][1], deg[1][1][2], deg[1][2][2]}) > 40.0);

  // Parallel >> alternative for the C2 victim vs C3 disruptor.
  ok &= bench::check("parallel >> alternative (v2rep vs v3dis)",
                     deg[1][1][2] > 1.8 * std::max(deg[0][1][2], 1.0));

  return bench::verdict(ok);
}
