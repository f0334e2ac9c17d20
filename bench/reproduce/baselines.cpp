// The machine (Table 1) and the ablations against §6's related work.
//
// Table 1 — the experimental machine, plus the lmbench-style latency
// probe of §2.2.4 ("4 cycles for L1, 12 for L2, 45 for LLC, 180 for
// main memory"): a dependent pointer chase over growing working sets,
// replayed through the cache model.  It is a McSim replay, not a
// hypervisor scenario, so it stays off the sweep.
//
// Ablation A — Kyoto vs the baseline families on vsen1 (gcc) against
// vdis1 (lbm): XCS (no protection), KS4Xen, a UCP-style static 10/10
// LLC way split [27] (an HvObserver actuator), contention-aware
// placement (lbm on the other socket) and Pisces (dedicated cores,
// shared LLC).  Reports the victim's protection and what it costs
// the disruptor.
//
// Ablation C — LLC replacement/insertion policy (DIP/BIP [17,19]):
// v2rep against the streaming v3dis under six policies.  Scan-
// resistant insertion blunts the scan, but none charges the polluter.
//
// Ablation D — memory-system extensions: prefetching makes a
// streaming disruptor pollute more per second; a memory-bus queue
// makes two all-miss streams hurt each other even when neither
// benefits from the LLC.
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "mcsim/replay.hpp"
#include "mem/patterns.hpp"
#include "plan.hpp"
#include "workloads/pattern_workload.hpp"

namespace kyoto::bench {
namespace {

double probe_latency(const cache::MemSystemConfig& mem, KHz freq, Bytes working_set) {
  workloads::WorkloadSpec spec;
  spec.name = "lat-probe";
  spec.mem_ratio = 1.0;  // every instruction is a dependent load
  spec.mlp = 1.0;
  workloads::PatternWorkload probe(
      spec, std::make_unique<mem::PointerChasePattern>(working_set, 42), 42);
  mcsim::ReplaySimulator sim(mem, freq);
  // One cold lap to load, then measure long enough that it amortizes.
  const auto lines = static_cast<Instructions>(working_set / mem::kLineBytes);
  sim.replay_live(probe, lines);
  const Instructions n = std::max<Instructions>(lines * 8, 64'000);
  const auto result = sim.replay_live(probe, n);
  return static_cast<double>(result.cycles) / static_cast<double>(result.instructions);
}

const char* classify(const cache::MemSystemConfig& mem, double measured) {
  const double l1 = static_cast<double>(mem.lat_l1);
  const double l2 = static_cast<double>(mem.lat_l2);
  const double llc = static_cast<double>(mem.lat_llc);
  if (measured < (l1 + l2) / 2) return "L1";
  if (measured < (l2 + llc) / 2) return "L2";
  if (measured < (llc + static_cast<double>(mem.lat_mem_local)) / 2) return "LLC";
  return "main memory";
}

/// gcc on core 0 next to a looping lbm on `dis_core`.
std::vector<sim::VmPlan> gcc_vs_lbm(const cache::MemSystemConfig& mem, double permit,
                                    int dis_core, int dis_home = 0) {
  return {Vm("gcc", app("gcc", mem), 0).permit(permit),
          Vm("lbm", app("lbm", mem), dis_core).permit(permit).loop().home(dis_home)};
}

}  // namespace

int table1() {
  header("Table 1", "Experimental machine & lmbench latency probe",
         "chase latency plateaus at ~4 (L1), ~12 (L2), ~45 (LLC), ~180 (memory)");

  const hv::MachineConfig scaled = hv::scaled_machine();
  TextTable config({"parameter", "paper machine (Table 1)", "scaled 1/64 (default)"});
  auto row = [&](const char* what, const std::string& a, const std::string& b) {
    config.add_row({what, a, b});
  };
  row("processor", "Xeon E5-1603 v3, 2.8 GHz", "2.8 GHz / 64 = 43.75 Mcyc/s");
  row("topology", "1 socket x 4 cores", "1 socket x 4 cores");
  const auto bytes = [](Bytes b) { return fmt_count(static_cast<long long>(b)) + " B"; };
  row("L1 D", "32 KB, 8-way", bytes(scaled.mem.l1.size) + ", 8-way");
  row("L2 U", "256 KB, 8-way", bytes(scaled.mem.l2.size) + ", 8-way");
  row("LLC", "10 MB, 20-way", bytes(scaled.mem.llc.size) + ", 20-way");
  row("line", "64 B", "64 B");
  row("tick / slice", "10 ms / 30 ms", "10 ms / 30 ms");
  std::cout << config << '\n';

  const auto& mem = scaled.mem;
  struct Probe {
    const char* label;
    Bytes ws;
    const char* expect;
  };
  const std::vector<Probe> probes = {
      {"L1/2 (fits L1)", mem.l1.size / 2, "L1"},
      {"2 x L1 (fits L2)", mem.l1.size * 2, "L2"},
      {"L2/2 + L1 (fits L2)", mem.l2.size / 2 + mem.l1.size, "L2"},
      {"4 x L2 (fits LLC)", mem.l2.size * 4, "LLC"},
      {"LLC/2 (fits LLC)", mem.llc.size / 2, "LLC"},
      {"2 x LLC (memory)", mem.llc.size * 2, "main memory"},
      {"4 x LLC (memory)", mem.llc.size * 4, "main memory"},
  };
  TextTable table({"working set", "bytes", "measured cycles/access", "level", "expected"});
  bool ok = true;
  for (const auto& p : probes) {
    const double lat = probe_latency(mem, scaled.freq_khz, p.ws);
    const char* level = classify(mem, lat);
    table.add_row({p.label, fmt_count(static_cast<long long>(p.ws)), fmt_double(lat, 1), level,
                   p.expect});
    ok &= std::string(level) == p.expect;
  }
  std::cout << table << '\n';
  ok &= check("each working-set size lands on the expected cache level", ok);
  return verdict(ok);
}

int ablation_baselines() {
  header("Ablation A", "Kyoto vs partitioning and placement baselines",
         "all protections restore the victim; they differ in what the disruptor "
         "and the provider pay");

  // Two sockets, so placement has somewhere to go.
  const sim::RunSpec spec = window(hv::scaled_numa_machine(), 6, ticks(60));
  const auto& mem = spec.machine.mem;
  sim::SweepRunner sweep(ThreadPool::hardware_lanes());
  sweep.add_solo(spec, app("gcc", mem), "gcc");
  const auto gcc_solo = sweep.run().at(0).vms[0];

  const sim::HvObserver ucp_split = [](hv::Hypervisor& h) {
    auto& llc = h.machine().memory().llc(0);
    llc.set_partition(0, 0, 10);
    llc.set_partition(1, 10, 10);
  };
  struct Case {
    const char* name;
    const char* note;
  };
  const Case cases[] = {
      {"XCS (no protection)", "victim unprotected"},
      {"KS4Xen (polluter pays)", "throttles polluter only when over permit"},
      {"UCP-style way partition (10/10)", "needs HW support; halves everyone's LLC"},
      {"placement (lbm -> other socket)", "consumes a second socket"},
      {"Pisces (dedicated cores)", "no CPU sharing, LLC still shared"},
  };
  const sim::RunSpec ks_spec = window(spec.machine, 6, spec.measure_ticks, ks4xen());
  const sim::RunSpec pisces_spec = window(spec.machine, 6, spec.measure_ticks, pisces());
  sweep.add(spec, gcc_vs_lbm(mem, 0.0, 1), cases[0].name);
  sweep.add(ks_spec, gcc_vs_lbm(mem, permit_for(gcc_solo), 1), cases[1].name);
  sweep.add(spec, gcc_vs_lbm(mem, 0.0, 1), ucp_split, cases[2].name);
  sweep.add(spec, gcc_vs_lbm(mem, 0.0, 4, 1), cases[3].name);
  sweep.add(pisces_spec, gcc_vs_lbm(mem, 0.0, 1), cases[4].name);
  const auto outcomes = sweep.run();

  std::vector<double> victim_norm;
  std::vector<double> disruptor_tput;  // lbm instructions per tick
  TextTable table({"system", "victim norm. perf", "disruptor throughput (instr/tick)",
                   "notes"});
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    victim_norm.push_back(outcomes[i].vms[0].ipc / gcc_solo.ipc);
    disruptor_tput.push_back(outcomes[i].vms[1].throughput);
    table.add_row({cases[i].name, fmt_double(victim_norm[i], 2),
                   fmt_count(static_cast<long long>(disruptor_tput[i])), cases[i].note});
  }
  std::cout << table << '\n';

  bool ok = true;
  ok &= check("XCS leaves the victim degraded (norm < 0.9)", victim_norm[0] < 0.9);
  ok &= check("KS4Xen restores the victim (norm >= 0.9)", victim_norm[1] >= 0.9);
  ok &= check("way partitioning also protects (norm >= 0.85)", victim_norm[2] >= 0.85);
  ok &= check("placement protects by construction (norm >= 0.95)", victim_norm[3] >= 0.95);
  ok &= check("Pisces alone does NOT protect against LLC contention (norm < 0.9)",
              victim_norm[4] < 0.9);
  ok &= check("partitioning/placement let the disruptor run free; KS4Xen makes it pay",
              disruptor_tput[1] < disruptor_tput[2] / 2.0 &&
                  disruptor_tput[1] < disruptor_tput[3] / 2.0);
  return verdict(ok);
}

int ablation_replacement() {
  header("Ablation C", "LLC replacement policy vs streaming contention",
         "scan-resistant insertion (LIP/BIP/DIP) blunts the streaming disruptor; "
         "plain LRU/PLRU/random do not");

  using RK = cache::ReplacementKind;
  const std::vector<RK> kinds = {RK::kLru, RK::kPlru, RK::kRandom,
                                 RK::kLip, RK::kBip,  RK::kDip};
  sim::SweepRunner sweep(ThreadPool::hardware_lanes());
  for (const auto kind : kinds) {
    hv::MachineConfig machine = hv::scaled_machine();
    machine.mem.llc_replacement = kind;
    const sim::RunSpec spec = window(machine, 6, ticks(45));
    const auto rep = micro_rep(workloads::MicroClass::kC2, machine.mem);
    const auto dis = micro_dis(workloads::MicroClass::kC3, machine.mem);
    sweep.add_solo(spec, rep, "v2rep", "v2rep");
    sweep.add(spec, {Vm("v2rep", rep, 0), Vm("v3dis", dis, 1).loop()},
              cache::replacement_name(kind));
  }
  const auto outcomes = sweep.run();

  TextTable table({"LLC policy", "v2rep degradation %", "bar"});
  double lru_deg = 0.0;
  double best_adaptive = 1e9;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const double deg =
        sim::degradation_pct(outcomes[2 * i].vms[0].ipc, outcomes[2 * i + 1].vms[0].ipc);
    table.add_row({cache::replacement_name(kinds[i]), fmt_double(deg, 1),
                   ascii_bar(std::max(deg, 0.0), 80.0, 28)});
    if (kinds[i] == RK::kLru) lru_deg = deg;
    if (kinds[i] == RK::kLip || kinds[i] == RK::kBip || kinds[i] == RK::kDip) {
      best_adaptive = std::min(best_adaptive, deg);
    }
  }
  std::cout << table << '\n';

  bool ok = true;
  ok &= check("LRU suffers badly from the streaming scan (> 30%)", lru_deg > 30.0);
  ok &= check("the best scan-resistant policy at least halves LRU's damage",
              best_adaptive < lru_deg / 2.0);
  std::cout << "\nNote: even the best policy only *shields* the victim; unlike Kyoto it\n"
               "neither meters nor charges the polluter (no pay-per-use semantics).\n";
  return verdict(ok);
}

int ablation_memsys() {
  header("Ablation D", "prefetcher and memory-bus extensions",
         "prefetch speeds the streamer and raises its measured pollution; the "
         "bus model adds victim degradation even for an all-miss victim");

  hv::MachineConfig base = hv::scaled_machine();
  hv::MachineConfig with_pf = base;
  with_pf.mem.prefetch.enabled = true;
  with_pf.mem.prefetch.degree = 4;
  hv::MachineConfig with_bus = base;
  with_bus.mem.bus.enabled = true;
  with_bus.mem.bus.transfer_cycles = 24;
  hv::MachineConfig full = with_bus;
  full.mem.prefetch.enabled = true;

  // Batch 1: each victim's solo next to its co-run with a looping
  // disruptor, on each machine; plus the solo that sizes the permit
  // for the fully extended machine.
  struct Pair {
    std::size_t solo = 0;
    std::size_t corun = 0;
  };
  sim::SweepRunner sweep(ThreadPool::hardware_lanes());
  auto pair = [&](const hv::MachineConfig& machine, const std::string& victim) {
    const sim::RunSpec spec = window(machine, 6, ticks(45));
    Pair p;
    p.solo = sweep.add_solo(spec, app(victim, machine.mem), victim, victim);
    p.corun = sweep.add(spec,
                        {Vm(victim, app(victim, machine.mem), 0).loop(),
                         Vm("lbm", app("lbm", machine.mem), 1).loop()},
                        victim + "/lbm");
    return p;
  };
  const Pair jobs[] = {pair(base, "gcc"), pair(with_pf, "gcc"), pair(base, "milc"),
                       pair(with_bus, "milc")};
  const sim::RunSpec full_spec = window(full, 6, ticks(45));
  const std::size_t full_solo = sweep.add_solo(full_spec, app("gcc", full.mem), "gcc", "gcc");
  auto outcomes = sweep.run();
  auto degradation = [&](const Pair& p) {
    return sim::degradation_pct(outcomes[p.solo].vms[0].ipc, outcomes[p.corun].vms[0].ipc);
  };
  auto dis_pollution = [&](const Pair& p) { return outcomes[p.corun].vms[1].llc_cap_act; };
  const double pf_off_deg = degradation(jobs[0]);
  const double pf_on_deg = degradation(jobs[1]);
  const double bus_off_deg = degradation(jobs[2]);
  const double bus_on_deg = degradation(jobs[3]);
  const auto solo = outcomes[full_solo].vms[0];

  bool ok = true;
  TextTable pf_table({"config", "gcc degradation %", "lbm Equation 1 (miss/ms)"});
  pf_table.add_row(
      {"prefetch off", fmt_double(pf_off_deg, 1), fmt_double(dis_pollution(jobs[0]), 1)});
  pf_table.add_row({"prefetch on (degree 4)", fmt_double(pf_on_deg, 1),
                    fmt_double(dis_pollution(jobs[1]), 1)});
  std::cout << pf_table << '\n';
  ok &= check("prefetching raises the streamer's measured pollution rate",
              dis_pollution(jobs[1]) > dis_pollution(jobs[0]) * 1.2);
  ok &= check("victim still protected-able: degradation stays finite (< 95%)", pf_on_deg < 95.0);

  // An all-miss victim: cache modelling alone shows ~no degradation;
  // the bus reveals bandwidth contention.
  TextTable bus_table({"config", "milc degradation % (vs its own solo)", "note"});
  bus_table.add_row(
      {"bus off", fmt_double(bus_off_deg, 1), "pure cache model: streams barely interact"});
  bus_table.add_row(
      {"bus on (24 cyc/line)", fmt_double(bus_on_deg, 1), "queuing at the memory controller"});
  std::cout << bus_table << '\n';
  ok &= check("without the bus, stream-vs-stream degradation is small (< 8%)", bus_off_deg < 8.0);
  ok &= check("with the bus, it is clearly larger (> bus-off + 5pp)",
              bus_on_deg > bus_off_deg + 5.0);

  // Batch 2: Kyoto still works with both extensions enabled.
  sim::RunSpec ks_spec = full_spec;
  ks_spec.scheduler = ks4xen();
  const double permit = permit_for(solo);
  sweep.add(ks_spec,
            {Vm("gcc", app("gcc", full.mem), 0).permit(permit),
             Vm("lbm", app("lbm", full.mem), 1).permit(permit).loop()},
            "gcc/lbm/ks4xen");
  const double norm = sweep.run().at(0).vms[0].ipc / solo.ipc;
  std::cout << "KS4Xen on the fully extended machine: gcc norm. perf " << fmt_double(norm, 2)
            << "\n\n";
  ok &= check("KS4Xen keeps protecting with prefetch+bus enabled (norm >= 0.85)", norm >= 0.85);
  return verdict(ok);
}

}  // namespace kyoto::bench
