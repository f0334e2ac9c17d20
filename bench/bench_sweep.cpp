// BENCH sweep — figure-scale experiment fan-out (jobs/sec, serial vs
// sharded).
//
// Not a paper figure: this is the engineering harness for
// sim::SweepRunner, the subsystem that replays a *whole figure* — N
// VM mixes × M schedulers, each normalized against a solo baseline —
// as independent share-nothing jobs, one private hypervisor per lane.
// The batch mirrors the fig-6 driver shape: colocation mixes under
// the vanilla credit scheduler and KS4Xen, plus per-comparison solo
// baselines that the memoized solo cache collapses to one simulation
// per distinct (machine, workload, seed, window) key.
//
// The batch is executed once per lane count (1 = the serial loop, the
// baseline).  Exact agreement is ALWAYS enforced: every lane count
// must reproduce the serial outcomes byte-for-byte, in submission
// order — only wall-clock time may change.  The sharded speedup is
// recorded in BENCH_sweep.json for the perf trajectory and only
// *gated* (--min-sweep-speedup) when the host has at least as many
// CPUs as lanes, so CI stays hardware-agnostic (a 1-vCPU container
// can only document sharding overhead, not scaling).
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "hv/credit_scheduler.hpp"
#include "kyoto/ks4xen.hpp"
#include "sim/sweep_runner.hpp"
#include "workloads/catalog.hpp"

using namespace kyoto;

namespace {

struct MixDef {
  const char* name;
  const char* sensitive;   // the tenant normalized against its solo run
  const char* disruptive;  // the looping co-tenant
};

// Fig-1/Fig-6 style colocation mixes: one cache-sensitive tenant, one
// polluter, covering the hit-heavy and miss-heavy regimes.
const std::vector<MixDef> kMixes = {
    {"gcc_lbm", "gcc", "lbm"},
    {"omnetpp_xalan", "omnetpp", "xalan"},
    {"soplex_mcf", "soplex", "mcf"},
    {"hmmer_blockie", "hmmer", "blockie"},
};

struct SweepResult {
  int lanes = 1;
  double seconds = 0.0;
  std::size_t jobs = 0;            // submitted (scenario + solo requests)
  std::size_t executed = 0;        // jobs that actually built a hypervisor
  double hit_rate = 0.0;           // solo memoization
  std::vector<sim::RunOutcome> outcomes;
  double jobs_per_sec() const { return static_cast<double>(jobs) / seconds; }
};

/// Submits the figure batch: per mix, one XCS scenario + one KS4Xen
/// scenario, each preceded by the sensitive tenant's solo-baseline
/// request (the duplicate requests exercise the memo cache exactly
/// the way quickstart/scheduler_tour do).
void submit_batch(sim::SweepRunner& sweep, Tick warmup, Tick measure) {
  sim::RunSpec spec;
  spec.machine = hv::scaled_machine();
  spec.warmup_ticks = warmup;
  spec.measure_ticks = measure;
  const auto mem = spec.machine.mem;
  for (const MixDef& mix : kMixes) {
    const auto sensitive = [mix, mem](std::uint64_t s) {
      return workloads::make_app(mix.sensitive, mem, s);
    };
    const auto disruptive = [mix, mem](std::uint64_t s) {
      return workloads::make_app(mix.disruptive, mem, s);
    };
    for (const bool kyoto : {false, true}) {
      sim::RunSpec rspec = spec;
      if (kyoto) {
        rspec.scheduler = [] { return std::make_unique<core::Ks4Xen>(); };
      }
      sweep.add_solo(spec, sensitive, mix.sensitive, mix.sensitive);
      sim::VmPlan sen;
      sen.config.name = mix.sensitive;
      sen.config.llc_cap = kyoto ? 25.0 : 0.0;
      sen.workload = sensitive;
      sen.pinned_cores = {0};
      sim::VmPlan dis;
      dis.config.name = mix.disruptive;
      dis.config.llc_cap = kyoto ? 25.0 : 0.0;
      dis.config.loop_workload = true;
      dis.workload = disruptive;
      dis.pinned_cores = {1};
      sweep.add(rspec, {sen, dis}, std::string(mix.name) + (kyoto ? "/ks4xen" : "/xcs"));
    }
  }
}

SweepResult run_batch(int lanes, Tick warmup, Tick measure) {
  sim::SweepRunner sweep(lanes);
  submit_batch(sweep, warmup, measure);
  SweepResult result;
  result.lanes = lanes;
  result.jobs = sweep.pending();
  const auto t0 = std::chrono::steady_clock::now();
  result.outcomes = sweep.run();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  result.executed = result.jobs - static_cast<std::size_t>(sweep.solo_memo_hits());
  result.hit_rate = sweep.solo_hit_rate();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_sweep.json";
  double min_sweep_speedup = 0.0;
  int max_lanes = 4;
  bool quick = bench::quick_mode();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") json_path = value();
    else if (arg == "--min-sweep-speedup") min_sweep_speedup = std::stod(value());
    else if (arg == "--lanes") max_lanes = std::stoi(value());
    else if (arg == "--quick") quick = true;
    else {
      std::cerr << "usage: bench_sweep [--json PATH] [--lanes N] "
                   "[--min-sweep-speedup X] [--quick]\n";
      return 2;
    }
  }
  const Tick warmup = 3;
  const Tick measure = quick ? 15 : 45;

  bench::header("BENCH sweep", "sharded experiment fan-out (not a paper figure)",
                "a figure-scale batch of independent scenarios executes one "
                "hypervisor per lane with byte-identical results at every lane "
                "count, solo baselines memoized");

  std::vector<int> lane_counts = {1};
  for (const int l : {2, 4}) {
    if (l <= max_lanes) lane_counts.push_back(l);
  }
  // Each lane count is timed twice back to back and the faster run
  // kept (outcomes are deterministic, so either run's are the same).
  // On a shared virtual host the first parallel phase after the other
  // CPUs sat idle pays a wake-up stall of a few hundred milliseconds —
  // comparable to a whole quick-mode phase — that the second run
  // does not.
  std::vector<SweepResult> runs;
  for (const int lanes : lane_counts) {
    SweepResult first = run_batch(lanes, warmup, measure);
    SweepResult second = run_batch(lanes, warmup, measure);
    runs.push_back(std::move(second.seconds < first.seconds ? second : first));
  }
  const SweepResult& serial = runs.front();
  const int host_cpus = ThreadPool::hardware_lanes();

  TextTable table({"lanes", "jobs", "executed", "solo hit rate", "seconds", "jobs/s",
                   "speedup"});
  bool agree = true;
  for (const SweepResult& run : runs) {
    agree &= run.outcomes == serial.outcomes;
    table.add_row({std::to_string(run.lanes), std::to_string(run.jobs),
                   std::to_string(run.executed), fmt_double(run.hit_rate * 100, 0) + " %",
                   fmt_double(run.seconds, 2), fmt_double(run.jobs_per_sec(), 2),
                   fmt_double(run.jobs_per_sec() / serial.jobs_per_sec(), 2) + "x"});
  }
  std::cout << "  " << kMixes.size() << " mixes x {xcs, ks4xen} + per-comparison solo "
            << "baselines, " << warmup << "+" << measure << " ticks/job, host cpus: "
            << host_cpus << "\n\n"
            << table << '\n';

  bool all_ok = true;
  all_ok &= bench::check(
      "sharded outcomes byte-identical to the serial loop at every lane count "
      "(submission order)",
      agree);
  all_ok &= bench::check("solo memoization: half the baseline requests answered "
                         "from the cache",
                         serial.hit_rate == 0.5 && serial.executed + 4 == serial.jobs);

  const double best_speedup =
      runs.back().jobs_per_sec() / serial.jobs_per_sec();
  if (min_sweep_speedup > 0.0) {
    if (host_cpus >= lane_counts.back()) {
      all_ok &= bench::check("lanes=" + std::to_string(lane_counts.back()) +
                                 " sweep speedup >= " + fmt_double(min_sweep_speedup, 1) +
                                 "x vs serial loop",
                             best_speedup >= min_sweep_speedup);
    } else {
      std::cout << "  (sweep speedup gate skipped: host has " << host_cpus
                << " cpu(s) for " << lane_counts.back() << " lanes)\n";
    }
  }

  // JSON record for the perf trajectory (schema in README.md).
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"sweep\",\n  \"schema\": 1,\n"
       << "  \"quick\": " << (quick ? "true" : "false")
       << ",\n  \"host_cpus\": " << host_cpus
       << ",\n  \"mixes\": " << kMixes.size()
       << ",\n  \"ticks_per_job\": " << (warmup + measure)
       << ",\n  \"jobs\": " << serial.jobs
       << ",\n  \"executed_jobs\": " << serial.executed
       << ",\n  \"solo_memo_hit_rate\": " << serial.hit_rate
       << ",\n  \"exact_agreement\": " << (agree ? "true" : "false")
       << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SweepResult& r = runs[i];
    json << "    {\"lanes\": " << r.lanes << ", \"seconds\": " << r.seconds
         << ", \"jobs_per_sec\": " << r.jobs_per_sec()
         << ", \"speedup_vs_serial\": " << r.jobs_per_sec() / serial.jobs_per_sec() << "}"
         << (i + 1 == runs.size() ? "\n" : ",\n");
  }
  json << "  ]\n}\n";
  json.close();
  std::cout << "\n  JSON written to " << json_path << '\n';

  return bench::verdict(all_ok);
}
