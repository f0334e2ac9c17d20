// BENCH farm — process-farm sweep execution (not a paper figure).
//
// Engineering harness for sim::Farm, the distributed form of the
// sweep: a batch of scenario jobs executes across sweep_worker
// processes and must reproduce the in-process SweepRunner outcomes
// *byte for byte*.  Phases 1-3 use local pipe hosts: every worker
// count, a worker SIGKILLed mid-batch, and a checkpoint
// interrupt/resume split.  Every agreement is a determinism claim, so
// it holds on any host and any build type.
//
// Phase 4 is the multi-host drill: the same batch through the same
// Farm across four simulated file-transport hosts — one killed
// mid-shard, one corrupting its result files, one hung past the
// dispatch deadline, one healthy — must converge byte-identical
// through quarantine and redistribution.
//
// The checkpoint and the hosts' shard files live in bench_farm_work/
// under the working directory, which is removed when every check
// passes and kept for inspection otherwise.
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/farm.hpp"
#include "sim/scenario_file.hpp"
#include "sim/sweep_runner.hpp"

using namespace kyoto;

namespace {

std::string tiny_scenario(const std::string& app, int measure_ticks, int seed) {
  return
      "[machine]\n"
      "topology = 1x2\n"
      "scale = 64\n"
      "\n"
      "[scheduler]\n"
      "kind = ks4xen\n"
      "monitor = direct\n"
      "punish = block\n"
      "\n"
      "[vm tenant]\n"
      "app = " + app + "\n"
      "cores = 0\n"
      "llc_cap = 30\n"
      "loop = true\n"
      "\n"
      "[vm noisy]\n"
      "app = lbm\n"
      "cores = 1\n"
      "llc_cap = 30\n"
      "loop = true\n"
      "\n"
      "[run]\n"
      "warmup_ticks = 2\n"
      "measure_ticks = " + std::to_string(measure_ticks) + "\n"
      "seed = " + std::to_string(seed) + "\n";
}

std::vector<std::pair<std::string, std::string>> farm_batch(int measure_ticks) {
  std::vector<std::pair<std::string, std::string>> jobs;
  int seed = 1;
  for (const char* app : {"gcc", "mcf", "omnetpp", "hmmer"}) {
    for (int rep = 0; rep < 2; ++rep) {
      jobs.emplace_back(std::string(app) + "/" + std::to_string(seed),
                        tiny_scenario(app, measure_ticks, seed));
      ++seed;
    }
  }
  return jobs;
}

struct FarmResult {
  int respawns = 0;
  int retries = 0;
  int host_failures = 0;
  bool in_process = false;
  std::vector<sim::RunOutcome> outcomes;
};

FarmResult run_farm(const std::vector<std::pair<std::string, std::string>>& jobs,
                    sim::FarmOptions options) {
  FarmResult result;
  sim::Farm farm(std::move(options));
  for (const auto& [label, text] : jobs) farm.add(text, label);
  result.outcomes = farm.run();
  result.respawns = farm.worker_respawns();
  result.retries = farm.job_retries();
  result.host_failures = farm.host_failure_count();
  result.in_process = farm.degraded();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string worker = sim::Farm::default_worker_path(argv[0]);
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
    if (arg == "--worker") worker = value();
    else if (arg == "--quick") quick = true;
    else {
      std::cerr << "usage: bench_farm [--worker SWEEP_WORKER] [--quick]\n";
      return 2;
    }
  }

  bench::header("BENCH farm", "process-farm sweep execution (not a paper figure)",
                "farm outcomes byte-identical to the in-process SweepRunner at every "
                "worker count, under an injected worker kill, and across a "
                "checkpoint interrupt/resume split");

  const int measure = quick ? 5 : 12;
  const auto jobs = farm_batch(measure);

  // The oracle: the same jobs through the in-process SweepRunner.
  sim::SweepRunner sweep(2);
  for (const auto& [label, text] : jobs) {
    const sim::Scenario scenario = sim::parse_scenario(text);
    sweep.add(scenario.spec, scenario.plans, label);
  }
  const std::vector<sim::RunOutcome> expected = sweep.run();

  const bool have_worker = !worker.empty() && ::access(worker.c_str(), X_OK) == 0;
  if (!have_worker) {
    std::cout << "  NOTE: sweep_worker not found (" << (worker.empty() ? "no path" : worker)
              << "); exercising the in-process degradation path only.\n\n";
  }

  namespace fs = std::filesystem;
  const fs::path work_dir = "bench_farm_work";
  fs::remove_all(work_dir);
  fs::create_directories(work_dir);

  bool all_ok = true;
  bool workers_agree = true;
  TextTable table({"workers", "respawns", "retries", "host failures", "agreement"});

  // Phase 1: worker counts {1, 2, 4}.
  for (const int workers : {1, 2, 4}) {
    sim::FarmOptions options;
    if (have_worker) options.hosts = sim::local_workers(workers, worker);
    const FarmResult r = run_farm(jobs, std::move(options));
    const bool agree = r.outcomes == expected;
    workers_agree &= agree;
    table.add_row({std::to_string(workers) + (r.in_process ? " (in-proc)" : ""),
                   std::to_string(r.respawns), std::to_string(r.retries),
                   std::to_string(r.host_failures), agree ? "exact" : "MISMATCH"});
  }

  // Phase 2: one injected kill — every worker process dies on its 2nd
  // job, so the batch only converges through respawn + retry.
  bool kill_agree = true;
  int kill_respawns = 0;
  if (have_worker) {
    sim::FarmOptions options;
    options.hosts = sim::local_workers(2, worker, {"--fault-kill-after", "2"});
    // A worker that dies on every 2nd job can tax one retry per
    // interleaved completion before a fresh respawn absorbs the job;
    // budget one retry per job so the drill gates convergence, not
    // scheduling luck.
    options.max_retries = static_cast<int>(jobs.size());
    const FarmResult r = run_farm(jobs, std::move(options));
    kill_agree = r.outcomes == expected;
    kill_respawns = r.respawns;
    all_ok &= kill_agree;
    table.add_row({"2 + kill", std::to_string(r.respawns), std::to_string(r.retries),
                   std::to_string(r.host_failures), kill_agree ? "exact" : "MISMATCH"});
  }

  // Phase 3: checkpoint interrupt after 3 completions, then resume.
  const std::string ckpt = (work_dir / "checkpoint").string();
  bool resume_agree = true;
  int restored = 0;
  {
    sim::FarmOptions options;
    if (have_worker) options.hosts = sim::local_workers(2, worker);
    options.checkpoint_path = ckpt;
    options.checkpoint_every = 1;
    options.abort_after_completed = 3;
    sim::Farm farm(options);
    for (const auto& [label, text] : jobs) farm.add(text, label);
    try {
      farm.run();
      resume_agree = false;  // the interrupt must fire
    } catch (const sim::FarmInterrupted&) {
    }
  }
  {
    sim::FarmOptions options;
    if (have_worker) options.hosts = sim::local_workers(2, worker);
    options.checkpoint_path = ckpt;
    sim::Farm farm(options);
    for (const auto& [label, text] : jobs) farm.add(text, label);
    const auto outcomes = farm.run();
    restored = farm.jobs_restored();
    resume_agree = resume_agree && outcomes == expected && restored >= 3 &&
                   restored + farm.jobs_executed() + farm.jobs_in_process() ==
                       static_cast<int>(jobs.size());
    all_ok &= resume_agree;
  }

  // Phase 4: multi-host drill.  Four simulated hosts — one killed
  // mid-shard, one corrupting result files, one hanging past the
  // shard deadline, one healthy — must converge byte-identical via
  // quarantine + redistribution.
  bool multi_agree = true;
  int multi_quarantines = 0;
  int multi_host_failures = 0;
  if (have_worker) {
    const fs::path host_dir = work_dir / "hosts";
    fs::create_directories(host_dir);
    sim::FarmOptions options;
    options.work_dir = host_dir.string();
    options.jobs_per_shard = 1;
    options.host_failure_budget = 1;
    options.max_quarantines = 1;
    options.backoff.base_s = 0.02;
    options.timeout_s = quick ? 1.5 : 4.0;
    const auto files = sim::Transport::kFiles;
    options.hosts.push_back(sim::HostSpec{"h-kill", worker, {"--fault-kill-after", "1"}, files});
    options.hosts.push_back(
        sim::HostSpec{"h-corrupt", worker, {"--fault-corrupt-results", "bitflip"}, files});
    options.hosts.push_back(sim::HostSpec{"h-hang", worker, {"--fault-hang-after", "1"}, files});
    options.hosts.push_back(sim::HostSpec{"h-ok", worker, {}, files});
    sim::Farm hosts(options);
    for (const auto& [label, text] : jobs) hosts.add(text, label);
    const auto outcomes = hosts.run();
    multi_agree = outcomes == expected && !hosts.degraded();
    multi_quarantines = hosts.health()->quarantine_count();
    multi_host_failures = hosts.host_failure_count();
    all_ok &= multi_agree;
    table.add_row({"4 hosts + faults", std::to_string(hosts.worker_respawns()),
                   std::to_string(hosts.job_retries()), std::to_string(multi_host_failures),
                   multi_agree ? "exact" : "MISMATCH"});
  }

  std::cout << "  " << jobs.size() << " jobs, 2+" << measure << " ticks each, worker: "
            << (have_worker ? worker : "(in-process)") << "\n\n"
            << table << '\n';

  all_ok &= bench::check("farm outcomes byte-identical to SweepRunner at workers {1,2,4}",
                         workers_agree);
  if (have_worker) {
    all_ok &= bench::check("injected SIGKILL: batch retries to the identical result "
                           "(respawns >= 1)",
                           kill_agree && kill_respawns >= 1);
  }
  all_ok &= bench::check("checkpoint interrupt/resume: restored >= 3 of " +
                             std::to_string(jobs.size()) +
                             " jobs, merged result byte-identical",
                         resume_agree);
  if (have_worker) {
    all_ok &= bench::check("multi-host drill: kill+corrupt+hang+ok hosts converge "
                           "byte-identical (quarantines >= 1)",
                           multi_agree && multi_quarantines >= 1 && multi_host_failures >= 3);
  }

  if (all_ok) fs::remove_all(work_dir);
  return bench::verdict(all_ok);
}
