// Scenario-file runner: the simulator as a standalone tool.
//
//   ./scenario_runner sweep-a.kyoto sweep-b.kyoto ...   # one job per file
//   ./scenario_runner --lanes 4 fig6-*.kyoto            # sharded execution
//   ./scenario_runner --hosts 3 fig6-*.kyoto            # process farm
//   ./scenario_runner --hosts 3 --checkpoint sweep.ckpt fig6-*.kyoto
//   ./scenario_runner --hosts 3 --split-jobs DIR fig6-*.kyoto   # write shard files
//   ./scenario_runner --merge-results DIR fig6-*.kyoto          # merge them back
//
// Every scenario file is an independent job.  A multi-file invocation
// runs as a sharded sweep (sim::SweepRunner, one private hypervisor
// per lane) or — with --hosts — as a process farm (sim::Farm over N
// local hosts, each dispatch one `sweep_worker --jobs F --results G`
// process running a shard, with retries, host health and optional
// checkpoint/resume).  Reports print in argument order and are
// byte-identical under every executor at any lane or host count.
//
// Without an argument it writes a demonstration scenario next to the
// binary, prints it, and runs it — so the example is self-contained.
// The scenario language covers the machine (topology, scale, optional
// prefetcher/bus, LLC policy), the scheduler (all six variants and
// the three monitors) and arbitrarily many VMs.
#include <stdlib.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/farm.hpp"
#include "sim/scenario_file.hpp"
#include "sim/shard_splitter.hpp"
#include "sim/sweep_runner.hpp"

using namespace kyoto;

namespace {

constexpr const char* kUsage =
    "usage: scenario_runner [--lanes N | --hosts N] [--checkpoint FILE]\n"
    "                       [--split-jobs DIR] [--merge-results DIR]\n"
    "                       [scenario.kyoto ...]\n";

constexpr const char* kDemoScenario = R"(# Demonstration: a noisy streamer vs two paying tenants, KS4Xen,
# a punished VM is taken off the processor until its quota recovers
# (the Fig 5 timeline).
[machine]
topology = 1x4
scale = 64
llc_replacement = LRU

[scheduler]
kind = ks4xen
monitor = mcsim        # clean attribution via replay simulation

[vm web-tier]
app = gcc
cores = 0
llc_cap = 25
loop = true

[vm analytics]
app = omnetpp
cores = 2
llc_cap = 60
loop = true

[vm batch-noisy]
app = lbm
cores = 1
llc_cap = 25           # same permit as web-tier: it will be punished
loop = true

[run]
warmup_ticks = 6
measure_ticks = 90
)";

constexpr const char* kChurnDemoScenario = R"(# Demonstration: tenant churn — a static web tier shares the machine
# with a Poisson stream of short-lived batch tenants (arrivals and
# departures mid-run, admission-controlled).  Every arriving tenant
# books the same 25 miss/ms permit, so polluting arrivals are punished
# within a tick or two of admission.
[machine]
topology = 1x4
scale = 64

[scheduler]
kind = ks4xen
monitor = direct

[vm web-tier]
app = gcc
cores = 0
llc_cap = 40
loop = true

[churn]
trace = poisson        # or diurnal / bursty / file:events.trace
rate = 0.2             # arrivals per tick (Bernoulli probability)
mean_lifetime = 15     # geometric tenant lifetime, in ticks
horizon = 96
seed = 7
apps = lbm, mcf        # arrival i runs apps[i % n]
llc_cap = 25
loop = true
defer_queue = 4        # arrivals beyond free cores wait here

[run]
warmup_ticks = 6
measure_ticks = 90
)";

}  // namespace

int main(int argc, char** argv) {
  int lanes = ThreadPool::hardware_lanes();
  int hosts = 0;  // > 0 = farm over N local hosts
  std::string checkpoint;
  std::string split_dir;
  std::string merge_dir;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto int_value = [&](int* out) {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      try {
        *out = std::stoi(argv[++i]);
      } catch (const std::exception&) {
        std::cerr << arg << " needs an integer, got '" << argv[i] << "'\n";
        std::exit(2);
      }
    };
    auto string_value = [&](std::string* out) {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      *out = argv[++i];
    };
    if (arg == "--lanes") {
      int_value(&lanes);
    } else if (arg == "--hosts") {
      int_value(&hosts);
    } else if (arg == "--split-jobs") {
      string_value(&split_dir);
    } else if (arg == "--merge-results") {
      string_value(&merge_dir);
    } else if (arg == "--checkpoint") {
      string_value(&checkpoint);
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << kUsage
          << "\n"
             "  --lanes N       execution lanes for the in-process sharded sweep\n"
             "                  (default: host CPU count; values < 1 clamp to 1 =\n"
             "                  plain serial loop).\n"
             "  --hosts N       run the files as a process farm instead, over N\n"
             "                  local hosts with one balanced shard each: every\n"
             "                  dispatch is one `sweep_worker --jobs F --results G`\n"
             "                  process running a shard.  The farm finds the\n"
             "                  worker via $KYOTO_SWEEP_WORKER or next to this\n"
             "                  binary and degrades to in-process execution (same\n"
             "                  results) when neither exists.  Failed dispatches\n"
             "                  charge the host (a growing hold-back, retirement\n"
             "                  at six in a row) and are retried elsewhere; a job that\n"
             "                  keeps killing workers fails the run by name.\n"
             "                  Prints the farm report after the run.\n"
             "  --split-jobs DIR\n"
             "                  with --hosts N: do not run anything; split the\n"
             "                  files the farm's way (one balanced shard per host\n"
             "                  host0..), write each shard's job file into DIR\n"
             "                  plus manifest.kyfm (a farm checkpoint owning one\n"
             "                  result file per shard) and print, per shard, the\n"
             "                  worker command its host should run.  Ship each\n"
             "                  job file to its host, run the printed command,\n"
             "                  ship the result files back.\n"
             "  --merge-results DIR\n"
             "                  read DIR/manifest.kyfm with the farm's checkpoint\n"
             "                  reader, validate every owner's result file and,\n"
             "                  only if ALL of them check out, print the merged\n"
             "                  reports (submission order).  A missing/corrupt/\n"
             "                  foreign/incomplete shard is diagnosed per host\n"
             "                  and exits 1, as does a manifest that is not a\n"
             "                  split of exactly these files (the same scenario\n"
             "                  files must be passed again).\n"
             "  --checkpoint F  with --hosts: periodically checkpoint completed\n"
             "                  outcomes to F; re-running with the same\n"
             "                  scenario files after an interruption resumes\n"
             "                  instead of re-simulating.  Shard files live in\n"
             "                  F.shards/, and the checkpoint records which host\n"
             "                  owns each in-flight shard, so a resume first\n"
             "                  re-collects result files finished while the\n"
             "                  coordinator was down.\n"
             "\n"
             "Each scenario file runs on its own private hypervisor, so reports\n"
             "are byte-identical at any lane or host count and always print in\n"
             "argument order.\n"
             "\n"
             "Scenario file format: see the demo written when run with no\n"
             "arguments, and the scenario-file section of README.md.\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "scenario_runner: unknown option " << arg << '\n' << kUsage;
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (!checkpoint.empty() && hosts < 1) {
    std::cerr << "--checkpoint requires --hosts\n";
    return 2;
  }
  if (paths.empty()) {
    const std::string path = "demo_scenario.kyoto";
    std::ofstream(path) << kDemoScenario;
    const std::string churn_path = "demo_churn_scenario.kyoto";
    std::ofstream(churn_path) << kChurnDemoScenario;
    std::cout << "No scenario given; wrote and running the demo scenarios '" << path
              << "' and '" << churn_path << "':\n\n"
              << kDemoScenario << '\n'
              << kChurnDemoScenario << '\n';
    paths.push_back(path);
    paths.push_back(churn_path);
  }

  try {
    // Parse everything first (strict errors before any simulation),
    // then run the files as one batch and report in argument order.
    std::vector<sim::Scenario> scenarios;
    scenarios.reserve(paths.size());
    std::vector<sim::RunOutcome> outcomes;

    auto read_text = [](const std::string& path) {
      std::ifstream in(path);
      if (!in.good()) throw std::runtime_error("cannot open scenario file: " + path);
      return std::string((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    };
    // The multi-host modes all speak FarmJobs: id = argument position,
    // label = path, payload = the raw file text (the worker re-parses).
    auto build_jobs = [&]() {
      std::vector<sim::farm::FarmJob> jobs;
      jobs.reserve(paths.size());
      for (std::size_t i = 0; i < paths.size(); ++i) {
        std::string text = read_text(paths[i]);
        scenarios.push_back(sim::parse_scenario(text));
        sim::farm::FarmJob job;
        job.id = i;
        job.label = paths[i];
        job.scenario_text = std::move(text);
        jobs.push_back(std::move(job));
      }
      return jobs;
    };

    if (!split_dir.empty()) {
      if (hosts < 1) {
        std::cerr << "--split-jobs needs --hosts N (N >= 1)\n";
        return 2;
      }
      const std::vector<sim::farm::ShardOwner> owners =
          sim::write_split(split_dir, build_jobs(), hosts);
      std::cout << "Wrote " << owners.size() << " shard(s) + manifest.kyfm to " << split_dir
                << "\n\n";
      for (const sim::farm::ShardOwner& owner : owners) {
        std::cout << owner.host_id << ":  sweep_worker --jobs " << split_dir << '/'
                  << sim::farm::job_file_for(owner.result_file) << " --results " << split_dir
                  << '/' << owner.result_file << "   # " << owner.job_ids.size() << " job(s)\n";
      }
      std::cout << "\nShip each job file to its host, run the printed command there, ship\n"
                   "the result files back into "
                << split_dir << ", then:\n  scenario_runner --merge-results " << split_dir
                << " <the same scenario files>\n";
      return 0;
    }

    if (!merge_dir.empty()) {
      const std::vector<sim::farm::FarmJob> jobs = build_jobs();
      std::vector<sim::farm::ShardOwner> owners;
      try {
        owners = sim::read_split(merge_dir, jobs);
      } catch (const sim::farm::CodecError& e) {
        std::cerr << "error: cannot read manifest " << sim::manifest_path(merge_dir) << ": "
                  << e.what() << '\n';
        return 1;
      }
      // All or nothing: the owners cover every job once, so the
      // outcomes are complete exactly when every shard checks out.
      outcomes.resize(jobs.size());
      bool complete = true;
      std::ostringstream lines;
      for (const sim::farm::ShardOwner& owner : owners) {
        sim::ShardCollect c = sim::collect_shard(owner, merge_dir + "/" + owner.result_file);
        lines << "  host " << owner.host_id << " (" << owner.result_file
              << "): " << sim::shard_collect_state_name(c.state);
        if (c.state == sim::ShardCollect::State::kOk) lines << ", " << c.outcomes.size() << " job(s)";
        if (c.state == sim::ShardCollect::State::kDeterministic) {
          lines << " — job #" << c.failed_job << " '" << jobs[c.failed_job].label
                << "': " << c.detail;
        } else if (!c.detail.empty()) {
          lines << " — " << c.detail;
        }
        lines << '\n';
        complete = complete && c.state == sim::ShardCollect::State::kOk;
        for (sim::farm::FarmOutcome& o : c.outcomes) outcomes[o.id] = std::move(o.outcome);
      }
      std::cout << "merge " << (complete ? "complete" : "FAILED") << ": " << owners.size()
                << " shard(s)\n"
                << lines.str() << '\n';
      if (!complete) return 1;
    } else if (hosts > 0) {
      const std::string worker = sim::Farm::default_worker_path(argv[0]);
      sim::FarmOptions options;
      if (worker.empty()) {
        std::cout << "note: no sweep_worker found ($KYOTO_SWEEP_WORKER or next to this "
                     "binary); running in-process\n";
      } else {
        options.hosts = sim::local_workers(hosts, worker);
      }
      // Shard files live next to the checkpoint, so a resume finds the
      // result files its owner frames name; without a checkpoint they
      // go to a private temp dir, removed at exit.
      struct TempDir {
        std::string path;
        ~TempDir() {
          if (!path.empty()) std::filesystem::remove_all(path);
        }
      } temp_dir;
      if (!checkpoint.empty()) {
        options.work_dir = checkpoint + ".shards";
        if (::mkdir(options.work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
          std::cerr << "error: cannot create " << options.work_dir << ": "
                    << std::strerror(errno) << '\n';
          return 1;
        }
      } else {
        char work_template[] = "/tmp/scenario_runner_farm.XXXXXX";
        if (::mkdtemp(work_template) == nullptr) {
          std::cerr << "error: cannot create farm work dir: " << std::strerror(errno) << '\n';
          return 1;
        }
        options.work_dir = temp_dir.path = work_template;
      }
      options.checkpoint_path = checkpoint;
      sim::Farm farm(options);
      for (const sim::farm::FarmJob& job : build_jobs()) farm.add(job.scenario_text, job.label);
      std::cout << "Running " << paths.size() << " scenario(s) across " << hosts
                << " simulated host(s)...\n";
      outcomes = farm.run();
      std::cout << '\n' << farm.report() << '\n';
    } else {
      sim::SweepRunner sweep(lanes);
      for (const std::string& path : paths) {
        scenarios.push_back(sim::load_scenario_file(path));
        sweep.add(scenarios.back().spec, scenarios.back().plans, path);
      }
      if (paths.size() > 1) {
        std::cout << "Running " << paths.size() << " scenario(s) over " << sweep.lanes()
                  << " lane(s)...\n\n";
      }
      outcomes = sweep.run();
    }
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      std::cout << paths[i] << ": " << scenarios[i].plans.size() << " VM(s)"
                << (scenarios[i].spec.churn != nullptr ? " + churn" : "") << ", "
                << scenarios[i].spec.warmup_ticks << "+"
                << scenarios[i].spec.measure_ticks << " ticks\n\n"
                << sim::scenario_report(scenarios[i], outcomes[i]) << '\n';
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
