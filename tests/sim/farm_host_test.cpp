// Multi-host farm gate: the full fault drill.  A batch split across
// simulated hosts — killed workers, corrupt result files, hangs,
// garbage — must converge, via each host's back-off ladder
// (hold-backs, then retirement) and shard redistribution, to outcomes
// byte-identical to the in-process SweepRunner; when every host is out
// it must degrade to in-process execution, never hang or drop work.
// Owner-aware checkpoints must let a resumed coordinator *re-collect*
// shards that finished while it was down instead of re-running them
// (the attempt counters prove which happened).
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/farm_codec.hpp"
#include "sim/farm.hpp"
#include "sim/scenario_file.hpp"
#include "sim/shard_splitter.hpp"
#include "sim/sweep_runner.hpp"

namespace kyoto::sim {
namespace {

std::string worker_path() {
  if (const char* env = std::getenv("KYOTO_SWEEP_WORKER"); env != nullptr && env[0] != '\0') {
    return env;
  }
  return "./sweep_worker";
}

bool worker_available() { return ::access(worker_path().c_str(), X_OK) == 0; }

std::string tiny_scenario(const std::string& app, int seed) {
  return
      "[machine]\n"
      "topology = 1x2\n"
      "scale = 64\n"
      "\n"
      "[scheduler]\n"
      "kind = ks4xen\n"
      "monitor = direct\n"
      "\n"
      "[vm tenant]\n"
      "app = " + app + "\n"
      "cores = 0\n"
      "llc_cap = 30\n"
      "loop = true\n"
      "\n"
      "[run]\n"
      "warmup_ticks = 1\n"
      "measure_ticks = 4\n"
      "seed = " + std::to_string(seed) + "\n";
}

std::vector<std::pair<std::string, std::string>> small_batch(int n) {
  const char* apps[] = {"gcc", "mcf", "omnetpp"};
  std::vector<std::pair<std::string, std::string>> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.emplace_back("job" + std::to_string(i), tiny_scenario(apps[i % 3], 30 + i));
  }
  return jobs;
}

std::vector<RunOutcome> sweep_reference(
    const std::vector<std::pair<std::string, std::string>>& jobs) {
  SweepRunner sweep(2);
  for (const auto& [label, text] : jobs) {
    const Scenario scenario = parse_scenario(text);
    sweep.add(scenario.spec, scenario.plans, label);
  }
  return sweep.run();
}

/// A fresh work directory private to this test and process (ctest may
/// run the farm suites concurrently).
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);  // checkpoints/results from a previous run
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

FarmOptions base_options(const std::string& work_dir) {
  FarmOptions options;
  options.work_dir = work_dir;
  options.jobs_per_shard = 1;  // fine-grained redistribution
  options.backoff.base_s = 0.02;
  options.timeout_s = 5.0;
  return options;
}

/// No dispatch's or owner's shard file is left in `dir`.
void expect_no_shard_files(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().filename().string().rfind("shard", 0), 0u)
        << "left behind: " << entry.path();
  }
}

void expect_identical(const std::vector<RunOutcome>& outcomes,
                      const std::vector<RunOutcome>& reference) {
  ASSERT_EQ(outcomes.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(outcomes[i], reference[i]) << "job " << i;
  }
}

TEST(FarmFileHosts, CleanHostsMatchSweepByteForByte) {
  if (!worker_available()) GTEST_SKIP() << "sweep_worker binary not found";
  const auto jobs = small_batch(6);
  FarmOptions options = base_options(fresh_dir("hostfarm_clean"));
  options.jobs_per_shard = 0;  // one balanced shard per host
  for (const char* id : {"h0", "h1", "h2"}) {
    options.hosts.push_back(HostSpec{id, worker_path(), {}});
  }
  Farm farm(options);
  for (const auto& [label, text] : jobs) farm.add(text, label);
  const std::vector<RunOutcome> outcomes = farm.run();
  expect_identical(outcomes, sweep_reference(jobs));
  EXPECT_EQ(farm.jobs_executed(), 6);
  EXPECT_EQ(farm.dispatches(), 3);
  EXPECT_EQ(farm.host_failure_count(), 0);
  EXPECT_FALSE(farm.degraded());
  for (int h = 0; h < 3; ++h) {
    EXPECT_EQ(farm.health()->stats(h).state, HostState::kHealthy);
  }
}

// The acceptance drill: one host killed mid-shard, one emitting
// corrupt result files, one hung past its budget, one healthy.  The
// batch must converge through hold-backs + redistribution.
TEST(FarmFileHosts, FaultDrillConvergesByteIdentical) {
  if (!worker_available()) GTEST_SKIP() << "sweep_worker binary not found";
  const auto jobs = small_batch(6);
  const std::string dir = fresh_dir("hostfarm_drill");
  FarmOptions options = base_options(dir);
  options.timeout_s = 1.0;  // the hung host must burn out quickly
  options.hosts.push_back(HostSpec{"h-kill", worker_path(), {"--fault-kill-after", "1"}});
  options.hosts.push_back(HostSpec{
      "h-corrupt", worker_path(), {"--fault-corrupt-results", "bitflip"}});
  options.hosts.push_back(HostSpec{"h-hang", worker_path(), {"--fault-hang-after", "1"}});
  options.hosts.push_back(HostSpec{"h-ok", worker_path(), {}});
  Farm farm(options);
  for (const auto& [label, text] : jobs) farm.add(text, label);
  const std::vector<RunOutcome> outcomes = farm.run();
  expect_identical(outcomes, sweep_reference(jobs));

  // Every job landed, none in-process: the healthy host absorbed the
  // redistributed shards.
  EXPECT_EQ(farm.jobs_executed(), 6);
  EXPECT_EQ(farm.jobs_in_process(), 0);
  EXPECT_FALSE(farm.degraded());
  EXPECT_GE(farm.host_failure_count(), 3);  // each faulty host failed at least once
  EXPECT_GT(farm.dispatches(), 6);      // failures forced re-dispatches
  EXPECT_EQ(farm.health()->stats(3).state, HostState::kHealthy);  // h-ok
  // The ladder: a host is retired exactly when it reached
  // kRetireAfterFailures consecutive failures.
  for (const HostStats& h : farm.health()->all_stats()) {
    EXPECT_EQ(h.state == HostState::kRetired, h.consecutive_failures == kRetireAfterFailures)
        << h.id;
  }

  const std::string report = farm.report();
  EXPECT_NE(report.find("h-kill failure: "), std::string::npos);
  EXPECT_NE(report.find("; held back "), std::string::npos);  // a failure's hold-back
  EXPECT_NE(report.find("redistribute"), std::string::npos);
  EXPECT_NE(report.find("h-corrupt"), std::string::npos);
  EXPECT_NE(report.find("corrupt result file"), std::string::npos);

  // Every dispatch ended, failed or not, so no shard file is left.
  expect_no_shard_files(dir);
}

TEST(FarmFileHosts, AllHostsOutDegradesToInProcess) {
  if (!worker_available()) GTEST_SKIP() << "sweep_worker binary not found";
  const auto jobs = small_batch(4);
  FarmOptions options = base_options(fresh_dir("hostfarm_degrade"));
  options.hosts.push_back(HostSpec{"d0", worker_path(), {"--fault-kill-after", "1"}});
  options.hosts.push_back(HostSpec{"d1", worker_path(), {"--fault-kill-after", "1"}});
  Farm farm(options);
  for (const auto& [label, text] : jobs) farm.add(text, label);
  const std::vector<RunOutcome> outcomes = farm.run();
  expect_identical(outcomes, sweep_reference(jobs));
  EXPECT_TRUE(farm.degraded());
  EXPECT_EQ(farm.jobs_executed(), 0);
  EXPECT_EQ(farm.jobs_in_process(), 4);
  EXPECT_TRUE(farm.health()->all_retired());
  // Each host climbed the whole ladder: held back after failures 1-5,
  // retired at the sixth, never dispatched again.
  EXPECT_EQ(farm.dispatches(), 2 * kRetireAfterFailures);
  EXPECT_EQ(farm.host_failure_count(), 2 * kRetireAfterFailures);
  const std::string report = farm.report();
  EXPECT_NE(report.find("d0 retire: 6 consecutive failures"), std::string::npos) << report;
  EXPECT_NE(report.find("d1 retire: 6 consecutive failures"), std::string::npos) << report;
  EXPECT_NE(report.find("; held back "), std::string::npos) << report;
  EXPECT_NE(report.find("degrade"), std::string::npos);
}

// Randomized (but seeded) fault schedules: any mix of kill / corrupt
// / garbage / healthy hosts must still produce byte-identical
// outcomes — possibly via full degradation when every host is bad.
TEST(FarmFileHosts, RandomizedFaultSchedulesStayByteIdentical) {
  if (!worker_available()) GTEST_SKIP() << "sweep_worker binary not found";
  const auto jobs = small_batch(5);
  const std::vector<RunOutcome> reference = sweep_reference(jobs);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    FarmOptions options =
        base_options(fresh_dir("hostfarm_rand" + std::to_string(seed)));
    for (int h = 0; h < 3; ++h) {
      std::vector<std::string> args;
      switch (mix64(seed * 1000 + static_cast<std::uint64_t>(h)) % 4) {
        case 0: break;  // healthy
        case 1: args = {"--fault-kill-after", "1"}; break;
        case 2: args = {"--fault-corrupt-results", "truncate"}; break;
        case 3: args = {"--fault-garbage-after", "1"}; break;
      }
      options.hosts.push_back(HostSpec{"r" + std::to_string(h), worker_path(), std::move(args)});
    }
    Farm farm(options);
    for (const auto& [label, text] : jobs) farm.add(text, label);
    const std::vector<RunOutcome> outcomes = farm.run();
    expect_identical(outcomes, reference);
    EXPECT_EQ(farm.jobs_executed() + farm.jobs_in_process(), 5) << "seed " << seed;
  }
}

TEST(FarmFileHosts, DeterministicJobFailureNamesTheJobNotTheHost) {
  if (!worker_available()) GTEST_SKIP() << "sweep_worker binary not found";
  const auto jobs = small_batch(3);
  FarmOptions options = base_options(fresh_dir("hostfarm_poison"));
  options.hosts.push_back(HostSpec{"p0", worker_path(), {"--fault-error-on-label", "job1"}});
  Farm farm(options);
  for (const auto& [label, text] : jobs) farm.add(text, label);
  try {
    farm.run();
    FAIL() << "poisoned job should fail the batch";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job1"), std::string::npos) << what;
    EXPECT_NE(what.find("injected deterministic failure"), std::string::npos) << what;
  }
  // The host was never charged: this is a job fault, not a host fault.
  EXPECT_EQ(farm.health()->stats(0).state, HostState::kHealthy);
}

// Hand-built owner-aware resume: a checkpoint records two finished
// jobs and one outstanding shard owned by a (now gone) host whose
// result file exists.  The resume must restore 2, re-collect 2, and
// dispatch nothing.
TEST(FarmFileHosts, ResumeRecollectsOwnedShardsWithoutRerunning) {
  if (!worker_available()) GTEST_SKIP() << "sweep_worker binary not found";
  const auto jobs = small_batch(4);
  const std::vector<RunOutcome> reference = sweep_reference(jobs);
  const std::string dir = fresh_dir("hostfarm_recollect");
  const std::string checkpoint = dir + "/farm.ckpt";

  // The exact FarmJob batch a Farm would build from add() calls.
  std::vector<farm::FarmJob> farm_jobs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    farm::FarmJob job;
    job.id = i;
    job.label = jobs[i].first;
    job.scenario_text = jobs[i].second;
    farm_jobs.push_back(std::move(job));
  }

  {  // checkpoint: header + outcomes {0,1} + owner frame for {2,3}
    std::string bytes = farm::encode_frame(
        farm::FrameType::kCheckpointHeader,
        farm::encode_checkpoint_header({farm::batch_fingerprint(farm_jobs), farm_jobs.size()}));
    for (const std::size_t i : {0u, 1u}) {
      bytes += farm::encode_frame(farm::FrameType::kOutcome,
                                  farm::encode_outcome(i, reference[i]));
    }
    const farm::ShardOwner owner{"gone-host", "owned.results.kyfm", {2, 3}};
    bytes += farm::encode_frame(farm::FrameType::kShardOwner, farm::encode_shard_owner(owner));
    std::ofstream out(checkpoint, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  {  // the orphaned host's finished result file
    std::vector<farm::FarmOutcome> results(2);
    results[0].id = 2;
    results[0].outcome = reference[2];
    results[1].id = 3;
    results[1].outcome = reference[3];
    farm::write_result_file(dir + "/owned.results.kyfm", results);
  }

  FarmOptions options = base_options(dir);
  options.checkpoint_path = checkpoint;
  options.hosts.push_back(HostSpec{"h0", worker_path(), {}});
  Farm farm(options);
  for (const auto& [label, text] : jobs) farm.add(text, label);
  const std::vector<RunOutcome> outcomes = farm.run();
  expect_identical(outcomes, reference);
  EXPECT_EQ(farm.jobs_restored(), 2);
  EXPECT_EQ(farm.jobs_recollected(), 2);
  EXPECT_EQ(farm.jobs_executed(), 0);   // nothing re-ran
  EXPECT_EQ(farm.dispatches(), 0);  // nothing was even dispatched
  EXPECT_NE(farm.report().find("recollect"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(dir + "/owned.results.kyfm"));
}

// End-to-end orphan drill: the coordinator aborts mid-batch leaving
// its workers alive; they finish their result files; the resumed
// coordinator re-collects whatever they completed and re-runs only
// the rest.
TEST(FarmFileHosts, InterruptWithOrphansResumesViaRecollect) {
  if (!worker_available()) GTEST_SKIP() << "sweep_worker binary not found";
  const auto jobs = small_batch(4);
  const std::vector<RunOutcome> reference = sweep_reference(jobs);
  const std::string dir = fresh_dir("hostfarm_orphan");
  const std::string checkpoint = dir + "/farm.ckpt";

  FarmOptions options = base_options(dir);
  options.checkpoint_path = checkpoint;
  options.abort_after_completed = 1;
  options.orphan_on_abort = true;
  options.hosts.push_back(HostSpec{"h0", worker_path(), {}});
  options.hosts.push_back(HostSpec{"h1", worker_path(), {}});
  {
    Farm farm(options);
    for (const auto& [label, text] : jobs) farm.add(text, label);
    EXPECT_THROW(farm.run(), FarmInterrupted);
  }

  // Read the owner frames out of the interrupt checkpoint, then wait
  // for the orphaned workers to finish those result files.
  std::vector<farm::ShardOwner> owners;
  int restored_in_checkpoint = 0;
  for (const farm::Frame& frame : farm::read_frame_file(checkpoint)) {
    if (frame.type == farm::FrameType::kShardOwner) {
      owners.push_back(farm::decode_shard_owner(frame.payload));
    } else if (frame.type == farm::FrameType::kOutcome) {
      ++restored_in_checkpoint;
    }
  }
  EXPECT_GE(restored_in_checkpoint, 1);
  int owned_jobs = 0;
  for (const farm::ShardOwner& owner : owners) {
    owned_jobs += static_cast<int>(owner.job_ids.size());
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (collect_shard(owner, dir + "/" + owner.result_file).state !=
           ShardCollect::State::kOk) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "orphaned worker never finished " << owner.result_file;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  options.abort_after_completed = -1;
  options.orphan_on_abort = false;
  Farm resumed(options);
  for (const auto& [label, text] : jobs) resumed.add(text, label);
  const std::vector<RunOutcome> outcomes = resumed.run();
  expect_identical(outcomes, reference);
  // Completed work was restored, orphan-owned work was re-collected
  // (not re-run), and only the remainder was dispatched.
  EXPECT_EQ(resumed.jobs_restored(), restored_in_checkpoint);
  EXPECT_EQ(resumed.jobs_recollected(), owned_jobs);
  EXPECT_EQ(resumed.jobs_executed(), 4 - restored_in_checkpoint - owned_jobs);
  // The re-collected owners' files went with them.
  expect_no_shard_files(dir);
}

TEST(FarmFileHosts, ForeignOrCorruptCheckpointRestartsCleanly) {
  if (!worker_available()) GTEST_SKIP() << "sweep_worker binary not found";
  const auto jobs = small_batch(2);
  const std::string dir = fresh_dir("hostfarm_badckpt");
  const std::string checkpoint = dir + "/farm.ckpt";
  {
    std::ofstream out(checkpoint, std::ios::binary);
    out << "not a checkpoint at all";
  }
  FarmOptions options = base_options(dir);
  options.checkpoint_path = checkpoint;
  options.hosts.push_back(HostSpec{"h0", worker_path(), {}});
  Farm farm(options);
  for (const auto& [label, text] : jobs) farm.add(text, label);
  const std::vector<RunOutcome> outcomes = farm.run();
  expect_identical(outcomes, sweep_reference(jobs));
  EXPECT_EQ(farm.jobs_restored(), 0);
  EXPECT_EQ(farm.jobs_executed(), 2);
  EXPECT_NE(farm.report().find("restart"), std::string::npos);
}

}  // namespace
}  // namespace kyoto::sim
