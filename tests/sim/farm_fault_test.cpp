// Farm fault-tolerance gate: every injected failure mode must end in
// one of exactly two states — the batch retries to the byte-identical
// result, or it fails with a diagnosable error naming the job.  Never
// a hang, never a silently missing or corrupted outcome.
//
// Faults are injected through sweep_worker's --fault-* flags (see
// examples/sweep_worker.cpp).  Every dispatch is one worker process
// running one shard, so "after N" faults fire on the Nth job of every
// shard the faulty host runs: the transient-fault model puts such a
// host beside a healthy one, which must absorb its jobs.  "On-label"
// faults follow the job to every host — the poisoned-job model, which
// must exhaust its bounded retries and fail the whole batch
// diagnosably.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/farm.hpp"
#include "sim/farm_codec.hpp"
#include "sim/scenario_file.hpp"
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

std::string tiny_scenario(const std::string& app, int measure_ticks, int seed) {
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

/// The tiny (one-socket) scenario with socket dedication as its
/// monitor: it parses, and fails when the monitor attaches.
std::string with_dedication_monitor(std::string text) {
  const std::string direct = "monitor = direct";
  text.replace(text.find(direct), direct.size(), "monitor = dedication");
  return text;
}

std::vector<std::pair<std::string, std::string>> small_batch() {
  std::vector<std::pair<std::string, std::string>> jobs;
  int seed = 10;
  for (const char* app : {"gcc", "mcf", "gcc", "mcf", "gcc", "mcf"}) {
    jobs.emplace_back("job" + std::to_string(seed), tiny_scenario(app, 5, seed));
    ++seed;
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

class FarmFault : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!worker_available()) GTEST_SKIP() << "sweep_worker not found at " << worker_path();
    // A work directory private to this test and process.
    dir_ = testing::TempDir() + "farm_fault_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
           std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    ::mkdir(dir_.c_str(), 0755);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Two hosts that both run `fault_args`, one job per dispatch.
  FarmOptions options(const std::vector<std::string>& fault_args) const {
    FarmOptions o;
    o.hosts = local_workers(2, worker_path(), fault_args);
    o.work_dir = dir_;
    o.jobs_per_shard = 1;
    return o;
  }

  /// A host running `fault_args` ("w0", dispatched first) beside a
  /// healthy one ("ok").
  FarmOptions faulty_and_healthy(const std::vector<std::string>& fault_args) const {
    FarmOptions o = options({});
    o.hosts = local_workers(1, worker_path(), fault_args);
    o.hosts.push_back(HostSpec{"ok", worker_path(), {}});
    return o;
  }

  /// The faulty host failed (it gets the first dispatch), never
  /// delivered, and so charged no job a retry; the healthy host did all
  /// the work.
  static void expect_absorbed(const Farm& farm, int jobs) {
    EXPECT_FALSE(farm.degraded());
    EXPECT_EQ(farm.jobs_executed(), jobs);
    EXPECT_GE(farm.host_failure_count(), 1);
    EXPECT_EQ(farm.health()->stats(0).shards_completed, 0);
    EXPECT_EQ(farm.job_retries(), 0);
    EXPECT_EQ(farm.health()->stats(1).state, HostState::kHealthy);
    EXPECT_EQ(farm.health()->stats(1).failures, 0);
  }

  std::vector<RunOutcome> run_jobs(Farm& farm,
                                   const std::vector<std::pair<std::string, std::string>>& jobs) {
    for (const auto& [label, text] : jobs) farm.add(text, label);
    return farm.run();
  }

  std::string dir_;
};

TEST_F(FarmFault, SigkillMidJobRetriesToIdenticalResult) {
  // The faulty host's worker finishes the first job of its two-job
  // shard, then is SIGKILLed on the second: the whole shard is lost
  // and re-runs on the healthy host, byte-identically.
  const auto jobs = small_batch();
  const std::vector<RunOutcome> expected = sweep_reference(jobs);
  FarmOptions o = faulty_and_healthy({"--fault-kill-after", "2"});
  o.jobs_per_shard = 2;
  Farm farm(o);
  const std::vector<RunOutcome> outcomes = run_jobs(farm, jobs);
  EXPECT_EQ(outcomes, expected);
  expect_absorbed(farm, static_cast<int>(jobs.size()));
  EXPECT_NE(farm.report().find("killed by signal 9"), std::string::npos) << farm.report();
}

TEST_F(FarmFault, GarbageFramesAreDetectedAndRetried) {
  // A worker answering with non-protocol bytes leaves a corrupt result
  // file: the dispatch fails, the host is charged and the job re-runs
  // elsewhere — and the final outcomes are still the reference bytes.
  const auto jobs = small_batch();
  const std::vector<RunOutcome> expected = sweep_reference(jobs);
  Farm farm(faulty_and_healthy({"--fault-garbage-after", "1"}));
  const std::vector<RunOutcome> outcomes = run_jobs(farm, jobs);
  EXPECT_EQ(outcomes, expected);
  expect_absorbed(farm, static_cast<int>(jobs.size()));
  EXPECT_NE(farm.report().find("corrupt result file"), std::string::npos) << farm.report();
}

TEST_F(FarmFault, TransientHangTimesOutAndRetries) {
  // A hang is invisible to exit detection; only the dispatch deadline
  // catches it.  Short timeout + tiny jobs: a healthy job finishes in
  // well under a second, so 2s of silence means hung.
  auto jobs = small_batch();
  jobs.resize(4);
  const std::vector<RunOutcome> expected = sweep_reference(jobs);
  FarmOptions o = faulty_and_healthy({"--fault-hang-after", "1"});
  o.timeout_s = 2.0;
  Farm farm(o);
  const std::vector<RunOutcome> outcomes = run_jobs(farm, jobs);
  EXPECT_EQ(outcomes, expected);
  expect_absorbed(farm, static_cast<int>(jobs.size()));
  EXPECT_NE(farm.report().find("hung"), std::string::npos) << farm.report();
}

TEST_F(FarmFault, DeadlineScalesWithShardSize) {
  // timeout_s is per job: a four-job shard may take four times as long.
  // The worker runs behind a wrapper that sleeps 1 s first, so the
  // shard takes longer than timeout_s while its jobs average well under
  // it; no dispatch may be declared hung.
  auto jobs = small_batch();
  jobs.resize(4);
  const std::vector<RunOutcome> expected = sweep_reference(jobs);
  const std::string wrapper = dir_ + "/slow_worker.sh";
  {
    std::ofstream out(wrapper);
    out << "#!/bin/sh\nsleep 1\nexec '" << std::filesystem::absolute(worker_path()).string()
        << "' \"$@\"\n";
  }
  ::chmod(wrapper.c_str(), 0755);
  FarmOptions o = options({});
  o.hosts = {HostSpec{"slow", wrapper, {}}};
  o.jobs_per_shard = 4;
  o.timeout_s = 0.6;
  Farm farm(o);
  const std::vector<RunOutcome> outcomes = run_jobs(farm, jobs);
  EXPECT_EQ(outcomes, expected);
  EXPECT_FALSE(farm.degraded());
  EXPECT_EQ(farm.host_failure_count(), 0) << farm.report();
  EXPECT_EQ(farm.jobs_executed(), 4);
  EXPECT_EQ(farm.health()->stats(0).shards_completed, 1);
}

TEST_F(FarmFault, PoisonedJobExhaustsRetriesDiagnosably) {
  // The poisoned job kills every worker that touches it; after
  // max_retries + 1 attempts the batch must fail with an error that
  // names the job — the operator can find and drop it.
  auto jobs = small_batch();
  jobs[3].first = "poisoned-job";
  FarmOptions o = options({"--fault-kill-on-label", "poisoned-job"});
  o.max_retries = 1;
  Farm farm(o);
  try {
    run_jobs(farm, jobs);
    FAIL() << "expected the poisoned job to fail the batch";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("poisoned-job"), std::string::npos) << what;
    EXPECT_NE(what.find("attempt"), std::string::npos) << what;
  }
}

TEST_F(FarmFault, PoisonedHangExhaustsRetriesDiagnosably) {
  auto jobs = small_batch();
  jobs.resize(3);
  jobs[1].first = "poisoned-hang";
  FarmOptions o = options({"--fault-hang-on-label", "poisoned-hang"});
  o.max_retries = 1;
  o.timeout_s = 1.0;
  Farm farm(o);
  try {
    run_jobs(farm, jobs);
    FAIL() << "expected the hanging job to fail the batch";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("poisoned-hang"), std::string::npos) << what;
    EXPECT_NE(what.find("hung"), std::string::npos) << what;
  }
}

TEST_F(FarmFault, WorkerErrorFrameFailsBatchImmediately) {
  // An error frame is a *deterministic* failure (e.g. a scenario the
  // simulator rejects): retrying would fail identically, so the batch
  // fails at once, without burning retries.
  auto jobs = small_batch();
  jobs[2].first = "deterministic-failure";
  Farm farm(options({"--fault-error-on-label", "deterministic-failure"}));
  try {
    run_jobs(farm, jobs);
    FAIL() << "expected the error frame to fail the batch";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deterministic-failure"), std::string::npos) << what;
    EXPECT_NE(what.find("injected"), std::string::npos) << what;
  }
  EXPECT_EQ(farm.job_retries(), 0);
}

TEST_F(FarmFault, BatchFailureStopsInFlightDispatchesFirst) {
  // Two balanced shards: w0's first job is poisoned and fails at once,
  // while w1's shard of two longer jobs is still running.  The batch
  // failure must stop w1's worker and remove its files before writing
  // the last checkpoint, which then owns no dispatch.
  auto jobs = small_batch();
  jobs.resize(4);
  jobs[0].first = "deterministic-failure";
  for (std::size_t j = 2; j < 4; ++j) jobs[j].second = tiny_scenario("mcf", 5000, 40 + static_cast<int>(j));
  FarmOptions o = options({"--fault-error-on-label", "deterministic-failure"});
  o.jobs_per_shard = 0;
  o.checkpoint_path = dir_ + "/farm.ckpt";
  Farm farm(o);
  EXPECT_THROW(run_jobs(farm, jobs), std::runtime_error);
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().filename().string().rfind("shard", 0), 0u)
        << "left behind: " << entry.path();
  }
  for (const farm::Frame& frame : farm::read_frame_file(o.checkpoint_path)) {
    EXPECT_NE(frame.type, farm::FrameType::kShardOwner);
  }
  EXPECT_EQ(farm.dispatches(), 2);
}

TEST_F(FarmFault, RealDeterministicFailureNamesTheScenarioProblem) {
  // Not injected: a scenario that parses but fails inside the
  // simulator (socket dedication on a one-socket machine, rejected
  // when the monitor attaches) must come back as the simulator's own
  // diagnostic, carried through the error frame.
  auto jobs = small_batch();
  jobs.resize(2);
  jobs[1] = {"one-socket-dedication", with_dedication_monitor(jobs[1].second)};
  Farm farm(options({}));
  try {
    run_jobs(farm, jobs);
    FAIL() << "expected socket dedication on one socket to fail the batch";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("one-socket-dedication"), std::string::npos) << what;
    EXPECT_NE(what.find("multi-socket"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace kyoto::sim
