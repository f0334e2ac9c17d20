// Farm acceptance gate over local worker hosts: process-farm execution
// must be *byte-identical* to the in-process SweepRunner — same
// RunOutcomes, same submission order — at every worker count, through
// the in-process degradation path, and across a checkpoint
// interrupt/resume split.
// Exact equality by design; never weaken to tolerances.
// (Fault-injection coverage lives in farm_fault_test.cpp.)
#include "sim/farm.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/farm_codec.hpp"
#include "sim/scenario_file.hpp"
#include "sim/sweep_runner.hpp"

namespace kyoto::sim {
namespace {

/// The worker binary under test: ctest exports KYOTO_SWEEP_WORKER
/// (see CMakeLists.txt); a sibling-path fallback keeps manual runs
/// from the build directory working.
std::string worker_path() {
  if (const char* env = std::getenv("KYOTO_SWEEP_WORKER"); env != nullptr && env[0] != '\0') {
    return env;
  }
  return "./sweep_worker";
}

bool worker_available() { return ::access(worker_path().c_str(), X_OK) == 0; }

/// Smallest interesting scenario: two VMs contending on a 1x2 machine
/// under KS4Xen, a handful of ticks.  Parameterized so a batch of
/// them exercises distinct simulations.
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

std::vector<std::pair<std::string, std::string>> batch_jobs() {
  std::vector<std::pair<std::string, std::string>> jobs;
  int seed = 1;
  for (const char* app : {"gcc", "mcf", "omnetpp"}) {
    for (const int ticks : {5, 7}) {
      jobs.emplace_back(std::string(app) + "/" + std::to_string(ticks),
                        tiny_scenario(app, ticks, seed++));
    }
  }
  return jobs;
}

/// The oracle: the same jobs through the in-process SweepRunner.
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
/// run the farm suites concurrently); removed on destruction.
struct WorkDir {
  std::string path;
  explicit WorkDir(const std::string& name)
      : path(testing::TempDir() + "farm_runner_" + name + "_" + std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
    ::mkdir(path.c_str(), 0755);
  }
  ~WorkDir() { std::filesystem::remove_all(path); }
};

TEST(FarmLocalHosts, MatchesSweepRunnerAtEveryWorkerCount) {
  if (!worker_available()) GTEST_SKIP() << "sweep_worker not found at " << worker_path();
  const auto jobs = batch_jobs();
  const std::vector<RunOutcome> expected = sweep_reference(jobs);
  const WorkDir dir("workers");
  for (const int workers : {1, 2, 4}) {
    FarmOptions options;
    options.hosts = local_workers(workers, worker_path());
    options.work_dir = dir.path;
    options.jobs_per_shard = 1;
    Farm farm(options);
    for (const auto& [label, text] : jobs) farm.add(text, label);
    const std::vector<RunOutcome> outcomes = farm.run();
    EXPECT_EQ(outcomes, expected) << "workers=" << workers;
    EXPECT_FALSE(farm.degraded()) << "workers=" << workers;
    EXPECT_EQ(farm.jobs_executed(), static_cast<int>(jobs.size()));
    EXPECT_EQ(farm.dispatches(), static_cast<int>(jobs.size()));
    EXPECT_EQ(farm.host_failure_count(), 0);
    EXPECT_EQ(farm.job_retries(), 0);
  }
}

TEST(FarmLocalHosts, InProcessFallbackMatches) {
  // No hosts is the explicit "no distribution" form; the outcomes must
  // be the same bytes.
  const auto jobs = batch_jobs();
  const std::vector<RunOutcome> expected = sweep_reference(jobs);
  Farm farm(FarmOptions{});
  for (const auto& [label, text] : jobs) farm.add(text, label);
  EXPECT_EQ(farm.pending(), jobs.size());
  const std::vector<RunOutcome> outcomes = farm.run();
  EXPECT_EQ(outcomes, expected);
  EXPECT_TRUE(farm.degraded());
  EXPECT_EQ(farm.pending(), 0u);  // batch cleared on success
}

TEST(FarmLocalHosts, MissingWorkerBinaryDegradesGracefully) {
  const auto jobs = batch_jobs();
  const std::vector<RunOutcome> expected = sweep_reference(jobs);
  const WorkDir dir("missing_worker");
  FarmOptions options;
  options.hosts = local_workers(3, "/nonexistent/path/to/sweep_worker");
  options.work_dir = dir.path;
  Farm farm(options);
  for (const auto& [label, text] : jobs) farm.add(text, label);
  const std::vector<RunOutcome> outcomes = farm.run();
  EXPECT_EQ(outcomes, expected);
  EXPECT_TRUE(farm.degraded());
  EXPECT_FALSE(farm.degrade_reason().empty());
  // The binary is checked before the first dispatch: every host is
  // retired at once, naming the path, instead of climbing the ladder.
  EXPECT_EQ(farm.dispatches(), 0);
  EXPECT_EQ(farm.host_failure_count(), 0);
  EXPECT_TRUE(farm.health()->all_retired());
  const std::string report = farm.report();
  EXPECT_NE(report.find("w0 retire: worker '/nonexistent/path/to/sweep_worker' cannot be "
                        "executed"),
            std::string::npos)
      << report;
  EXPECT_TRUE(std::filesystem::is_empty(dir.path)) << "no dispatch leaves no shard files";
}

TEST(FarmLocalHosts, AddRejectsMalformedScenarios) {
  Farm farm(FarmOptions{});
  EXPECT_THROW(farm.add("this is not a scenario"), std::exception);
  EXPECT_THROW(farm.add("[machine]\ntopology = 1x2\n"), std::exception);  // no [vm]
  EXPECT_EQ(farm.pending(), 0u);
}

/// Each test's farms share one private work directory, which also
/// holds the checkpoint.
class FarmCheckpoint : public ::testing::Test {
 protected:
  void use_dir(const std::string& name) {
    dir_ = std::make_unique<WorkDir>(name);
    ckpt_ = dir_->path + "/farm.ckpt";
  }

  FarmOptions options() const {
    FarmOptions o;
    o.work_dir = dir_->path;
    o.checkpoint_path = ckpt_;
    return o;
  }

  std::unique_ptr<WorkDir> dir_;
  std::string ckpt_;
};

TEST_F(FarmCheckpoint, InterruptAndResumeIsExact) {
  use_dir("resume");
  const auto jobs = batch_jobs();
  const int total = static_cast<int>(jobs.size());
  const std::vector<RunOutcome> expected = sweep_reference(jobs);

  // Phase 1: interrupt after K of N completed jobs (the test knob
  // flushes a checkpoint before throwing, like a SIGTERM handler
  // would).  In-process execution keeps completion order — and thus
  // K's identity — deterministic.
  constexpr int kInterruptAfter = 3;
  FarmOptions interrupted = options();
  interrupted.checkpoint_every = 1;
  interrupted.abort_after_completed = kInterruptAfter;
  {
    Farm farm(interrupted);
    for (const auto& [label, text] : jobs) farm.add(text, label);
    try {
      farm.run();
      FAIL() << "expected FarmInterrupted";
    } catch (const FarmInterrupted& e) {
      EXPECT_EQ(e.completed(), kInterruptAfter);
    }
  }

  // Phase 2: a fresh runner with the same batch resumes — exactly
  // N - K jobs simulate, the rest restore, and the merged result is
  // the uninterrupted result, byte for byte.
  const FarmOptions resumed = options();
  Farm farm(resumed);
  for (const auto& [label, text] : jobs) farm.add(text, label);
  const std::vector<RunOutcome> outcomes = farm.run();
  EXPECT_EQ(outcomes, expected);
  EXPECT_EQ(farm.jobs_restored(), kInterruptAfter);
  EXPECT_EQ(farm.jobs_in_process(), total - kInterruptAfter);

  // Phase 3: the post-success checkpoint is complete — a third run
  // restores everything and simulates nothing.
  Farm again(resumed);
  for (const auto& [label, text] : jobs) again.add(text, label);
  EXPECT_EQ(again.run(), expected);
  EXPECT_EQ(again.jobs_restored(), total);
  EXPECT_EQ(again.jobs_in_process(), 0);
}

TEST_F(FarmCheckpoint, WorkerResumeIsExact) {
  if (!worker_available()) GTEST_SKIP() << "sweep_worker not found at " << worker_path();
  use_dir("worker_resume");
  const auto jobs = batch_jobs();
  const std::vector<RunOutcome> expected = sweep_reference(jobs);

  FarmOptions interrupted = options();
  interrupted.hosts = local_workers(2, worker_path());
  interrupted.jobs_per_shard = 1;
  interrupted.checkpoint_every = 1;
  interrupted.abort_after_completed = 2;
  {
    Farm farm(interrupted);
    for (const auto& [label, text] : jobs) farm.add(text, label);
    EXPECT_THROW(farm.run(), FarmInterrupted);
  }
  // The interrupt stopped the worker still in flight and removed its
  // files before the last checkpoint, which therefore owns nothing.
  for (const farm::Frame& frame : farm::read_frame_file(ckpt_)) {
    EXPECT_NE(frame.type, farm::FrameType::kShardOwner);
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir_->path)) {
    EXPECT_NE(entry.path().filename().string().rfind("shard", 0), 0u) << entry.path();
  }

  FarmOptions resumed = interrupted;
  resumed.abort_after_completed = -1;
  Farm farm(resumed);
  for (const auto& [label, text] : jobs) farm.add(text, label);
  EXPECT_EQ(farm.run(), expected);
  // With 2 workers the interrupt point is nondeterministic in *which*
  // jobs finished, but the split must still account for every job
  // exactly once.
  EXPECT_GE(farm.jobs_restored(), 2);
  EXPECT_EQ(farm.jobs_recollected(), 0);
  EXPECT_EQ(farm.jobs_restored() + farm.jobs_executed(), static_cast<int>(jobs.size()));
}

TEST_F(FarmCheckpoint, InterruptStopsInFlightDispatchesFirst) {
  // One short and one long job on two hosts: the interrupt comes when
  // the short one completes, with the long one's dispatch in flight.
  // That worker is stopped and its files removed before the last
  // checkpoint, which owns nothing; the resume runs the long job again.
  if (!worker_available()) GTEST_SKIP() << "sweep_worker not found at " << worker_path();
  use_dir("interrupt_in_flight");
  const std::vector<std::pair<std::string, std::string>> jobs = {
      {"short", tiny_scenario("gcc", 5, 1)}, {"long", tiny_scenario("mcf", 5000, 2)}};
  FarmOptions interrupted = options();
  interrupted.hosts = local_workers(2, worker_path());
  interrupted.jobs_per_shard = 1;
  interrupted.abort_after_completed = 1;
  {
    Farm farm(interrupted);
    for (const auto& [label, text] : jobs) farm.add(text, label);
    EXPECT_THROW(farm.run(), FarmInterrupted);
  }
  for (const farm::Frame& frame : farm::read_frame_file(ckpt_)) {
    EXPECT_NE(frame.type, farm::FrameType::kShardOwner);
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir_->path)) {
    EXPECT_NE(entry.path().filename().string().rfind("shard", 0), 0u) << entry.path();
  }

  FarmOptions resumed = interrupted;
  resumed.abort_after_completed = -1;
  Farm farm(resumed);
  for (const auto& [label, text] : jobs) farm.add(text, label);
  EXPECT_EQ(farm.run(), sweep_reference(jobs));
  EXPECT_EQ(farm.jobs_restored(), 1);
  EXPECT_EQ(farm.jobs_executed(), 1);
}

TEST_F(FarmCheckpoint, InProcessFailureNamesTheJobAndKeepsFinishedWork) {
  // A job the simulator rejects (socket dedication on a one-socket
  // machine, which parses but fails when the monitor attaches) on the
  // in-process path: the error names the job, and the jobs finished
  // before it are checkpointed first, so the next run restores them
  // instead of simulating them again.
  use_dir("inproc_failure");
  auto jobs = batch_jobs();
  jobs.resize(3);
  std::string dedication = jobs[2].second;
  const std::string direct = "monitor = direct";
  dedication.replace(dedication.find(direct), direct.size(), "monitor = dedication");
  jobs[2] = {"one-socket-dedication", dedication};
  const std::vector<RunOutcome> expected =
      sweep_reference({jobs.begin(), jobs.begin() + 2});

  for (const int attempt : {0, 1}) {
    Farm farm(options());
    for (const auto& [label, text] : jobs) farm.add(text, label);
    try {
      farm.run();
      FAIL() << "expected socket dedication on one socket to fail the batch";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("one-socket-dedication"), std::string::npos) << what;
      EXPECT_NE(what.find("multi-socket"), std::string::npos) << what;
    }
    EXPECT_EQ(farm.jobs_restored(), attempt == 0 ? 0 : 2) << "attempt " << attempt;
    EXPECT_EQ(farm.jobs_in_process(), attempt == 0 ? 2 : 0) << "attempt " << attempt;
  }

  // The checkpoint holds exactly the two finished outcomes.
  std::vector<RunOutcome> saved(2);
  int outcome_frames = 0;
  for (const farm::Frame& frame : farm::read_frame_file(ckpt_)) {
    if (frame.type != farm::FrameType::kOutcome) continue;
    const farm::FarmOutcome outcome = farm::decode_outcome(frame.payload);
    ASSERT_LT(outcome.id, 2u);
    saved[outcome.id] = outcome.outcome;
    ++outcome_frames;
  }
  EXPECT_EQ(outcome_frames, 2);
  EXPECT_EQ(saved, expected);
}

TEST_F(FarmCheckpoint, CorruptCheckpointMeansCleanRestart) {
  use_dir("corrupt");
  const auto jobs = batch_jobs();
  const std::vector<RunOutcome> expected = sweep_reference(jobs);
  {
    std::ofstream out(ckpt_, std::ios::binary);
    out << "KYFM this was a checkpoint once, now it is soup";
  }
  Farm farm(options());
  for (const auto& [label, text] : jobs) farm.add(text, label);
  const std::vector<RunOutcome> outcomes = farm.run();
  EXPECT_EQ(outcomes, expected);
  EXPECT_EQ(farm.jobs_restored(), 0);
  EXPECT_EQ(farm.jobs_in_process(), static_cast<int>(jobs.size()));
  EXPECT_NE(farm.degrade_reason().find("checkpoint ignored"), std::string::npos)
      << farm.degrade_reason();
}

TEST_F(FarmCheckpoint, TruncatedCheckpointMeansCleanRestart) {
  use_dir("truncated");
  const auto jobs = batch_jobs();
  const std::vector<RunOutcome> expected = sweep_reference(jobs);
  // Produce a complete, valid checkpoint...
  {
    Farm farm(options());
    for (const auto& [label, text] : jobs) farm.add(text, label);
    farm.run();
  }
  // ...then chop its tail, as a half-copied file would look.
  {
    std::ifstream in(ckpt_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 10u);
    std::ofstream out(ckpt_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 7));
  }
  Farm farm(options());
  for (const auto& [label, text] : jobs) farm.add(text, label);
  EXPECT_EQ(farm.run(), expected);
  EXPECT_EQ(farm.jobs_restored(), 0);
  EXPECT_NE(farm.degrade_reason().find("checkpoint ignored"), std::string::npos);
}

TEST_F(FarmCheckpoint, ForeignBatchCheckpointIsIgnored) {
  use_dir("foreign");
  const auto jobs = batch_jobs();
  // Checkpoint a different batch under the same path.
  {
    Farm farm(options());
    farm.add(tiny_scenario("hmmer", 4, 99), "other-batch");
    farm.run();
  }
  const std::vector<RunOutcome> expected = sweep_reference(jobs);
  Farm farm(options());
  for (const auto& [label, text] : jobs) farm.add(text, label);
  EXPECT_EQ(farm.run(), expected);
  EXPECT_EQ(farm.jobs_restored(), 0);  // fingerprint mismatch: nothing restored
  EXPECT_NE(farm.degrade_reason().find("different job batch"), std::string::npos);
}

}  // namespace
}  // namespace kyoto::sim
