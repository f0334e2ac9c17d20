// Farm fault-tolerance gate: every injected failure mode must end in
// one of exactly two states — the batch retries to the byte-identical
// result, or it fails with a diagnosable error naming the job.  Never
// a hang, never a silently missing or corrupted outcome.
//
// Faults are injected through sweep_worker's --fault-* flags (see
// examples/sweep_worker.cpp): "after N" faults fire once per worker
// process (its Nth handled job), so a respawned worker makes
// progress — the transient-fault model; "on-label" faults follow the
// job to every worker — the poisoned-job model, which must exhaust
// its bounded retries and fail the whole batch diagnosably.
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "sim/farm.hpp"
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
  }

  FarmOptions options(std::vector<std::string> fault_args) {
    FarmOptions o;
    o.hosts = local_workers(2, worker_path(), fault_args);
    return o;
  }

  std::vector<RunOutcome> run_jobs(Farm& farm,
                                   const std::vector<std::pair<std::string, std::string>>& jobs) {
    for (const auto& [label, text] : jobs) farm.add(text, label);
    return farm.run();
  }
};

TEST_F(FarmFault, SigkillMidJobRetriesToIdenticalResult) {
  // Every worker process is SIGKILLed on its 2nd job, so the batch
  // converges through respawns.  A retried job may land as the 2nd
  // job of another live worker and die again, so a job can fail more
  // than once; but every death follows its process's first completed
  // job, and each job completes exactly once, so deaths <= jobs — a
  // budget of jobs.size() retries can never be exhausted.
  const auto jobs = small_batch();
  const std::vector<RunOutcome> expected = sweep_reference(jobs);
  FarmOptions o = options({"--fault-kill-after", "2"});
  o.max_retries = static_cast<int>(jobs.size());
  Farm farm(o);
  const std::vector<RunOutcome> outcomes = run_jobs(farm, jobs);
  EXPECT_EQ(outcomes, expected);
  EXPECT_FALSE(farm.degraded());
  EXPECT_GE(farm.worker_respawns(), 1);
  EXPECT_GE(farm.job_retries(), 1);
}

TEST_F(FarmFault, GarbageFramesAreDetectedAndRetried) {
  // A worker answering its 2nd job with non-protocol bytes is a
  // protocol violation: killed, respawned, job retried — and the
  // final outcomes are still the reference bytes.  Retry budget as in
  // SigkillMidJob: every garbage reply follows its process's first
  // completed job, so failures <= jobs.
  const auto jobs = small_batch();
  const std::vector<RunOutcome> expected = sweep_reference(jobs);
  FarmOptions o = options({"--fault-garbage-after", "2"});
  o.max_retries = static_cast<int>(jobs.size());
  Farm farm(o);
  const std::vector<RunOutcome> outcomes = run_jobs(farm, jobs);
  EXPECT_EQ(outcomes, expected);
  EXPECT_GE(farm.worker_respawns(), 1);
  EXPECT_GE(farm.job_retries(), 1);
}

TEST_F(FarmFault, TransientHangTimesOutAndRetries) {
  // A hang is invisible to EOF detection; only the per-job timeout
  // catches it.  Short timeout + tiny jobs: a healthy job finishes in
  // well under a second, so 2s of silence means hung.
  auto jobs = small_batch();
  jobs.resize(4);
  const std::vector<RunOutcome> expected = sweep_reference(jobs);
  FarmOptions o = options({"--fault-hang-after", "2"});
  o.timeout_s = 2.0;
  Farm farm(o);
  const std::vector<RunOutcome> outcomes = run_jobs(farm, jobs);
  EXPECT_EQ(outcomes, expected);
  EXPECT_GE(farm.worker_respawns(), 1);
  EXPECT_GE(farm.job_retries(), 1);
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
