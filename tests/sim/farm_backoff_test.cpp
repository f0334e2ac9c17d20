// Backoff + host-health gate.
//
// The BackoffPolicy schedule is *pinned*: the literals below are the
// exact delays the default policy produces.  They are part of the
// farm's observable behavior (tests and drills time against them), so
// a change here is a deliberate retuning, not noise — the jitter is
// seeded and keyed, never wall-clock random.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "sim/farm_codec.hpp"
#include "sim/farm.hpp"
#include "sim/host_health.hpp"
#include "sim/scenario_file.hpp"
#include "sim/sweep_runner.hpp"

namespace kyoto::sim {
namespace {

TEST(BackoffPolicy, DefaultScheduleIsPinned) {
  const BackoffPolicy policy;  // base 0.05s, max 30s, jitter 0.25, default seed
  EXPECT_DOUBLE_EQ(policy.delay_s(0, 0), 0.051947380888928966);
  EXPECT_DOUBLE_EQ(policy.delay_s(1, 0), 0.11359431114881176);
  EXPECT_DOUBLE_EQ(policy.delay_s(2, 0), 0.24560978758555851);
  EXPECT_DOUBLE_EQ(policy.delay_s(3, 0), 0.41432039566788115);
  // Keyed on a host id, the jitter lands elsewhere — deterministically.
  const std::uint64_t host_a = farm::fnv1a("hostA");
  EXPECT_EQ(host_a, 4262922559028208938ull);
  EXPECT_DOUBLE_EQ(policy.delay_s(0, host_a), 0.051581302503531545);
  EXPECT_DOUBLE_EQ(policy.delay_s(1, host_a), 0.10559959207643582);
}

TEST(BackoffPolicy, JitterIsBoundedAndDeterministic) {
  BackoffPolicy policy;
  policy.base_s = 0.1;
  for (int attempt = 0; attempt < 12; ++attempt) {  // 0.1 * 2^9 passes the 30 s cap
    for (const std::uint64_t key :
         {std::uint64_t{0}, std::uint64_t{17}, farm::fnv1a("h"), farm::fnv1a("hh")}) {
      const double raw =
          std::min(0.1 * static_cast<double>(1ull << attempt), BackoffPolicy::kMaxS);
      const double d = policy.delay_s(attempt, key);
      EXPECT_GE(d, raw) << attempt;
      EXPECT_LT(d, raw * (1.0 + BackoffPolicy::kJitterFrac)) << attempt;
      EXPECT_DOUBLE_EQ(d, policy.delay_s(attempt, key));  // pure function
    }
  }
  // Different keys at the same attempt land at different points: a
  // fleet held back together never thunders back in lockstep.
  EXPECT_NE(policy.delay_s(3, farm::fnv1a("h")), policy.delay_s(3, farm::fnv1a("hh")));
  // base_s <= 0 disables the delay entirely.
  BackoffPolicy off;
  off.base_s = 0.0;
  EXPECT_EQ(off.delay_s(5, 42), 0.0);
}

// The ladder on a synthetic clock: the k-th consecutive failure holds
// the host back exactly delay_s(k - 1), the kRetireAfterFailures-th
// retires it, and a completed dispatch resets the rung.
TEST(HostHealthTracker, LadderHoldsBackThenRetires) {
  BackoffPolicy backoff;
  backoff.base_s = 1.0;
  HostHealthTracker tracker({"flaky", "solid"}, backoff);
  const std::uint64_t key = farm::fnv1a("flaky");
  const double never = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(tracker.usable(0, 0.0));
  EXPECT_TRUE(tracker.usable(1, 0.0));
  EXPECT_EQ(tracker.next_available_s(), never);

  // Climbs rung by rung: failure k holds the host until t + delay_s(k - 1).
  double t = 1.0;
  const auto climb = [&](int k) {
    EXPECT_EQ(tracker.record_failure(0, t, "died"), HostState::kHealthy) << k;
    const double until = t + backoff.delay_s(k - 1, key);
    EXPECT_EQ(tracker.stats(0).held_until_s, until) << k;
    EXPECT_EQ(tracker.next_available_s(), until) << k;
    EXPECT_FALSE(tracker.usable(0, std::nextafter(until, 0.0))) << k;
    EXPECT_TRUE(tracker.usable(0, until)) << k;
    EXPECT_TRUE(tracker.usable(1, t)) << k;  // "solid" is never held back
    t = until + 1.0;
  };

  // Three rungs, then a completed dispatch resets the ladder...
  for (int k = 1; k <= 3; ++k) climb(k);
  tracker.record_success(0, t, "shard1.jobs.kyfm", 3);
  EXPECT_EQ(tracker.stats(0).consecutive_failures, 0);
  EXPECT_TRUE(tracker.usable(0, t));
  EXPECT_EQ(tracker.next_available_s(), never);

  // ...so the next failure holds it back delay_s(0) again, and five
  // rungs are climbed before the sixth failure retires it.
  for (int k = 1; k < kRetireAfterFailures; ++k) climb(k);
  EXPECT_EQ(tracker.record_failure(0, t, "died"), HostState::kRetired);
  EXPECT_EQ(tracker.stats(0).failures, 3 + kRetireAfterFailures);
  EXPECT_FALSE(tracker.usable(0, t));
  EXPECT_FALSE(tracker.usable(0, 1e9));
  EXPECT_EQ(tracker.next_available_s(), never);
  EXPECT_FALSE(tracker.all_retired());  // "solid" is still in the game

  for (int k = 1; k < kRetireAfterFailures; ++k) {
    EXPECT_EQ(tracker.record_failure(1, t, "died"), HostState::kHealthy) << k;
  }
  EXPECT_EQ(tracker.record_failure(1, t, "died"), HostState::kRetired);
  EXPECT_TRUE(tracker.all_retired());

  // Every transition landed in the structured report.
  const std::string report = tracker.report();
  EXPECT_NE(report.find("flaky failure: died; held back"), std::string::npos) << report;
  EXPECT_NE(report.find("flaky retire"), std::string::npos) << report;
  EXPECT_NE(report.find("solid retire"), std::string::npos) << report;
  EXPECT_NE(report.find("host flaky: retired"), std::string::npos) << report;
  EXPECT_EQ(report.find("quarantine"), std::string::npos) << report;
}

// ---------------------------------------------------------------- Farm

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

std::vector<std::pair<std::string, std::string>> backoff_jobs(int n) {
  std::vector<std::pair<std::string, std::string>> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.emplace_back("job" + std::to_string(i), tiny_scenario(i % 2 ? "mcf" : "gcc", 20 + i));
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

/// A fresh work directory private to this test and process.
std::string fresh_dir(const std::string& name) {
  const std::string dir =
      testing::TempDir() + "farm_backoff_" + name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

/// A host whose every dispatch dies ("bad", dispatched first) beside a
/// healthy one, one job per dispatch.
FarmOptions failing_beside_healthy(const std::string& work_dir) {
  FarmOptions options;
  options.hosts.push_back(HostSpec{"bad", worker_path(), {"--fault-kill-after", "1"}});
  options.hosts.push_back(HostSpec{"good", worker_path(), {}});
  options.work_dir = work_dir;
  options.jobs_per_shard = 1;
  return options;
}

TEST(FarmBackoff, FailedHostIsHeldBackByTheSchedule) {
  if (!worker_available()) GTEST_SKIP() << "sweep_worker binary not found";
  const auto jobs = backoff_jobs(8);
  const std::string dir = fresh_dir("schedule");
  FarmOptions options = failing_beside_healthy(dir);
  options.backoff.base_s = 0.02;  // the six holds sum to about 0.62 s
  // "good" sleeps before each job, so the queue outlasts every rung of
  // "bad"'s ladder (8 jobs take it at least 2 s).
  const std::string slow_good = dir + "/slow_worker.sh";
  {
    std::ofstream out(slow_good);
    out << "#!/bin/sh\nsleep 0.25\nexec '"
        << std::filesystem::absolute(worker_path()).string() << "' \"$@\"\n";
  }
  ::chmod(slow_good.c_str(), 0755);
  options.hosts[1].worker_path = slow_good;
  Farm farm(options);
  for (const auto& [label, text] : jobs) farm.add(text, label);
  const std::vector<RunOutcome> outcomes = farm.run();
  EXPECT_EQ(outcomes, sweep_reference(jobs));
  EXPECT_FALSE(farm.degraded());
  EXPECT_EQ(farm.job_retries(), 0);  // "bad" never delivered: it charges only itself

  // From the event log: after its k-th consecutive failure, "bad" is
  // dispatched again no earlier than the failure's instant plus
  // delay_s(k - 1), the jitter keyed on its host id; its
  // kRetireAfterFailures-th failure retires it, and it is never
  // dispatched again.
  const std::uint64_t key = farm::fnv1a("bad");
  int failures = 0;
  int checked = 0;
  double held_until = -1.0;
  for (const FarmEvent& event : farm.health()->events()) {
    if (event.host != "bad") continue;
    if (event.what == "failure") {
      ++failures;
      held_until = failures < kRetireAfterFailures
                       ? event.t_s + options.backoff.delay_s(failures - 1, key)
                       : -1.0;
    } else if (event.what == "retire") {
      EXPECT_EQ(failures, kRetireAfterFailures);
    } else if (event.what == "dispatch" && failures > 0) {
      ASSERT_GE(held_until, 0.0) << "dispatched after it retired";
      EXPECT_GE(event.t_s, held_until) << "dispatch after failure " << failures;
      ++checked;
    }
  }
  EXPECT_EQ(failures, kRetireAfterFailures) << farm.report();
  EXPECT_EQ(checked, kRetireAfterFailures - 1) << farm.report();
  EXPECT_EQ(farm.health()->stats(0).state, HostState::kRetired);
  EXPECT_EQ(farm.health()->stats(0).shards_dispatched, kRetireAfterFailures);
  std::filesystem::remove_all(dir);
}

TEST(FarmBackoff, RequeuedJobGoesToTheHealthiestIdleHost) {
  if (!worker_available()) GTEST_SKIP() << "sweep_worker binary not found";
  const auto jobs = backoff_jobs(1);
  const std::string dir = fresh_dir("healthiest");
  FarmOptions options = failing_beside_healthy(dir);
  options.backoff.base_s = 0.0;  // "bad" is usable again at once
  Farm farm(options);
  for (const auto& [label, text] : jobs) farm.add(text, label);
  EXPECT_EQ(farm.run(), sweep_reference(jobs));
  // "bad" takes the job first (host order breaks the tie) and dies;
  // the re-queued job then goes to idle "good", which has no failure,
  // not back to "bad".
  EXPECT_EQ(farm.health()->stats(0).shards_dispatched, 1) << farm.report();
  EXPECT_EQ(farm.health()->stats(0).failures, 1);
  EXPECT_EQ(farm.health()->stats(1).shards_dispatched, 1);
  EXPECT_EQ(farm.health()->stats(1).jobs_completed, 1);
  std::filesystem::remove_all(dir);
}

TEST(FarmBackoff, ZeroBaseKeepsTheOldFastPath) {
  if (!worker_available()) GTEST_SKIP() << "sweep_worker binary not found";
  const auto jobs = backoff_jobs(4);
  const std::string dir = fresh_dir("zero_base");
  FarmOptions options = failing_beside_healthy(dir);
  options.backoff.base_s = 0.0;  // disabled
  Farm farm(options);
  for (const auto& [label, text] : jobs) farm.add(text, label);
  EXPECT_EQ(farm.run(), sweep_reference(jobs));
  EXPECT_FALSE(farm.degraded());
  EXPECT_GE(farm.host_failure_count(), 1);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace kyoto::sim
