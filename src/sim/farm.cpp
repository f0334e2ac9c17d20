#include "sim/farm.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "sim/scenario_file.hpp"
#include "sim/shard_splitter.hpp"

namespace kyoto::sim {
namespace {

/// Worker exits are observed with waitpid(WNOHANG), so the loop wakes
/// at least this often; it bounds the reaction time, never correctness.
constexpr double kPollS = 0.01;

std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    return "worker exited with status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "worker killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "worker ended with unrecognized status";
}

/// argv for execv, built before fork: between fork and exec only
/// async-signal-safe calls are allowed (the parent may host other
/// threads, e.g. a live SweepRunner pool).
struct Argv {
  std::vector<std::string> args;
  std::vector<char*> ptrs;

  Argv(const HostSpec& spec, const std::string& job_path, const std::string& result_path)
      : args{spec.worker_path, "--jobs", job_path, "--results", result_path} {
    for (const std::string& a : spec.worker_args) args.push_back(a);
    for (std::string& a : args) ptrs.push_back(a.data());
    ptrs.push_back(nullptr);
  }
  Argv(const Argv&) = delete;  // ptrs point into args
  Argv& operator=(const Argv&) = delete;
};

/// Deletes a shard's job and result files under `work_dir`; a name
/// that is not a shard result file is left alone.
void remove_shard_files(const std::string& work_dir, const std::string& result_file) {
  const std::string job_file = farm::job_file_for(result_file);
  if (job_file.empty()) return;
  std::remove((work_dir + "/" + job_file).c_str());
  std::remove((work_dir + "/" + result_file).c_str());
}

}  // namespace

struct Farm::Slot {
  pid_t pid = -1;          // this dispatch's worker
  farm::ShardOwner owner;  // the in-flight dispatch; no job ids when idle
  std::string job_file;    // bare names under work_dir, like owner.result_file
  double deadline_s = 0.0;

  bool busy() const { return !owner.job_ids.empty(); }

  /// SIGKILLs and reaps the worker, if any.
  void stop() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      pid = -1;
    }
  }
};

std::vector<HostSpec> local_workers(int count, const std::string& worker_path,
                                    const std::vector<std::string>& worker_args) {
  std::vector<HostSpec> hosts;
  for (int i = 0; i < count; ++i) {
    hosts.push_back(HostSpec{"w" + std::to_string(i), worker_path, worker_args});
  }
  return hosts;
}

Farm::Farm(FarmOptions options) : options_(std::move(options)) {
  options_.jobs_per_shard = std::max(options_.jobs_per_shard, 0);
  options_.max_retries = std::max(options_.max_retries, 0);
  options_.checkpoint_every = std::max(options_.checkpoint_every, 1);
  for (std::size_t i = 0; i < options_.hosts.size(); ++i) {
    KYOTO_CHECK_MSG(!options_.hosts[i].id.empty(), "Farm: host id must be non-empty");
    for (std::size_t j = i + 1; j < options_.hosts.size(); ++j) {
      KYOTO_CHECK_MSG(options_.hosts[i].id != options_.hosts[j].id,
                      "Farm: duplicate host id " << options_.hosts[i].id);
    }
  }
}

Farm::~Farm() = default;

std::size_t Farm::add(std::string scenario_text, std::string label) {
  parse_scenario(scenario_text);  // malformed jobs throw here, with parser diagnostics
  farm::FarmJob job;
  job.id = jobs_.size();
  job.label = std::move(label);
  job.scenario_text = std::move(scenario_text);
  jobs_.push_back(std::move(job));
  return jobs_.size() - 1;
}

std::vector<RunOutcome> Farm::run() {
  const std::size_t total = jobs_.size();
  results_.assign(total, RunOutcome{});
  done_.assign(total, 0);
  restored_ = recollected_ = in_process_ = retries_ = since_checkpoint_ = 0;
  degraded_ = orphaning_ = false;
  degrade_reason_.clear();
  t0_ = std::chrono::steady_clock::now();

  std::vector<std::string> host_ids;
  for (const HostSpec& h : options_.hosts) host_ids.push_back(h.id);
  health_ = std::make_unique<HostHealthTracker>(std::move(host_ids), options_.backoff);

  recollect_owned_shards(restore_checkpoint());

  queue_.clear();
  for (std::size_t i = 0; i < total; ++i) {
    if (done_[i] == 0) queue_.push_back(i);
  }
  if (!queue_.empty()) {
    if (options_.hosts.empty()) {
      degrade("no hosts configured");
    } else {
      // A worker that cannot be executed would fail every dispatch:
      // retire its host before the first one, not after the ladder.
      for (std::size_t h = 0; h < options_.hosts.size(); ++h) {
        const std::string& path = options_.hosts[h].worker_path;
        if (::access(path.c_str(), X_OK) != 0) {
          const std::string why = std::strerror(errno);
          health_->retire(static_cast<int>(h), now_s(),
                          "worker '" + path + "' cannot be executed: " + why);
        }
      }
      attempts_.assign(total, 0);
      last_failed_host_.assign(total, -1);
      shard_size_ = options_.jobs_per_shard > 0
                        ? static_cast<std::size_t>(options_.jobs_per_shard)
                        : balanced_shard_size(queue_.size(), options_.hosts.size());
      dispatch_loop();
    }
  }
  run_in_process_remainder();

  // Leave a complete checkpoint behind: re-running the same batch
  // against it restores everything instead of simulating.
  write_checkpoint();
  std::vector<RunOutcome> outcomes = std::move(results_);
  jobs_.clear();
  results_.clear();
  done_.clear();
  return outcomes;
}

void Farm::dispatch_loop() {
  slots_.resize(options_.hosts.size());
  // However the loop ends — drained, degraded, a batch error or the
  // abort knob — no worker outlives it (save the orphan drill's).
  struct Reaper {
    Farm& farm;
    ~Reaper() { farm.stop_workers(); }
  } reaper{*this};

  for (;;) {
    assign();
    const bool busy =
        std::any_of(slots_.begin(), slots_.end(), [](const Slot& s) { return s.busy(); });
    if (!busy && queue_.empty()) return;
    if (!busy && health_->all_retired()) {
      degrade("every host is retired with " + std::to_string(queue_.size()) +
              " job(s) outstanding");
      return;
    }
    pump();
  }
}

void Farm::assign() {
  // Queued shards go to the healthiest idle hosts first (fewest
  // consecutive failures, ties in host order): a host back from a
  // hold-back must not retake a job ahead of an idle host that has
  // not failed.
  std::vector<int> idle;
  for (std::size_t h = 0; h < slots_.size(); ++h) {
    const int host = static_cast<int>(h);
    if (!slots_[h].busy() && health_->usable(host, now_s())) idle.push_back(host);
  }
  std::stable_sort(idle.begin(), idle.end(), [this](int a, int b) {
    return health_->stats(a).consecutive_failures < health_->stats(b).consecutive_failures;
  });
  for (const int host : idle) {
    if (queue_.empty()) return;
    const auto h = static_cast<std::size_t>(host);
    const std::size_t n = std::min(shard_size_, queue_.size());
    std::vector<std::size_t> jobs(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(n));
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(n));
    for (const std::size_t j : jobs) {
      const int from = last_failed_host_[j];
      if (from >= 0 && from != host) {
        health_->note(now_s(), options_.hosts[h].id, "redistribute",
                      describe_job(j) + " (failed on " +
                          options_.hosts[static_cast<std::size_t>(from)].id + ")");
      }
    }
    start(host, std::move(jobs));
  }
}

void Farm::start(int host, std::vector<std::size_t> jobs) {
  Slot& s = slots_[static_cast<std::size_t>(host)];
  const HostSpec& spec = options_.hosts[static_cast<std::size_t>(host)];
  s.deadline_s = options_.timeout_s > 0
                     ? now_s() + options_.timeout_s * static_cast<double>(jobs.size())
                     : std::numeric_limits<double>::infinity();

  // Shard names are unique per coordinator process and dispatch, so a
  // worker orphaned by an earlier coordinator never writes into a
  // file this one reads.
  static std::atomic<unsigned> next_shard{0};
  s.owner = farm::ShardOwner{
      spec.id,
      "shard" + std::to_string(::getpid()) + "-" + std::to_string(next_shard++) + ".results.kyfm",
      std::vector<std::uint64_t>(jobs.begin(), jobs.end())};
  s.job_file = farm::job_file_for(s.owner.result_file);
  // Recorded before the write, so a failed write still counts as a dispatch.
  health_->record_dispatch(host, now_s(), s.job_file);
  const std::string job_path = options_.work_dir + "/" + s.job_file;
  const std::string result_path = options_.work_dir + "/" + s.owner.result_file;
  std::vector<farm::FarmJob> shard;
  for (const std::size_t j : jobs) shard.push_back(jobs_[j]);
  try {
    farm::write_job_file(job_path, shard);
  } catch (const farm::CodecError& e) {
    s.owner.job_ids.clear();
    fail_batch(std::string("cannot write shard: ") + e.what());
  }
  std::remove(result_path.c_str());

  const Argv argv(spec, job_path, result_path);
  const pid_t pid = ::fork();
  if (pid < 0) {
    fail(host, std::string("cannot fork worker: ") + std::strerror(errno));
    return;
  }
  if (pid == 0) {
    ::execv(argv.ptrs[0], argv.ptrs.data());
    ::_exit(127);  // exec failed; the parent sees status 127
  }
  s.pid = pid;
  // Record the new owner at once: should the coordinator die now, a
  // resume re-collects this shard's result file instead of re-running it.
  write_checkpoint();
}

void Farm::pump() {
  double wait_s = kPollS;
  // An idle host whose hold-back ends must get work without waiting
  // for a busy one to finish.
  if (!queue_.empty()) wait_s = std::min(wait_s, health_->next_available_s() - now_s());
  for (const Slot& s : slots_) {
    if (s.busy()) wait_s = std::min(wait_s, s.deadline_s - now_s());
  }
  if (wait_s > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));

  for (std::size_t h = 0; h < slots_.size(); ++h) {
    Slot& s = slots_[h];
    if (!s.busy()) continue;
    int status = 0;
    const pid_t r = ::waitpid(s.pid, &status, WNOHANG);
    if (r == s.pid) {
      s.pid = -1;
      finish(static_cast<int>(h), status);
    } else if (r < 0 && errno != EINTR) {
      fail(static_cast<int>(h), std::string("waitpid failed: ") + std::strerror(errno));
    }
  }
  const double after = now_s();
  for (std::size_t h = 0; h < slots_.size(); ++h) {
    if (slots_[h].busy() && after >= slots_[h].deadline_s) {
      std::ostringstream oss;
      oss << "worker hung: no reply within " << options_.timeout_s << "s per job ("
          << slots_[h].owner.job_ids.size() << " job(s))";
      fail(static_cast<int>(h), oss.str());
    }
  }
}

void Farm::finish(int host, int status) {
  Slot& s = slots_[static_cast<std::size_t>(host)];
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    fail(host, describe_exit(status));
    return;
  }
  const ShardCollect collect =
      collect_shard(s.owner, options_.work_dir + "/" + s.owner.result_file);
  switch (collect.state) {
    case ShardCollect::State::kOk:
      remove_shard_files(options_.work_dir, s.owner.result_file);
      complete(host, collect.outcomes);
      return;
    case ShardCollect::State::kDeterministic:
      s.owner.job_ids.clear();
      remove_shard_files(options_.work_dir, s.owner.result_file);
      fail_job(describe_job(static_cast<std::size_t>(collect.failed_job)) + ": " +
               collect.detail);
    default:
      fail(host, shard_collect_state_name(collect.state) +
                     (collect.detail.empty() ? "" : ": " + collect.detail));
  }
}

void Farm::complete(int host, const std::vector<farm::FarmOutcome>& outcomes) {
  Slot& s = slots_[static_cast<std::size_t>(host)];
  health_->record_success(host, now_s(), s.job_file, static_cast<int>(outcomes.size()));
  s.owner.job_ids.clear();
  for (const farm::FarmOutcome& outcome : outcomes) {
    const auto index = static_cast<std::size_t>(outcome.id);
    KYOTO_CHECK(index < done_.size() && done_[index] == 0);
    results_[index] = outcome.outcome;
    done_[index] = 1;
  }
  after_jobs_completed(static_cast<int>(outcomes.size()));
}

void Farm::fail(int host, const std::string& reason) {
  Slot& s = slots_[static_cast<std::size_t>(host)];
  const std::vector<std::uint64_t> jobs = std::move(s.owner.job_ids);
  s.owner.job_ids.clear();
  s.stop();
  // The worker is reaped, so nothing writes these files any more, and
  // no owner frame names a dispatch that is no longer in flight.
  remove_shard_files(options_.work_dir, s.owner.result_file);

  // Only a host that has delivered this run can blame the job; one
  // that never delivered (bad binary, dead link) charges only itself.
  const bool proven = health_->stats(host).shards_completed > 0;
  health_->record_failure(host, now_s(), s.job_file + ": " + reason);
  for (const std::uint64_t j : jobs) {
    last_failed_host_[j] = host;
    if (!proven) continue;
    ++retries_;
    if (++attempts_[j] > options_.max_retries) {
      fail_batch(describe_job(j) + " failed after " + std::to_string(attempts_[j]) +
                 " attempt(s): " + reason);
    }
  }
  queue_.insert(queue_.begin(), jobs.begin(), jobs.end());
}

void Farm::stop_workers() {
  // The orphan drill leaves its workers finishing the result files
  // that the last checkpoint's owner frames name.
  if (!orphaning_) {
    for (Slot& s : slots_) {
      s.stop();
      if (s.busy()) remove_shard_files(options_.work_dir, s.owner.result_file);
    }
  }
  slots_.clear();
}

void Farm::run_in_process_remainder() {
  for (std::size_t i = 0; i < done_.size(); ++i) {
    if (done_[i] != 0) continue;
    health_->note(now_s(), "", "in-process", describe_job(i));
    try {
      const Scenario scenario = parse_scenario(jobs_[i].scenario_text);
      results_[i] = run_scenario(scenario.spec, scenario.plans);
    } catch (const std::exception& e) {
      fail_job(describe_job(i) + ": " + e.what());
    }
    done_[i] = 1;
    ++in_process_;
    after_jobs_completed(1);
  }
}

void Farm::after_jobs_completed(int count) {
  since_checkpoint_ += count;
  if (since_checkpoint_ >= options_.checkpoint_every) write_checkpoint();
  const int completed = jobs_executed() + in_process_;
  if (options_.abort_after_completed >= 0 && completed >= options_.abort_after_completed) {
    // Stop the workers first, so the last checkpoint owns no dispatch
    // that will never finish; the orphan drill's keep running, owned.
    orphaning_ = options_.orphan_on_abort;
    if (!orphaning_) stop_workers();
    write_checkpoint();
    throw FarmInterrupted("farm interrupted by abort_after_completed=" +
                              std::to_string(options_.abort_after_completed) + " after " +
                              std::to_string(completed) + " completed job(s)",
                          completed);
  }
}

void Farm::write_checkpoint() {
  since_checkpoint_ = 0;
  if (options_.checkpoint_path.empty() || done_.empty()) return;
  farm::Checkpoint checkpoint;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (done_[i] != 0) checkpoint.outcomes.push_back({i, results_[i]});
  }
  // One owner per in-flight dispatch, so a resumed farm knows which
  // result files may appear without it.
  for (const Slot& s : slots_) {
    if (s.busy()) checkpoint.owners.push_back(s.owner);
  }
  farm::write_checkpoint_file(options_.checkpoint_path, jobs_, checkpoint);
}

std::vector<farm::ShardOwner> Farm::restore_checkpoint() {
  if (options_.checkpoint_path.empty() || ::access(options_.checkpoint_path.c_str(), F_OK) != 0) {
    return {};  // no checkpoint yet: fresh sweep
  }
  // The reader validates the whole file before returning any of it: a
  // corrupt tail must not leave half a restore behind.
  farm::Checkpoint checkpoint;
  try {
    checkpoint = farm::read_checkpoint_file(options_.checkpoint_path, jobs_);
  } catch (const farm::CodecError& e) {
    degrade_reason_ = std::string("checkpoint ignored (clean restart): ") + e.what();
    health_->note(now_s(), "", "restart", degrade_reason_);
    return {};
  }
  for (farm::FarmOutcome& outcome : checkpoint.outcomes) {
    const auto index = static_cast<std::size_t>(outcome.id);
    if (done_[index] == 0) ++restored_;
    results_[index] = std::move(outcome.outcome);
    done_[index] = 1;
  }
  return std::move(checkpoint.owners);
}

void Farm::recollect_owned_shards(const std::vector<farm::ShardOwner>& owners) {
  for (const farm::ShardOwner& owner : owners) {
    const ShardCollect collect =
        collect_shard(owner, options_.work_dir + "/" + owner.result_file);
    // Collected now or re-run below: either way the shard is done with.
    remove_shard_files(options_.work_dir, owner.result_file);
    if (collect.state != ShardCollect::State::kOk) {
      std::string detail = collect.detail;
      if (collect.state == ShardCollect::State::kDeterministic) {
        detail = describe_job(static_cast<std::size_t>(collect.failed_job)) + ": " + detail;
      }
      health_->note(now_s(), owner.host_id, "recollect-miss",
                    owner.result_file + ": " + shard_collect_state_name(collect.state) +
                        (detail.empty() ? "" : " — " + detail) + "; will re-run");
      continue;
    }
    int applied = 0;
    for (const farm::FarmOutcome& outcome : collect.outcomes) {
      const auto index = static_cast<std::size_t>(outcome.id);
      if (done_[index] != 0) continue;
      results_[index] = outcome.outcome;
      done_[index] = 1;
      ++recollected_;
      ++applied;
    }
    health_->note(now_s(), owner.host_id, "recollect",
                  owner.result_file + ": " + std::to_string(applied) +
                      " job(s) collected without re-running");
  }
}

void Farm::degrade(std::string reason) {
  degraded_ = true;
  if (degrade_reason_.empty()) degrade_reason_ = reason;
  health_->note(now_s(), "", "degrade", std::move(reason));
}

void Farm::fail_batch(const std::string& message) {
  // No dispatch outlives the batch, so the checkpoint that preserves
  // the completed work for a resume owns none.
  stop_workers();
  write_checkpoint();
  throw std::runtime_error("farm: " + message);
}

void Farm::fail_job(const std::string& detail) {
  // Retrying would fail identically on any host: fail now.
  fail_batch(std::string(shard_collect_state_name(ShardCollect::State::kDeterministic)) + ": " +
             detail);
}

std::string Farm::describe_job(std::size_t index) const {
  return "job #" + std::to_string(index) + " '" + jobs_[index].label + "'";
}

int Farm::sum_hosts(int HostStats::*field) const {
  if (health_ == nullptr) return 0;
  int sum = 0;
  for (const HostStats& h : health_->all_stats()) sum += h.*field;
  return sum;
}

double Farm::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
}

std::string Farm::report() const {
  if (health_ == nullptr) return "";
  std::ostringstream out;
  out << "farm: " << jobs_executed() << " executed on hosts, " << restored_
      << " restored from checkpoint, " << recollected_ << " re-collected from owners, "
      << in_process_ << " in-process; " << dispatches() << " dispatch(es), "
      << host_failure_count() << " host failure(s), " << retries_ << " job retr(ies)";
  if (degraded_) out << "; DEGRADED: " << degrade_reason_;
  out << '\n' << health_->report();
  return out.str();
}

std::string Farm::default_worker_path(const char* argv0) {
  if (const char* env = std::getenv("KYOTO_SWEEP_WORKER"); env != nullptr && env[0] != '\0') {
    return env;
  }
  if (argv0 == nullptr) return "";
  const std::string self(argv0);
  const auto slash = self.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : self.substr(0, slash);
  const std::string candidate = dir + "/sweep_worker";
  return ::access(candidate.c_str(), X_OK) == 0 ? candidate : "";
}

}  // namespace kyoto::sim
