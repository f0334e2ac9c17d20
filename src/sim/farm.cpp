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
#include <fstream>
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

}  // namespace

struct Farm::Slot {
  pid_t pid = -1;                 // this dispatch's worker
  std::vector<std::size_t> jobs;  // the in-flight dispatch; empty when idle
  std::string job_file;           // bare names under work_dir
  std::string result_file;
  double deadline_s = 0.0;

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

  /// Deletes the dispatch's job and result files.
  void remove_files(const std::string& work_dir) const {
    std::remove((work_dir + "/" + job_file).c_str());
    std::remove((work_dir + "/" + result_file).c_str());
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
  options_.host_failure_budget = std::max(options_.host_failure_budget, 1);
  options_.max_quarantines = std::max(options_.max_quarantines, 0);
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
  executed_ = restored_ = recollected_ = in_process_ = 0;
  dispatches_ = host_failures_ = retries_ = since_checkpoint_ = 0;
  degraded_ = orphaning_ = false;
  degrade_reason_.clear();
  t0_ = std::chrono::steady_clock::now();

  std::vector<std::string> host_ids;
  for (const HostSpec& h : options_.hosts) host_ids.push_back(h.id);
  health_ = std::make_unique<HostHealthTracker>(std::move(host_ids), options_.host_failure_budget,
                                                options_.max_quarantines, options_.backoff);

  recollect_owned_shards(restore_checkpoint());

  queue_.clear();
  for (std::size_t i = 0; i < total; ++i) {
    if (done_[i] == 0) queue_.push_back(i);
  }
  if (!queue_.empty()) {
    if (options_.hosts.empty()) {
      degrade("no hosts configured");
    } else {
      attempts_.assign(total, 0);
      last_failed_host_.assign(total, -1);
      shard_size_ = options_.jobs_per_shard > 0
                        ? static_cast<std::size_t>(options_.jobs_per_shard)
                        : (queue_.size() + options_.hosts.size() - 1) / options_.hosts.size();
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
    const bool busy = std::any_of(slots_.begin(), slots_.end(),
                                  [](const Slot& s) { return !s.jobs.empty(); });
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
  for (std::size_t h = 0; h < slots_.size() && !queue_.empty(); ++h) {
    const int host = static_cast<int>(h);
    if (!slots_[h].jobs.empty() || !health_->usable(host, now_s())) continue;
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
  s.jobs = std::move(jobs);
  s.deadline_s = options_.timeout_s > 0
                     ? now_s() + options_.timeout_s * static_cast<double>(s.jobs.size())
                     : std::numeric_limits<double>::infinity();
  ++dispatches_;

  // Shard names are unique per coordinator process and dispatch, so a
  // worker orphaned by an earlier coordinator never writes into a
  // file this one reads.
  static std::atomic<unsigned> next_shard{0};
  const std::string stem =
      "shard" + std::to_string(::getpid()) + "-" + std::to_string(next_shard++);
  s.job_file = stem + ".jobs.kyfm";
  s.result_file = stem + ".results.kyfm";
  const std::string job_path = options_.work_dir + "/" + s.job_file;
  const std::string result_path = options_.work_dir + "/" + s.result_file;
  std::vector<farm::FarmJob> shard;
  for (const std::size_t j : s.jobs) shard.push_back(jobs_[j]);
  try {
    farm::write_job_file(job_path, shard);
  } catch (const farm::CodecError& e) {
    s.jobs.clear();
    fail_batch(std::string("cannot write shard: ") + e.what());
  }
  std::remove(result_path.c_str());
  health_->record_dispatch(host, now_s(), s.job_file);

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
  // An idle host whose hold-back or quarantine ends must get work
  // without waiting for a busy one to finish.
  if (!queue_.empty()) wait_s = std::min(wait_s, health_->next_available_s() - now_s());
  for (const Slot& s : slots_) {
    if (!s.jobs.empty()) wait_s = std::min(wait_s, s.deadline_s - now_s());
  }
  if (wait_s > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));

  for (std::size_t h = 0; h < slots_.size(); ++h) {
    Slot& s = slots_[h];
    if (s.jobs.empty()) continue;
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
    if (!slots_[h].jobs.empty() && after >= slots_[h].deadline_s) {
      std::ostringstream oss;
      oss << "worker hung: no reply within " << options_.timeout_s << "s per job ("
          << slots_[h].jobs.size() << " job(s))";
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
  farm::HostShard shard;
  shard.host_id = options_.hosts[static_cast<std::size_t>(host)].id;
  shard.result_file = s.result_file;
  for (const std::size_t j : s.jobs) {
    shard.job_ids.push_back(j);
    shard.labels.push_back(jobs_[j].label);
  }
  const std::string result_path = options_.work_dir + "/" + s.result_file;
  const ShardCollect collect = collect_shard(shard, result_path);
  switch (collect.state) {
    case ShardCollect::State::kOk:
      s.remove_files(options_.work_dir);
      complete(host, collect.outcomes);
      return;
    case ShardCollect::State::kDeterministic:
      s.jobs.clear();
      s.remove_files(options_.work_dir);
      fail_job(collect.detail);  // the detail names the job
    default:
      fail(host, shard_collect_state_name(collect.state) +
                     (collect.detail.empty() ? "" : ": " + collect.detail));
  }
}

void Farm::complete(int host, const std::vector<farm::FarmOutcome>& outcomes) {
  Slot& s = slots_[static_cast<std::size_t>(host)];
  health_->record_success(host, now_s(), s.job_file, static_cast<int>(outcomes.size()));
  s.jobs.clear();
  for (const farm::FarmOutcome& outcome : outcomes) {
    const auto index = static_cast<std::size_t>(outcome.id);
    KYOTO_CHECK(index < done_.size() && done_[index] == 0);
    results_[index] = outcome.outcome;
    done_[index] = 1;
    ++executed_;
  }
  after_jobs_completed(static_cast<int>(outcomes.size()));
}

void Farm::fail(int host, const std::string& reason) {
  Slot& s = slots_[static_cast<std::size_t>(host)];
  const std::vector<std::size_t> jobs = std::move(s.jobs);
  s.jobs.clear();
  s.stop();
  // The worker is reaped, so nothing writes these files any more, and
  // no owner frame names a dispatch that is no longer in flight.
  s.remove_files(options_.work_dir);

  // Only a host that has delivered this run can blame the job; one
  // that never delivered (bad binary, dead link) charges only itself.
  const bool proven = health_->stats(host).shards_completed > 0;
  health_->record_failure(host, now_s(), s.job_file + ": " + reason);
  ++host_failures_;
  for (const std::size_t j : jobs) {
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
  // The orphan drill leaves workers finishing their result files.
  if (!orphaning_) {
    for (Slot& s : slots_) s.stop();
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
  const int completed = executed_ + in_process_;
  if (options_.abort_after_completed >= 0 && completed >= options_.abort_after_completed) {
    orphaning_ = options_.orphan_on_abort;
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
  std::string bytes = farm::encode_frame(
      farm::FrameType::kCheckpointHeader,
      farm::encode_checkpoint_header({farm::batch_fingerprint(jobs_), jobs_.size()}));
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (done_[i] != 0) {
      bytes += farm::encode_frame(farm::FrameType::kOutcome, farm::encode_outcome(i, results_[i]));
    }
  }
  // One owner frame per in-flight dispatch, so a resumed farm knows
  // which result files may appear without it.
  for (std::size_t h = 0; h < slots_.size(); ++h) {
    const Slot& s = slots_[h];
    if (s.jobs.empty()) continue;
    const farm::ShardOwner owner{options_.hosts[h].id, s.result_file,
                                 std::vector<std::uint64_t>(s.jobs.begin(), s.jobs.end())};
    bytes += farm::encode_frame(farm::FrameType::kShardOwner, farm::encode_shard_owner(owner));
  }
  // Atomic replace: a reader (or a crash) never sees a half-written
  // checkpoint — corruption can only come from outside, and the
  // restore path treats that as a clean restart.
  const std::string tmp = options_.checkpoint_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    KYOTO_CHECK_MSG(out.good(), "cannot write checkpoint: " << tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    KYOTO_CHECK_MSG(out.good(), "short checkpoint write: " << tmp);
  }
  KYOTO_CHECK_MSG(std::rename(tmp.c_str(), options_.checkpoint_path.c_str()) == 0,
                  "cannot publish checkpoint: " << options_.checkpoint_path);
}

std::vector<farm::ShardOwner> Farm::restore_checkpoint() {
  if (options_.checkpoint_path.empty() || ::access(options_.checkpoint_path.c_str(), F_OK) != 0) {
    return {};  // no checkpoint yet: fresh sweep
  }
  // Validate the whole file before applying anything: a corrupt tail
  // must not leave half a restore behind.
  std::vector<farm::FarmOutcome> restored;
  std::vector<farm::ShardOwner> owners;
  std::string ignored;
  try {
    const std::vector<farm::Frame> frames = farm::read_frame_file(options_.checkpoint_path);
    if (frames.empty() || frames.front().type != farm::FrameType::kCheckpointHeader) {
      throw farm::CodecError("checkpoint does not start with a header frame");
    }
    const farm::CheckpointHeader header = farm::decode_checkpoint_header(frames.front().payload);
    if (header.fingerprint != farm::batch_fingerprint(jobs_) ||
        header.total_jobs != jobs_.size()) {
      ignored = "checkpoint ignored: written by a different job batch";
    }
    for (std::size_t f = 1; f < frames.size() && ignored.empty(); ++f) {
      if (frames[f].type == farm::FrameType::kOutcome) {
        farm::FarmOutcome outcome = farm::decode_outcome(frames[f].payload);
        if (outcome.id >= jobs_.size()) throw farm::CodecError("checkpoint job id out of range");
        restored.push_back(std::move(outcome));
      } else if (frames[f].type == farm::FrameType::kShardOwner) {
        farm::ShardOwner owner = farm::decode_shard_owner(frames[f].payload);
        for (const std::uint64_t id : owner.job_ids) {
          if (id >= jobs_.size()) throw farm::CodecError("owner-frame job id out of range");
        }
        const std::string& name = owner.result_file;
        if (name.empty() || name == "." || name == ".." ||
            name.find_first_of(std::string("/\0", 2)) != std::string::npos) {
          throw farm::CodecError("owner-frame result file must be a bare file name");
        }
        owners.push_back(std::move(owner));
      } else {
        throw farm::CodecError("unexpected frame type in checkpoint");
      }
    }
  } catch (const farm::CodecError& e) {
    ignored = std::string("checkpoint ignored (clean restart): ") + e.what();
  }
  if (!ignored.empty()) {
    degrade_reason_ = ignored;
    health_->note(now_s(), "", "restart", ignored);
    return {};
  }
  for (farm::FarmOutcome& outcome : restored) {
    const auto index = static_cast<std::size_t>(outcome.id);
    if (done_[index] == 0) ++restored_;
    results_[index] = std::move(outcome.outcome);
    done_[index] = 1;
  }
  return owners;
}

void Farm::recollect_owned_shards(const std::vector<farm::ShardOwner>& owners) {
  for (const farm::ShardOwner& owner : owners) {
    // Reconstruct the shard's validation surface from the owner frame.
    farm::HostShard shard;
    shard.host_id = owner.host_id;
    shard.result_file = owner.result_file;
    shard.job_ids = owner.job_ids;
    for (const std::uint64_t id : owner.job_ids) {
      shard.labels.push_back(jobs_[static_cast<std::size_t>(id)].label);
    }
    const ShardCollect collect =
        collect_shard(shard, options_.work_dir + "/" + owner.result_file);
    if (collect.state != ShardCollect::State::kOk) {
      health_->note(now_s(), owner.host_id, "recollect-miss",
                    owner.result_file + ": " + shard_collect_state_name(collect.state) +
                        (collect.detail.empty() ? "" : " — " + collect.detail) +
                        "; will re-run");
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
  write_checkpoint();  // preserve completed work for a resume
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

double Farm::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
}

std::string Farm::report() const {
  if (health_ == nullptr) return "";
  std::ostringstream out;
  out << "farm: " << executed_ << " executed on hosts, " << restored_
      << " restored from checkpoint, " << recollected_ << " re-collected from owners, "
      << in_process_ << " in-process; " << dispatches_ << " dispatch(es), " << host_failures_
      << " host failure(s), " << retries_ << " job retr(ies)";
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
