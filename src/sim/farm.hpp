// The farm: a sweep batch executed by worker processes on a set of
// hosts, with one dispatch loop, one failure policy and one
// checkpoint path.
//
// sim::SweepRunner shards a batch across the threads of one process;
// the Farm ships each job to a *separate process* running the
// `sweep_worker` binary, which is what long overnight grids want: a
// crashed or wedged job cannot take the coordinator down, and an
// interrupted sweep resumes from a checkpoint instead of restarting.
//
// Jobs are declarative scenario texts (sim/scenario_file.hpp) because
// a process boundary cannot ship std::function factories; the worker
// parses the text back into the exact (RunSpec, VmPlans) the
// coordinator would have built, so — the simulator being
// deterministic — farm outcomes are byte-identical to the in-process
// SweepRunner at every host count, including under injected faults
// (tests/sim/farm_*_test.cpp are the gates).
//
// Hosts and dispatches.  A host is a HostSpec: a worker command.
// Every dispatch is one shard of jobs_per_shard jobs (wire format of
// sim/farm_codec.hpp): the coordinator writes a job file F into
// work_dir, runs one `sweep_worker --jobs F --results G` process, and
// validates G (sim/shard_splitter.hpp's collect_shard) when that
// process exits.  That is the same worker command and checker as a
// shard run by hand (`scenario_runner --split-jobs` and
// `--merge-results`), whose manifest is a checkpoint of this farm's
// kind, read by the same reader.  A local worker slot is a host whose
// command runs here (local_workers()); on a real fleet, worker_path
// points at a wrapper that ships F out and G back (ssh/scp, a queue,
// anything).
//
// Failure policy (sim/host_health.hpp tracks every host):
//  * A failed dispatch (a worker that dies or exits non-zero, a
//    missing, corrupt, foreign or incomplete result file, a deadline
//    overrun) charges the host and removes the dispatch's shard
//    files.  The host climbs one back-off ladder: its k-th
//    consecutive failure holds it back backoff.delay_s(k - 1), the
//    kRetireAfterFailures-th (6) retires it for the run, and a
//    completed dispatch resets the ladder.  The dispatch's jobs go
//    back on the queue; queued shards are offered to usable idle
//    hosts in order of consecutive failures, ties in host order (a
//    "redistribute" event when another host takes them).
//  * A host whose worker_path cannot be executed is retired before
//    the first dispatch, charged no failure.
//  * The failure counts against each job's max_retries only when the
//    host has completed a dispatch this run: a poisoned job that kills
//    every worker still fails the batch, naming the job, while a host
//    that never delivers (bad binary, dead link) charges only itself.
//  * When every host is retired, the farm degrades to in-process
//    execution — same outcomes, no distribution.
//  * A deterministic job failure (the worker's error frame, or a throw
//    in the in-process path) fails the batch at once, naming the job:
//    retrying would fail identically.
//
// Checkpoints (farm::write_checkpoint_file / read_checkpoint_file;
// every checkpoint_every completed jobs, at each dispatch, and before
// any throw): a header frame binding the exact batch
// (batch_fingerprint), one outcome frame per finished job, and one
// kShardOwner frame per in-flight dispatch recording where its result
// file will appear.  A resumed farm restores the outcomes, then
// re-collects owned result files that finished while it was down
// (whatever hosts the resumed run has), then runs only the rest.  A
// corrupt, truncated or foreign checkpoint is ignored as a whole —
// clean restart, never a half-applied restore.  A dispatch's shard
// files are removed once it ends, and an owned shard's once the
// resume has collected or given it up; a batch failure or an
// interrupt stops the workers in flight and removes their files
// before the last checkpoint, which then owns none (save the
// orphan drill's).
//
// The coordinator is single-threaded (a bounded sleep, then
// waitpid(WNOHANG) over its workers and a deadline pass), so it
// composes with everything else: a worker can still use
// RunSpec::threads internally, and the coordinator runs under
// ASan/UBSan without special-casing.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/farm_codec.hpp"
#include "sim/host_health.hpp"

namespace kyoto::sim {

/// One executor.  Each dispatch execv's `worker_path` with
/// `--jobs <file> --results <file>`, then `worker_args`.
struct HostSpec {
  std::string id;
  std::string worker_path;
  std::vector<std::string> worker_args;
};

/// `count` local hosts "w0".."w<count-1>" running `worker_path`.
std::vector<HostSpec> local_workers(int count, const std::string& worker_path,
                                    const std::vector<std::string>& worker_args = {});

struct FarmOptions {
  /// The executors.  Empty = run the batch in-process.
  std::vector<HostSpec> hosts;
  /// Directory for shard files and for re-collecting owned result
  /// files on resume.  Must exist when used.
  std::string work_dir = ".";
  /// Jobs per dispatch (0 = one balanced shard per host).
  int jobs_per_shard = 0;
  /// Charged failures tolerated per job beyond which the batch fails
  /// (a job may run up to max_retries + 1 times).
  int max_retries = 2;
  /// Per-failure hold-back schedule (seeded jitter, keyed on the
  /// host id).
  BackoffPolicy backoff;
  /// Wall-clock seconds per job: a dispatch of n jobs may take
  /// n * timeout_s before the host is declared hung (worker killed,
  /// host charged); 0 disables.
  double timeout_s = 600.0;
  /// Checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Completed jobs between checkpoint writes (>= 1).
  int checkpoint_every = 8;
  /// Test knob: once this many jobs have completed in this run, flush
  /// a checkpoint and throw FarmInterrupted — an interrupted sweep,
  /// deterministically.  < 0 disables.
  int abort_after_completed = -1;
  /// Test knob: on that interrupt, leave in-flight workers running —
  /// they finish their result files, which is the "coordinator died,
  /// hosts lived" case owner frames exist for.
  bool orphan_on_abort = false;
};

/// Thrown by the abort_after_completed knob after the checkpoint is
/// flushed; a new Farm with the same jobs and checkpoint path resumes
/// where this run stopped.
class FarmInterrupted : public std::runtime_error {
 public:
  FarmInterrupted(const std::string& message, int completed)
      : std::runtime_error(message), completed_(completed) {}
  int completed() const { return completed_; }

 private:
  int completed_;
};

class Farm {
 public:
  explicit Farm(FarmOptions options);
  ~Farm();

  Farm(const Farm&) = delete;
  Farm& operator=(const Farm&) = delete;

  /// Enqueues one scenario-text job; returns its index into the
  /// vector run() returns.  The text is parsed here, so malformed
  /// jobs throw at add() with the parser's diagnostics.
  std::size_t add(std::string scenario_text, std::string label = "");
  std::size_t pending() const { return jobs_.size(); }

  /// Executes the batch and returns outcomes in submission order,
  /// byte-identical to the in-process SweepRunner.  Clears the batch
  /// on success.  Throws FarmInterrupted (abort knob) and
  /// std::runtime_error naming the job when a job exhausts its
  /// retries or fails deterministically.
  std::vector<RunOutcome> run();

  // Accounting for the run() that last finished (or threw).  The
  // host-side counts sum the health tracker's per-host records.
  int jobs_executed() const { return sum_hosts(&HostStats::jobs_completed); }  // by hosts
  int jobs_restored() const { return restored_; }        // checkpoint outcome frames
  int jobs_recollected() const { return recollected_; }  // owner-frame result files
  int jobs_in_process() const { return in_process_; }    // degraded remainder
  int dispatches() const { return sum_hosts(&HostStats::shards_dispatched); }  // attempts
  int host_failure_count() const { return sum_hosts(&HostStats::failures); }
  int job_retries() const { return retries_; }           // charged failed attempts
  /// True when any job ran in-process (no hosts, or all retired).
  bool degraded() const { return degraded_; }
  /// Why the run degraded or ignored its checkpoint; empty otherwise.
  const std::string& degrade_reason() const { return degrade_reason_; }

  /// Per-host health and the event log; null before the first run().
  const HostHealthTracker* health() const { return health_.get(); }
  /// The structured farm report (counters, per-host table, event
  /// log); empty before the first run().
  std::string report() const;

  /// Resolves the worker binary for a tool: $KYOTO_SWEEP_WORKER if
  /// set, else a `sweep_worker` next to `argv0`, else "" (in-process).
  static std::string default_worker_path(const char* argv0);

 private:
  struct Slot;  // one host's in-flight dispatch and its worker

  /// Restores finished outcomes; returns the owner records to re-collect.
  std::vector<farm::ShardOwner> restore_checkpoint();
  void recollect_owned_shards(const std::vector<farm::ShardOwner>& owners);
  void dispatch_loop();
  void assign();
  void start(int host, std::vector<std::size_t> jobs);
  void pump();
  void finish(int host, int status);
  void complete(int host, const std::vector<farm::FarmOutcome>& outcomes);
  void fail(int host, const std::string& reason);
  void stop_workers();
  void run_in_process_remainder();
  void after_jobs_completed(int count);
  void write_checkpoint();
  void degrade(std::string reason);
  [[noreturn]] void fail_batch(const std::string& message);
  /// A deterministic job failure; `detail` names the job.
  [[noreturn]] void fail_job(const std::string& detail);
  std::string describe_job(std::size_t index) const;
  /// Sums one per-host counter over the health tracker (0 before run()).
  int sum_hosts(int HostStats::*field) const;
  double now_s() const;

  FarmOptions options_;
  std::vector<farm::FarmJob> jobs_;

  // Per-run state (reset by run()).
  std::vector<RunOutcome> results_;
  std::vector<char> done_;
  std::unique_ptr<HostHealthTracker> health_;
  std::vector<Slot> slots_;               // one per host while dispatching
  std::deque<std::size_t> queue_;         // undone job indices
  std::vector<int> attempts_;             // charged failures per job
  std::vector<int> last_failed_host_;     // per job; -1 = none
  std::size_t shard_size_ = 1;
  bool orphaning_ = false;
  int restored_ = 0;
  int recollected_ = 0;
  int in_process_ = 0;
  int retries_ = 0;
  int since_checkpoint_ = 0;
  bool degraded_ = false;
  std::string degrade_reason_;
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace kyoto::sim
