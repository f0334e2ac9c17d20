// Per-host health state for the multi-host farm, plus the shared
// exponential-backoff schedule.
//
// The model follows distributed control middleware (CERN RDA / TANGO
// device servers): every remote endpoint carries a health record and
// one back-off ladder — the k-th consecutive failure holds the host
// back delay_s(k - 1), the kRetireAfterFailures-th retires it for the
// run, and a completed dispatch resets the ladder — and every
// transition is logged as a structured, human-readable event so an
// operator can reconstruct *why* the farm degraded, not just that it
// did.
//
// Everything here is deliberately time-base-agnostic: callers pass a
// monotonic `t_s` (seconds since the run started), so the coordinator
// feeds wall-clock time while unit tests drive synthetic clocks and
// pin the exact transition instants.  The backoff jitter is seeded
// (splitmix64 over seed ^ key ^ attempt), never wall-clock random:
// the same configuration always produces the same schedule, which is
// what lets tests/sim/farm_backoff_test.cpp pin it byte-for-byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace kyoto::sim {

/// splitmix64: the jitter hash.  Deterministic, well-mixed, and
/// dependency-free — the standard choice for seeding-quality mixing.
std::uint64_t mix64(std::uint64_t x);

/// Exponential backoff with deterministic, seeded jitter.
///
///   delay(attempt) = min(base_s * 2^attempt, kMaxS)
///                    * (1 + kJitterFrac * u)   with u in [0, 1)
///
/// where u is derived from mix64(kSeed ^ key ^ attempt) — `key` is a
/// stable identity (a hashed host id), so two hosts never share a
/// jitter stream but every run of the same config does.
struct BackoffPolicy {
  static constexpr double kMaxS = 30.0;
  static constexpr double kJitterFrac = 0.25;
  static constexpr std::uint64_t kSeed = 0x6b796f746f666d0aull;  // "kyotofm\n"

  double base_s = 0.05;  // <= 0 disables the delay

  /// `attempt` is the 0-based count of prior consecutive failures.
  double delay_s(int attempt, std::uint64_t key) const;
};

/// Consecutive failures that retire a host for the run.
constexpr int kRetireAfterFailures = 6;

enum class HostState {
  kHealthy,  // accepting shards once any hold-back has passed
  kRetired,  // out for this run: kRetireAfterFailures consecutive
             // failures, or a worker that cannot be executed
};

const char* host_state_name(HostState state);

struct HostStats {
  std::string id;
  HostState state = HostState::kHealthy;
  int shards_dispatched = 0;   // attempts (re-dispatches count again)
  int shards_completed = 0;
  int jobs_completed = 0;
  int failures = 0;            // total failed attempts charged to this host
  int consecutive_failures = 0;  // the ladder's rung; a completed shard resets it
  /// Hold-back after a failure: the host is not usable before this
  /// instant (0 = no hold-back pending).
  double held_until_s = 0.0;
  std::string last_failure;
};

/// One line of the farm's event log.  `host` is empty for
/// coordinator-level events (degradation, checkpoint restarts).
struct FarmEvent {
  double t_s = 0.0;
  std::string host;
  std::string what;    // "dispatch", "complete", "failure", "retire", ...
  std::string detail;
};

/// Tracks health for a fixed (possibly empty) host set.  Pure
/// bookkeeping — the coordinator decides *what* to do; this class
/// decides *who is allowed to do it* and remembers every transition.
class HostHealthTracker {
 public:
  HostHealthTracker(std::vector<std::string> host_ids, BackoffPolicy backoff);

  int host_count() const { return static_cast<int>(hosts_.size()); }
  const HostStats& stats(int host) const { return hosts_[static_cast<std::size_t>(host)]; }
  const std::vector<HostStats>& all_stats() const { return hosts_; }

  /// True when the host is not retired and its hold-back (see
  /// record_failure) has passed at `t_s`.
  bool usable(int host, double t_s) const;

  /// Earliest instant a held-back host becomes usable again; +inf when
  /// there is none.
  double next_available_s() const;

  bool all_retired() const;

  void record_dispatch(int host, double t_s, const std::string& shard);
  void record_success(int host, double t_s, const std::string& shard, int jobs);
  /// Charges one failed attempt: the k-th consecutive failure holds
  /// the host back delay_s(k - 1), the kRetireAfterFailures-th retires
  /// it.  Returns the state after charging.
  HostState record_failure(int host, double t_s, const std::string& reason);
  /// Retires the host for the run at once (a "retire" event giving
  /// `reason`), without charging a failure.
  void retire(int host, double t_s, const std::string& reason);

  /// Coordinator-level event (redistribution, degradation, resume).
  void note(double t_s, const std::string& host, const std::string& what,
            const std::string& detail);

  const std::vector<FarmEvent>& events() const { return events_; }

  /// The structured farm report: a per-host summary table followed by
  /// the chronological event log.
  std::string report() const;

 private:
  std::vector<HostStats> hosts_;
  std::vector<FarmEvent> events_;
  BackoffPolicy backoff_;
};

}  // namespace kyoto::sim
