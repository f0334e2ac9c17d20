// Per-host health state for the multi-host farm, plus the shared
// exponential-backoff schedule.
//
// The model follows distributed control middleware (CERN RDA / TANGO
// device servers): every remote endpoint carries a health record —
// consecutive-failure budget, quarantine with exponential backoff,
// permanent retirement after repeated budget burns — and every
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
///   delay(attempt) = min(base_s * 2^attempt, max_s)
///                    * (1 + jitter_frac * u)   with u in [0, 1)
///
/// where u is derived from mix64(seed ^ key ^ attempt) — `key` is a
/// stable identity (worker slot, hashed host id), so two hosts never
/// share a jitter stream but every run of the same config does.
struct BackoffPolicy {
  double base_s = 0.05;
  double max_s = 30.0;
  double jitter_frac = 0.25;
  std::uint64_t seed = 0x6b796f746f666d0aull;  // "kyotofm\n"

  /// `attempt` is the 0-based count of prior consecutive failures.
  double delay_s(int attempt, std::uint64_t key) const;
};

enum class HostState {
  kHealthy,      // accepting shards
  kQuarantined,  // backing off; re-admitted when the clock passes quarantined_until_s
  kRetired,      // burned max_quarantines + 1 budgets; out for this run
};

const char* host_state_name(HostState state);

struct HostStats {
  std::string id;
  HostState state = HostState::kHealthy;
  int shards_dispatched = 0;   // attempts (re-dispatches count again)
  int shards_completed = 0;
  int jobs_completed = 0;
  int failures = 0;            // total failed attempts charged to this host
  int consecutive_failures = 0;
  int quarantines = 0;
  double quarantined_until_s = 0.0;
  /// Hold-back after a failure that did not burn the budget: a healthy
  /// host is not usable before this instant (0 = no hold-back pending).
  double held_until_s = 0.0;
  std::string last_failure;
};

/// One line of the farm's event log.  `host` is empty for
/// coordinator-level events (degradation, checkpoint restarts).
struct FarmEvent {
  double t_s = 0.0;
  std::string host;
  std::string what;    // "dispatch", "complete", "failure", "quarantine", ...
  std::string detail;
};

/// Tracks health for a fixed (possibly empty) host set.  Pure
/// bookkeeping — the coordinator decides *what* to do; this class
/// decides *who is allowed to do it* and remembers every transition.
class HostHealthTracker {
 public:
  /// `failure_budget`: consecutive failures tolerated before a
  /// quarantine (>= 1).  `max_quarantines`: quarantines survived
  /// before the host is retired (0 = first budget burn retires it).
  HostHealthTracker(std::vector<std::string> host_ids, int failure_budget,
                    int max_quarantines, BackoffPolicy backoff);

  int host_count() const { return static_cast<int>(hosts_.size()); }
  const HostStats& stats(int host) const { return hosts_[static_cast<std::size_t>(host)]; }
  const std::vector<HostStats>& all_stats() const { return hosts_; }

  /// True when the host may take a shard at `t_s`.  Crossing a
  /// quarantine expiry re-admits the host (state returns to healthy,
  /// with a "readmit" event) — callers never re-admit manually.  A
  /// pending hold-back (see record_failure) also blocks the host.
  bool usable(int host, double t_s);

  /// Earliest instant a quarantined or held-back host becomes usable
  /// again; +inf when there is none (all healthy or all retired).
  double next_available_s() const;

  bool all_retired() const;
  int quarantine_count() const;  // total quarantine transitions this run

  void record_dispatch(int host, double t_s, const std::string& shard);
  void record_success(int host, double t_s, const std::string& shard, int jobs);
  /// Charges one failed attempt.  Under budget, the host is held back
  /// for delay_s(consecutive_failures - 1); a burned budget
  /// quarantines it (with the next quarantine delay) or retires it.
  /// Returns the state after charging.
  HostState record_failure(int host, double t_s, const std::string& reason);

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
  int failure_budget_;
  int max_quarantines_;
  BackoffPolicy backoff_;
};

}  // namespace kyoto::sim
