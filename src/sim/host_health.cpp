#include "sim/host_health.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "sim/farm_codec.hpp"

namespace kyoto::sim {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double BackoffPolicy::delay_s(int attempt, std::uint64_t key) const {
  if (base_s <= 0.0) return 0.0;
  const int a = std::max(attempt, 0);
  // ldexp saturates cleanly; cap before jitter so kMaxS bounds the
  // deterministic part and kMaxS * (1 + kJitterFrac) bounds the total.
  const double raw = std::min(std::ldexp(base_s, std::min(a, 60)), kMaxS);
  const std::uint64_t h = mix64(kSeed ^ key ^ static_cast<std::uint64_t>(a));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return raw * (1.0 + kJitterFrac * u);
}

const char* host_state_name(HostState state) {
  switch (state) {
    case HostState::kHealthy: return "healthy";
    case HostState::kRetired: return "retired";
  }
  return "?";
}

HostHealthTracker::HostHealthTracker(std::vector<std::string> host_ids, BackoffPolicy backoff)
    : backoff_(backoff) {
  hosts_.reserve(host_ids.size());
  for (std::string& id : host_ids) {
    HostStats h;
    h.id = std::move(id);
    hosts_.push_back(std::move(h));
  }
}

bool HostHealthTracker::usable(int host, double t_s) const {
  const HostStats& h = hosts_[static_cast<std::size_t>(host)];
  return h.state == HostState::kHealthy && t_s >= h.held_until_s;
}

double HostHealthTracker::next_available_s() const {
  double t = std::numeric_limits<double>::infinity();
  for (const HostStats& h : hosts_) {
    if (h.state == HostState::kHealthy && h.held_until_s > 0.0) t = std::min(t, h.held_until_s);
  }
  return t;
}

bool HostHealthTracker::all_retired() const {
  return std::all_of(hosts_.begin(), hosts_.end(),
                     [](const HostStats& h) { return h.state == HostState::kRetired; });
}

void HostHealthTracker::record_dispatch(int host, double t_s, const std::string& shard) {
  HostStats& h = hosts_[static_cast<std::size_t>(host)];
  ++h.shards_dispatched;
  h.held_until_s = 0.0;
  note(t_s, h.id, "dispatch", shard);
}

void HostHealthTracker::record_success(int host, double t_s, const std::string& shard,
                                       int jobs) {
  HostStats& h = hosts_[static_cast<std::size_t>(host)];
  ++h.shards_completed;
  h.jobs_completed += jobs;
  h.consecutive_failures = 0;  // a completed shard proves the host healthy
  h.held_until_s = 0.0;
  note(t_s, h.id, "complete", shard + " (" + std::to_string(jobs) + " job(s))");
}

HostState HostHealthTracker::record_failure(int host, double t_s, const std::string& reason) {
  HostStats& h = hosts_[static_cast<std::size_t>(host)];
  ++h.failures;
  ++h.consecutive_failures;
  h.last_failure = reason;
  if (h.consecutive_failures >= kRetireAfterFailures) {
    note(t_s, h.id, "failure", reason);
    retire(host, t_s, std::to_string(h.consecutive_failures) + " consecutive failures");
    return h.state;
  }
  // Hold the host back one rung of the ladder, so a crash-looping
  // worker is not restarted in a tight loop.  Jitter is keyed on the
  // host id so a fleet never thunders back as a herd.
  const double delay = backoff_.delay_s(h.consecutive_failures - 1, farm::fnv1a(h.id));
  h.held_until_s = t_s + delay;
  std::ostringstream oss;
  oss << reason << "; held back " << delay << "s";
  note(t_s, h.id, "failure", oss.str());
  return h.state;
}

void HostHealthTracker::retire(int host, double t_s, const std::string& reason) {
  HostStats& h = hosts_[static_cast<std::size_t>(host)];
  h.state = HostState::kRetired;
  note(t_s, h.id, "retire", reason + "; out for this run");
}

void HostHealthTracker::note(double t_s, const std::string& host, const std::string& what,
                             const std::string& detail) {
  events_.push_back(FarmEvent{t_s, host, what, detail});
}

std::string HostHealthTracker::report() const {
  std::ostringstream out;
  out << "farm report: " << hosts_.size() << " host(s)\n";
  for (const HostStats& h : hosts_) {
    out << "  host " << h.id << ": " << host_state_name(h.state) << ", dispatched "
        << h.shards_dispatched << ", completed " << h.shards_completed << " shard(s) / "
        << h.jobs_completed << " job(s), failures " << h.failures;
    if (!h.last_failure.empty()) out << ", last failure: " << h.last_failure;
    out << '\n';
  }
  out << "events:\n";
  for (const FarmEvent& e : events_) {
    out << "  [t=" << e.t_s << "s] " << (e.host.empty() ? "<coordinator>" : e.host) << ' '
        << e.what;
    if (!e.detail.empty()) out << ": " << e.detail;
    out << '\n';
  }
  return out.str();
}

}  // namespace kyoto::sim
