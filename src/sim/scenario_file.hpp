// Declarative scenario files.
//
// Experiments can be described in a small INI-like text format instead
// of C++, which makes the simulator usable as a standalone tool:
//
//   # two tenants on the scaled Table-1 machine under KS4Xen
//   [machine]
//   topology = 1x4            # sockets x cores-per-socket
//   scale = 64                # geometric scale of the Table-1 machine
//                             # (cache geometry, and clock 2.8 GHz / scale);
//                             # a power of two from 1 to 64, so every
//                             # cache keeps a power-of-two set count
//   freq_khz = 43750          # core clock; wins over scale's, in any order
//   prefetch = off            # off | on[:degree]
//   bus = off                 # off | on[:transfer_cycles]
//   llc_replacement = LRU     # LRU|PLRU|random|LIP|BIP|DIP
//
//   [scheduler]
//   kind = ks4xen             # xcs|cfs|pisces|ks4xen|ks4linux|ks4pisces
//   monitor = direct          # direct|mcsim|dedication (kyoto kinds only)
//
//   [workload]
//   stream = v2               # v1 (default, bit-identical to seed
//                             # behavior) | v2 (compiled streams —
//                             # statistically equivalent, faster; see
//                             # README "Stream versioning")
//
//   [vm tenant-a]
//   app = gcc                 # catalog profile, or micro:c2rep etc.
//   cores = 0                 # comma-separated, one per vCPU
//   llc_cap = 20              # pollution permit (miss/ms); 0 = unbooked
//   loop = true
//
//   [run]
//   warmup_ticks = 6          # >= 0
//   measure_ticks = 60        # >= 1
//   threads = 1               # per-job tick-execution threads (RunSpec::threads)
//
//   [churn]                   # optional: tenants churn mid-run
//   trace = poisson           # poisson | diurnal | bursty | file:<path>
//   rate = 0.05               # expected arrivals per tick, in [0, 1)
//   mean_lifetime = 60        # ticks (geometric); 0 = tenants never leave
//   horizon = 600             # arrivals occur in ticks [0, horizon)
//   seed = 1                  # trace RNG seed (independent of [run] seed)
//   period = 200              # diurnal wave period (ticks, > 0)
//   amplitude = 0.8           # diurnal wave amplitude, in [0, 1]
//   burst_rate = 0.005        # bursty: flash-crowd epochs per tick, in [0, 1)
//   burst_size = 8            # bursty: tenants per epoch (> 0)
//   apps = gcc,micro:c2dis    # tenant app mix, round-robin per arrival
//   vcpus = 1                 # exclusively owned cores per tenant
//   max_tenants = 0           # live-tenant cap; 0 = core-bounded only
//   defer_queue = 8           # bounded deferral FIFO (>= 0); overflow rejects
//   llc_cap = 20              # tenant template, plus weight/cap/loop
//
// A churning scenario may omit [vm] sections entirely (the trace
// populates the machine); a static one must define at least one.
//
// Parsing is strict: unknown sections/keys, malformed or out-of-range
// values (the ranges above, a negative llc_cap, mean_lifetime or
// max_tenants, a monitor outside the list — the trace kind's own keys
// are checked against the kind the file names) and unknown
// applications raise std::logic_error with a line number.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace kyoto::sim {

/// A fully parsed scenario: ready-to-run spec + VM plans.
struct Scenario {
  RunSpec spec;
  std::vector<VmPlan> plans;
  /// Section-order names, for reporting.
  std::vector<std::string> vm_names;
  /// Reference-stream format every VM's workload factory was built
  /// with ([workload] stream = ...; v1 default).
  workloads::StreamVersion stream = workloads::StreamVersion::kV1;
};

/// Parses scenario text.  Throws std::logic_error on any syntax or
/// semantic problem, with the offending line number in the message.
Scenario parse_scenario(const std::string& text);

/// Reads and parses a scenario file from disk.
Scenario load_scenario_file(const std::string& path);

/// Renders an already-computed outcome of `scenario` as an ASCII
/// table (one row per VM) — the formatting half of
/// run_scenario_report, so sweep drivers can execute scenarios
/// through sim::SweepRunner and format afterwards.
std::string scenario_report(const Scenario& scenario, const RunOutcome& outcome);

/// Runs a parsed scenario and renders the per-VM metrics as an ASCII
/// table (one row per VM).
std::string run_scenario_report(const Scenario& scenario);

}  // namespace kyoto::sim
