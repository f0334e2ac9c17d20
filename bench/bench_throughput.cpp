// BENCH throughput — raw access-engine speed (accesses/sec, ns/access).
//
// Not a paper figure: this is the engineering harness for the hot
// path that *every* figure replays millions of times
// (Machine::run_vcpu → MemorySystem::access → SetAssocCache::access).
// It drives the streaming and random reference mixes of the Fig 1
// micro-VM classes through three engine/stream combinations:
//
//   baseline — a faithful replica of the pre-overhaul engine
//              (tests/support/reference_cache.hpp: AoS lines, per-op
//              virtual workload dispatch, per-access requester/
//              socket/modulo setup, unique_ptr-indirected per-level
//              calls exactly like the old MemorySystem), re-measured
//              live so the before/after comparison is valid on any
//              machine;
//   current  — the production engine: fused multi-level miss walk,
//              pruned-LRU fills + nibble-order victims, v1 streams;
//   fast     — the production engine consuming v2 compiled streams
//              through the geometric-skip ref-batch form.
//
// The two v1 rows replay the *identical* op stream and the bench
// asserts their hit/miss counters and simulated stall cycles match
// exactly before trusting any timing; the v2 row is gated on
// statistical equivalence (accesses within 1%, LLC miss rate within
// 3%).
//
// Mixes run on both experiment machines: the 1/64-scaled Table 1
// machine that the figure benches use (tiny caches — nearly every
// access is a multi-level miss transaction, the worst case for the
// engine) and the full-size Table 1 production machine (realistic hit
// rates, megabyte metadata arrays).  Working sets are derived from
// the geometry so the mixes exercise the same regimes on both:
// private-cache-resident streaming, LLC streaming, and LLC-busting
// uniform random (the blockie-style disruptor).
//
// A "control_plane" section measures the other end of the tick: mixes
// built so vCPU execution is nearly free (1 kHz clock — ten cycles
// per tick) and deep per-core runqueues make pick + credit/cap
// accounting + PMU virtualization + Kyoto debit/earn/punish the
// entire tick cost.  Its ticks/s and identity-switch engagement are
// recorded, not gated (exactness of the control plane is the
// accounting oracle test's job).
//
// Output: human-readable table plus a JSON record (--json PATH,
// default BENCH_throughput.json; schema documented in README.md) for
// the perf trajectory.  Every timed cell is the minimum over --reps
// runs (counters are deterministic across reps, so the minimum is the
// least-noise estimate of the same simulation).  --min-mops enforces
// an absolute floor on the current engine so CI fails on perf
// regressions; --min-speedup enforces the before/after aggregate
// ratio.
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cache/memory_system.hpp"
#include "cache/topology.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "hv/credit_scheduler.hpp"
#include "hv/hypervisor.hpp"
#include "kyoto/ks4xen.hpp"
#include "mem/patterns.hpp"
#include "support/reference_cache.hpp"
#include "workloads/pattern_workload.hpp"

using namespace kyoto;

namespace {

// ------------------------------------------------------------------
// Baseline engine: replica of the pre-overhaul MemorySystem over the
// frozen AoS cache, including its indirections — caches held behind
// unique_ptr in vectors, one out-of-line engine call per op, socket
// and NUMA relation resolved per access (prefetch and bus are off in
// these mixes, as in the calibrated experiments).
// ------------------------------------------------------------------
struct BaselineMemorySystem {
  cache::Topology topology;
  cache::MemSystemConfig cfg;
  std::vector<std::unique_ptr<cache::ReferenceSetAssocCache>> l1, l2, llc;

  BaselineMemorySystem(const cache::Topology& topo, const cache::MemSystemConfig& config,
                       std::uint64_t seed)
      : topology(topo), cfg(config) {
    for (int c = 0; c < topo.total_cores(); ++c) {
      l1.push_back(std::make_unique<cache::ReferenceSetAssocCache>(
          "L1", config.l1, cache::ReplacementKind::kLru,
          seed * 1000003ull + static_cast<std::uint64_t>(c)));
      l2.push_back(std::make_unique<cache::ReferenceSetAssocCache>(
          "L2", config.l2, cache::ReplacementKind::kLru,
          seed * 2000003ull + static_cast<std::uint64_t>(c)));
    }
    for (int s = 0; s < topo.sockets; ++s) {
      llc.push_back(std::make_unique<cache::ReferenceSetAssocCache>(
          "LLC", config.llc, config.llc_replacement,
          seed * 4000037ull + static_cast<std::uint64_t>(s)));
    }
  }

  // Mirrors the old MemorySystem::access line by line; noinline keeps
  // the per-op call boundary the old engine had.
  __attribute__((noinline)) cache::AccessResult access(int core, Address addr, bool write,
                                                       int home_node, int vm,
                                                       std::int64_t now_cycle) {
    const cache::Requester req{core, vm};
    cache::AccessResult result;
    if (l1[static_cast<std::size_t>(core)]->access(addr, write, req).hit) {
      result.level = cache::CacheLevel::kL1;
      result.latency = cfg.lat_l1;
      return result;
    }
    if (l2[static_cast<std::size_t>(core)]->access(addr, write, req).hit) {
      result.level = cache::CacheLevel::kL2;
      result.latency = cfg.lat_l2;
      return result;
    }
    result.llc_reference = true;
    const int socket = topology.socket_of(core);
    if (llc[static_cast<std::size_t>(socket)]->access(addr, write, req).hit) {
      result.level = cache::CacheLevel::kLlc;
      result.latency = cfg.lat_llc;
      return result;
    }
    result.llc_miss = true;
    const bool remote = home_node != topology.node_of(core);
    result.level = remote ? cache::CacheLevel::kMemRemote : cache::CacheLevel::kMemLocal;
    result.latency = remote ? cfg.lat_mem_remote : cfg.lat_mem_local;
    (void)now_cycle;  // bus model off, exactly like the old guard
    return result;
  }
};

struct Mix {
  std::string name;
  Bytes working_set;
  double mem_ratio;
  double write_ratio;
  bool sequential;  // streaming walk vs uniform random lines
  double mlp;       // latency-hiding factor of the modelled kernel
};

struct RunStats {
  std::uint64_t instructions = 0;
  std::uint64_t accesses = 0;   // memory ops reaching the hierarchy
  std::uint64_t l1_hits = 0;
  std::uint64_t llc_misses = 0;
  Cycles sim_cycles = 0;        // accumulated simulated stall cycles
  double seconds = 0.0;

  double mops() const { return accesses / seconds / 1e6; }
  double ns_per_access() const { return seconds * 1e9 / static_cast<double>(accesses); }
};

std::unique_ptr<workloads::Workload> make_workload(
    const Mix& mix, std::uint64_t seed,
    workloads::StreamVersion stream = workloads::StreamVersion::kV1) {
  workloads::WorkloadSpec spec;
  spec.name = mix.name;
  spec.mem_ratio = mix.mem_ratio;
  spec.write_ratio = mix.write_ratio;
  spec.mlp = mix.mlp;
  spec.stream = stream;
  std::unique_ptr<mem::Pattern> pattern;
  if (mix.sequential) {
    pattern = std::make_unique<mem::SequentialPattern>(mix.working_set);
  } else {
    pattern = std::make_unique<mem::UniformRandomPattern>(mix.working_set);
  }
  return std::make_unique<workloads::PatternWorkload>(spec, std::move(pattern), seed);
}

/// Pre-overhaul replay loop: one virtual next() per op, per-op modulo
/// translate, per-access engine call, libm lround cost scaling.
RunStats run_baseline(const Mix& mix, const cache::MemSystemConfig& cfg,
                      std::uint64_t ops) {
  auto workload = make_workload(mix, /*seed=*/42);
  BaselineMemorySystem mem(cache::Topology{1, 1}, cfg, /*seed=*/1);
  const double inv_mlp = 1.0 / workload->spec().mlp;
  const Bytes space_size = std::max<Bytes>(workload->spec().working_set, mem::kLineBytes);
  const Address base = 1ull << 30;
  RunStats stats;
  Cycles cycles = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const mem::Op op = workload->next();  // one virtual dispatch per op
    Cycles cost = 1;
    if (op.kind != mem::OpKind::kCompute) {
      const Address addr = base + op.addr % space_size;  // old translate()
      const auto access =
          mem.access(0, addr, op.kind == mem::OpKind::kStore, 0, 0, cycles);
      cost = std::max<Cycles>(
          1, static_cast<Cycles>(std::lround(static_cast<double>(access.latency) * inv_mlp)));
      if (access.llc_miss) ++stats.llc_misses;
    }
    cycles += cost;
  }
  stats.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  stats.instructions = ops;
  stats.accesses = mem.l1[0]->stats().accesses;
  stats.l1_hits = mem.l1[0]->stats().hits;
  stats.sim_cycles = cycles;
  return stats;
}

/// Production replay loop: hoisted access context, with v2 streams
/// consumed as geometric-skip ref batches (the structure of
/// Machine::run_vcpu) and v1 streams as blocked next_batch ops (kept
/// per-op so the v1 rows stay comparable with the frozen baseline
/// engine).  `stream` selects the workload stream format (v1 = frozen
/// per-op streams, v2 = compiled streams).  Both loops also stage
/// upcoming accesses' LLC rows a few ops ahead (AccessContext::stage),
/// like Machine::run_vcpu.
RunStats run_current(const Mix& mix, const cache::MemSystemConfig& cfg, std::uint64_t ops,
                     workloads::StreamVersion stream) {
  auto workload = make_workload(mix, /*seed=*/42, stream);
  cache::MemorySystem memory(cache::Topology{1, 1}, cfg, /*seed=*/1);
  auto ctx = memory.context(/*core=*/0, /*home_node=*/0, /*vm=*/0);
  const double inv_mlp = 1.0 / workload->spec().mlp;
  const bool unit_mlp = workload->spec().mlp == 1.0;
  const Address base = 1ull << 30;
  constexpr std::size_t kAhead = 8;  // lookahead staging distance
  // Stage upcoming LLC rows only for streams that actually spill past
  // the private caches; for ILC-resident mixes the LLC is never
  // probed and staging would drag its metadata through the host
  // cache for nothing.  Mirrors Machine::run_vcpu.
  const bool stage = workload->spec().working_set > cfg.l2.size;
  RunStats stats;
  Cycles cycles = 0;
  constexpr std::size_t kBlock = 256;
  const auto t0 = std::chrono::steady_clock::now();
  if (workload->stream_version() == workloads::StreamVersion::kV2) {
    // Geometric-skip consumption: one loop iteration per memory
    // reference; compute runs arrive as gap counts and cost one
    // addition.
    workloads::AccessRef refs[kBlock];
    for (std::uint64_t done = 0; done < ops;) {
      std::uint32_t trailing = 0;
      const auto batch = workload->next_ref_batch(
          refs, kBlock, static_cast<std::size_t>(ops - done), &trailing);
      for (std::size_t r = 0; r < batch.refs; ++r) {
        if (stage && r + kAhead < batch.refs) ctx.stage(base + refs[r + kAhead].addr);
        cycles += refs[r].gap;  // the compute run before this access
        const auto access = ctx.access(base + refs[r].addr, refs[r].write, cycles);
        cycles += unit_mlp ? std::max<Cycles>(1, access.latency)
                           : std::max<Cycles>(
                                 1, static_cast<Cycles>(
                                        static_cast<double>(access.latency) * inv_mlp + 0.5));
        stats.llc_misses += access.llc_miss;
      }
      cycles += trailing;
      done += batch.ops;
      if (batch.ops == 0) break;  // defensive: a stuck stream must not hang the bench
    }
  } else {
    mem::Op block[kBlock];
    for (std::uint64_t done = 0; done < ops;) {
      const std::size_t want =
          static_cast<std::size_t>(std::min<std::uint64_t>(kBlock, ops - done));
      const std::size_t len = workload->next_batch(block, want);
      for (std::size_t b = 0; b < len; ++b) {
        const mem::Op op = block[b];
        Cycles cost = 1;
        if (op.kind != mem::OpKind::kCompute) {
          if (stage && b + kAhead < len && block[b + kAhead].kind != mem::OpKind::kCompute) {
            ctx.stage(base + block[b + kAhead].addr);
          }
          const Address addr = base + op.addr;  // new translate(): no modulo
          const auto access = ctx.access(addr, op.kind == mem::OpKind::kStore, cycles);
          cost = unit_mlp ? std::max<Cycles>(1, access.latency)
                          : std::max<Cycles>(
                                1, static_cast<Cycles>(
                                       static_cast<double>(access.latency) * inv_mlp + 0.5));
          stats.llc_misses += access.llc_miss;  // branchless: flag is data-random
        }
        cycles += cost;
      }
      done += len;
    }
  }
  stats.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  stats.instructions = ops;
  stats.accesses = memory.l1(0).stats().accesses;
  stats.l1_hits = memory.l1(0).stats().hits;
  stats.sim_cycles = cycles;
  return stats;
}

/// Mixes for one machine, with working sets derived from its geometry
/// so both machines exercise the same regimes.
std::vector<Mix> mixes_for(const cache::MemSystemConfig& cfg) {
  return {
      // C1-style streams resident in the private caches.
      {"stream_l1", cfg.l1.size / 2, 0.6, 0.3, true, 2.0},
      {"stream_l2", cfg.l2.size / 2, 0.6, 0.3, true, 2.0},
      // C2-style stream through the LLC.
      {"stream_llc", cfg.llc.size / 2, 0.6, 0.3, true, 2.0},
      // C3-style blockie: uniform random over 3x the LLC.
      {"random_mem", cfg.llc.size * 3, 0.8, 0.3, false, 1.0},
  };
}

/// Footprint-query microbench: the monitor-tick path.  The old engine
/// answered footprint_lines(vm)/occupancy() with O(total-lines) scans
/// — polled per tick per VM by pollution monitors, that scan grows
/// linearly with machine size.  The new engine answers from counters
/// maintained on fill/evict/invalidate.
struct FootprintStats {
  double base_mqueries = 0.0;  // million queries/sec, old engine
  double cur_mqueries = 0.0;   // million queries/sec, new engine
  double speedup() const { return cur_mqueries / base_mqueries; }
};

FootprintStats run_footprint(const cache::MemSystemConfig& cfg, std::uint64_t queries) {
  // Warm both LLCs with the same 8-VM occupancy pattern.
  cache::ReferenceSetAssocCache ref("LLC", cfg.llc, cfg.llc_replacement, 1);
  cache::SetAssocCache cur("LLC", cfg.llc, cfg.llc_replacement, 1);
  Rng rng(99);
  const Bytes span = cfg.llc.size * 2;
  for (std::uint64_t i = 0; i < cfg.llc.size / 16; ++i) {
    const Address addr = rng.below(span / mem::kLineBytes) * mem::kLineBytes;
    const cache::Requester req{0, static_cast<int>(i % 8)};
    ref.access(addr, false, req);
    cur.access(addr, false, req);
  }
  FootprintStats out;
  std::uint64_t sink = 0;
  {
    // The O(lines) scan is slow enough that a small query count gives
    // a stable rate.
    const std::uint64_t n = std::max<std::uint64_t>(queries / 1000, 200);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t q = 0; q < n; ++q) sink += ref.footprint_lines(q % 8);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    out.base_mqueries = static_cast<double>(n) / s / 1e6;
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t q = 0; q < queries; ++q) sink += cur.footprint_lines(q % 8);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    out.cur_mqueries = static_cast<double>(queries) / s / 1e6;
  }
  // Keep the compiler honest and verify the counters agree with the scan.
  bool agree = true;
  for (int vm = 0; vm < 8; ++vm) agree &= ref.footprint_lines(vm) == cur.footprint_lines(vm);
  if (!agree || sink == 0xdeadbeef) {
    std::cerr << "footprint counters diverge from scans\n";
    std::exit(1);
  }
  return out;
}

// ------------------------------------------------------------------
// Parallel tick engine: end-to-end hypervisor ticks on the 4-socket
// Table-1 machine (scaled geometry, like the figure benches), the
// same simulation once per engine width.  threads=1 is the serial
// engine; threads=2/4 execute socket partitions concurrently.  Every
// width must produce *bit-identical* per-VM counters and LLC
// attribution — the exact-agreement check below and the integration
// suite (parallel_equivalence_test) both enforce it — so the only
// thing allowed to change is wall-clock time.
// ------------------------------------------------------------------
struct ParallelRun {
  int threads = 1;
  double seconds = 0.0;
  std::uint64_t accesses = 0;  // hierarchy accesses in the measured window
  std::vector<std::uint64_t> agreement;  // serialized end-state, compared across widths
  double mops() const { return static_cast<double>(accesses) / seconds / 1e6; }
};

ParallelRun run_parallel_ticks(const cache::Topology& topo, int threads, Tick warmup,
                               Tick measure) {
  hv::MachineConfig config;  // scaled Table 1 socket geometry
  config.topology = topo;
  hv::Hypervisor hv(config, std::make_unique<hv::CreditScheduler>());
  hv.set_execution_threads(threads);
  // The agreement signature below compares per-VM LLC misses, which
  // only an LLC observing ground truth keeps.
  hv.machine().memory().observe_ground_truth();

  // One looping VM per core, cycling through the fig-1 regimes so
  // every socket carries the same mix of hit-heavy and miss-heavy
  // lanes (the miss-heavy lanes dominate the serial tick time).
  const std::vector<Mix> mixes = mixes_for(config.mem);
  for (int core = 0; core < topo.total_cores(); ++core) {
    const Mix& mix = mixes[static_cast<std::size_t>(core) % mixes.size()];
    hv::VmConfig vm_config;
    vm_config.name = mix.name + "#" + std::to_string(core);
    vm_config.loop_workload = true;
    vm_config.home_node = topo.socket_of(core);
    hv.create_vm(vm_config, make_workload(mix, 42 + static_cast<std::uint64_t>(core)), core);
  }

  hv.run_ticks(warmup);
  auto total_accesses = [&] {
    std::uint64_t n = 0;
    for (int core = 0; core < topo.total_cores(); ++core) {
      n += hv.machine().memory().l1(core).stats().accesses;
    }
    return n;
  };
  const std::uint64_t before = total_accesses();
  const auto t0 = std::chrono::steady_clock::now();
  hv.run_ticks(measure);
  ParallelRun run;
  run.threads = threads;
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  run.accesses = total_accesses() - before;

  // End-state signature for the exact-agreement check.
  for (hv::Vm* vm : hv.vms()) {
    const pmc::CounterSet counters = vm->counters();
    for (unsigned c = 0; c < pmc::kCounterCount; ++c) run.agreement.push_back(counters.values[c]);
  }
  for (int socket = 0; socket < topo.sockets; ++socket) {
    const auto& llc = hv.machine().memory().llc(socket);
    run.agreement.push_back(llc.stats().accesses);
    run.agreement.push_back(llc.stats().hits);
    run.agreement.push_back(llc.stats().misses);
    run.agreement.push_back(llc.stats().evictions);
    for (int vm = 0; vm < hv.vm_count(); ++vm) {
      run.agreement.push_back(llc.stats_for_vm(vm).misses);
      run.agreement.push_back(llc.footprint_lines(vm));
    }
  }
  return run;
}

// ------------------------------------------------------------------
// Control-plane engine: accounting-bound hypervisor ticks.  The clock
// is 1 kHz (ten cycles per 10 ms tick), so vCPU execution drains in a
// handful of sub-quanta and nearly the whole tick is pick + credit
// burn + cap/band accounting + PMU virtualization + Kyoto
// debit/earn/punish.  Deep per-core runqueues (consolidated-host
// depth — kControlPlaneVmsPerCore) mean the pick loop and the per-VM
// accounting walks scan real candidates, weights/caps vary across
// tenants so every accounting lane is live, and half the tenants book
// a tight pollution permit so the punish machinery oscillates.
// ------------------------------------------------------------------
struct ControlPlaneRun {
  double seconds = 0.0;
  Tick ticks = 0;
  std::int64_t identity_ticks = 0;  // identity-switch fast-path hits
  double ticks_per_sec() const { return static_cast<double>(ticks) / seconds; }
};

/// Mixes whose tick cost is the control plane, not the memory system:
/// a private-cache-resident stream (pure scheduler/PMU cost) and an
/// LLC-resident stream whose misses trickle through attribution and
/// the Kyoto debit path.
std::vector<Mix> control_plane_mixes(const cache::MemSystemConfig& cfg) {
  return {
      {"acct_small_ws", cfg.l1.size / 2, 0.6, 0.3, true, 1.0},
      {"acct_llc_resident", cfg.llc.size / 2, 0.8, 0.3, true, 1.0},
  };
}

/// Runqueue depth for the control-plane cells: deep enough that the
/// per-VM surfaces (pick scan, slice-end refill, controller walk)
/// dominate the tick, like a consolidated host.
constexpr int kControlPlaneVmsPerCore = 32;

ControlPlaneRun run_control_plane(const Mix& mix, Tick warmup, Tick measure) {
  hv::MachineConfig config;  // scaled geometry, accounting-bound clock
  config.topology = cache::Topology{1, 4};
  config.freq_khz = 1;
  hv::Hypervisor hv(config, std::make_unique<core::Ks4Xen>());

  constexpr int kVmsPerCore = kControlPlaneVmsPerCore;
  constexpr int kWeights[] = {512, 256, 256, 128};
  for (int core = 0; core < config.topology.total_cores(); ++core) {
    for (int i = 0; i < kVmsPerCore; ++i) {
      hv::VmConfig vm_config;
      vm_config.name = mix.name + "#" + std::to_string(core) + "." + std::to_string(i);
      vm_config.loop_workload = true;
      vm_config.weight = kWeights[i % 4];
      vm_config.cpu_cap_percent = i % 4 == 3 ? 50 : 0;
      // Tight permit on alternating tenants: at ~0.1 miss/ms an
      // LLC-resident stream overruns it, so punishment cycles.
      vm_config.llc_cap = i % 2 == 0 ? 0.05 : 0.0;
      hv.create_vm(vm_config,
                   make_workload(mix, 42 + static_cast<std::uint64_t>(
                                           core * kVmsPerCore + i)),
                   core);
    }
  }

  hv.run_ticks(warmup);
  const std::int64_t identity_before = hv.identity_switch_ticks();
  const auto t0 = std::chrono::steady_clock::now();
  hv.run_ticks(measure);
  ControlPlaneRun run;
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  run.ticks = measure;
  run.identity_ticks = hv.identity_switch_ticks() - identity_before;
  return run;
}

/// Minimum-seconds run out of `reps` repetitions of the same
/// deterministic cell: the counters are identical across reps, so the
/// fastest repetition is the least-noise timing of that simulation.
template <typename F>
auto min_over_reps(int reps, F&& cell) {
  auto best = cell();
  for (int r = 1; r < reps; ++r) {
    auto next = cell();
    if (next.seconds < best.seconds) best = std::move(next);
  }
  return best;
}

struct ControlPlaneSection {
  struct Cell {
    std::string mix;
    ControlPlaneRun run;
  };
  Tick measure = 0;
  std::vector<Cell> cells;
};

/// Runs the control-plane cells and prints their table.
ControlPlaneSection run_control_plane_section(int reps, bool quick) {
  ControlPlaneSection section;
  section.measure = quick ? 30'000 : 120'000;
  const Tick warmup = 300;
  TextTable table({"machine", "mix", "Kticks/s", "seconds", "identity ticks"});
  for (const Mix& mix : control_plane_mixes(cache::scaled_mem_system())) {
    ControlPlaneSection::Cell cell;
    cell.mix = mix.name;
    cell.run = min_over_reps(reps, [&] {
      return run_control_plane(mix, warmup, section.measure);
    });
    table.add_row({"scaled_1x4", mix.name, fmt_double(cell.run.ticks_per_sec() / 1e3, 1),
                   fmt_double(cell.run.seconds, 2), std::to_string(cell.run.identity_ticks)});
    section.cells.push_back(std::move(cell));
  }
  std::cout << "\n  control plane (accounting-bound ticks, " << kControlPlaneVmsPerCore
            << " VMs/core, " << section.measure << " ticks)\n"
            << table;
  return section;
}

/// A floor exactly as enforced (no rounding), for PASS/FAIL lines.
std::string fmt_floor(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_throughput.json";
  double min_mops = 0.0;
  double min_speedup = 0.0;
  double min_parallel_speedup = 0.0;
  int max_threads = 4;
  int reps = 5;
  bool reps_given = false;
  bool quick = bench::quick_mode();
  std::uint64_t ops = 0;  // 0 = pick per mode

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") json_path = value();
    else if (arg == "--min-mops") min_mops = std::stod(value());
    else if (arg == "--min-speedup") min_speedup = std::stod(value());
    else if (arg == "--min-parallel-speedup") min_parallel_speedup = std::stod(value());
    else if (arg == "--threads") max_threads = std::stoi(value());
    else if (arg == "--reps") { reps = std::stoi(value()); reps_given = true; }
    else if (arg == "--ops") ops = std::stoull(value());
    else if (arg == "--quick") quick = true;
    else {
      std::cerr << "usage: bench_throughput [--json PATH] [--min-mops X] "
                   "[--min-speedup X] [--min-parallel-speedup X] "
                   "[--threads N] [--reps N] [--ops N] [--quick]\n";
      return 2;
    }
  }
  if (ops == 0) ops = quick ? 2'000'000ull : 10'000'000ull;
  if (reps < 1) reps = 1;
  // Quick mode (the ctest smoke) trims the default repetitions: the
  // floors it gates are conservative, and 5x the cell work would push
  // a sanitized tree past the smoke timeout.  An explicit --reps wins.
  if (quick && !reps_given) reps = std::min(reps, 2);

  bench::header("BENCH throughput", "access-engine speed (not a paper figure)",
                "the overhauled engine sustains a multiple of the pre-overhaul "
                "accesses/sec on the fig-1 streaming/random mixes, with "
                "bit-identical simulated results");

  struct MachineUnderTest {
    std::string name;
    cache::MemSystemConfig cfg;
  };
  const std::vector<MachineUnderTest> machines = {
      {"scaled", cache::scaled_mem_system()},  // figure-bench machine (1/64)
      {"paper", cache::paper_mem_system()},    // production Table 1 machine
  };

  TextTable table({"machine", "mix", "engine", "stream", "Maccess/s", "ns/access", "speedup"});
  bool all_ok = true;
  struct Row {
    std::string machine, mix;
    RunStats base;  // frozen pre-overhaul engine, v1 stream
    RunStats cur;   // production engine, v1 stream
    RunStats fast;  // production engine, v2 stream
  };
  std::vector<Row> rows;

  for (const auto& m : machines) {
    for (const Mix& mix : mixes_for(m.cfg)) {
      Row row;
      row.machine = m.name;
      row.mix = mix.name;
      row.base = min_over_reps(reps, [&] { return run_baseline(mix, m.cfg, ops); });
      row.cur = min_over_reps(reps, [&] {
        return run_current(mix, m.cfg, ops, workloads::StreamVersion::kV1);
      });
      row.fast = min_over_reps(reps, [&] {
        return run_current(mix, m.cfg, ops, workloads::StreamVersion::kV2);
      });
      const double speedup = row.cur.mops() / row.base.mops();
      const double fast_speedup = row.fast.mops() / row.base.mops();
      table.add_row({m.name, mix.name, "baseline", "v1", fmt_double(row.base.mops(), 2),
                     fmt_double(row.base.ns_per_access(), 1), ""});
      table.add_row({m.name, mix.name, "current", "v1", fmt_double(row.cur.mops(), 2),
                     fmt_double(row.cur.ns_per_access(), 1), fmt_double(speedup, 2) + "x"});
      table.add_row({m.name, mix.name, "fast", "v2", fmt_double(row.fast.mops(), 2),
                     fmt_double(row.fast.ns_per_access(), 1),
                     fmt_double(fast_speedup, 2) + "x"});

      // The v1 engines must simulate the same machine: identical op
      // stream, identical hit/miss outcome, identical stall cycles.
      // Timing means nothing if this fails.
      all_ok &= bench::check(
          m.name + "/" + mix.name + ": v1 engines agree exactly (frozen == production)",
          row.base.accesses == row.cur.accesses && row.base.l1_hits == row.cur.l1_hits &&
              row.base.llc_misses == row.cur.llc_misses &&
              row.base.sim_cycles == row.cur.sim_cycles);

      // The v2 stream is a different (seed-versioned) draw sequence,
      // so agreement is statistical: same instruction mix and miss
      // behavior within tight tolerances.
      const double acc_rel =
          std::abs(static_cast<double>(row.fast.accesses) -
                   static_cast<double>(row.cur.accesses)) /
          static_cast<double>(row.cur.accesses);
      const double miss_cur =
          static_cast<double>(row.cur.llc_misses) / static_cast<double>(row.cur.accesses);
      const double miss_fast =
          static_cast<double>(row.fast.llc_misses) / static_cast<double>(row.fast.accesses);
      const double miss_rel =
          miss_cur == 0.0 ? std::abs(miss_fast) : std::abs(miss_fast - miss_cur) / miss_cur;
      all_ok &= bench::check(
          m.name + "/" + mix.name + ": v2 stream statistically equivalent "
          "(accesses within 1%, LLC miss rate within 3%)",
          acc_rel < 0.01 && (miss_cur < 1e-9 ? miss_fast < 1e-6 : miss_rel < 0.03));
      rows.push_back(std::move(row));
    }
  }
  std::cout << table << '\n';

  // Aggregate throughput: total accesses over total wall time, the
  // number a whole-figure replay experiences.
  double base_acc = 0, base_sec = 0, cur_acc = 0, cur_sec = 0;
  double worst_speedup = 1e30, best_speedup = 0, worst_mops = 1e30;
  for (const Row& r : rows) {
    base_acc += static_cast<double>(r.base.accesses);
    base_sec += r.base.seconds;
    cur_acc += static_cast<double>(r.cur.accesses);
    cur_sec += r.cur.seconds;
    const double speedup = r.cur.mops() / r.base.mops();
    worst_speedup = std::min(worst_speedup, speedup);
    best_speedup = std::max(best_speedup, speedup);
    worst_mops = std::min(worst_mops, r.cur.mops());
  }
  const double agg_base = base_acc / base_sec / 1e6;
  const double agg_cur = cur_acc / cur_sec / 1e6;
  const double agg_speedup = agg_cur / agg_base;
  std::cout << "  aggregate: " << fmt_double(agg_base, 2) << " -> " << fmt_double(agg_cur, 2)
            << " Maccess/s, speedup " << fmt_double(agg_speedup, 2) << "x (per-mix "
            << fmt_double(worst_speedup, 2) << "x .. " << fmt_double(best_speedup, 2)
            << "x)\n";

  // Monitor-tick path: footprint queries on the production-size LLC.
  const FootprintStats fp = run_footprint(cache::paper_mem_system(), quick ? 500'000 : 2'000'000);
  std::cout << "  footprint_lines (paper LLC): " << fmt_double(fp.base_mqueries * 1000, 1)
            << " -> " << fmt_double(fp.cur_mqueries * 1000, 1) << " Kqueries/s, speedup "
            << fmt_double(fp.speedup(), 0) << "x (O(lines) scan -> O(1) counter)\n";
  all_ok &= bench::check("footprint query speedup >= 3x (monitor-tick path)",
                         fp.speedup() >= 3.0);

  // Parallel tick engine on the 4-socket Table-1 machine: the
  // per-socket partitioned Hypervisor::run_one_tick, swept over
  // engine widths.  Exact agreement across widths is always enforced;
  // the speedup is recorded for the trajectory and only *gated* when
  // the host can actually run the lanes concurrently (ctest floors
  // stay threads=1 so CI is hardware-agnostic).
  const cache::Topology table1x4{4, 4};
  const Tick par_warmup = 2;
  const Tick par_measure = quick ? 8 : 24;
  std::vector<int> widths = {1};
  for (const int t : {2, 4}) {
    if (t <= max_threads) widths.push_back(t);
  }
  std::vector<ParallelRun> par_runs;
  for (const int threads : widths) {
    par_runs.push_back(run_parallel_ticks(table1x4, threads, par_warmup, par_measure));
  }
  const int host_lanes = ThreadPool::hardware_lanes();
  TextTable par_table({"machine", "threads", "Maccess/s", "seconds", "speedup"});
  bool par_agree = true;
  for (const ParallelRun& run : par_runs) {
    par_agree &= run.agreement == par_runs.front().agreement;
    par_table.add_row({"table1x4(scaled)", std::to_string(run.threads),
                       fmt_double(run.mops(), 2), fmt_double(run.seconds, 2),
                       fmt_double(run.mops() / par_runs.front().mops(), 2) + "x"});
  }
  std::cout << "\n  parallel tick engine (4-socket Table 1, " << par_measure
            << " ticks, host cpus: " << host_lanes << ")\n"
            << par_table;
  all_ok &= bench::check(
      "parallel engine agrees exactly with serial (per-VM counters, LLC attribution)",
      par_agree);
  const double par_best =
      par_runs.back().mops() / par_runs.front().mops();
  if (min_parallel_speedup > 0.0) {
    if (host_lanes >= widths.back()) {
      all_ok &= bench::check("threads=" + std::to_string(widths.back()) + " speedup >= " +
                                 fmt_double(min_parallel_speedup, 1) + "x vs serial",
                             par_best >= min_parallel_speedup);
    } else {
      std::cout << "  (parallel speedup gate skipped: host has " << host_lanes
                << " cpu(s) for " << widths.back() << " lanes)\n";
    }
  }

  // Control plane: accounting-bound ticks/s and identity-switch
  // engagement, recorded for the trajectory (not gated).
  const ControlPlaneSection cp = run_control_plane_section(reps, quick);

  if (min_mops > 0.0) {
    all_ok &= bench::check("current engine >= " + fmt_floor(min_mops) +
                               " Maccess/s floor (worst mix)",
                           worst_mops >= min_mops);
  }
  if (min_speedup > 0.0) {
    all_ok &= bench::check(
        "aggregate speedup >= " + fmt_floor(min_speedup) + "x vs pre-overhaul engine",
        agg_speedup >= min_speedup);
  }
  // JSON record for the perf trajectory (schema in README.md).
  // Schema v8: v7 without the "unfused" rows, the "v2" object and the
  // control-plane reference runs (the engines they compared against
  // are gone).
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"throughput\",\n  \"schema\": 8,\n"
       << "  \"ops_per_mix\": " << ops << ",\n  \"reps\": " << reps
       << ",\n  \"quick\": " << (quick ? "true" : "false")
       << ",\n  \"host_cpus\": " << host_lanes << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    struct EngineRow {
      const RunStats* stats;
      const char* engine;
      const char* stream;
    };
    const EngineRow engine_rows[] = {{&r.base, "baseline", "v1"},
                                     {&r.cur, "current", "v1"},
                                     {&r.fast, "fast", "v2"}};
    for (const EngineRow& e : engine_rows) {
      json << "    {\"machine\": \"" << r.machine << "\", \"mix\": \"" << r.mix
           << "\", \"engine\": \"" << e.engine << "\", \"stream\": \"" << e.stream
           << "\", \"accesses\": " << e.stats->accesses
           << ", \"seconds\": " << e.stats->seconds << ", \"accesses_per_sec\": "
           << static_cast<std::uint64_t>(e.stats->accesses / e.stats->seconds)
           << ", \"ns_per_access\": " << e.stats->ns_per_access() << "}"
           << (i + 1 == rows.size() && e.stats == &r.fast ? "\n" : ",\n");
    }
  }
  json << "  ],\n  \"aggregate_baseline_maccess_per_sec\": " << agg_base
       << ",\n  \"aggregate_current_maccess_per_sec\": " << agg_cur
       << ",\n  \"aggregate_speedup\": " << agg_speedup
       << ",\n  \"worst_mix_speedup\": " << worst_speedup
       << ",\n  \"best_mix_speedup\": " << best_speedup
       << ",\n  \"worst_current_maccess_per_sec\": " << worst_mops
       << ",\n  \"footprint_query_speedup\": " << fp.speedup()
       // Schema v2 (additive): the per-socket parallel tick sweep.
       // speedups are only meaningful when host_cpus >= threads.
       << ",\n  \"parallel\": {\n    \"machine\": \"table1x4_scaled\",\n    \"sockets\": "
       << table1x4.sockets << ",\n    \"cores\": " << table1x4.total_cores()
       << ",\n    \"ticks\": " << par_measure << ",\n    \"host_cpus\": " << host_lanes
       << ",\n    \"exact_agreement\": " << (par_agree ? "true" : "false")
       << ",\n    \"runs\": [\n";
  for (std::size_t i = 0; i < par_runs.size(); ++i) {
    const ParallelRun& r = par_runs[i];
    json << "      {\"threads\": " << r.threads << ", \"seconds\": " << r.seconds
         << ", \"accesses\": " << r.accesses << ", \"accesses_per_sec\": "
         << static_cast<std::uint64_t>(static_cast<double>(r.accesses) / r.seconds)
         << ", \"speedup_vs_serial\": " << r.mops() / par_runs.front().mops() << "}"
         << (i + 1 == par_runs.size() ? "\n" : ",\n");
  }
  json << "    ]\n  },\n";
  json << "  \"control_plane\": {\n    \"machine\": \"scaled_1x4\",\n"
       << "    \"cores\": 4,\n    \"vms_per_core\": " << kControlPlaneVmsPerCore
       << ",\n    \"freq_khz\": 1,\n"
       << "    \"ticks\": " << cp.measure << ",\n    \"host_cpus\": " << host_lanes
       << ",\n    \"runs\": [\n";
  for (std::size_t i = 0; i < cp.cells.size(); ++i) {
    const ControlPlaneSection::Cell& c = cp.cells[i];
    json << "      {\"mix\": \"" << c.mix << "\", \"seconds\": " << c.run.seconds
         << ", \"ticks_per_sec\": " << static_cast<std::uint64_t>(c.run.ticks_per_sec())
         << ", \"identity_switch_ticks\": " << c.run.identity_ticks << "}"
         << (i + 1 == cp.cells.size() ? "\n" : ",\n");
  }
  json << "    ]\n  }\n}\n";
  json.close();
  std::cout << "\n  JSON written to " << json_path << '\n';

  return bench::verdict(all_ok);
}
