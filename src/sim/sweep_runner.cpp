#include "sim/sweep_runner.hpp"

#include <exception>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace kyoto::sim {
namespace {

/// Serializes one cache level compactly ("size/ways/line").
void append_geometry(std::ostringstream& out, const cache::CacheGeometry& g) {
  out << g.size << '/' << g.ways << '/' << g.line << ';';
}

}  // namespace

std::string solo_memo_key(const RunSpec& spec, const std::string& workload_id,
                          const std::string& vm_name) {
  const hv::MachineConfig& m = spec.machine;
  std::ostringstream key;
  key << m.topology.sockets << 'x' << m.topology.cores_per_socket << ';';
  append_geometry(key, m.mem.l1);
  append_geometry(key, m.mem.l2);
  append_geometry(key, m.mem.llc);
  key << m.mem.lat_l1 << ',' << m.mem.lat_l2 << ',' << m.mem.lat_llc << ','
      << m.mem.lat_mem_local << ',' << m.mem.lat_mem_remote << ';'
      << static_cast<int>(m.mem.llc_replacement) << ';'
      << m.mem.prefetch.enabled << ':' << m.mem.prefetch.degree << ';'
      << m.mem.bus.enabled << ':' << m.mem.bus.transfer_cycles << ';'
      << m.freq_khz << ';' << m.seed << ';'
      << "wl=" << workload_id << ';' << "vm=" << vm_name << ';'
      << "seed=" << spec.seed << ';'
      << "window=" << spec.warmup_ticks << '+' << spec.measure_ticks;
  return key.str();
}

SweepRunner::SweepRunner(int lanes) : lanes_(lanes < 1 ? 1 : lanes) {
  if (lanes_ > 1) pool_ = std::make_unique<ThreadPool>(lanes_);
}

SweepRunner::~SweepRunner() = default;

std::size_t SweepRunner::add(RunSpec spec, std::vector<VmPlan> plans, std::string label) {
  return add(std::move(spec), std::move(plans), HvObserver{}, std::move(label));
}

std::size_t SweepRunner::add(RunSpec spec, std::vector<VmPlan> plans, HvObserver observe,
                             std::string label) {
  // The same validation build_scenario performs, hoisted to the
  // submission thread: a lane's job function must not throw.
  // A churning spec may start with zero planned VMs (tenants arrive
  // from the trace); a static one needs at least one.
  KYOTO_CHECK_MSG(!plans.empty() || spec.churn != nullptr,
                  "sweep job needs at least one VmPlan (or a churn plan)");
  for (const auto& plan : plans) {
    KYOTO_CHECK_MSG(!plan.pinned_cores.empty(), "VmPlan needs at least one pinned core");
    KYOTO_CHECK_MSG(plan.workload != nullptr, "VmPlan needs a workload factory");
  }
  KYOTO_CHECK_MSG(spec.scheduler != nullptr, "RunSpec needs a scheduler factory");
  jobs_.push_back(
      Job{std::move(spec), std::move(plans), std::move(label), {}, std::move(observe)});
  return jobs_.size() - 1;
}

std::size_t SweepRunner::add_completion(RunSpec spec, std::vector<VmPlan> plans,
                                        std::size_t target, Tick max_ticks,
                                        std::string label) {
  KYOTO_CHECK_MSG(target < plans.size(), "completion target out of range");
  KYOTO_CHECK_MSG(max_ticks > 0, "completion job needs max_ticks > 0");
  const std::size_t index = add(std::move(spec), std::move(plans), std::move(label));
  jobs_[index].completion = true;
  jobs_[index].completion_target = target;
  jobs_[index].completion_max_ticks = max_ticks;
  return index;
}

std::size_t SweepRunner::add_solo(const RunSpec& spec, const WorkloadFactory& factory,
                                  const std::string& workload_id,
                                  const std::string& vm_name) {
  KYOTO_CHECK_MSG(factory != nullptr, "add_solo needs a workload factory");
  // The memo key cannot see the scheduler factory, so make the keyed
  // semantics true by construction: solo baselines always run under
  // the default scheduler, whatever spec.scheduler holds.  (A solo VM
  // with no permit behaves identically under every vanilla scheduler;
  // baselining under a specific Kyoto setup is a scenario, not a solo
  // — use add() for it.)
  RunSpec solo_spec = spec;
  solo_spec.scheduler = RunSpec{}.scheduler;
  // Same reasoning for churn: a solo baseline means the VM alone on
  // the machine, and the memo key cannot see a churn plan.
  solo_spec.churn = nullptr;
  VmPlan plan;
  plan.config.name = vm_name;
  plan.workload = factory;
  plan.pinned_cores = {0};
  const std::size_t index = add(std::move(solo_spec), {std::move(plan)}, "solo:" + workload_id);
  jobs_[index].memo_key = solo_memo_key(spec, workload_id, vm_name);
  ++solo_requests_;
  return index;
}

std::vector<RunOutcome> SweepRunner::run() {
  // Deduplicate solo jobs against the cache and within the batch:
  // `execute` holds the indices that actually need a hypervisor, in
  // submission order; every other job aliases an executed job or a
  // cached outcome.
  constexpr std::size_t kCached = ~static_cast<std::size_t>(0);
  std::vector<std::size_t> execute;
  std::vector<std::size_t> source(jobs_.size(), kCached);  // job -> executing job
  std::unordered_map<std::string, std::size_t> batch_first;  // memo key -> job index
  execute.reserve(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const std::string& key = jobs_[i].memo_key;
    if (key.empty()) {
      source[i] = i;
      execute.push_back(i);
      continue;
    }
    if (solo_cache_.count(key) != 0) {
      ++solo_memo_hits_;
      continue;  // source stays kCached: answered from the cache
    }
    const auto [it, fresh] = batch_first.emplace(key, i);
    if (fresh) {
      source[i] = i;
      execute.push_back(i);
    } else {
      ++solo_memo_hits_;
      source[i] = it->second;
    }
  }

  // One hypervisor per lane-claimed job; each lane writes only its own
  // pre-sized slot, so the pool barrier is the only synchronization.
  std::vector<RunOutcome> executed(jobs_.size());
  std::vector<std::exception_ptr> errors(execute.size());
  const auto run_one = [&](std::size_t e) {
    const std::size_t job = execute[e];
    try {
      executed[job] =
          jobs_[job].completion
              ? run_to_completion(jobs_[job].spec, jobs_[job].plans,
                                  jobs_[job].completion_target, jobs_[job].completion_max_ticks)
              : run_scenario(jobs_[job].spec, jobs_[job].plans, jobs_[job].observe);
    } catch (...) {
      errors[e] = std::current_exception();
    }
  };
  if (pool_ != nullptr) {
    pool_->run(execute.size(), run_one);
  } else {
    for (std::size_t e = 0; e < execute.size(); ++e) run_one(e);
  }
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      jobs_.clear();
      std::rethrow_exception(error);
    }
  }

  // Publish fresh solo outcomes, then assemble results in submission
  // order (serial: result order never depends on lane completion).
  for (const std::size_t job : execute) {
    const std::string& key = jobs_[job].memo_key;
    if (!key.empty()) solo_cache_.emplace(key, executed[job]);
  }
  std::vector<RunOutcome> results;
  results.reserve(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (source[i] == i) {
      // Executed here; fresh solo outcomes were copied into the cache
      // above, so moving the slot is safe.
      results.push_back(std::move(executed[i]));
    } else {
      // Memoized (within this batch or from an earlier one): every
      // deduplicated solo outcome is in the cache by now.
      results.push_back(solo_cache_.at(jobs_[i].memo_key));
    }
  }
  jobs_.clear();
  return results;
}

}  // namespace kyoto::sim
