#include "sim/scenario_file.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/table.hpp"
#include "hv/cfs_scheduler.hpp"
#include "hv/credit_scheduler.hpp"
#include "hv/pisces.hpp"
#include "kyoto/ks4linux.hpp"
#include "kyoto/ks4pisces.hpp"
#include "kyoto/ks4xen.hpp"
#include "sim/churn_engine.hpp"
#include "workloads/catalog.hpp"

namespace kyoto::sim {
namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  std::ostringstream oss;
  oss << "scenario parse error at line " << line << ": " << message;
  throw std::logic_error(oss.str());
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

double parse_double(const std::string& v, int line) {
  std::size_t used = 0;
  double d = 0.0;
  try {
    d = std::stod(v, &used);
  } catch (const std::exception&) {
    fail(line, "expected a number, got '" + v + "'");
  }
  if (used != v.size()) fail(line, "trailing characters in number '" + v + "'");
  return d;
}

long parse_int(const std::string& v, int line) {
  const double d = parse_double(v, line);
  const long i = static_cast<long>(d);
  if (static_cast<double>(i) != d) fail(line, "expected an integer, got '" + v + "'");
  return i;
}

bool parse_bool(const std::string& v, int line) {
  const std::string s = lower(v);
  if (s == "true" || s == "on" || s == "yes" || s == "1") return true;
  if (s == "false" || s == "off" || s == "no" || s == "0") return false;
  fail(line, "expected a boolean, got '" + v + "'");
}

cache::ReplacementKind parse_replacement(const std::string& v, int line) {
  const std::string s = lower(v);
  if (s == "lru") return cache::ReplacementKind::kLru;
  if (s == "plru") return cache::ReplacementKind::kPlru;
  if (s == "random") return cache::ReplacementKind::kRandom;
  if (s == "lip") return cache::ReplacementKind::kLip;
  if (s == "bip") return cache::ReplacementKind::kBip;
  if (s == "dip") return cache::ReplacementKind::kDip;
  fail(line, "unknown replacement policy '" + v + "'");
}

/// "off" or "on" or "on:N".
std::pair<bool, long> parse_feature(const std::string& v, int line, long default_arg) {
  const std::string s = lower(v);
  if (s == "off") return {false, default_arg};
  if (s == "on") return {true, default_arg};
  if (s.rfind("on:", 0) == 0) return {true, parse_int(s.substr(3), line)};
  fail(line, "expected off | on | on:<n>, got '" + v + "'");
}

/// A credit-scheduler weight: a share, so at least 1.
int parse_weight(const std::string& v, int line) {
  const long weight = parse_int(v, line);
  if (weight < 1) fail(line, "weight must be >= 1, got " + v);
  return static_cast<int>(weight);
}

/// A CPU cap in percent of one core; 0 means uncapped.
int parse_cap(const std::string& v, int line) {
  const long cap = parse_int(v, line);
  if (cap < 0) fail(line, "cap must be >= 0 (0 = uncapped), got " + v);
  return static_cast<int>(cap);
}

/// A pollution permit in misses/ms; 0 means unbooked.
double parse_llc_cap(const std::string& v, int line) {
  const double cap = parse_double(v, line);
  if (!(cap >= 0.0)) fail(line, "llc_cap must be >= 0 (0 = unbooked), got " + v);  // NaN fails
  return cap;
}

/// A per-tick Bernoulli probability, as the churn trace draws it (< 1,
/// so a tick can also see no arrival; NaN fails).
bool is_probability(double p) { return p >= 0.0 && p < 1.0; }

struct SchedulerChoice {
  std::string kind = "xcs";
  std::string monitor = "direct";
  int declared_line = 0;
};

WorkloadFactory app_factory_for(const std::string& value,
                                const cache::MemSystemConfig& mem, int line,
                                workloads::StreamVersion stream) {
  const std::string s = lower(value);
  if (s.rfind("micro:", 0) == 0) {
    const std::string which = s.substr(6);
    workloads::MicroClass cls;
    if (which.size() == 5 && which[0] == 'c' && which[1] >= '1' && which[1] <= '3') {
      cls = static_cast<workloads::MicroClass>(which[1] - '0');
    } else {
      fail(line, "micro workload must be micro:cIrep or micro:cIdis (I in 1..3)");
    }
    const bool rep = which.substr(2) == "rep";
    if (!rep && which.substr(2) != "dis") {
      fail(line, "micro workload must end in rep or dis");
    }
    return [cls, rep, mem, stream](std::uint64_t seed) {
      return rep ? workloads::micro_representative(cls, mem, seed, stream)
                 : workloads::micro_disruptive(cls, mem, seed, stream);
    };
  }
  // Validate the profile name now so errors carry the line number.
  try {
    workloads::app_profile(value);
  } catch (const std::logic_error&) {
    fail(line, "unknown application '" + value + "'");
  }
  return [value, mem, stream](std::uint64_t seed) {
    return workloads::make_app(value, mem, seed, stream);
  };
}

}  // namespace

Scenario parse_scenario(const std::string& text) {
  Scenario scenario;
  hv::MachineConfig machine;  // defaults: scaled Table-1 machine
  long scale = 64;
  bool scale_set = false;
  bool freq_set = false;
  SchedulerChoice sched;

  struct PendingVm {
    std::string name;
    std::string app;
    int app_line = 0;
    std::vector<int> cores;
    hv::VmConfig config;
    int declared_line = 0;
    int home_node_line = 0;  // range-checked once the topology is known
  };
  std::vector<PendingVm> vms;

  // Collected [churn] keys; factories are resolved after the whole
  // file is parsed (like the [vm] apps, so [workload] applies).
  struct PendingChurn {
    bool declared = false;
    int declared_line = 0;
    std::string trace = "poisson";
    int trace_line = 0;
    std::vector<std::string> apps;
    int apps_line = 0;
    ChurnTraceConfig config;
    hv::VmConfig tenant;
    int vcpus = 1;
    int max_tenants = 0;
    int defer_queue = 8;
    // Lines of the keys only one trace kind reads, checked once the
    // kind is known (the defaults are valid, so a bad value has one).
    int period_line = 0;
    int amplitude_line = 0;
    int burst_rate_line = 0;
    int burst_size_line = 0;
  };
  PendingChurn churn;

  enum class Section { kNone, kMachine, kScheduler, kWorkload, kVm, kRun, kChurn };
  Section section = Section::kNone;

  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') fail(line_no, "unterminated section header");
      const std::string header = trim(line.substr(1, line.size() - 2));
      const auto space = header.find(' ');
      const std::string kind = lower(space == std::string::npos ? header
                                                                : header.substr(0, space));
      if (kind == "machine") {
        section = Section::kMachine;
      } else if (kind == "scheduler") {
        section = Section::kScheduler;
        sched.declared_line = line_no;
      } else if (kind == "workload") {
        section = Section::kWorkload;
      } else if (kind == "run") {
        section = Section::kRun;
      } else if (kind == "churn") {
        section = Section::kChurn;
        churn.declared = true;
        churn.declared_line = line_no;
      } else if (kind == "vm") {
        if (space == std::string::npos) fail(line_no, "[vm <name>] requires a name");
        section = Section::kVm;
        PendingVm vm;
        vm.name = trim(header.substr(space + 1));
        vm.config.name = vm.name;
        vm.declared_line = line_no;
        vms.push_back(std::move(vm));
      } else {
        fail(line_no, "unknown section [" + header + "]");
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected key = value");
    const std::string key = lower(trim(line.substr(0, eq)));
    const std::string value = trim(line.substr(eq + 1));
    if (value.empty()) fail(line_no, "empty value for '" + key + "'");

    switch (section) {
      case Section::kNone:
        fail(line_no, "key outside any section");
      case Section::kMachine: {
        if (key == "topology") {
          const auto x = lower(value).find('x');
          if (x == std::string::npos) fail(line_no, "topology must be SxC, e.g. 2x4");
          machine.topology.sockets = static_cast<int>(parse_int(value.substr(0, x), line_no));
          machine.topology.cores_per_socket =
              static_cast<int>(parse_int(value.substr(x + 1), line_no));
          if (machine.topology.sockets < 1 || machine.topology.cores_per_socket < 1) {
            fail(line_no, "topology must be at least 1x1");
          }
        } else if (key == "scale") {
          scale = parse_int(value, line_no);
          if (scale < 1 || !cache::paper_mem_system().scales_by(static_cast<Bytes>(scale))) {
            fail(line_no, "scale " + value +
                              " leaves a Table-1 cache without a whole, power-of-two "
                              "number of sets");
          }
          scale_set = true;
        } else if (key == "freq_khz") {
          machine.freq_khz = parse_int(value, line_no);
          if (machine.freq_khz <= 0) fail(line_no, "freq_khz must be positive");
          freq_set = true;
        } else if (key == "llc_replacement") {
          machine.mem.llc_replacement = parse_replacement(value, line_no);
        } else if (key == "prefetch") {
          const auto [on, arg] = parse_feature(value, line_no, 2);
          machine.mem.prefetch.enabled = on;
          machine.mem.prefetch.degree = static_cast<unsigned>(arg);
        } else if (key == "bus") {
          const auto [on, arg] = parse_feature(value, line_no, 8);
          machine.mem.bus.enabled = on;
          machine.mem.bus.transfer_cycles = arg;
        } else if (key == "seed") {
          machine.seed = static_cast<std::uint64_t>(parse_int(value, line_no));
        } else {
          fail(line_no, "unknown [machine] key '" + key + "'");
        }
        break;
      }
      case Section::kScheduler: {
        if (key == "kind") {
          sched.kind = lower(value);
        } else if (key == "monitor") {
          sched.monitor = lower(value);
          if (sched.monitor != "direct" && sched.monitor != "mcsim" &&
              sched.monitor != "dedication") {
            fail(line_no, "monitor must be direct | mcsim | dedication, got '" + value + "'");
          }
        } else {
          fail(line_no, "unknown [scheduler] key '" + key + "'");
        }
        break;
      }
      case Section::kWorkload: {
        if (key == "stream") {
          const std::string s = lower(value);
          if (s == "v1") scenario.stream = workloads::StreamVersion::kV1;
          else if (s == "v2") scenario.stream = workloads::StreamVersion::kV2;
          else fail(line_no, "stream must be v1 or v2, got '" + value + "'");
        } else {
          fail(line_no, "unknown [workload] key '" + key + "'");
        }
        break;
      }
      case Section::kVm: {
        PendingVm& vm = vms.back();
        if (key == "app") {
          vm.app = value;
          vm.app_line = line_no;
        } else if (key == "cores") {
          vm.cores.clear();
          std::istringstream cs(value);
          std::string token;
          while (std::getline(cs, token, ',')) {
            vm.cores.push_back(static_cast<int>(parse_int(trim(token), line_no)));
          }
          if (vm.cores.empty()) fail(line_no, "cores must list at least one core");
        } else if (key == "llc_cap") {
          vm.config.llc_cap = parse_llc_cap(value, line_no);
        } else if (key == "weight") {
          vm.config.weight = parse_weight(value, line_no);
        } else if (key == "cap") {
          vm.config.cpu_cap_percent = parse_cap(value, line_no);
        } else if (key == "loop") {
          vm.config.loop_workload = parse_bool(value, line_no);
        } else if (key == "home_node") {
          vm.config.home_node = static_cast<int>(parse_int(value, line_no));
          vm.home_node_line = line_no;
        } else {
          fail(line_no, "unknown [vm] key '" + key + "'");
        }
        break;
      }
      case Section::kRun: {
        if (key == "warmup_ticks") {
          scenario.spec.warmup_ticks = parse_int(value, line_no);
          if (scenario.spec.warmup_ticks < 0) fail(line_no, "warmup_ticks must be >= 0");
        } else if (key == "measure_ticks") {
          scenario.spec.measure_ticks = parse_int(value, line_no);
          if (scenario.spec.measure_ticks < 1) fail(line_no, "measure_ticks must be >= 1");
        } else if (key == "seed") {
          scenario.spec.seed = static_cast<std::uint64_t>(parse_int(value, line_no));
        } else if (key == "threads") {
          const long threads = parse_int(value, line_no);
          if (threads < 1) fail(line_no, "threads must be >= 1");
          scenario.spec.threads = static_cast<int>(threads);
        } else {
          fail(line_no, "unknown [run] key '" + key + "'");
        }
        break;
      }
      case Section::kChurn: {
        if (key == "trace") {
          churn.trace = value;  // keep case: may be file:<path>
          churn.trace_line = line_no;
        } else if (key == "rate") {
          churn.config.arrival_rate = parse_double(value, line_no);
          if (!is_probability(churn.config.arrival_rate)) {
            fail(line_no, "rate is a per-tick probability in [0, 1), got " + value);
          }
        } else if (key == "mean_lifetime") {
          churn.config.mean_lifetime_ticks = parse_double(value, line_no);
          if (!(churn.config.mean_lifetime_ticks >= 0.0)) {  // NaN fails
            fail(line_no, "mean_lifetime must be >= 0 (0 = tenants never leave), got " + value);
          }
        } else if (key == "horizon") {
          churn.config.horizon_ticks = parse_int(value, line_no);
          if (churn.config.horizon_ticks < 0) fail(line_no, "horizon must be >= 0");
        } else if (key == "seed") {
          churn.config.seed = static_cast<std::uint64_t>(parse_int(value, line_no));
        } else if (key == "period") {
          churn.config.period_ticks = parse_int(value, line_no);
          churn.period_line = line_no;
        } else if (key == "amplitude") {
          churn.config.amplitude = parse_double(value, line_no);
          churn.amplitude_line = line_no;
        } else if (key == "burst_rate") {
          churn.config.burst_rate = parse_double(value, line_no);
          churn.burst_rate_line = line_no;
        } else if (key == "burst_size") {
          churn.config.burst_size = static_cast<int>(parse_int(value, line_no));
          churn.burst_size_line = line_no;
        } else if (key == "apps") {
          churn.apps.clear();
          std::istringstream as(value);
          std::string token;
          while (std::getline(as, token, ',')) {
            const std::string app = trim(token);
            if (!app.empty()) churn.apps.push_back(app);
          }
          if (churn.apps.empty()) fail(line_no, "apps must list at least one app");
          churn.apps_line = line_no;
        } else if (key == "vcpus") {
          churn.vcpus = static_cast<int>(parse_int(value, line_no));
          if (churn.vcpus < 1) fail(line_no, "vcpus must be >= 1");
        } else if (key == "max_tenants") {
          churn.max_tenants = static_cast<int>(parse_int(value, line_no));
          if (churn.max_tenants < 0) fail(line_no, "max_tenants must be >= 0 (0 = core-bounded)");
        } else if (key == "defer_queue") {
          churn.defer_queue = static_cast<int>(parse_int(value, line_no));
          if (churn.defer_queue < 0) fail(line_no, "defer_queue must be >= 0");
        } else if (key == "llc_cap") {
          churn.tenant.llc_cap = parse_llc_cap(value, line_no);
        } else if (key == "weight") {
          churn.tenant.weight = parse_weight(value, line_no);
        } else if (key == "cap") {
          churn.tenant.cpu_cap_percent = parse_cap(value, line_no);
        } else if (key == "loop") {
          churn.tenant.loop_workload = parse_bool(value, line_no);
        } else {
          fail(line_no, "unknown [churn] key '" + key + "'");
        }
        break;
      }
    }
  }

  // Apply machine scaling (geometry + clock together, like
  // scaled_machine()); an explicit freq_khz wins over the scaled clock,
  // whatever the key order.
  if (scale_set) {
    hv::MachineConfig base;
    base.topology = machine.topology;
    base.mem = cache::paper_mem_system();
    base.mem.llc_replacement = machine.mem.llc_replacement;
    base.mem.prefetch = machine.mem.prefetch;
    base.mem.bus = machine.mem.bus;
    base.seed = machine.seed;
    base.freq_khz = freq_set ? machine.freq_khz : 2'800'000 / scale;
    base.mem = base.mem.scaled(static_cast<unsigned>(scale));
    machine = base;
  }
  scenario.spec.machine = machine;

  // Scheduler factory.
  const auto monitor_factory = [sched]() -> std::unique_ptr<core::PollutionMonitor> {
    if (sched.monitor == "direct") return std::make_unique<core::DirectPmcMonitor>();
    if (sched.monitor == "mcsim") return std::make_unique<core::McSimMonitor>();
    return std::make_unique<core::SocketDedicationMonitor>();  // checked at its line
  };
  const std::string kind = sched.kind;
  if (kind == "xcs") {
    scenario.spec.scheduler = [] { return std::make_unique<hv::CreditScheduler>(); };
  } else if (kind == "cfs") {
    scenario.spec.scheduler = [] { return std::make_unique<hv::CfsScheduler>(); };
  } else if (kind == "pisces") {
    scenario.spec.scheduler = [] { return std::make_unique<hv::PiscesScheduler>(); };
  } else if (kind == "ks4xen") {
    scenario.spec.scheduler = [monitor_factory] {
      return std::make_unique<core::Ks4Xen>(monitor_factory());
    };
  } else if (kind == "ks4linux") {
    scenario.spec.scheduler = [monitor_factory] {
      return std::make_unique<core::Ks4Linux>(monitor_factory());
    };
  } else if (kind == "ks4pisces") {
    scenario.spec.scheduler = [monitor_factory] {
      return std::make_unique<core::Ks4Pisces>(monitor_factory());
    };
  } else {
    fail(sched.declared_line, "unknown scheduler kind '" + kind + "'");
  }

  // Churn plan (apps resolved now, like [vm] apps, so [workload] and
  // [machine] apply wherever they appear in the file).
  if (churn.declared) {
    if (churn.apps.empty()) {
      fail(churn.declared_line, "[churn] is missing apps =");
    }
    auto plan = std::make_shared<ChurnPlan>();
    const std::string t = lower(churn.trace);
    if (t.rfind("file:", 0) == 0) {
      const std::string path = trim(churn.trace.substr(5));
      std::ifstream tf(path);
      if (!tf.good()) fail(churn.trace_line, "cannot open churn trace file '" + path + "'");
      std::ostringstream buf;
      buf << tf.rdbuf();
      try {
        plan->explicit_trace = parse_churn_trace(buf.str());
      } catch (const std::exception& e) {
        fail(churn.trace_line, e.what());
      }
    } else if (t == "poisson") {
      churn.config.kind = ChurnTraceConfig::Kind::kPoisson;
    } else if (t == "diurnal") {
      churn.config.kind = ChurnTraceConfig::Kind::kDiurnal;
      if (churn.config.period_ticks <= 0) fail(churn.period_line, "period must be positive");
      if (!(churn.config.amplitude >= 0.0 && churn.config.amplitude <= 1.0)) {
        fail(churn.amplitude_line, "amplitude must be in [0, 1]");
      }
    } else if (t == "bursty") {
      churn.config.kind = ChurnTraceConfig::Kind::kBursty;
      if (!is_probability(churn.config.burst_rate)) {
        fail(churn.burst_rate_line, "burst_rate is a per-tick probability in [0, 1)");
      }
      if (churn.config.burst_size <= 0) {
        fail(churn.burst_size_line, "burst_size must be positive");
      }
    } else {
      fail(churn.trace_line != 0 ? churn.trace_line : churn.declared_line,
           "churn trace must be poisson | diurnal | bursty | file:<path>, got '" +
               churn.trace + "'");
    }
    plan->trace = churn.config;
    plan->tenant_config = churn.tenant;
    plan->tenant_config.name = "tenant";
    plan->tenant_vcpus = churn.vcpus;
    plan->max_tenants = churn.max_tenants;
    plan->defer_queue = churn.defer_queue;
    for (const std::string& app : churn.apps) {
      plan->apps.push_back(
          app_factory_for(app, scenario.spec.machine.mem, churn.apps_line, scenario.stream));
      plan->app_ids.push_back(app);
    }
    scenario.spec.churn = std::move(plan);
  }

  // VM plans.
  if (vms.empty() && !churn.declared) {
    throw std::logic_error("scenario defines no [vm] sections (and no [churn])");
  }
  const int total_cores = scenario.spec.machine.topology.total_cores();
  const int sockets = scenario.spec.machine.topology.sockets;
  int next_core = 0;
  for (auto& vm : vms) {
    if (vm.app.empty()) fail(vm.declared_line, "[vm " + vm.name + "] is missing app =");
    if (vm.config.home_node < 0 || vm.config.home_node >= sockets) {
      fail(vm.home_node_line, "[vm " + vm.name + "] home_node " +
                                  std::to_string(vm.config.home_node) + " out of range for " +
                                  std::to_string(sockets) + "-socket machine");
    }
    VmPlan plan;
    plan.config = vm.config;
    // Factories are built after the whole file is parsed, so a
    // [workload] section applies wherever it appears in the file.
    plan.workload =
        app_factory_for(vm.app, scenario.spec.machine.mem, vm.app_line, scenario.stream);
    if (vm.cores.empty()) {
      plan.pinned_cores = {next_core};
      next_core = (next_core + 1) % total_cores;
    } else {
      for (int core : vm.cores) {
        if (core < 0 || core >= total_cores) {
          fail(vm.declared_line, "core " + std::to_string(core) + " out of range for " +
                                     std::to_string(total_cores) + "-core machine");
        }
      }
      plan.pinned_cores = vm.cores;
    }
    scenario.plans.push_back(std::move(plan));
    scenario.vm_names.push_back(vm.name);
  }
  return scenario;
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  KYOTO_CHECK_MSG(in.good(), "cannot open scenario file: " << path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_scenario(buffer.str());
}

std::string scenario_report(const Scenario& scenario, const RunOutcome& outcome) {
  // Under churn the outcome also carries whichever tenants were alive
  // at window end (each row is self-naming), so only static scenarios
  // pin the exact count.
  if (scenario.spec.churn == nullptr) {
    KYOTO_CHECK_MSG(outcome.vms.size() == scenario.plans.size(),
                    "outcome does not belong to this scenario");
  } else {
    KYOTO_CHECK_MSG(outcome.vms.size() >= scenario.plans.size(),
                    "outcome does not belong to this scenario");
  }
  TextTable table({"VM", "IPC", "instr/tick", "llc_cap_act (miss/ms)", "punish events",
                   "punished ticks"});
  for (const auto& vm : outcome.vms) {
    table.add_row({vm.name, fmt_double(vm.ipc, 3), fmt_count(static_cast<long long>(vm.throughput)),
                   fmt_double(vm.llc_cap_act, 1), fmt_count(vm.punish_events),
                   fmt_count(vm.punished_ticks)});
  }
  return table.to_string();
}

std::string run_scenario_report(const Scenario& scenario) {
  return scenario_report(scenario, run_scenario(scenario.spec, scenario.plans));
}

}  // namespace kyoto::sim
