// sweep_worker: the farm's worker process.
//
//   sweep_worker --jobs FILE --results FILE
//
// Runs one shard (wire format of sim/farm_codec.hpp): reads a job
// file, executes every job, writes the result file, exits.  sim::Farm
// (sim/farm.hpp) runs one such process per dispatch, and the same
// command runs a shard by hand (`scenario_runner --split-jobs`).  The
// worker holds no queue state: the coordinator owns ordering, retries
// and timeouts.  The result file IS the reply stream: a deterministic
// job failure becomes an error frame *inside* the result file (exit
// 0), so the coordinator can tell "this job is poisoned" from "this
// host is broken".
//
// The --fault-* flags inject failures for the farm's fault-tolerance
// tests (tests/sim/farm_fault_test.cpp, farm_host_test.cpp);
// production sweeps never pass them.  "after N" counts jobs within
// this process's shard, "on-label L" poisons a specific job on every
// attempt, and --fault-corrupt-results damages the finished result
// file (truncate | bitflip) to simulate a host with bad disks or a
// lossy transfer.
#include <signal.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sim/farm_codec.hpp"
#include "sim/scenario_file.hpp"

namespace {

namespace farm = kyoto::sim::farm;

struct FaultPlan {
  int kill_after = 0;     // SIGKILL self on the Nth job of the shard
  int garbage_after = 0;  // answer the Nth job of the shard with garbage
  int hang_after = 0;     // hang on the Nth job of the shard
  std::string kill_on_label;
  std::string hang_on_label;
  std::string error_on_label;
  std::string corrupt_results;  // "" | "truncate" | "bitflip"
};

[[noreturn]] void hang_forever() {
  for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
}

/// Runs one job and frames the reply.  A throwing scenario (parse
/// error, simulator KYOTO_CHECK) is a *deterministic* failure: it
/// becomes an error frame so the coordinator fails the batch instead
/// of burning retries on it.
std::string execute(const farm::FarmJob& job) {
  try {
    const kyoto::sim::Scenario scenario = kyoto::sim::parse_scenario(job.scenario_text);
    const kyoto::sim::RunOutcome outcome =
        kyoto::sim::run_scenario(scenario.spec, scenario.plans);
    return farm::encode_frame(farm::FrameType::kOutcome,
                              farm::encode_outcome(job.id, outcome));
  } catch (const std::exception& e) {
    return farm::encode_frame(farm::FrameType::kError, farm::encode_error(job.id, e.what()));
  }
}

/// Applies the fault plan before replying to job number `handled`
/// (1-based, within the shard).  Returns the bytes to write instead of the
/// real reply, or nullopt to answer normally.  May not return at all.
std::optional<std::string> inject(const FaultPlan& fault, int handled,
                                  const farm::FarmJob& job) {
  if ((fault.kill_after > 0 && handled == fault.kill_after) ||
      (!fault.kill_on_label.empty() && job.label == fault.kill_on_label)) {
    ::raise(SIGKILL);
  }
  if ((fault.hang_after > 0 && handled == fault.hang_after) ||
      (!fault.hang_on_label.empty() && job.label == fault.hang_on_label)) {
    hang_forever();
  }
  if (fault.garbage_after > 0 && handled == fault.garbage_after) {
    return std::string("this is definitely not a KYFM frame\n");
  }
  if (!fault.error_on_label.empty() && job.label == fault.error_on_label) {
    return farm::encode_frame(farm::FrameType::kError,
                              farm::encode_error(job.id, "injected deterministic failure"));
  }
  return std::nullopt;
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return out.good();
}

int run_files(const std::string& jobs_path, const std::string& results_path,
              const FaultPlan& fault) {
  std::vector<farm::FarmJob> jobs;
  try {
    jobs = farm::read_job_file(jobs_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_worker: %s\n", e.what());
    return 1;
  }
  // The result file is the reply stream: outcome frames, or an error
  // frame for a deterministic job failure (then stop — the rest of
  // the shard is moot), or injected garbage.  Exit 0 either way; a
  // non-zero exit means the *worker* broke, not a job.
  std::string bytes;
  int handled = 0;
  for (const farm::FarmJob& job : jobs) {
    ++handled;
    if (auto injected = inject(fault, handled, job)) {
      // kill/hang never return from inject(); what comes back here is
      // garbage or an error frame — both end the shard's stream.
      bytes += *injected;
      break;
    }
    const std::string reply = execute(job);
    bytes += reply;
    // execute() frames deterministic failures as error frames; detect
    // by re-reading our own frame type (byte 6..7, little-endian).
    if (reply.size() >= 8 &&
        static_cast<unsigned char>(reply[6]) == static_cast<unsigned>(farm::FrameType::kError)) {
      break;
    }
  }
  if (fault.corrupt_results == "truncate" && bytes.size() > 7) {
    bytes.resize(bytes.size() - 7);  // cut into the trailing checksum
  } else if (fault.corrupt_results == "bitflip" && !bytes.empty()) {
    bytes[bytes.size() / 2] ^= 0x20;  // checksum mismatch on read
  }
  if (!write_file(results_path, bytes)) {
    std::fprintf(stderr, "sweep_worker: cannot write %s\n", results_path.c_str());
    return 1;
  }
  return 0;
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --jobs FILE --results FILE [fault flags]\n"
               "\n"
               "Farm worker (wire format v%u): runs the jobs of one shard file and\n"
               "writes their outcomes to the result file.  sim::Farm runs one such\n"
               "process per dispatch; a shard from scenario_runner --split-jobs\n"
               "runs the same way by hand.\n"
               "\n"
               "Fault-injection flags (tests only):\n"
               "  --fault-kill-after N     SIGKILL self on the Nth job of the shard\n"
               "  --fault-garbage-after N  answer the Nth job of the shard with garbage\n"
               "  --fault-hang-after N     hang on the Nth job of the shard\n"
               "  --fault-kill-on-label L  SIGKILL self whenever job L is handled\n"
               "  --fault-hang-on-label L  hang whenever job L is handled\n"
               "  --fault-error-on-label L answer job L with an error frame\n"
               "  --fault-corrupt-results MODE\n"
               "                           damage the result file:\n"
               "                           truncate = cut the trailing frame short,\n"
               "                           bitflip  = flip one payload bit (bad checksum)\n",
               argv0, static_cast<unsigned>(farm::kWireVersion));
}

}  // namespace

int main(int argc, char** argv) {
  std::string jobs_path;
  std::string results_path;
  FaultPlan fault;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sweep_worker: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--jobs") {
      jobs_path = value();
    } else if (arg == "--results") {
      results_path = value();
    } else if (arg == "--fault-kill-after") {
      fault.kill_after = std::atoi(value().c_str());
    } else if (arg == "--fault-garbage-after") {
      fault.garbage_after = std::atoi(value().c_str());
    } else if (arg == "--fault-hang-after") {
      fault.hang_after = std::atoi(value().c_str());
    } else if (arg == "--fault-kill-on-label") {
      fault.kill_on_label = value();
    } else if (arg == "--fault-hang-on-label") {
      fault.hang_on_label = value();
    } else if (arg == "--fault-error-on-label") {
      fault.error_on_label = value();
    } else if (arg == "--fault-corrupt-results") {
      fault.corrupt_results = value();
      if (fault.corrupt_results != "truncate" && fault.corrupt_results != "bitflip") {
        std::fprintf(stderr, "sweep_worker: --fault-corrupt-results wants truncate|bitflip\n");
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "sweep_worker: unknown argument %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (!jobs_path.empty() && !results_path.empty()) return run_files(jobs_path, results_path, fault);
  usage(argv[0]);
  return 2;
}
