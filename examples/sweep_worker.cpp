// sweep_worker: the farm's worker process.
//
// Two transports, one protocol (sim/farm_codec.hpp, wire format v1);
// sim::Farm (sim/farm.hpp) drives either, chosen per host:
//
//   sweep_worker --stdio
//       Pipe transport (Transport::kPipe).  Job frames arrive on
//       stdin, one outcome (or error) frame is written to stdout per
//       job, EOF on stdin ends the worker.  The worker holds no queue
//       state: the coordinator owns ordering, retries and timeouts.
//
//   sweep_worker --jobs FILE --results FILE
//       File transport (Transport::kFiles) for hosts that only share
//       files: reads a job file, executes every job, writes the
//       result file.  In this mode the result file IS the reply
//       stream: a deterministic job failure becomes an error frame
//       *inside* the result file (exit 0), so the coordinator can
//       tell "this job is poisoned" from "this host is broken".
//       The same command runs a shard by hand
//       (`scenario_runner --split-jobs`).
//
// The --fault-* flags inject failures for the farm's fault-tolerance
// tests (tests/sim/farm_fault_test.cpp, farm_host_test.cpp);
// production sweeps never pass them.  "after N" counts jobs handled
// by THIS process (a respawned worker starts over), "on-label L"
// poisons a specific job on every attempt, and --fault-corrupt-results
// damages the finished result file (truncate | bitflip) to simulate a
// host with bad disks or a lossy transfer.
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
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
  int kill_after = 0;     // SIGKILL self on the Nth handled job
  int garbage_after = 0;  // reply to the Nth handled job with garbage
  int hang_after = 0;     // hang on the Nth handled job
  std::string kill_on_label;
  std::string hang_on_label;
  std::string error_on_label;
  std::string corrupt_results;  // "" | "truncate" | "bitflip" (file mode)
};

bool write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

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
/// (1-based, per process).  Returns the bytes to write instead of the
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

int run_stdio(const FaultPlan& fault) {
  farm::FrameReader reader;
  char buf[1 << 16];
  int handled = 0;
  for (;;) {
    const ssize_t n = ::read(0, buf, sizeof buf);
    if (n == 0) return 0;  // coordinator closed our stdin: done
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "sweep_worker: stdin read failed: %s\n", std::strerror(errno));
      return 2;
    }
    try {
      reader.feed(buf, static_cast<std::size_t>(n));
      while (auto frame = reader.next()) {
        if (frame->type != farm::FrameType::kJob) {
          std::fprintf(stderr, "sweep_worker: unexpected frame type %u on stdin\n",
                       static_cast<unsigned>(frame->type));
          return 2;
        }
        const farm::FarmJob job = farm::decode_job(frame->payload);
        ++handled;
        std::string reply;
        if (auto injected = inject(fault, handled, job)) {
          reply = std::move(*injected);
        } else {
          reply = execute(job);
        }
        if (!write_all(1, reply)) {
          std::fprintf(stderr, "sweep_worker: stdout write failed: %s\n", std::strerror(errno));
          return 2;
        }
      }
    } catch (const farm::CodecError& e) {
      std::fprintf(stderr, "sweep_worker: protocol error: %s\n", e.what());
      return 2;
    }
  }
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
               "usage: %s --stdio [fault flags]\n"
               "       %s --jobs FILE --results FILE [fault flags]\n"
               "\n"
               "Farm worker for sim::Farm (wire format v%u): --stdio serves a pipe\n"
               "host one job frame at a time; --jobs/--results runs one shard file\n"
               "(a file-transport host, or a shard from scenario_runner --split-jobs).\n"
               "\n"
               "Fault-injection flags (tests only):\n"
               "  --fault-kill-after N     SIGKILL self on the Nth handled job\n"
               "  --fault-garbage-after N  reply to the Nth handled job with garbage\n"
               "  --fault-hang-after N     hang on the Nth handled job\n"
               "  --fault-kill-on-label L  SIGKILL self whenever job L is handled\n"
               "  --fault-hang-on-label L  hang whenever job L is handled\n"
               "  --fault-error-on-label L answer job L with an error frame\n"
               "  --fault-corrupt-results MODE\n"
               "                           damage the result file (file mode only):\n"
               "                           truncate = cut the trailing frame short,\n"
               "                           bitflip  = flip one payload bit (bad checksum)\n",
               argv0, argv0, static_cast<unsigned>(farm::kWireVersion));
}

}  // namespace

int main(int argc, char** argv) {
  bool stdio = false;
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
    if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--jobs") {
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
  if (stdio && (jobs_path.empty() && results_path.empty())) return run_stdio(fault);
  if (!stdio && !jobs_path.empty() && !results_path.empty()) {
    return run_files(jobs_path, results_path, fault);
  }
  usage(argv[0]);
  return 2;
}
