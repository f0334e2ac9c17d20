// Farm checkpoint gate: one restore path, whatever wrote the file.
//
// * Resume: a checkpoint interrupted under two one-job-per-dispatch
//   hosts (outcome + owner frames, orphaned workers left running)
//   resumes under three hosts with balanced shards — outcomes
//   byte-identical to the in-process SweepRunner, and every job
//   accounted exactly once (restored + recollected + executed).
// * Seeded mutation test of the restore path (the checkpoint slice of
//   the decoder fuzzing): bit flips, truncation at every frame
//   boundary +-1, length-field lies, splices of two checkpoints, and
//   owner frames naming paths or job ids they must not.  Every mutated
//   run must either restore or restart cleanly — never crash, never
//   apply part of a rejected file, and always return the reference
//   bytes.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "sim/farm.hpp"
#include "sim/farm_codec.hpp"
#include "sim/scenario_file.hpp"
#include "sim/shard_splitter.hpp"
#include "sim/sweep_runner.hpp"

namespace kyoto::sim {
namespace {

std::string worker_path() {
  if (const char* env = std::getenv("KYOTO_SWEEP_WORKER"); env != nullptr && env[0] != '\0') {
    return env;
  }
  return "./sweep_worker";
}

bool worker_available() { return ::access(worker_path().c_str(), X_OK) == 0; }

std::string tiny_scenario(const std::string& app, int seed, int measure_ticks) {
  return
      "[machine]\n"
      "topology = 1x2\n"
      "scale = 64\n"
      "\n"
      "[scheduler]\n"
      "kind = ks4xen\n"
      "monitor = direct\n"
      "\n"
      "[vm tenant]\n"
      "app = " + app + "\n"
      "cores = 0\n"
      "llc_cap = 30\n"
      "loop = true\n"
      "\n"
      "[run]\n"
      "warmup_ticks = 1\n"
      "measure_ticks = " + std::to_string(measure_ticks) + "\n"
      "seed = " + std::to_string(seed) + "\n";
}

using Jobs = std::vector<std::pair<std::string, std::string>>;

Jobs small_batch(int n, int seed0 = 50, int measure_ticks = 4) {
  const char* apps[] = {"gcc", "mcf", "omnetpp"};
  Jobs jobs;
  for (int i = 0; i < n; ++i) {
    jobs.emplace_back("job" + std::to_string(i),
                      tiny_scenario(apps[i % 3], seed0 + i, measure_ticks));
  }
  return jobs;
}

std::vector<RunOutcome> sweep_reference(const Jobs& jobs) {
  SweepRunner sweep(2);
  for (const auto& [label, text] : jobs) {
    const Scenario scenario = parse_scenario(text);
    sweep.add(scenario.spec, scenario.plans, label);
  }
  return sweep.run();
}

/// A fresh directory unique to this process (ctest may run the farm
/// suites concurrently).
std::string fresh_dir(const std::string& name) {
  const std::string dir =
      testing::TempDir() + "farm_ckpt_" + name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct CheckpointContents {
  int outcomes = 0;
  std::vector<farm::ShardOwner> owners;
};

CheckpointContents inspect(const std::string& path) {
  CheckpointContents c;
  for (const farm::Frame& frame : farm::read_frame_file(path)) {
    if (frame.type == farm::FrameType::kOutcome) ++c.outcomes;
    if (frame.type == farm::FrameType::kShardOwner) {
      c.owners.push_back(farm::decode_shard_owner(frame.payload));
    }
  }
  return c;
}

/// Blocks until every owned result file is complete (the orphaned
/// workers of an interrupted file-host run finish on their own).
void await_owners(const std::string& dir, const std::vector<farm::ShardOwner>& owners) {
  for (const farm::ShardOwner& owner : owners) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (collect_shard(owner, dir + "/" + owner.result_file).state !=
           ShardCollect::State::kOk) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "orphaned worker never finished " << owner.result_file;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

/// Interrupts `jobs` under two hosts after one completed job, with the
/// in-flight workers left running; returns what the checkpoint holds
/// once those workers have finished their result files.
CheckpointContents interrupt_with_orphans(const Jobs& jobs, const std::string& dir,
                                         const std::string& checkpoint) {
  FarmOptions options;
  options.hosts = local_workers(2, worker_path());
  options.work_dir = dir;
  options.jobs_per_shard = 1;
  options.checkpoint_path = checkpoint;
  options.abort_after_completed = 1;
  options.orphan_on_abort = true;
  Farm farm(options);
  for (const auto& [label, text] : jobs) farm.add(text, label);
  EXPECT_THROW(farm.run(), FarmInterrupted);
  CheckpointContents contents = inspect(checkpoint);
  await_owners(dir, contents.owners);
  return contents;
}

TEST(FarmCheckpointResume, InterruptedCheckpointResumesUnderOtherHosts) {
  if (!worker_available()) GTEST_SKIP() << "sweep_worker not found at " << worker_path();
  const Jobs jobs = small_batch(5);
  const std::vector<RunOutcome> reference = sweep_reference(jobs);
  const std::string dir = fresh_dir("resume");
  const std::string checkpoint = dir + "/farm.ckpt";

  const CheckpointContents interrupted = interrupt_with_orphans(jobs, dir, checkpoint);
  EXPECT_GE(interrupted.outcomes, 1);
  ASSERT_GE(interrupted.owners.size(), 1u) << "the other host's shard was in flight";
  int owned_jobs = 0;
  for (const farm::ShardOwner& owner : interrupted.owners) {
    owned_jobs += static_cast<int>(owner.job_ids.size());
  }

  FarmOptions options;
  options.hosts = local_workers(3, worker_path());
  options.work_dir = dir;
  options.checkpoint_path = checkpoint;
  Farm resumed(options);
  for (const auto& [label, text] : jobs) resumed.add(text, label);
  EXPECT_EQ(resumed.run(), reference);
  EXPECT_EQ(resumed.jobs_restored(), interrupted.outcomes);
  EXPECT_EQ(resumed.jobs_recollected(), owned_jobs);
  EXPECT_EQ(resumed.jobs_restored() + resumed.jobs_recollected() + resumed.jobs_executed(), 5);
  EXPECT_EQ(resumed.jobs_in_process(), 0);
  EXPECT_FALSE(resumed.degraded());
  std::filesystem::remove_all(dir);
}

/// Byte offsets at which each frame of a valid frame stream starts,
/// plus the stream's end.
std::vector<std::size_t> frame_boundaries(const std::string& bytes) {
  constexpr std::size_t kHeader = 16;  // magic + version + type + payload_len
  constexpr std::size_t kTrailer = 8;  // checksum
  std::vector<std::size_t> at{0};
  while (at.back() < bytes.size()) {
    std::uint64_t len = 0;
    for (std::size_t b = 8; b-- > 0;) {
      len = (len << 8) | static_cast<unsigned char>(bytes[at.back() + 8 + b]);
    }
    at.push_back(at.back() + kHeader + static_cast<std::size_t>(len) + kTrailer);
  }
  return at;
}

void set_len(std::string& bytes, std::size_t frame_at, std::uint64_t len) {
  for (std::size_t b = 0; b < 8; ++b) bytes[frame_at + 8 + b] = static_cast<char>(len >> (8 * b));
}

TEST(FarmCheckpointMutation, EveryMutationRestoresOrRestartsCleanly) {
  if (!worker_available()) GTEST_SKIP() << "sweep_worker not found at " << worker_path();
  // Hundreds of runs, most re-simulating the whole batch: keep the
  // jobs minimal.
  constexpr int kJobs = 3;
  const Jobs jobs = small_batch(kJobs, 50, 1);
  const std::vector<RunOutcome> reference = sweep_reference(jobs);
  const std::string dir = fresh_dir("mutation");
  const std::string checkpoint = dir + "/farm.ckpt";

  // Real checkpoints of this batch: interrupted under worker hosts
  // (outcome + owner frames, owned result files on disk), interrupted
  // in-process (outcomes only), and complete.
  std::vector<std::string> bases;
  const std::vector<farm::ShardOwner> owners =
      interrupt_with_orphans(jobs, dir, checkpoint).owners;
  ASSERT_FALSE(owners.empty());
  bases.push_back(read_bytes(checkpoint));
  // A resume removes the owned result files it handles: keep their
  // bytes, to put back before each mutant.
  std::vector<std::string> owned_results;
  for (const farm::ShardOwner& owner : owners) {
    owned_results.push_back(read_bytes(dir + "/" + owner.result_file));
  }
  auto run_in_process = [&](const Jobs& batch, int abort_after) {
    FarmOptions options;
    options.work_dir = dir;
    options.checkpoint_path = checkpoint;
    options.abort_after_completed = abort_after;
    Farm farm(options);
    for (const auto& [label, text] : batch) farm.add(text, label);
    try {
      farm.run();
    } catch (const FarmInterrupted&) {
    }
  };
  std::remove(checkpoint.c_str());
  run_in_process(jobs, 1);
  bases.push_back(read_bytes(checkpoint));
  run_in_process(jobs, -1);
  bases.push_back(read_bytes(checkpoint));
  // A foreign batch's checkpoint, spliced in front of ours: its header
  // must reject the whole file.  (The reverse splice is not generated:
  // a well-formed outcome frame carries no batch binding — the header
  // is the binding — and the atomic writer never mixes batches.)
  std::remove(checkpoint.c_str());
  run_in_process(small_batch(kJobs, 90, 1), -1);
  const std::string foreign = read_bytes(checkpoint);

  // What the restore must make of each mutant.  kEither: splices,
  // which may or may not line up on whole frames of this batch.
  enum class Expect { kRestart, kRestore, kEither };
  struct Mutant {
    std::string bytes;
    Expect expect;
  };
  std::vector<Mutant> mutants;
  std::mt19937_64 rng(0x6b796f746f636bull);
  auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  for (int i = 0; i < 400; ++i) {  // single bit flips: every byte is checked
    std::string m = bases[pick(bases.size())];
    m[pick(m.size())] ^= static_cast<char>(1u << pick(8));
    mutants.push_back({std::move(m), Expect::kRestart});
  }
  for (const std::string& base : bases) {
    const std::vector<std::size_t> starts = frame_boundaries(base);
    for (const std::size_t at : starts) {
      // A cut on a frame boundary is a valid, shorter checkpoint (save
      // the empty file); one byte either side is a torn frame.
      if (at > 0) mutants.push_back({base.substr(0, at - 1), Expect::kRestart});
      mutants.push_back({base.substr(0, at), at > 0 ? Expect::kRestore : Expect::kRestart});
      if (at < base.size()) mutants.push_back({base.substr(0, at + 1), Expect::kRestart});
    }
    for (std::size_t f = 0; f + 1 < starts.size(); ++f) {  // length-field lies
      const std::uint64_t len = starts[f + 1] - starts[f] - 24;
      for (const std::uint64_t lie : {std::uint64_t{0}, len - 1, len + 1, len + 8,
                                      farm::kMaxPayload + 1, ~std::uint64_t{0}}) {
        std::string m = base;
        set_len(m, starts[f], lie);
        mutants.push_back({std::move(m), Expect::kRestart});
      }
    }
  }
  const std::size_t foreign_header_end = frame_boundaries(foreign)[1];
  for (int i = 0; i < 60; ++i) {  // splices: a prefix of one file + a suffix of another
    const std::string& tail = bases[pick(bases.size())];
    const std::string tail_part = tail.substr(pick(tail.size() + 1));
    if (i % 4 == 0) {  // the foreign header, then anything
      const std::size_t cut =
          foreign_header_end + pick(foreign.size() - foreign_header_end + 1);
      mutants.push_back({foreign.substr(0, cut) + tail_part, Expect::kRestart});
    } else {
      const std::string& head = bases[pick(bases.size())];
      mutants.push_back({head.substr(0, pick(head.size() + 1)) + tail_part, Expect::kEither});
    }
  }
  const std::string& complete = bases.back();
  for (const std::string& name : {std::string("a/b"), std::string("/tmp/x"),
                                  std::string("../up"), std::string(".."), std::string("."),
                                  std::string(""), std::string("nul\0/x", 6)}) {
    const farm::ShardOwner owner{"h", name, {0}};
    mutants.push_back({complete + farm::encode_frame(farm::FrameType::kShardOwner,
                                                     farm::encode_shard_owner(owner)),
                       Expect::kRestart});
  }
  for (const std::uint64_t id : {std::uint64_t{kJobs}, std::uint64_t{kJobs + 5},
                                 ~std::uint64_t{0}}) {
    const farm::ShardOwner owner{"h", "fine.results.kyfm", {1, id}};
    mutants.push_back({complete + farm::encode_frame(farm::FrameType::kShardOwner,
                                                     farm::encode_shard_owner(owner)),
                       Expect::kRestart});
    mutants.push_back({complete + farm::encode_frame(farm::FrameType::kOutcome,
                                                     farm::encode_outcome(id, reference[0])),
                       Expect::kRestart});
  }
  ASSERT_GE(mutants.size(), 500u);

  int recollecting_mutants = 0;
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    write_bytes(checkpoint, mutants[i].bytes);
    for (std::size_t k = 0; k < owners.size(); ++k) {
      write_bytes(dir + "/" + owners[k].result_file, owned_results[k]);
    }
    FarmOptions options;
    options.work_dir = dir;
    options.checkpoint_path = checkpoint;
    Farm farm(options);
    for (const auto& [label, text] : jobs) farm.add(text, label);
    std::vector<RunOutcome> outcomes;
    ASSERT_NO_THROW(outcomes = farm.run()) << "mutant " << i;
    ASSERT_EQ(outcomes, reference) << "mutant " << i;
    EXPECT_EQ(farm.jobs_restored() + farm.jobs_recollected() + farm.jobs_in_process(), kJobs)
        << "mutant " << i;
    if (farm.jobs_recollected() > 0) ++recollecting_mutants;
    const bool restarted = farm.degrade_reason().find("checkpoint ignored") != std::string::npos;
    if (restarted) {
      // Rejected as a whole: nothing from the file was applied.
      EXPECT_EQ(farm.jobs_restored(), 0) << "mutant " << i;
      EXPECT_EQ(farm.jobs_recollected(), 0) << "mutant " << i;
    }
    if (mutants[i].expect != Expect::kEither) {
      EXPECT_EQ(restarted, mutants[i].expect == Expect::kRestart)
          << "mutant " << i << ": " << farm.degrade_reason();
    }
  }
  EXPECT_GT(recollecting_mutants, 0) << "no mutant exercised the recollect path";
}

}  // namespace
}  // namespace kyoto::sim
