// Shard-splitter gate: partitioning a batch into per-host job files,
// the manifest (a farm checkpoint owning one result file per shard)
// binding them to the exact batch, and the validate-all-before-apply
// merge.  A golden byte fixture pins the additive owner frame
// (kShardOwner) exactly like the v1 frames in farm_codec_test.cpp: a
// mismatch means checkpoints and split batches in flight stopped
// being readable, which requires a loud version bump.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/farm_codec.hpp"
#include "sim/scenario_file.hpp"
#include "sim/shard_splitter.hpp"
#include "sim/sweep_runner.hpp"

namespace kyoto::sim {
namespace {

std::string tiny_scenario(const std::string& app, int seed) {
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
      "measure_ticks = 4\n"
      "seed = " + std::to_string(seed) + "\n";
}

std::vector<farm::FarmJob> small_batch(std::size_t n) {
  const char* apps[] = {"gcc", "mcf", "omnetpp"};
  std::vector<farm::FarmJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    farm::FarmJob job;
    job.id = i;
    job.label = "job" + std::to_string(i);
    job.scenario_text = tiny_scenario(apps[i % 3], static_cast<int>(i) + 7);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<RunOutcome> sweep_reference(const std::vector<farm::FarmJob>& jobs) {
  SweepRunner sweep(2);
  for (const farm::FarmJob& job : jobs) {
    const Scenario scenario = parse_scenario(job.scenario_text);
    sweep.add(scenario.spec, scenario.plans, job.label);
  }
  return sweep.run();
}

/// Executes one shard in-process and writes its result file — the
/// moral equivalent of a healthy remote host.
void run_shard(const std::string& dir, const farm::ShardOwner& owner,
               const std::vector<farm::FarmJob>& jobs) {
  std::vector<farm::FarmOutcome> results;
  for (const std::uint64_t id : owner.job_ids) {
    const Scenario scenario = parse_scenario(jobs[static_cast<std::size_t>(id)].scenario_text);
    farm::FarmOutcome result;
    result.id = id;
    result.outcome = run_scenario(scenario.spec, scenario.plans);
    results.push_back(std::move(result));
  }
  farm::write_result_file(dir + "/" + owner.result_file, results);
}

/// A fresh, empty directory.
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "splitter_" + name;
  std::filesystem::remove_all(dir);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ShardSplitter, BalancedSplitCoversEveryJobOnce) {
  const std::vector<farm::FarmJob> jobs = small_batch(7);
  const std::string dir = fresh_dir("balanced");
  const std::vector<farm::ShardOwner> owners = write_split(dir, jobs, 3);
  ASSERT_EQ(owners.size(), 3u);  // ceil(7/3) = 3 per shard
  const std::vector<std::size_t> sizes = {3, 3, 1};
  std::uint64_t next = 0;
  for (std::size_t k = 0; k < owners.size(); ++k) {
    EXPECT_EQ(owners[k].host_id, "host" + std::to_string(k));
    EXPECT_EQ(owners[k].result_file, "shard" + std::to_string(k) + ".results.kyfm");
    ASSERT_EQ(owners[k].job_ids.size(), sizes[k]);
    // The shard's job file carries exactly its slice.
    const std::vector<farm::FarmJob> slice =
        farm::read_job_file(dir + "/shard" + std::to_string(k) + ".jobs.kyfm");
    ASSERT_EQ(slice.size(), sizes[k]);
    for (std::size_t i = 0; i < slice.size(); ++i) {
      EXPECT_EQ(owners[k].job_ids[i], next);
      EXPECT_EQ(slice[i], jobs[static_cast<std::size_t>(next)]);
      ++next;
    }
  }
  EXPECT_EQ(next, 7u);
  // The manifest is a checkpoint: a header, then one owner frame per
  // shard, and nothing else.
  const std::vector<farm::Frame> frames = farm::read_frame_file(manifest_path(dir));
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].type, farm::FrameType::kCheckpointHeader);
  for (std::size_t f = 1; f < frames.size(); ++f) {
    EXPECT_EQ(frames[f].type, farm::FrameType::kShardOwner);
  }
  EXPECT_EQ(read_split(dir, jobs), owners);
}

// ------------------------------------------------------------ golden bytes
//
// Pin the additive owner frame byte for byte (captured from the
// encoder once; never regenerate casually — see farm_codec_test.cpp).

constexpr char kGoldenOwner[] =
    "\x4b\x59\x46\x4d\x01\x00\x06\x00\x38\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00"
    "\x00\x00\x00\x68\x6f\x73\x74\x42\x13\x00\x00\x00\x00\x00\x00\x00\x73\x68\x61\x72\x64"
    "\x31\x2e\x72\x65\x73\x75\x6c\x74\x73\x2e\x6b\x79\x66\x6d\x01\x00\x00\x00\x00\x00\x00"
    "\x00\x01\x00\x00\x00\x00\x00\x00\x00\x3b\xb2\xb1\x78\x22\x9c\x17\x5b";
constexpr std::size_t kGoldenOwnerLen = 80;

// A split manifest as an older build wrote it: one frame of the
// retired type 5.  It must be refused, never misread.
constexpr char kRetiredManifest[] =
    "\x4b\x59\x46\x4d\x01\x00\x05\x00\xdb\x00\x00\x00\x00\x00\x00\x00\x88\x77\x66\x55\x44"
    "\x33\x22\x11\x03\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x05\x00"
    "\x00\x00\x00\x00\x00\x00\x68\x6f\x73\x74\x41\x10\x00\x00\x00\x00\x00\x00\x00\x73\x68"
    "\x61\x72\x64\x30\x2e\x6a\x6f\x62\x73\x2e\x6b\x79\x66\x6d\x13\x00\x00\x00\x00\x00\x00"
    "\x00\x73\x68\x61\x72\x64\x30\x2e\x72\x65\x73\x75\x6c\x74\x73\x2e\x6b\x79\x66\x6d\x02"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00"
    "\x00\x00\x61\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x63\x05"
    "\x00\x00\x00\x00\x00\x00\x00\x68\x6f\x73\x74\x42\x10\x00\x00\x00\x00\x00\x00\x00\x73"
    "\x68\x61\x72\x64\x31\x2e\x6a\x6f\x62\x73\x2e\x6b\x79\x66\x6d\x13\x00\x00\x00\x00\x00"
    "\x00\x00\x73\x68\x61\x72\x64\x31\x2e\x72\x65\x73\x75\x6c\x74\x73\x2e\x6b\x79\x66\x6d"
    "\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00"
    "\x00\x00\x00\x62\x96\xf8\xf9\xcf\xc0\x73\x43\x9b";
constexpr std::size_t kRetiredManifestLen = 243;

TEST(ShardSplitterGolden, OwnerFrameBytesArePinned) {
  const farm::ShardOwner owner{"hostB", "shard1.results.kyfm", {1}};
  const std::string encoded =
      farm::encode_frame(farm::FrameType::kShardOwner, farm::encode_shard_owner(owner));
  EXPECT_EQ(encoded, std::string(kGoldenOwner, kGoldenOwnerLen));
}

TEST(ShardSplitterGolden, PinnedBytesDecodeBack) {
  farm::FrameReader reader;
  reader.feed(kGoldenOwner, kGoldenOwnerLen);
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, farm::FrameType::kShardOwner);
  const farm::ShardOwner owner = farm::decode_shard_owner(frame->payload);
  EXPECT_EQ(owner, (farm::ShardOwner{"hostB", "shard1.results.kyfm", {1}}));
}

TEST(ShardSplitterGolden, RetiredManifestFrameIsRejected) {
  farm::FrameReader reader;
  reader.feed(kRetiredManifest, kRetiredManifestLen);
  EXPECT_THROW(reader.next(), farm::CodecError);
}

TEST(ShardSplitter, MalformedManifestsAreParseErrors) {
  const std::vector<farm::FarmJob> jobs = small_batch(3);
  const std::string dir = fresh_dir("malformed");
  // Not a frame file at all.
  write_bytes(manifest_path(dir), "this is not a KYFM manifest\n");
  EXPECT_THROW(read_split(dir, jobs), farm::CodecError);
  // A valid frame file of the wrong frame type.
  write_bytes(manifest_path(dir),
              farm::encode_frame(farm::FrameType::kError, farm::encode_error(0, "nope")));
  EXPECT_THROW(read_split(dir, jobs), farm::CodecError);
  // An older build's manifest (retired frame type 5).
  write_bytes(manifest_path(dir), std::string(kRetiredManifest, kRetiredManifestLen));
  EXPECT_THROW(read_split(dir, jobs), farm::CodecError);
  // A real manifest with its last frame cut short (bad checksum).
  write_split(dir, jobs, 2);
  std::ifstream in(manifest_path(dir), std::ios::binary);
  std::string damaged((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  damaged.resize(damaged.size() - 3);
  write_bytes(manifest_path(dir), damaged);
  EXPECT_THROW(read_split(dir, jobs), farm::CodecError);
  // A real manifest, read against some other batch.
  write_split(dir, jobs, 2);
  EXPECT_THROW(read_split(dir, small_batch(4)), farm::CodecError);
  // A checkpoint that carries outcomes is a farm's, not a split.
  farm::Checkpoint with_outcome;
  with_outcome.outcomes.push_back({0, RunOutcome{}});
  with_outcome.owners.push_back({"host0", "shard0.results.kyfm", {1, 2}});
  farm::write_checkpoint_file(manifest_path(dir), jobs, with_outcome);
  EXPECT_THROW(read_split(dir, jobs), farm::CodecError);
}

TEST(ShardSplitter, ManifestOwnersMustCoverTheBatchOnce) {
  const std::vector<farm::FarmJob> jobs = small_batch(4);
  const std::string dir = fresh_dir("cover");
  const std::vector<farm::ShardOwner> owners = write_split(dir, jobs, 2);
  ASSERT_EQ(owners.size(), 2u);
  auto refused = [&](const std::vector<farm::ShardOwner>& edited) {
    farm::Checkpoint manifest;
    manifest.owners = edited;
    farm::write_checkpoint_file(manifest_path(dir), jobs, manifest);
    try {
      read_split(dir, jobs);
    } catch (const farm::CodecError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // An owner dropped: its jobs would merge as empty outcomes.
  EXPECT_NE(refused({owners[0]}).find("covers job #2"), std::string::npos);
  // Two owners of one job.
  EXPECT_NE(refused({owners[0], owners[1], owners[1]}).find("claim job #2"), std::string::npos);
  // An owner naming a file outside the merge directory.
  std::vector<farm::ShardOwner> escaping = owners;
  escaping[1].result_file = "../x";
  EXPECT_NE(refused(escaping).find("bare file name"), std::string::npos);
  // The unedited owners read back.
  EXPECT_EQ(refused(owners), "");
}

TEST(ShardSplitter, MergeReproducesSweepByteForByte) {
  const std::vector<farm::FarmJob> jobs = small_batch(6);
  const std::string dir = fresh_dir("merge_ok");
  for (const farm::ShardOwner& owner : write_split(dir, jobs, 3)) run_shard(dir, owner, jobs);

  std::vector<RunOutcome> merged(jobs.size());
  for (const farm::ShardOwner& owner : read_split(dir, jobs)) {
    ShardCollect collect = collect_shard(owner, dir + "/" + owner.result_file);
    ASSERT_EQ(collect.state, ShardCollect::State::kOk) << owner.host_id << ": " << collect.detail;
    for (farm::FarmOutcome& outcome : collect.outcomes) {
      merged[static_cast<std::size_t>(outcome.id)] = std::move(outcome.outcome);
    }
  }
  const std::vector<RunOutcome> reference = sweep_reference(jobs);
  ASSERT_EQ(merged.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(merged[i], reference[i]) << "job " << i;
  }
}

TEST(ShardSplitter, MergeDiagnosesEveryBadShardByHost) {
  const std::vector<farm::FarmJob> jobs = small_batch(6);
  const std::string dir = fresh_dir("merge_bad");
  // One job per shard so each host owns exactly one failure mode.
  const std::vector<farm::ShardOwner> owners = write_split(dir, jobs, 6);
  ASSERT_EQ(owners.size(), 6u);
  auto result_path = [&](std::size_t k) { return dir + "/" + owners[k].result_file; };

  run_shard(dir, owners[0], jobs);  // ok
  // missing: never write owners[1]'s result file.
  write_bytes(result_path(2), "garbage bytes, not frames");
  {  // foreign: outcomes for a job id outside the shard
    std::vector<farm::FarmOutcome> alien(1);
    alien[0].id = 0;  // belongs to shard 0, not shard 3
    farm::write_result_file(result_path(3), alien);
  }
  // incomplete: a valid, empty result file covers none of the expected ids.
  farm::write_result_file(result_path(4), {});
  // poisoned: the worker reported a deterministic job failure.
  write_bytes(result_path(5), farm::encode_frame(farm::FrameType::kError,
                                                 farm::encode_error(owners[5].job_ids[0], "boom")));

  const std::vector<ShardCollect::State> expected = {
      ShardCollect::State::kOk,      ShardCollect::State::kMissingFile,
      ShardCollect::State::kCorrupt, ShardCollect::State::kForeign,
      ShardCollect::State::kIncomplete, ShardCollect::State::kDeterministic};
  for (std::size_t k = 0; k < owners.size(); ++k) {
    const ShardCollect collect = collect_shard(owners[k], result_path(k));
    EXPECT_EQ(collect.state, expected[k]) << owners[k].host_id << ": " << collect.detail;
    EXPECT_EQ(collect.outcomes.empty(), k != 0) << owners[k].host_id;
    if (k == 5) {
      EXPECT_EQ(collect.failed_job, owners[5].job_ids[0]);
      EXPECT_EQ(collect.detail, "boom");
    }
  }
  // An error frame for a job outside the shard is foreign, not a job failure.
  write_bytes(result_path(5),
              farm::encode_frame(farm::FrameType::kError, farm::encode_error(0, "boom")));
  EXPECT_EQ(collect_shard(owners[5], result_path(5)).state, ShardCollect::State::kForeign);
}

TEST(ShardSplitter, CollectRejectsDuplicateIds) {
  const std::string dir = fresh_dir("dup");
  const farm::ShardOwner owner{"only", "shard0.results.kyfm", {0, 1}};
  std::vector<farm::FarmOutcome> dup(2);
  dup[0].id = 0;
  dup[1].id = 0;  // same job twice
  farm::write_result_file(dir + "/" + owner.result_file, dup);
  const ShardCollect collect = collect_shard(owner, dir + "/" + owner.result_file);
  EXPECT_EQ(collect.state, ShardCollect::State::kForeign);
  EXPECT_NE(collect.detail.find("twice"), std::string::npos);
}

}  // namespace
}  // namespace kyoto::sim
