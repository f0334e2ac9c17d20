// Shard-splitter gate: partitioning a batch into per-host job files,
// the manifest binding them to the exact batch, and the
// validate-all-before-apply merge.  Golden byte fixtures pin the two
// additive wire frames (kHostManifest, kShardOwner) exactly like the
// v1 frames in farm_codec_test.cpp: a mismatch means split batches in
// flight stopped being mergeable, which requires a loud version bump.
#include <gtest/gtest.h>
#include <sys/stat.h>

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
      "punish = block\n"
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
void run_shard(const std::string& dir, const farm::HostShard& shard,
               const std::vector<farm::FarmJob>& jobs) {
  std::vector<farm::FarmOutcome> results;
  for (const std::uint64_t id : shard.job_ids) {
    const Scenario scenario = parse_scenario(jobs[static_cast<std::size_t>(id)].scenario_text);
    farm::FarmOutcome result;
    result.id = id;
    result.outcome = run_scenario(scenario.spec, scenario.plans);
    results.push_back(std::move(result));
  }
  farm::write_result_file(dir + "/" + shard.result_file, results);
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ShardSplitter, BalancedSplitCoversEveryJobOnce) {
  const std::vector<farm::FarmJob> jobs = small_batch(7);
  const farm::ShardManifest manifest = split_batch(jobs, {"a", "b", "c"});
  EXPECT_EQ(manifest.fingerprint, farm::batch_fingerprint(jobs));
  EXPECT_EQ(manifest.total_jobs, 7u);
  ASSERT_EQ(manifest.shards.size(), 3u);  // ceil(7/3) = 3 per shard
  EXPECT_EQ(manifest.shards[0].host_id, "a");
  EXPECT_EQ(manifest.shards[1].host_id, "b");
  EXPECT_EQ(manifest.shards[2].host_id, "c");
  std::vector<std::uint64_t> seen;
  for (const farm::HostShard& shard : manifest.shards) {
    ASSERT_EQ(shard.job_ids.size(), shard.labels.size());
    for (std::size_t i = 0; i < shard.job_ids.size(); ++i) {
      EXPECT_EQ(shard.labels[i], jobs[static_cast<std::size_t>(shard.job_ids[i])].label);
      seen.push_back(shard.job_ids[i]);
    }
  }
  ASSERT_EQ(seen.size(), 7u);
  for (std::uint64_t i = 0; i < 7; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

TEST(ShardSplitter, JobsPerShardControlsGranularityAndWrapsHosts) {
  const std::vector<farm::FarmJob> jobs = small_batch(5);
  const farm::ShardManifest manifest = split_batch(jobs, {"a", "b"}, 2);
  ASSERT_EQ(manifest.shards.size(), 3u);
  EXPECT_EQ(manifest.shards[0].job_ids.size(), 2u);
  EXPECT_EQ(manifest.shards[1].job_ids.size(), 2u);
  EXPECT_EQ(manifest.shards[2].job_ids.size(), 1u);
  EXPECT_EQ(manifest.shards[2].host_id, "a");  // round-robin wraps
  EXPECT_EQ(manifest.shards[0].job_file, "shard0.jobs.kyfm");
  EXPECT_EQ(manifest.shards[0].result_file, "shard0.results.kyfm");
}

TEST(ShardSplitter, ManifestFileRoundTrips) {
  const std::vector<farm::FarmJob> jobs = small_batch(4);
  const farm::ShardManifest manifest = split_batch(jobs, {"left", "right"});
  const std::string dir = testing::TempDir() + "splitter_roundtrip";
  ::mkdir(dir.c_str(), 0755);
  write_shard_files(dir, manifest, jobs);
  const farm::ShardManifest back = farm::read_manifest_file(manifest_path(dir));
  EXPECT_EQ(back, manifest);
  // The shard job files really carry their slices.
  const std::vector<farm::FarmJob> slice = farm::read_job_file(dir + "/shard1.jobs.kyfm");
  ASSERT_EQ(slice.size(), manifest.shards[1].job_ids.size());
  EXPECT_EQ(slice[0].id, manifest.shards[1].job_ids[0]);
  EXPECT_EQ(slice[0].label, manifest.shards[1].labels[0]);
}

// ------------------------------------------------------------ golden bytes
//
// Pin the two additive frames byte for byte (captured from the
// encoder once; never regenerate casually — see farm_codec_test.cpp).

constexpr char kGoldenManifest[] =
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
constexpr std::size_t kGoldenManifestLen = 243;

constexpr char kGoldenOwner[] =
    "\x4b\x59\x46\x4d\x01\x00\x06\x00\x38\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00"
    "\x00\x00\x00\x68\x6f\x73\x74\x42\x13\x00\x00\x00\x00\x00\x00\x00\x73\x68\x61\x72\x64"
    "\x31\x2e\x72\x65\x73\x75\x6c\x74\x73\x2e\x6b\x79\x66\x6d\x01\x00\x00\x00\x00\x00\x00"
    "\x00\x01\x00\x00\x00\x00\x00\x00\x00\x3b\xb2\xb1\x78\x22\x9c\x17\x5b";
constexpr std::size_t kGoldenOwnerLen = 80;

farm::ShardManifest sample_manifest() {
  farm::ShardManifest m;
  m.fingerprint = 0x1122334455667788ull;
  m.total_jobs = 3;
  m.shards.push_back(
      farm::HostShard{"hostA", "shard0.jobs.kyfm", "shard0.results.kyfm", {0, 2}, {"a", "c"}});
  m.shards.push_back(
      farm::HostShard{"hostB", "shard1.jobs.kyfm", "shard1.results.kyfm", {1}, {"b"}});
  return m;
}

TEST(ShardSplitterGolden, ManifestFrameBytesArePinned) {
  const std::string encoded =
      farm::encode_frame(farm::FrameType::kHostManifest, farm::encode_manifest(sample_manifest()));
  EXPECT_EQ(encoded, std::string(kGoldenManifest, kGoldenManifestLen));
}

TEST(ShardSplitterGolden, OwnerFrameBytesArePinned) {
  const farm::ShardOwner owner{"hostB", "shard1.results.kyfm", {1}};
  const std::string encoded =
      farm::encode_frame(farm::FrameType::kShardOwner, farm::encode_shard_owner(owner));
  EXPECT_EQ(encoded, std::string(kGoldenOwner, kGoldenOwnerLen));
}

TEST(ShardSplitterGolden, PinnedBytesDecodeBack) {
  farm::FrameReader reader;
  reader.feed(kGoldenManifest, kGoldenManifestLen);
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, farm::FrameType::kHostManifest);
  EXPECT_EQ(farm::decode_manifest(frame->payload), sample_manifest());

  farm::FrameReader reader2;
  reader2.feed(kGoldenOwner, kGoldenOwnerLen);
  const auto frame2 = reader2.next();
  ASSERT_TRUE(frame2.has_value());
  ASSERT_EQ(frame2->type, farm::FrameType::kShardOwner);
  const farm::ShardOwner owner = farm::decode_shard_owner(frame2->payload);
  EXPECT_EQ(owner, (farm::ShardOwner{"hostB", "shard1.results.kyfm", {1}}));
}

TEST(ShardSplitter, MalformedManifestsAreParseErrors) {
  const std::string dir = testing::TempDir() + "splitter_malformed";
  ::mkdir(dir.c_str(), 0755);
  // Not a frame file at all.
  write_bytes(manifest_path(dir), "this is not a KYFM manifest\n");
  EXPECT_THROW(farm::read_manifest_file(manifest_path(dir)), farm::CodecError);
  // A valid frame file of the wrong frame type.
  write_bytes(manifest_path(dir),
              farm::encode_frame(farm::FrameType::kError, farm::encode_error(0, "nope")));
  EXPECT_THROW(farm::read_manifest_file(manifest_path(dir)), farm::CodecError);
  // A manifest frame with a truncated payload (bad checksum).
  std::string damaged(kGoldenManifest, kGoldenManifestLen);
  damaged.resize(damaged.size() - 3);
  write_bytes(manifest_path(dir), damaged);
  EXPECT_THROW(farm::read_manifest_file(manifest_path(dir)), farm::CodecError);
  // Internally inconsistent: labels/job_ids length mismatch refuses to encode.
  farm::ShardManifest bad = sample_manifest();
  bad.shards[0].labels.pop_back();
  EXPECT_THROW(farm::encode_manifest(bad), farm::CodecError);
}

TEST(ShardSplitter, MergeReproducesSweepByteForByte) {
  const std::vector<farm::FarmJob> jobs = small_batch(6);
  const farm::ShardManifest manifest = split_batch(jobs, {"h0", "h1", "h2"});
  const std::string dir = testing::TempDir() + "splitter_merge_ok";
  ::mkdir(dir.c_str(), 0755);
  write_shard_files(dir, manifest, jobs);
  for (const farm::HostShard& shard : manifest.shards) run_shard(dir, shard, jobs);

  const MergeReport merged = merge_results(manifest, dir);
  ASSERT_TRUE(merged.complete) << merged.summary();
  const std::vector<RunOutcome> reference = sweep_reference(jobs);
  ASSERT_EQ(merged.outcomes.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(merged.outcomes[i], reference[i]) << "job " << i;
  }
}

TEST(ShardSplitter, MergeDiagnosesEveryBadShardByHost) {
  const std::vector<farm::FarmJob> jobs = small_batch(6);
  // One job per shard so each host owns exactly one failure mode.
  const farm::ShardManifest manifest =
      split_batch(jobs, {"ok", "missing", "corrupt", "foreign", "incomplete", "poisoned"}, 1);
  ASSERT_EQ(manifest.shards.size(), 6u);
  const std::string dir = testing::TempDir() + "splitter_merge_bad";
  ::mkdir(dir.c_str(), 0755);
  write_shard_files(dir, manifest, jobs);

  run_shard(dir, manifest.shards[0], jobs);  // ok
  // missing: never write shards[1]'s result file.
  write_bytes(dir + "/" + manifest.shards[2].result_file, "garbage bytes, not frames");
  {  // foreign: outcomes for a job id outside the shard
    std::vector<farm::FarmOutcome> alien(1);
    alien[0].id = 0;  // belongs to shard 0, not shard 3
    farm::write_result_file(dir + "/" + manifest.shards[3].result_file, alien);
  }
  // incomplete: a valid, empty result file covers none of the expected ids.
  farm::write_result_file(dir + "/" + manifest.shards[4].result_file, {});
  // poisoned: the worker reported a deterministic job failure.
  write_bytes(dir + "/" + manifest.shards[5].result_file,
              farm::encode_frame(farm::FrameType::kError,
                                 farm::encode_error(manifest.shards[5].job_ids[0], "boom")));

  const MergeReport merged = merge_results(manifest, dir);
  EXPECT_FALSE(merged.complete);
  EXPECT_TRUE(merged.outcomes.empty());  // all-or-nothing: nothing applied
  ASSERT_EQ(merged.lines.size(), 6u);
  EXPECT_EQ(merged.lines[0].state, ShardCollect::State::kOk);
  EXPECT_EQ(merged.lines[1].state, ShardCollect::State::kMissingFile);
  EXPECT_EQ(merged.lines[2].state, ShardCollect::State::kCorrupt);
  EXPECT_EQ(merged.lines[3].state, ShardCollect::State::kForeign);
  EXPECT_EQ(merged.lines[4].state, ShardCollect::State::kIncomplete);
  EXPECT_EQ(merged.lines[5].state, ShardCollect::State::kDeterministic);
  for (std::size_t s = 0; s < 6; ++s) {
    EXPECT_EQ(merged.lines[s].host_id, manifest.shards[s].host_id);
  }
  // The summary names each host with its diagnosis.
  const std::string summary = merged.summary();
  EXPECT_NE(summary.find("missing result file"), std::string::npos);
  EXPECT_NE(summary.find("host poisoned"), std::string::npos);
  EXPECT_NE(summary.find("boom"), std::string::npos);
}

TEST(ShardSplitter, CollectRejectsDuplicateIds) {
  const std::vector<farm::FarmJob> jobs = small_batch(2);
  const farm::ShardManifest manifest = split_batch(jobs, {"only"});
  const std::string dir = testing::TempDir() + "splitter_dup";
  ::mkdir(dir.c_str(), 0755);
  std::vector<farm::FarmOutcome> dup(2);
  dup[0].id = 0;
  dup[1].id = 0;  // same job twice
  farm::write_result_file(dir + "/" + manifest.shards[0].result_file, dup);
  const ShardCollect collect =
      collect_shard(manifest.shards[0], dir + "/" + manifest.shards[0].result_file);
  EXPECT_EQ(collect.state, ShardCollect::State::kForeign);
  EXPECT_NE(collect.detail.find("twice"), std::string::npos);
}

}  // namespace
}  // namespace kyoto::sim
