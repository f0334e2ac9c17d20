#include "sim/shard_splitter.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "common/check.hpp"

namespace kyoto::sim {
namespace {

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

std::vector<farm::ShardOwner> write_split(const std::string& dir,
                                          const std::vector<farm::FarmJob>& jobs, int hosts) {
  KYOTO_CHECK_MSG(!jobs.empty(), "write_split: empty batch");
  KYOTO_CHECK_MSG(hosts >= 1, "write_split: no hosts");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    KYOTO_CHECK_MSG(jobs[i].id == i, "write_split: job ids must be submission indices");
  }
  const std::size_t per = balanced_shard_size(jobs.size(), static_cast<std::size_t>(hosts));
  farm::Checkpoint manifest;
  for (std::size_t first = 0; first < jobs.size(); first += per) {
    const std::string k = std::to_string(manifest.owners.size());
    const auto begin = jobs.begin() + static_cast<std::ptrdiff_t>(first);
    const std::vector<farm::FarmJob> slice(
        begin, begin + static_cast<std::ptrdiff_t>(std::min(per, jobs.size() - first)));
    farm::ShardOwner owner{"host" + k, "shard" + k + ".results.kyfm", {}};
    for (const farm::FarmJob& job : slice) owner.job_ids.push_back(job.id);
    farm::write_job_file(dir + "/" + farm::job_file_for(owner.result_file), slice);
    manifest.owners.push_back(std::move(owner));
  }
  farm::write_checkpoint_file(manifest_path(dir), jobs, manifest);
  return manifest.owners;
}

std::vector<farm::ShardOwner> read_split(const std::string& dir,
                                         const std::vector<farm::FarmJob>& jobs) {
  farm::Checkpoint manifest = farm::read_checkpoint_file(manifest_path(dir), jobs);
  if (!manifest.outcomes.empty()) throw farm::CodecError("a split manifest carries no outcomes");
  std::vector<char> covered(jobs.size(), 0);
  for (const farm::ShardOwner& owner : manifest.owners) {
    for (const std::uint64_t id : owner.job_ids) {
      if (covered[static_cast<std::size_t>(id)] != 0) {
        throw farm::CodecError("two manifest owners claim job #" + std::to_string(id));
      }
      covered[static_cast<std::size_t>(id)] = 1;
    }
  }
  for (std::size_t i = 0; i < covered.size(); ++i) {
    if (covered[i] == 0) throw farm::CodecError("no manifest owner covers job #" + std::to_string(i));
  }
  return std::move(manifest.owners);
}

const char* shard_collect_state_name(ShardCollect::State state) {
  switch (state) {
    case ShardCollect::State::kOk: return "ok";
    case ShardCollect::State::kMissingFile: return "missing result file";
    case ShardCollect::State::kCorrupt: return "corrupt result file";
    case ShardCollect::State::kForeign: return "foreign result file";
    case ShardCollect::State::kIncomplete: return "incomplete result file";
    case ShardCollect::State::kDeterministic: return "deterministic job failure";
  }
  return "?";
}

ShardCollect collect_shard(const farm::ShardOwner& owner, const std::string& result_path) {
  ShardCollect collect;
  if (!file_exists(result_path)) {
    collect.state = ShardCollect::State::kMissingFile;
    collect.detail = result_path + " does not exist";
    return collect;
  }
  std::vector<farm::Frame> frames;
  try {
    frames = farm::read_frame_file(result_path);
  } catch (const farm::CodecError& e) {
    collect.state = ShardCollect::State::kCorrupt;
    collect.detail = e.what();
    return collect;
  }

  const std::set<std::uint64_t> expected(owner.job_ids.begin(), owner.job_ids.end());
  std::set<std::uint64_t> seen;
  std::vector<farm::FarmOutcome> outcomes;
  for (const farm::Frame& frame : frames) {
    if (frame.type == farm::FrameType::kError) {
      // The worker executed the shard and hit a deterministic job
      // failure (scenario rejected by the simulator).  Re-running it
      // anywhere would fail identically — surface the job, not the host.
      farm::FarmError error;
      try {
        error = farm::decode_error(frame.payload);
      } catch (const farm::CodecError& e) {
        collect.state = ShardCollect::State::kCorrupt;
        collect.detail = e.what();
        return collect;
      }
      if (expected.find(error.id) == expected.end()) {
        collect.state = ShardCollect::State::kForeign;
        collect.detail =
            "reports a failure of job #" + std::to_string(error.id) + ", which is not in this shard";
        return collect;
      }
      collect.state = ShardCollect::State::kDeterministic;
      collect.failed_job = error.id;
      collect.detail = error.message;
      return collect;
    }
    if (frame.type != farm::FrameType::kOutcome) {
      collect.state = ShardCollect::State::kCorrupt;
      collect.detail = "unexpected frame type in result file";
      return collect;
    }
    farm::FarmOutcome outcome;
    try {
      outcome = farm::decode_outcome(frame.payload);
    } catch (const farm::CodecError& e) {
      collect.state = ShardCollect::State::kCorrupt;
      collect.detail = e.what();
      return collect;
    }
    if (expected.find(outcome.id) == expected.end()) {
      collect.state = ShardCollect::State::kForeign;
      collect.detail =
          "carries job #" + std::to_string(outcome.id) + ", which is not in this shard";
      return collect;
    }
    if (!seen.insert(outcome.id).second) {
      collect.state = ShardCollect::State::kForeign;
      collect.detail = "carries job #" + std::to_string(outcome.id) + " twice";
      return collect;
    }
    outcomes.push_back(std::move(outcome));
  }
  if (seen.size() != expected.size()) {
    collect.state = ShardCollect::State::kIncomplete;
    std::ostringstream oss;
    oss << "covers " << seen.size() << " of " << expected.size() << " job(s); missing:";
    for (const std::uint64_t id : expected) {
      if (seen.find(id) == seen.end()) oss << " #" << id;
    }
    collect.detail = oss.str();
    return collect;
  }
  collect.outcomes = std::move(outcomes);
  return collect;
}

}  // namespace kyoto::sim
