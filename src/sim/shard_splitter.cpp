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

farm::ShardManifest split_batch(const std::vector<farm::FarmJob>& jobs,
                                const std::vector<std::string>& host_ids,
                                int jobs_per_shard) {
  KYOTO_CHECK_MSG(!jobs.empty(), "split_batch: empty batch");
  KYOTO_CHECK_MSG(!host_ids.empty(), "split_batch: no hosts");
  for (std::size_t i = 0; i < host_ids.size(); ++i) {
    KYOTO_CHECK_MSG(!host_ids[i].empty(), "split_batch: empty host id");
    for (std::size_t j = i + 1; j < host_ids.size(); ++j) {
      KYOTO_CHECK_MSG(host_ids[i] != host_ids[j],
                      "split_batch: duplicate host id " << host_ids[i]);
    }
  }
  const std::size_t total = jobs.size();

  farm::ShardManifest manifest;
  manifest.fingerprint = farm::batch_fingerprint(jobs);
  manifest.total_jobs = total;

  auto emit_shard = [&](const std::string& host_id, std::size_t first, std::size_t count) {
    const std::size_t shard_index = manifest.shards.size();
    farm::HostShard shard;
    shard.host_id = host_id;
    shard.job_file = "shard" + std::to_string(shard_index) + ".jobs.kyfm";
    shard.result_file = "shard" + std::to_string(shard_index) + ".results.kyfm";
    shard.job_ids.reserve(count);
    shard.labels.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      shard.job_ids.push_back(jobs[first + i].id);
      shard.labels.push_back(jobs[first + i].label);
    }
    manifest.shards.push_back(std::move(shard));
  };

  std::size_t per = jobs_per_shard > 0
                        ? static_cast<std::size_t>(jobs_per_shard)
                        : (total + host_ids.size() - 1) / host_ids.size();
  per = std::max<std::size_t>(per, 1);
  std::size_t next = 0;
  std::size_t shard_index = 0;
  while (next < total) {
    const std::size_t count = std::min(per, total - next);
    emit_shard(host_ids[shard_index % host_ids.size()], next, count);
    next += count;
    ++shard_index;
  }
  return manifest;
}

void write_shard_files(const std::string& dir, const farm::ShardManifest& manifest,
                       const std::vector<farm::FarmJob>& jobs) {
  KYOTO_CHECK_MSG(farm::batch_fingerprint(jobs) == manifest.fingerprint,
                  "write_shard_files: jobs are not the manifest's batch");
  // The batch is indexed by job id for slicing (ids are submission
  // indices of the *original* batch, so with subset batches id != pos).
  std::vector<const farm::FarmJob*> by_id;
  for (const farm::FarmJob& job : jobs) {
    if (job.id >= by_id.size()) by_id.resize(static_cast<std::size_t>(job.id) + 1, nullptr);
    by_id[static_cast<std::size_t>(job.id)] = &job;
  }
  for (const farm::HostShard& shard : manifest.shards) {
    std::vector<farm::FarmJob> slice;
    slice.reserve(shard.job_ids.size());
    for (const std::uint64_t id : shard.job_ids) {
      KYOTO_CHECK_MSG(id < by_id.size() && by_id[static_cast<std::size_t>(id)] != nullptr,
                      "write_shard_files: manifest references unknown job id " << id);
      slice.push_back(*by_id[static_cast<std::size_t>(id)]);
    }
    farm::write_job_file(dir + "/" + shard.job_file, slice);
  }
  farm::write_manifest_file(manifest_path(dir), manifest);
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

ShardCollect collect_shard(const farm::HostShard& shard, const std::string& result_path) {
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

  const std::set<std::uint64_t> expected(shard.job_ids.begin(), shard.job_ids.end());
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
      collect.state = ShardCollect::State::kDeterministic;
      std::size_t at = shard.job_ids.size();
      for (std::size_t i = 0; i < shard.job_ids.size(); ++i) {
        if (shard.job_ids[i] == error.id) at = i;
      }
      collect.detail = "job #" + std::to_string(error.id) + " '" +
                       (at < shard.labels.size() ? shard.labels[at] : "?") +
                       "': " + error.message;
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

std::string MergeReport::summary() const {
  std::ostringstream out;
  out << "merge " << (complete ? "complete" : "FAILED") << ": " << lines.size()
      << " shard(s)\n";
  for (const HostLine& line : lines) {
    out << "  host " << line.host_id << " (" << line.result_file
        << "): " << shard_collect_state_name(line.state);
    if (line.state == ShardCollect::State::kOk) out << ", " << line.jobs << " job(s)";
    if (!line.detail.empty()) out << " — " << line.detail;
    out << '\n';
  }
  return out.str();
}

MergeReport merge_results(const farm::ShardManifest& manifest, const std::string& dir) {
  MergeReport report;
  report.complete = true;
  std::vector<ShardCollect> collected;
  collected.reserve(manifest.shards.size());
  for (const farm::HostShard& shard : manifest.shards) {
    ShardCollect c = collect_shard(shard, dir + "/" + shard.result_file);
    MergeReport::HostLine line;
    line.host_id = shard.host_id;
    line.result_file = shard.result_file;
    line.state = c.state;
    line.detail = c.detail;
    line.jobs = static_cast<int>(c.outcomes.size());
    report.lines.push_back(std::move(line));
    if (c.state != ShardCollect::State::kOk) report.complete = false;
    collected.push_back(std::move(c));
  }
  if (!report.complete) return report;  // apply nothing: all-or-nothing

  report.outcomes.assign(static_cast<std::size_t>(manifest.total_jobs), RunOutcome{});
  std::vector<char> filled(static_cast<std::size_t>(manifest.total_jobs), 0);
  for (std::size_t s = 0; s < collected.size(); ++s) {
    for (farm::FarmOutcome& outcome : collected[s].outcomes) {
      if (outcome.id >= manifest.total_jobs || filled[static_cast<std::size_t>(outcome.id)]) {
        // Two shards claiming one job means the manifest itself is
        // inconsistent — that is a manifest fault, not a host fault.
        report.complete = false;
        report.outcomes.clear();
        report.lines[s].state = ShardCollect::State::kForeign;
        report.lines[s].detail = "manifest shards overlap on job #" + std::to_string(outcome.id);
        return report;
      }
      filled[static_cast<std::size_t>(outcome.id)] = 1;
      report.outcomes[static_cast<std::size_t>(outcome.id)] = std::move(outcome.outcome);
    }
  }
  // Shards collectively covering fewer than total_jobs is legitimate
  // only if the manifest says so; a full-batch manifest covers all.
  return report;
}

}  // namespace kyoto::sim
