// Shard splitter: partitions a validated farm batch into per-host job
// files and merges the result files back.
//
// The multi-host seam is deliberately *files*: `write_job_file` /
// `read_result_file` (sim/farm_codec.hpp) already carry jobs and
// outcomes across any transport that can move bytes — scp, NFS, a
// USB stick — so splitting a batch for N hosts is just writing N job
// files plus one manifest binding them to the exact batch
// (batch_fingerprint) and recording which host owns which slice.
//
// Merging is validate-all-before-apply: every shard's result file is
// checked — present, frame-valid, covering exactly the expected job
// ids — before a single outcome is accepted, and every problem is
// diagnosed *per host* (missing / corrupt / foreign / incomplete /
// deterministic worker failure).  A bad host can therefore never
// silently drop or corrupt a slice of a figure sweep: the merge
// either reproduces the in-process SweepRunner outcomes byte for
// byte, in submission order, or it names the hosts that failed.
#pragma once

#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/farm_codec.hpp"

namespace kyoto::sim {

/// Partitions `jobs` into shards of `jobs_per_shard` contiguous jobs
/// (0 = one shard per host, balanced), assigned round-robin to
/// `host_ids` in order.  Job ids are taken from the FarmJobs (they
/// are submission indices), so a subset batch — e.g. the undone
/// remainder after a checkpoint restore — splits just as well as a
/// full one.  Shard file names are shard<k>.jobs.kyfm /
/// shard<k>.results.kyfm, relative to the manifest's directory.
farm::ShardManifest split_batch(const std::vector<farm::FarmJob>& jobs,
                                const std::vector<std::string>& host_ids,
                                int jobs_per_shard = 0);

/// Writes every shard's job file plus the manifest (manifest.kyfm)
/// into `dir` (which must exist).  `jobs` must be the same batch the
/// manifest was split from.
void write_shard_files(const std::string& dir, const farm::ShardManifest& manifest,
                       const std::vector<farm::FarmJob>& jobs);

inline std::string manifest_path(const std::string& dir) { return dir + "/manifest.kyfm"; }

/// Verdict for one shard's result file.
struct ShardCollect {
  enum class State {
    kOk,             // outcomes cover exactly the expected job ids
    kMissingFile,    // result file absent (host never finished / unreachable)
    kCorrupt,        // truncated or frame-invalid (bad bytes, checksum)
    kForeign,        // parses, but carries job ids outside this shard (or duplicates)
    kIncomplete,     // parses, but is missing some expected job ids
    kDeterministic,  // the worker reported a deterministic job failure
  };
  State state = State::kOk;
  std::string detail;                         // diagnosis; empty when kOk
  std::vector<farm::FarmOutcome> outcomes;    // populated only when kOk
};

const char* shard_collect_state_name(ShardCollect::State state);

/// Validates `result_path` against the shard's expected job ids.
/// Never throws on bad files — every failure mode becomes a State +
/// diagnosis so callers (merge, coordinator, resume) can charge the
/// owning host rather than abort.
ShardCollect collect_shard(const farm::HostShard& shard, const std::string& result_path);

/// The merge verdict: per-host lines always, outcomes only when every
/// shard validated.
struct MergeReport {
  bool complete = false;
  std::vector<RunOutcome> outcomes;  // submission order; valid iff complete
  struct HostLine {
    std::string host_id;
    std::string result_file;
    ShardCollect::State state = ShardCollect::State::kOk;
    std::string detail;
    int jobs = 0;
  };
  std::vector<HostLine> lines;

  /// Human-readable per-host summary (one line per shard).
  std::string summary() const;
};

/// Validate-all-before-apply merge of every shard result file under
/// `dir`.  Nothing is applied unless every shard validates; the
/// report diagnoses each host either way.
MergeReport merge_results(const farm::ShardManifest& manifest, const std::string& dir);

}  // namespace kyoto::sim
