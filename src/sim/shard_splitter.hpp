// Shard splitter: partitions a validated farm batch into per-host job
// files, and checks the result files that come back.
//
// The multi-host seam is deliberately *files*: `write_job_file` /
// `read_result_file` (sim/farm_codec.hpp) already carry jobs and
// outcomes across any transport that can move bytes — scp, NFS, a
// USB stick — so splitting a batch for N hosts is just writing N job
// files plus one manifest.  The manifest is a farm checkpoint with no
// outcomes: the header binding the exact batch (batch_fingerprint)
// and one owner frame per shard recording which host owns which
// result file.  One reader (farm::read_checkpoint_file) serves a
// resuming farm and a merge alike.
//
// collect_shard is the one result-file checker, for the farm's
// dispatches and re-collected owners and for a hand-run merge: a
// result file is present, frame-valid and covers exactly the owner's
// job ids, or the verdict says which of missing / corrupt / foreign /
// incomplete / deterministic worker failure it is.  A merge collects
// every owner before applying any outcome, so a bad host can never
// silently drop or corrupt a slice of a figure sweep: the merge
// either reproduces the in-process SweepRunner outcomes byte for
// byte, in submission order, or it names the hosts that failed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/farm_codec.hpp"

namespace kyoto::sim {

inline std::string manifest_path(const std::string& dir) { return dir + "/manifest.kyfm"; }

/// The farm's shard rule: jobs per shard when `jobs` are split into
/// one balanced shard per host.
inline std::size_t balanced_shard_size(std::size_t jobs, std::size_t hosts) {
  return (jobs + hosts - 1) / hosts;
}

/// Splits `jobs` the farm's way — one shard of balanced_shard_size
/// contiguous jobs per host "host<k>" — and writes each shard's job
/// file (shard<k>.jobs.kyfm) plus manifest_path(dir) into `dir`, which
/// must exist.  Returns the manifest's owners, in shard order.
std::vector<farm::ShardOwner> write_split(const std::string& dir,
                                          const std::vector<farm::FarmJob>& jobs, int hosts);

/// Reads the manifest in `dir` with the farm's checkpoint reader and
/// returns its owners.  Throws farm::CodecError unless the file is a
/// checkpoint of `jobs` with no outcomes whose owners cover every job
/// exactly once.
std::vector<farm::ShardOwner> read_split(const std::string& dir,
                                         const std::vector<farm::FarmJob>& jobs);

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
  std::uint64_t failed_job = 0;               // kDeterministic: the job (one of the owner's)
  std::vector<farm::FarmOutcome> outcomes;    // populated only when kOk
};

const char* shard_collect_state_name(ShardCollect::State state);

/// Validates `result_path` against the owner's job ids.  Never throws
/// on bad files — every failure mode becomes a State + diagnosis so
/// callers (merge, coordinator, resume) can charge the owning host
/// rather than abort.  For kDeterministic, `detail` is the worker's
/// message and the caller names `failed_job` from its own batch.
ShardCollect collect_shard(const farm::ShardOwner& owner, const std::string& result_path);

}  // namespace kyoto::sim
