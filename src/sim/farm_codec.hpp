// Wire format for the process farm (versioned, length-prefixed,
// checksummed frames).
//
// A farm job crosses a process boundary, so it must be *declarative*:
// RunSpec/VmPlan hold std::function factories that cannot be
// serialized, but every farm-able job is expressible in the scenario
// language (sim/scenario_file.hpp), which parses back into exactly
// those factories.  The codec therefore ships jobs as scenario text
// and results as the full RunOutcome surface, with doubles encoded as
// IEEE-754 bit patterns — decode(encode(x)) == x exactly, which is
// what lets the farm's byte-identity gate against the in-process
// SweepRunner hold through the wire.
//
// Frame layout (wire format v1, all integers little-endian):
//
//   u8[4]  magic      'K' 'Y' 'F' 'M'
//   u16    version    kWireVersion (1)
//   u16    type       FrameType
//   u64    payload_len
//   u8[payload_len]   payload
//   u64    checksum   FNV-1a 64 over the payload bytes
//
// Every field is validated on decode: bad magic, unknown version,
// oversized length and checksum mismatch raise CodecError — a worker
// emitting garbage is a *diagnosable protocol violation*, never UB.
// An incomplete frame is not an error: FrameReader buffers until the
// rest arrives (a byte stream delivers frames in arbitrary chunks),
// and only whole-stream consumers (result files, checkpoint loading)
// treat a truncated trailing frame as corruption.
//
// The byte layout is pinned by golden fixtures in
// tests/sim/farm_codec_test.cpp; any change must bump kWireVersion.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.hpp"

namespace kyoto::sim::farm {

inline constexpr std::uint16_t kWireVersion = 1;
/// Upper bound on a frame payload; anything larger is a corrupt or
/// hostile length field, not a real job/outcome.
inline constexpr std::uint64_t kMaxPayload = 1ull << 28;

/// Malformed wire data (bad magic/version/length/checksum, or a
/// payload that does not parse).  Deliberately distinct from
/// std::logic_error: KYOTO_CHECK failures mean *our* bug, CodecError
/// means the peer (or the disk) handed us bytes we must reject.
class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FrameType : std::uint16_t {
  kJob = 1,                // coordinator -> worker: one scenario to run
  kOutcome = 2,            // worker -> coordinator: the RunOutcome
  kError = 3,              // worker -> coordinator: deterministic failure
  kCheckpointHeader = 4,   // first frame of a checkpoint file
  // Multi-host extension (additive: types 1-4 keep their v1 byte
  // layout, pinned by the goldens; a build that predates this type
  // rejects it loudly — an unreadable checkpoint restarts cleanly).
  // Type 5 is retired (an older build's split-batch manifest) and is
  // rejected as unknown, never misread.
  kShardOwner = 6,         // checkpoint: who owns an outstanding shard
};

struct Frame {
  FrameType type = FrameType::kJob;
  std::string payload;
};

/// One farm job: a scenario in the declarative text form, plus the
/// submission index it answers to and a human-readable label for
/// diagnostics.
struct FarmJob {
  std::uint64_t id = 0;
  std::string label;
  std::string scenario_text;

  bool operator==(const FarmJob&) const = default;
};

struct FarmOutcome {
  std::uint64_t id = 0;
  RunOutcome outcome;

  bool operator==(const FarmOutcome&) const = default;
};

struct FarmError {
  std::uint64_t id = 0;
  std::string message;
};

/// Binds a checkpoint file to one exact job batch: `fingerprint` is
/// batch_fingerprint() over the submitted jobs, `total_jobs` the batch
/// size.  A checkpoint whose header disagrees is for some other sweep
/// and is ignored (clean restart).
struct CheckpointHeader {
  std::uint64_t fingerprint = 0;
  std::uint64_t total_jobs = 0;
};

/// Checkpoint extension (frame type kShardOwner): records that a
/// dispatched shard is outstanding on `host_id`, expected to produce
/// `result_file` covering exactly `job_ids`.  An interrupted
/// coordinator resumes by *re-collecting* such result files from
/// still-live hosts instead of re-running their jobs; a split batch's
/// manifest (sim/shard_splitter.hpp) is a checkpoint with one owner
/// per shard and no outcomes.
struct ShardOwner {
  std::string host_id;
  std::string result_file;
  std::vector<std::uint64_t> job_ids;

  bool operator==(const ShardOwner&) const = default;
};

/// FNV-1a 64 over `bytes`, continuing from `seed` (chainable).
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t seed = 14695981039346656037ull);

/// Frames `payload` for the wire (header + payload + checksum).
std::string encode_frame(FrameType type, std::string_view payload);

// Payload encoders/decoders.  Decoders throw CodecError on any
// malformed input (short payload, trailing bytes, oversized string).
std::string encode_job(const FarmJob& job);
FarmJob decode_job(std::string_view payload);
std::string encode_outcome(std::uint64_t job_id, const RunOutcome& outcome);
FarmOutcome decode_outcome(std::string_view payload);
std::string encode_error(std::uint64_t job_id, const std::string& message);
FarmError decode_error(std::string_view payload);
std::string encode_checkpoint_header(const CheckpointHeader& header);
CheckpointHeader decode_checkpoint_header(std::string_view payload);
std::string encode_shard_owner(const ShardOwner& owner);
ShardOwner decode_shard_owner(std::string_view payload);

/// Incremental frame decoder for a byte stream delivered in arbitrary
/// chunks (pipe reads).  feed() appends bytes; next() returns the
/// next complete frame, or nullopt when more bytes are needed, and
/// throws CodecError the moment the buffered prefix cannot be a valid
/// frame (bad magic/version/length, checksum mismatch).
class FrameReader {
 public:
  void feed(const char* data, std::size_t n);
  std::optional<Frame> next();
  /// Bytes buffered but not yet consumed by a complete frame — a
  /// nonzero value at end-of-stream means a truncated frame.
  std::size_t buffered() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;
};

/// Canonical fingerprint of a job batch (labels + scenario texts, in
/// submission order) — the checkpoint-binding key.
std::uint64_t batch_fingerprint(const std::vector<FarmJob>& jobs);

// File-pair transport: the multi-host form of the protocol.  A
// coordinator (or a human with scp) writes the job file, a remote
// `sweep_worker --jobs F --results G` executes it, and the result
// file travels back.  Readers validate every frame and throw
// CodecError on truncation or corruption.
void write_job_file(const std::string& path, const std::vector<FarmJob>& jobs);
std::vector<FarmJob> read_job_file(const std::string& path);
void write_result_file(const std::string& path, const std::vector<FarmOutcome>& results);
std::vector<FarmOutcome> read_result_file(const std::string& path);

/// Reads a whole frame file (any mix of frame types), rejecting
/// truncation and corruption.  collect_shard uses this instead of
/// read_result_file so a worker-side deterministic failure (an error
/// frame inside the result file) is diagnosable rather than merely
/// "corrupt".
std::vector<Frame> read_frame_file(const std::string& path);

/// A shard's job file, named after its result file: "<stem>.results.kyfm"
/// -> "<stem>.jobs.kyfm" ("" for any other name).  Owner frames record
/// only the result file.
std::string job_file_for(std::string_view result_file);

/// A checkpoint's contents: the finished jobs' outcomes and the owners
/// of the shards still in flight.
struct Checkpoint {
  std::vector<FarmOutcome> outcomes;
  std::vector<ShardOwner> owners;
};

/// Writes `checkpoint` as a checkpoint of the batch `jobs`: a header
/// frame binding the batch, then one outcome frame per outcome and one
/// owner frame per owner.  The file is replaced atomically (tmp +
/// rename), so a reader or a crash never sees half of it.
void write_checkpoint_file(const std::string& path, const std::vector<FarmJob>& jobs,
                           const Checkpoint& checkpoint);

/// Reads a checkpoint of the batch `jobs`, validating the whole file
/// before returning any of it.  Throws CodecError for a corrupt or
/// truncated file, a first frame that is not a header, a header of some
/// other batch, a frame other than outcome or owner, a job id outside
/// the batch, or an owner whose result file is not a bare file name
/// (the caller resolves it under its own directory).
Checkpoint read_checkpoint_file(const std::string& path, const std::vector<FarmJob>& jobs);

}  // namespace kyoto::sim::farm
