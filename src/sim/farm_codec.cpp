#include "sim/farm_codec.hpp"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace kyoto::sim::farm {
namespace {

constexpr char kMagic[4] = {'K', 'Y', 'F', 'M'};
/// magic + version + type + payload_len.
constexpr std::size_t kHeaderBytes = 4 + 2 + 2 + 8;
constexpr std::size_t kChecksumBytes = 8;

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_i64(std::string& out, std::int64_t v) { put_u64(out, static_cast<std::uint64_t>(v)); }

void put_f64(std::string& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

void put_string(std::string& out, std::string_view s) {
  if (s.size() > kMaxPayload) throw CodecError("string too large to encode");
  put_u64(out, s.size());
  out.append(s);
}

/// Bounds-checked big-endian-agnostic payload reader; every getter
/// throws CodecError on overrun so a short payload can never read
/// out of bounds.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint16_t u16() {
    need(2);
    const auto* p = data();
    pos_ += 2;
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
  }

  std::uint64_t u64() {
    need(8);
    const auto* p = data();
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint64_t n = u64();
    if (n > kMaxPayload) throw CodecError("decoded string length exceeds limit");
    need(static_cast<std::size_t>(n));
    std::string s(bytes_.substr(pos_, static_cast<std::size_t>(n)));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// Every payload decoder must consume the payload exactly.
  void finish() const {
    if (pos_ != bytes_.size()) throw CodecError("trailing bytes after payload");
  }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n) throw CodecError("payload truncated");
  }
  const unsigned char* data() const {
    return reinterpret_cast<const unsigned char*>(bytes_.data()) + pos_;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

void put_metrics(std::string& out, const VmMetrics& m) {
  put_string(out, m.name);
  put_u64(out, m.instructions);
  put_u64(out, m.cycles);
  put_u64(out, m.llc_references);
  put_u64(out, m.llc_misses);
  put_f64(out, m.ipc);
  put_f64(out, m.llc_cap_act);
  put_f64(out, m.throughput);
  put_f64(out, m.cpu_share_pct);
  put_i64(out, m.punish_events);
  put_i64(out, m.punished_ticks);
}

VmMetrics get_metrics(Reader& in) {
  VmMetrics m;
  m.name = in.str();
  m.instructions = in.u64();
  m.cycles = in.u64();
  m.llc_references = in.u64();
  m.llc_misses = in.u64();
  m.ipc = in.f64();
  m.llc_cap_act = in.f64();
  m.throughput = in.f64();
  m.cpu_share_pct = in.f64();
  m.punish_events = in.i64();
  m.punished_ticks = in.i64();
  return m;
}

void write_bytes_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) throw CodecError("cannot open file for writing: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) throw CodecError("short write to " + path);
}

}  // namespace

/// Shared tail of the file readers: feed the whole file through a
/// FrameReader and require it to end exactly on a frame boundary.
std::vector<Frame> read_frame_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw CodecError("cannot open frame file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  std::vector<Frame> frames;
  while (auto frame = reader.next()) frames.push_back(std::move(*frame));
  if (reader.buffered() != 0) {
    throw CodecError("truncated trailing frame in " + path);
  }
  return frames;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string encode_frame(FrameType type, std::string_view payload) {
  if (payload.size() > kMaxPayload) throw CodecError("payload too large to frame");
  std::string out;
  out.reserve(kHeaderBytes + payload.size() + kChecksumBytes);
  out.append(kMagic, sizeof kMagic);
  put_u16(out, kWireVersion);
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u64(out, payload.size());
  out.append(payload);
  put_u64(out, fnv1a(payload));
  return out;
}

std::string encode_job(const FarmJob& job) {
  std::string out;
  put_u64(out, job.id);
  put_string(out, job.label);
  put_string(out, job.scenario_text);
  return out;
}

FarmJob decode_job(std::string_view payload) {
  Reader in(payload);
  FarmJob job;
  job.id = in.u64();
  job.label = in.str();
  job.scenario_text = in.str();
  in.finish();
  return job;
}

std::string encode_outcome(std::uint64_t job_id, const RunOutcome& outcome) {
  std::string out;
  put_u64(out, job_id);
  put_i64(out, outcome.measured_ticks);
  put_i64(out, outcome.completion_wall_cycles);
  put_f64(out, outcome.completion_ms);
  put_u64(out, outcome.vms.size());
  for (const VmMetrics& m : outcome.vms) put_metrics(out, m);
  return out;
}

FarmOutcome decode_outcome(std::string_view payload) {
  Reader in(payload);
  FarmOutcome result;
  result.id = in.u64();
  result.outcome.measured_ticks = in.i64();
  result.outcome.completion_wall_cycles = in.i64();
  result.outcome.completion_ms = in.f64();
  const std::uint64_t vms = in.u64();
  if (vms > kMaxPayload) throw CodecError("decoded VM count exceeds limit");
  result.outcome.vms.reserve(static_cast<std::size_t>(vms));
  for (std::uint64_t i = 0; i < vms; ++i) result.outcome.vms.push_back(get_metrics(in));
  in.finish();
  return result;
}

std::string encode_error(std::uint64_t job_id, const std::string& message) {
  std::string out;
  put_u64(out, job_id);
  put_string(out, message);
  return out;
}

FarmError decode_error(std::string_view payload) {
  Reader in(payload);
  FarmError error;
  error.id = in.u64();
  error.message = in.str();
  in.finish();
  return error;
}

std::string encode_checkpoint_header(const CheckpointHeader& header) {
  std::string out;
  put_u64(out, header.fingerprint);
  put_u64(out, header.total_jobs);
  return out;
}

CheckpointHeader decode_checkpoint_header(std::string_view payload) {
  Reader in(payload);
  CheckpointHeader header;
  header.fingerprint = in.u64();
  header.total_jobs = in.u64();
  in.finish();
  return header;
}

std::string encode_shard_owner(const ShardOwner& owner) {
  std::string out;
  put_string(out, owner.host_id);
  put_string(out, owner.result_file);
  put_u64(out, owner.job_ids.size());
  for (const std::uint64_t id : owner.job_ids) put_u64(out, id);
  return out;
}

ShardOwner decode_shard_owner(std::string_view payload) {
  Reader in(payload);
  ShardOwner owner;
  owner.host_id = in.str();
  owner.result_file = in.str();
  const std::uint64_t n = in.u64();
  if (n > kMaxPayload) throw CodecError("decoded owner job count exceeds limit");
  owner.job_ids.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) owner.job_ids.push_back(in.u64());
  in.finish();
  return owner;
}

void FrameReader::feed(const char* data, std::size_t n) {
  // Compact lazily: once consumed frames dominate the buffer, drop
  // their bytes so a long-lived stream doesn't grow without bound.
  if (pos_ > 4096 && pos_ > buffer_.size() / 2) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(data, n);
}

std::optional<Frame> FrameReader::next() {
  const std::size_t avail = buffer_.size() - pos_;
  if (avail < kHeaderBytes) {
    // Reject a bad magic as soon as the first bytes disagree — no
    // point buffering a "frame" that can never become valid.
    const std::size_t have = std::min(avail, sizeof kMagic);
    if (buffer_.compare(pos_, have, kMagic, have) != 0) {
      throw CodecError("bad frame magic");
    }
    return std::nullopt;
  }
  const std::string_view head(buffer_.data() + pos_, kHeaderBytes);
  if (head.substr(0, 4) != std::string_view(kMagic, 4)) throw CodecError("bad frame magic");
  Reader header(head.substr(4));
  const std::uint16_t version = header.u16();
  if (version != kWireVersion) {
    throw CodecError("unsupported wire version " + std::to_string(version) + " (expected " +
                     std::to_string(kWireVersion) + ")");
  }
  const std::uint16_t type = header.u16();
  if (type < 1 || type > 6 || type == 5) {
    throw CodecError("unknown frame type " + std::to_string(type));
  }
  const std::uint64_t len = header.u64();
  if (len > kMaxPayload) throw CodecError("frame payload length exceeds limit");
  const std::size_t frame_bytes = kHeaderBytes + static_cast<std::size_t>(len) + kChecksumBytes;
  if (avail < frame_bytes) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(buffer_, pos_ + kHeaderBytes, static_cast<std::size_t>(len));
  Reader tail(std::string_view(buffer_.data() + pos_ + kHeaderBytes + len, kChecksumBytes));
  if (tail.u64() != fnv1a(frame.payload)) throw CodecError("frame checksum mismatch");
  pos_ += frame_bytes;
  return frame;
}

std::uint64_t batch_fingerprint(const std::vector<FarmJob>& jobs) {
  std::string count;
  put_u64(count, jobs.size());
  std::uint64_t h = fnv1a(count);
  for (const FarmJob& job : jobs) {
    h = fnv1a(job.label, h);
    h = fnv1a(std::string_view("\0", 1), h);
    h = fnv1a(job.scenario_text, h);
    h = fnv1a(std::string_view("\x01", 1), h);
  }
  return h;
}

void write_job_file(const std::string& path, const std::vector<FarmJob>& jobs) {
  std::string bytes;
  for (const FarmJob& job : jobs) bytes += encode_frame(FrameType::kJob, encode_job(job));
  write_bytes_file(path, bytes);
}

std::vector<FarmJob> read_job_file(const std::string& path) {
  std::vector<FarmJob> jobs;
  for (const Frame& frame : read_frame_file(path)) {
    if (frame.type != FrameType::kJob) throw CodecError("non-job frame in job file " + path);
    jobs.push_back(decode_job(frame.payload));
  }
  return jobs;
}

void write_result_file(const std::string& path, const std::vector<FarmOutcome>& results) {
  std::string bytes;
  for (const FarmOutcome& r : results) {
    bytes += encode_frame(FrameType::kOutcome, encode_outcome(r.id, r.outcome));
  }
  write_bytes_file(path, bytes);
}

std::vector<FarmOutcome> read_result_file(const std::string& path) {
  std::vector<FarmOutcome> results;
  for (const Frame& frame : read_frame_file(path)) {
    if (frame.type != FrameType::kOutcome) {
      throw CodecError("non-outcome frame in result file " + path);
    }
    results.push_back(decode_outcome(frame.payload));
  }
  return results;
}

std::string job_file_for(std::string_view result_file) {
  constexpr std::string_view kResults = ".results.kyfm";
  if (!result_file.ends_with(kResults)) return "";
  return std::string(result_file.substr(0, result_file.size() - kResults.size())) +
         ".jobs.kyfm";
}

void write_checkpoint_file(const std::string& path, const std::vector<FarmJob>& jobs,
                           const Checkpoint& checkpoint) {
  std::string bytes = encode_frame(FrameType::kCheckpointHeader,
                                   encode_checkpoint_header({batch_fingerprint(jobs), jobs.size()}));
  for (const FarmOutcome& r : checkpoint.outcomes) {
    bytes += encode_frame(FrameType::kOutcome, encode_outcome(r.id, r.outcome));
  }
  for (const ShardOwner& owner : checkpoint.owners) {
    bytes += encode_frame(FrameType::kShardOwner, encode_shard_owner(owner));
  }
  const std::string tmp = path + ".tmp";
  write_bytes_file(tmp, bytes);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw CodecError("cannot publish checkpoint: " + path);
  }
}

Checkpoint read_checkpoint_file(const std::string& path, const std::vector<FarmJob>& jobs) {
  const std::vector<Frame> frames = read_frame_file(path);
  if (frames.empty() || frames.front().type != FrameType::kCheckpointHeader) {
    throw CodecError("checkpoint does not start with a header frame");
  }
  const CheckpointHeader header = decode_checkpoint_header(frames.front().payload);
  if (header.fingerprint != batch_fingerprint(jobs) || header.total_jobs != jobs.size()) {
    throw CodecError("checkpoint written by a different job batch");
  }
  Checkpoint checkpoint;
  for (std::size_t f = 1; f < frames.size(); ++f) {
    if (frames[f].type == FrameType::kOutcome) {
      FarmOutcome outcome = decode_outcome(frames[f].payload);
      if (outcome.id >= jobs.size()) throw CodecError("checkpoint job id out of range");
      checkpoint.outcomes.push_back(std::move(outcome));
    } else if (frames[f].type == FrameType::kShardOwner) {
      ShardOwner owner = decode_shard_owner(frames[f].payload);
      for (const std::uint64_t id : owner.job_ids) {
        if (id >= jobs.size()) throw CodecError("owner-frame job id out of range");
      }
      const std::string& name = owner.result_file;
      if (name.empty() || name == "." || name == ".." ||
          name.find_first_of(std::string("/\0", 2)) != std::string::npos) {
        throw CodecError("owner-frame result file must be a bare file name");
      }
      checkpoint.owners.push_back(std::move(owner));
    } else {
      throw CodecError("unexpected frame type in checkpoint");
    }
  }
  return checkpoint;
}

}  // namespace kyoto::sim::farm
