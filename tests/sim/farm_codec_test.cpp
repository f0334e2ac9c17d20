// Farm wire-format gate (sim/farm_codec.hpp).
//
// Three layers of protection:
//   1. Exact round-trips: decode(encode(x)) == x for every payload
//      kind, including doubles crossing as IEEE-754 bit patterns and
//      the RunOutcome completion fields.
//   2. Golden byte fixtures: the literal v1 byte layout is pinned
//      here.  If any of these fail, the wire format changed — either
//      revert, or bump kWireVersion and regenerate the fixtures.
//   3. Rejection: bad magic, wrong version, unknown type, oversized
//      length, checksum mismatch, truncated/trailing payload bytes
//      all raise CodecError — never UB, never a silent wrong value.
#include "sim/farm_codec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace kyoto::sim::farm {
namespace {

FarmJob sample_job() {
  FarmJob job;
  job.id = 7;
  job.label = "fig";
  job.scenario_text = "x";
  return job;
}

RunOutcome sample_outcome() {
  RunOutcome outcome;
  outcome.measured_ticks = 12;
  outcome.completion_wall_cycles = 345;
  outcome.completion_ms = 1.5;
  VmMetrics m;
  m.name = "vm0";
  m.instructions = 1000;
  m.cycles = 2000;
  m.llc_references = 30;
  m.llc_misses = 4;
  m.ipc = 0.5;
  m.llc_cap_act = 12.25;
  m.throughput = 2.0;
  m.cpu_share_pct = 50.0;
  m.punish_events = 1;
  m.punished_ticks = 2;
  outcome.vms.push_back(m);
  return outcome;
}

/// Decodes exactly one frame from `bytes` and requires the stream to
/// end on its boundary.
Frame one_frame(const std::string& bytes) {
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  auto frame = reader.next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(reader.buffered(), 0u);
  return std::move(*frame);
}

TEST(FarmCodec, JobRoundTripIsExact) {
  FarmJob job;
  job.id = 0xdeadbeefcafeull;
  job.label = "fig11/dedicate/hmmer";
  job.scenario_text = "[machine]\ntopology = 1x2\n";  // content is opaque to the codec
  const Frame frame = one_frame(encode_frame(FrameType::kJob, encode_job(job)));
  EXPECT_EQ(frame.type, FrameType::kJob);
  EXPECT_EQ(decode_job(frame.payload), job);
}

TEST(FarmCodec, OutcomeRoundTripIsExact) {
  const RunOutcome outcome = sample_outcome();
  const Frame frame = one_frame(encode_frame(FrameType::kOutcome, encode_outcome(42, outcome)));
  EXPECT_EQ(frame.type, FrameType::kOutcome);
  const FarmOutcome decoded = decode_outcome(frame.payload);
  EXPECT_EQ(decoded.id, 42u);
  EXPECT_EQ(decoded.outcome, outcome);  // defaulted ==: every field, exactly
}

TEST(FarmCodec, DoublesSurviveBitExactly) {
  // The nastiest doubles must cross the wire unchanged: denormals,
  // negative zero, infinities, and a value with no short decimal form.
  RunOutcome outcome;
  outcome.completion_ms = 0.1 + 0.2;  // 0.30000000000000004
  VmMetrics m;
  m.ipc = std::numeric_limits<double>::denorm_min();
  m.llc_cap_act = -0.0;
  m.throughput = std::numeric_limits<double>::infinity();
  m.cpu_share_pct = std::numeric_limits<double>::max();
  outcome.vms.push_back(m);
  const FarmOutcome decoded =
      decode_outcome(one_frame(encode_frame(FrameType::kOutcome, encode_outcome(0, outcome)))
                         .payload);
  EXPECT_EQ(decoded.outcome, outcome);
}

TEST(FarmCodec, ErrorAndCheckpointHeaderRoundTrip) {
  const Frame error = one_frame(encode_frame(FrameType::kError, encode_error(3, "boom")));
  EXPECT_EQ(error.type, FrameType::kError);
  const FarmError decoded_error = decode_error(error.payload);
  EXPECT_EQ(decoded_error.id, 3u);
  EXPECT_EQ(decoded_error.message, "boom");

  CheckpointHeader header{0x1122334455667788ull, 5};
  const Frame ckpt = one_frame(
      encode_frame(FrameType::kCheckpointHeader, encode_checkpoint_header(header)));
  const CheckpointHeader decoded_header = decode_checkpoint_header(ckpt.payload);
  EXPECT_EQ(decoded_header.fingerprint, header.fingerprint);
  EXPECT_EQ(decoded_header.total_jobs, header.total_jobs);
}

// ------------------------------------------------------------ golden bytes
//
// These literals pin wire format v1 byte for byte.  They were captured
// from the encoder once; they must never be regenerated casually — a
// mismatch means old checkpoints and remote workers stopped being
// compatible, which requires a kWireVersion bump.

constexpr char kGoldenJob[] =
    "\x4b\x59\x46\x4d\x01\x00\x01\x00\x1c\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00"
    "\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x66\x69\x67\x01\x00\x00\x00\x00\x00\x00"
    "\x00\x78\xc0\x0b\x50\x36\x33\xc7\xc3\x16";
constexpr std::size_t kGoldenJobLen = 52;

constexpr char kGoldenOutcome[] =
    "\x4b\x59\x46\x4d\x01\x00\x02\x00\x83\x00\x00\x00\x00\x00\x00\x00\x09\x00\x00\x00\x00"
    "\x00\x00\x00\x0c\x00\x00\x00\x00\x00\x00\x00\x59\x01\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\xf8\x3f\x01\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00"
    "\x00\x76\x6d\x30\xe8\x03\x00\x00\x00\x00\x00\x00\xd0\x07\x00\x00\x00\x00\x00\x00\x1e"
    "\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\xe0\x3f\x00\x00\x00\x00\x00\x80\x28\x40\x00\x00\x00\x00\x00\x00\x00\x40\x00\x00\x00"
    "\x00\x00\x00\x49\x40\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"
    "\x89\x3b\x2c\x6e\x12\x42\x6b\x83";
constexpr std::size_t kGoldenOutcomeLen = 155;

constexpr char kGoldenError[] =
    "\x4b\x59\x46\x4d\x01\x00\x03\x00\x14\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00"
    "\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x62\x6f\x6f\x6d\x61\x0c\xb1\xb8\x57\x29"
    "\x31\x27";
constexpr std::size_t kGoldenErrorLen = 44;

constexpr char kGoldenCheckpoint[] =
    "\x4b\x59\x46\x4d\x01\x00\x04\x00\x10\x00\x00\x00\x00\x00\x00\x00\x88\x77\x66\x55\x44"
    "\x33\x22\x11\x05\x00\x00\x00\x00\x00\x00\x00\x70\xcb\x28\x1d\xa0\x64\x5c\xc4";
constexpr std::size_t kGoldenCheckpointLen = 40;

TEST(FarmCodecGolden, JobFrameBytesArePinned) {
  const std::string encoded = encode_frame(FrameType::kJob, encode_job(sample_job()));
  EXPECT_EQ(encoded, std::string(kGoldenJob, kGoldenJobLen));
}

TEST(FarmCodecGolden, OutcomeFrameBytesArePinned) {
  const std::string encoded =
      encode_frame(FrameType::kOutcome, encode_outcome(9, sample_outcome()));
  EXPECT_EQ(encoded, std::string(kGoldenOutcome, kGoldenOutcomeLen));
}

TEST(FarmCodecGolden, ErrorFrameBytesArePinned) {
  EXPECT_EQ(encode_frame(FrameType::kError, encode_error(3, "boom")),
            std::string(kGoldenError, kGoldenErrorLen));
}

TEST(FarmCodecGolden, CheckpointHeaderBytesArePinned) {
  EXPECT_EQ(encode_frame(FrameType::kCheckpointHeader,
                         encode_checkpoint_header({0x1122334455667788ull, 5})),
            std::string(kGoldenCheckpoint, kGoldenCheckpointLen));
}

TEST(FarmCodecGolden, GoldenFramesDecode) {
  // The pinned bytes must also decode — catches an encoder+decoder
  // drifting together away from the v1 layout.
  const Frame job = one_frame(std::string(kGoldenJob, kGoldenJobLen));
  EXPECT_EQ(decode_job(job.payload), sample_job());
  const Frame outcome = one_frame(std::string(kGoldenOutcome, kGoldenOutcomeLen));
  const FarmOutcome decoded = decode_outcome(outcome.payload);
  EXPECT_EQ(decoded.id, 9u);
  EXPECT_EQ(decoded.outcome, sample_outcome());
}

// --------------------------------------------------------------- rejection

std::string valid_frame() { return encode_frame(FrameType::kJob, encode_job(sample_job())); }

std::optional<Frame> parse(const std::string& bytes) {
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  return reader.next();
}

TEST(FarmCodecReject, BadMagicThrowsImmediately) {
  std::string bytes = valid_frame();
  bytes[0] = 'X';
  EXPECT_THROW(parse(bytes), CodecError);
  // Even a 1-byte prefix with the wrong magic is rejected — no
  // buffering of a stream that can never become valid.
  FrameReader reader;
  reader.feed("Z", 1);
  EXPECT_THROW(reader.next(), CodecError);
}

TEST(FarmCodecReject, WrongVersionThrows) {
  std::string bytes = valid_frame();
  bytes[4] = 2;  // version field
  EXPECT_THROW(parse(bytes), CodecError);
}

TEST(FarmCodecReject, UnknownFrameTypeThrows) {
  // 0 and 7+ were never assigned; 5 is retired (an older build's
  // split-batch manifest).
  for (const char type : {0, 5, 7, 9}) {
    std::string bytes = valid_frame();
    bytes[6] = type;  // type field
    EXPECT_THROW(parse(bytes), CodecError) << "type " << int{type};
  }
}

TEST(FarmCodecReject, OversizedLengthThrows) {
  std::string bytes = valid_frame();
  for (int i = 8; i < 16; ++i) bytes[i] = '\xff';  // payload_len = 2^64-1
  EXPECT_THROW(parse(bytes), CodecError);
}

TEST(FarmCodecReject, ChecksumMismatchThrows) {
  std::string bytes = valid_frame();
  bytes[20] ^= 1;  // flip one payload bit; checksum no longer matches
  EXPECT_THROW(parse(bytes), CodecError);
}

TEST(FarmCodecReject, TruncatedPayloadDecodersThrow) {
  const std::string job = encode_job(sample_job());
  for (std::size_t cut = 0; cut < job.size(); ++cut) {
    EXPECT_THROW(decode_job(job.substr(0, cut)), CodecError) << "cut=" << cut;
  }
  const std::string outcome = encode_outcome(9, sample_outcome());
  EXPECT_THROW(decode_outcome(outcome.substr(0, outcome.size() - 1)), CodecError);
  // Trailing garbage after a well-formed payload is also rejected.
  EXPECT_THROW(decode_job(job + "Z"), CodecError);
  EXPECT_THROW(decode_checkpoint_header(std::string(17, '\0')), CodecError);
}

TEST(FarmCodecReject, WrongPayloadForDecoderThrows) {
  // A checkpoint header (16 bytes) fed to decode_error: id parses,
  // then the message length is absurd -> CodecError, not UB.
  const std::string ckpt = encode_checkpoint_header({~0ull, ~0ull});
  EXPECT_THROW(decode_error(ckpt), CodecError);
}

// ---------------------------------------------------------- streaming

TEST(FarmCodecStream, OneByteAtATimeFeedYieldsSameFrames) {
  const std::string stream = valid_frame() +
                             encode_frame(FrameType::kOutcome, encode_outcome(9, sample_outcome())) +
                             encode_frame(FrameType::kError, encode_error(3, "boom"));
  FrameReader reader;
  std::vector<Frame> frames;
  for (const char c : stream) {
    reader.feed(&c, 1);
    while (auto frame = reader.next()) frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kJob);
  EXPECT_EQ(frames[1].type, FrameType::kOutcome);
  EXPECT_EQ(frames[2].type, FrameType::kError);
  EXPECT_EQ(decode_outcome(frames[1].payload).outcome, sample_outcome());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FarmCodecStream, IncompleteFrameIsNotAnError) {
  const std::string bytes = valid_frame();
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size() - 5);
  EXPECT_EQ(reader.next(), std::nullopt);  // waiting, not failing
  EXPECT_GT(reader.buffered(), 0u);
  reader.feed(bytes.data() + bytes.size() - 5, 5);
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FarmCodecStream, LongStreamCompactsItsBuffer) {
  // Thousands of frames through one reader: the lazy compaction must
  // keep this from accumulating every byte ever fed.
  FrameReader reader;
  const std::string frame = valid_frame();
  for (int i = 0; i < 5000; ++i) {
    reader.feed(frame.data(), frame.size());
    ASSERT_TRUE(reader.next().has_value());
  }
  EXPECT_EQ(reader.buffered(), 0u);
}

// ------------------------------------------------------------ fingerprint

TEST(FarmCodec, BatchFingerprintSeparatesFields) {
  std::vector<FarmJob> a{{0, "ab", "c"}};
  std::vector<FarmJob> b{{0, "a", "bc"}};  // same concatenation, different split
  EXPECT_NE(batch_fingerprint(a), batch_fingerprint(b));
  std::vector<FarmJob> two{{0, "ab", "c"}, {1, "", ""}};
  EXPECT_NE(batch_fingerprint(a), batch_fingerprint(two));
  EXPECT_EQ(batch_fingerprint(a), batch_fingerprint({{99, "ab", "c"}}));  // id not part of key
}

// ------------------------------------------------------------- file pairs

class FarmCodecFiles : public ::testing::Test {
 protected:
  std::string path(const char* name) {
    return testing::TempDir() + "farm_codec_" + name + "_" +
           std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".bin";
  }
};

TEST_F(FarmCodecFiles, JobAndResultFilesRoundTrip) {
  const std::string jobs_path = path("jobs");
  const std::string results_path = path("results");
  std::vector<FarmJob> jobs{{0, "a", "text-a"}, {1, "b", "text-b"}};
  write_job_file(jobs_path, jobs);
  EXPECT_EQ(read_job_file(jobs_path), jobs);

  std::vector<FarmOutcome> results{{0, sample_outcome()}, {1, RunOutcome{}}};
  write_result_file(results_path, results);
  EXPECT_EQ(read_result_file(results_path), results);
  std::remove(jobs_path.c_str());
  std::remove(results_path.c_str());
}

TEST_F(FarmCodecFiles, TruncatedFileIsRejected) {
  const std::string p = path("trunc");
  std::vector<FarmJob> jobs{{0, "a", "text-a"}};
  write_job_file(p, jobs);
  // Chop the last byte: the trailing frame is now incomplete.
  std::string bytes;
  {
    FILE* f = std::fopen(p.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n = std::fread(buf, 1, sizeof buf, f);
    std::fclose(f);
    bytes.assign(buf, n - 1);
  }
  {
    FILE* f = std::fopen(p.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  EXPECT_THROW(read_job_file(p), CodecError);
  EXPECT_THROW(read_result_file(p), CodecError);  // also the wrong frame kind
  std::remove(p.c_str());
}

TEST_F(FarmCodecFiles, MissingFileIsRejected) {
  EXPECT_THROW(read_job_file(path("never_written")), CodecError);
}

}  // namespace
}  // namespace kyoto::sim::farm
