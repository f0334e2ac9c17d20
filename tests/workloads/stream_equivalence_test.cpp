// Stream versioning: v1 and v2 byte-identity golden pins + v2
// statistical equivalence.
//
//  * v1 is the frozen format: the FNV-1a fingerprints below were
//    recorded from the seed behavior and must never change — any
//    edit that alters them breaks regeneration of every committed
//    figure.
//  * v2 is pinned too, so a refactor of its generator cannot move it
//    silently.
//  * v2 (compiled streams + geometric-skip op generation) is
//    statistically equivalent: same instruction mix, same per-line
//    reference distribution, and — replayed through the memory
//    system on the fig-1 mixes — miss rates within tolerance of v1.
//  * All consumption forms (next, next_batch, next_ref_batch) of
//    either format must describe one identical stream, and clones
//    must continue it.  The run_vcpu / McSim consumption of that
//    stream is pinned against the frozen per-op engines in
//    tests/hv/per_op_oracle_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/memory_system.hpp"
#include "cache/topology.hpp"
#include "mem/patterns.hpp"
#include "workloads/catalog.hpp"
#include "workloads/pattern_workload.hpp"

namespace kyoto::workloads {
namespace {

const cache::MemSystemConfig kMem = cache::scaled_mem_system();

/// FNV-1a over 64-bit words, a byte at a time.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

/// FNV-1a over the op stream (kind and address of every op).
std::uint64_t fingerprint(Workload& w, std::size_t n) {
  Fnv1a f;
  std::vector<mem::Op> block(256);
  std::size_t done = 0;
  while (done < n) {
    const std::size_t take = std::min<std::size_t>(block.size(), n - done);
    w.next_batch(block.data(), take);
    for (std::size_t i = 0; i < take; ++i) {
      f.mix(static_cast<std::uint64_t>(block[i].kind));
      f.mix(block[i].addr);
    }
    done += take;
  }
  return f.h;
}

// --- v1 golden pin ------------------------------------------------------
//
// Fingerprints of the first 100k ops of representative catalog
// workloads at fixed seeds on the scaled machine.  Recorded from the
// seed engine; the v1 stream must stay byte-identical to it forever.

struct GoldenEntry {
  const char* app;
  std::uint64_t seed;
  std::uint64_t fingerprint;
};

constexpr GoldenEntry kGolden[] = {
    {"gcc", 17, 0x9b844f85b5a8268cull},      // zipf+sequential phases
    {"lbm", 3, 0xac82ca9ea541434full},       // sequential
    {"blockie", 7, 0x2a45f2a43a494120ull},   // uniform random
    {"mcf", 11, 0x47950e355df09373ull},      // pointer chase
    {"soplex", 5, 0x7cde51e5a319514full},    // zipf+strided phases
};

TEST(StreamV1Golden, CatalogStreamsAreByteIdenticalToSeedBehavior) {
  for (const auto& entry : kGolden) {
    const auto w = make_app(entry.app, kMem, entry.seed);
    ASSERT_EQ(w->stream_version(), StreamVersion::kV1);
    EXPECT_EQ(fingerprint(*w, 100'000), entry.fingerprint) << entry.app;
  }
}

TEST(StreamV1Golden, MicroStreamsAreByteIdenticalToSeedBehavior) {
  constexpr std::uint64_t kMicroGolden[2] = {0xf7a423a2dae2e22full, 0xd5a3fd220873f99cull};
  const auto rep = micro_representative(MicroClass::kC2, kMem, 42);
  const auto dis = micro_disruptive(MicroClass::kC3, kMem, 42);
  EXPECT_EQ(fingerprint(*rep, 100'000), kMicroGolden[0]);
  EXPECT_EQ(fingerprint(*dis, 100'000), kMicroGolden[1]);
}

// --- v2 golden pin ------------------------------------------------------
//
// The v2 stream is not frozen like v1, but a refactor of its generator
// must not move it either: these fingerprints pin its bytes.  Each
// consumes the stream through next_ref_batch with varying budgets,
// clones it mid-run, continues both the clone and the original through
// next_batch, then resets and reads the start again.

std::uint64_t v2_fingerprint(Workload& w) {
  Fnv1a f;
  Rng budgets(0xB0D6E7);
  std::vector<AccessRef> refs(300);
  const auto ref_batches = [&](Workload& subject, int calls) {
    for (int call = 0; call < calls; ++call) {
      const std::size_t max_refs = 1 + budgets.below(refs.size());
      const std::size_t max_ops = 1 + budgets.below(3000);
      std::uint32_t trailing = 0;
      const auto batch = subject.next_ref_batch(refs.data(), max_refs, max_ops, &trailing);
      f.mix(batch.ops);
      f.mix(batch.refs);
      for (std::size_t r = 0; r < batch.refs; ++r) {
        f.mix(refs[r].addr);
        f.mix(refs[r].gap);
        f.mix(refs[r].write ? 1 : 0);
      }
      f.mix(trailing);
    }
  };
  std::vector<mem::Op> block(263);
  const auto op_batches = [&](Workload& subject, int calls) {
    for (int call = 0; call < calls; ++call) {
      const std::size_t n = 1 + budgets.below(block.size());
      subject.next_batch(block.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        f.mix(static_cast<std::uint64_t>(block[i].kind));
        f.mix(block[i].addr);
      }
    }
  };
  ref_batches(w, 300);
  const std::unique_ptr<Workload> clone = w.clone();
  op_batches(*clone, 200);
  op_batches(w, 200);
  ref_batches(*clone, 100);
  w.reset();
  ref_batches(w, 100);
  op_batches(w, 100);
  return f.h;
}

TEST(StreamV2Golden, StreamsAreByteIdenticalToRecording) {
  struct Subject {
    std::string name;
    std::unique_ptr<Workload> w;
    std::uint64_t fingerprint;
  };
  std::vector<Subject> subjects;
  const std::uint64_t kApps[] = {0xd67f51e71524a422ull, 0x18bbbc87da7c0135ull,
                                 0x2bdf8f71bfa42315ull, 0x5df8f0ec7b559a18ull,
                                 0x636343dcdaf80494ull};
  for (std::size_t i = 0; i < std::size(kGolden); ++i) {
    subjects.push_back({kGolden[i].app,
                        make_app(kGolden[i].app, kMem, kGolden[i].seed, StreamVersion::kV2),
                        kApps[i]});
  }
  const std::uint64_t kMicros[3][2] = {{0xfba907563aa1b6fdull, 0x404a91eb5f0a5116ull},
                                       {0xc8033e2c072ba4a1ull, 0x2f9c6ce383da2edcull},
                                       {0xd1c320240dbd32ceull, 0xcf7c9162bcb2431full}};
  for (const MicroClass cls : {MicroClass::kC1, MicroClass::kC2, MicroClass::kC3}) {
    const int id = static_cast<int>(cls);
    subjects.push_back({"rep" + std::to_string(id),
                        micro_representative(cls, kMem, 42, StreamVersion::kV2),
                        kMicros[id - 1][0]});
    subjects.push_back({"dis" + std::to_string(id),
                        micro_disruptive(cls, kMem, 42, StreamVersion::kV2),
                        kMicros[id - 1][1]});
  }
  for (const Subject& s : subjects) {
    ASSERT_EQ(s.w->stream_version(), StreamVersion::kV2) << s.name;
    const std::uint64_t got = v2_fingerprint(*s.w);
    EXPECT_EQ(got, s.fingerprint) << s.name << " 0x" << std::hex << got;
  }
}

// --- v2 self-consistency ------------------------------------------------

TEST(StreamV2, HonorsRequestAndReportsVersion) {
  const auto v2 = make_app("gcc", kMem, 7, StreamVersion::kV2);
  EXPECT_EQ(v2->stream_version(), StreamVersion::kV2);
  EXPECT_EQ(v2->spec().stream, StreamVersion::kV2);
  const auto v1 = make_app("gcc", kMem, 7);
  EXPECT_EQ(v1->stream_version(), StreamVersion::kV1);
}

TEST(StreamV2, NextAndBatchAndRefBatchDescribeOneStream) {
  for (const char* app : {"gcc", "lbm", "blockie", "mcf"}) {
    const auto a = make_app(app, kMem, 9, StreamVersion::kV2);
    const auto b = make_app(app, kMem, 9, StreamVersion::kV2);
    const auto c = make_app(app, kMem, 9, StreamVersion::kV2);

    // a: per-op; b: batches of odd sizes.
    std::vector<mem::Op> ops_a, ops_b;
    for (int i = 0; i < 5000; ++i) ops_a.push_back(a->next());
    std::vector<mem::Op> block(613);
    while (ops_b.size() < 5000) {
      const std::size_t take = std::min<std::size_t>(613, 5000 - ops_b.size());
      b->next_batch(block.data(), take);
      ops_b.insert(ops_b.end(), block.begin(), block.begin() + take);
    }
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(ops_a[i].kind, ops_b[i].kind) << app << " @" << i;
      ASSERT_EQ(ops_a[i].addr, ops_b[i].addr) << app << " @" << i;
    }

    // c: ref batches re-expanded into ops.
    std::vector<mem::Op> ops_c;
    std::vector<AccessRef> refs(128);
    while (ops_c.size() < 5000) {
      std::uint32_t trailing = 0;
      const auto batch =
          c->next_ref_batch(refs.data(), refs.size(), 5000 - ops_c.size(), &trailing);
      ASSERT_GT(batch.ops, 0u);
      for (std::size_t r = 0; r < batch.refs; ++r) {
        for (std::uint32_t g = 0; g < refs[r].gap; ++g) ops_c.push_back(mem::Op{});
        mem::Op op;
        op.kind = refs[r].write ? mem::OpKind::kStore : mem::OpKind::kLoad;
        op.addr = refs[r].addr;
        ops_c.push_back(op);
      }
      for (std::uint32_t g = 0; g < trailing; ++g) ops_c.push_back(mem::Op{});
    }
    ASSERT_EQ(ops_c.size(), 5000u) << app;
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(ops_a[i].kind, ops_c[i].kind) << app << " @" << i;
      ASSERT_EQ(ops_a[i].addr, ops_c[i].addr) << app << " @" << i;
    }
  }
}

TEST(StreamV1, DefaultRefBatchCompressesTheOpStream) {
  // PatternWorkload's native v1 next_ref_batch (the form the machine
  // and the McSim replay consume) must describe the same instruction
  // stream as next(), across every pattern kind.
  for (const char* app : {"gcc", "soplex", "mcf", "blockie", "lbm"}) {
    const auto a = make_app(app, kMem, 31);
    const auto b = make_app(app, kMem, 31);
    std::vector<mem::Op> ops;
    for (int i = 0; i < 3000; ++i) ops.push_back(a->next());
    std::vector<AccessRef> refs(64);
    std::size_t at = 0;
    while (at < ops.size()) {
      std::uint32_t trailing = 0;
      const auto batch =
          b->next_ref_batch(refs.data(), refs.size(), ops.size() - at, &trailing);
      ASSERT_GT(batch.ops, 0u);
      for (std::size_t r = 0; r < batch.refs; ++r) {
        for (std::uint32_t g = 0; g < refs[r].gap; ++g) {
          ASSERT_EQ(ops[at].kind, mem::OpKind::kCompute) << app << " @" << at;
          ++at;
        }
        ASSERT_EQ(ops[at].kind,
                  refs[r].write ? mem::OpKind::kStore : mem::OpKind::kLoad)
            << app << " @" << at;
        ASSERT_EQ(ops[at].addr, refs[r].addr) << app << " @" << at;
        ++at;
      }
      for (std::uint32_t g = 0; g < trailing; ++g) {
        ASSERT_EQ(ops[at].kind, mem::OpKind::kCompute) << app << " @" << at;
        ++at;
      }
    }
    EXPECT_EQ(at, ops.size()) << app;
  }
}

/// Appends `refs`/`trailing` from one next_ref_batch call to `ops` as
/// the instruction stream they describe.
void expand_refs(const std::vector<AccessRef>& refs, std::size_t count, std::uint32_t trailing,
                 std::vector<mem::Op>& ops) {
  for (std::size_t r = 0; r < count; ++r) {
    ops.insert(ops.end(), refs[r].gap, mem::Op{});
    mem::Op op;
    op.kind = refs[r].write ? mem::OpKind::kStore : mem::OpKind::kLoad;
    op.addr = refs[r].addr;
    ops.push_back(op);
  }
  ops.insert(ops.end(), trailing, mem::Op{});
}

TEST(StreamV1, MixedFormsAndMidBufferCloneResetContinueOneStream) {
  // One workload consumed through interleaved next(), next_batch()
  // and next_ref_batch() calls with small random budgets, cloned and
  // reset at arbitrary points — which lands mid draw-ahead buffer —
  // must emit the stream a twin emits through next() alone.
  using Factory = std::function<std::unique_ptr<Workload>()>;
  std::vector<std::pair<std::string, Factory>> subjects;
  for (const auto& profile : app_profiles()) {
    subjects.emplace_back(profile.name, [&profile] { return make_app(profile, kMem, 77); });
  }
  for (const MicroClass cls : {MicroClass::kC1, MicroClass::kC2, MicroClass::kC3}) {
    const std::string id = std::to_string(static_cast<int>(cls));
    subjects.emplace_back("rep" + id, [cls] { return micro_representative(cls, kMem, 77); });
    subjects.emplace_back("dis" + id, [cls] { return micro_disruptive(cls, kMem, 77); });
  }

  for (const auto& [name, make] : subjects) {
    std::unique_ptr<Workload> w = make();
    ASSERT_EQ(w->stream_version(), StreamVersion::kV1) << name;
    const std::unique_ptr<Workload> twin = make();
    std::vector<mem::Op> expected;  // twin's stream from its start, by next()
    const auto expect_from = [&](std::size_t at, const std::vector<mem::Op>& got,
                                 const std::string& how) {
      while (expected.size() < at + got.size()) expected.push_back(twin->next());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].kind, expected[at + i].kind) << name << " " << how << " @" << at + i;
        ASSERT_EQ(got[i].addr, expected[at + i].addr) << name << " " << how << " @" << at + i;
      }
    };
    // Consumes a random window of `subject` through a random form.
    Rng dice(0xD1CE ^ std::hash<std::string>{}(name));
    std::vector<AccessRef> refs(300);
    std::vector<mem::Op> block(300);
    const auto consume = [&](Workload& subject) {
      std::vector<mem::Op> got;
      std::string how;
      switch (dice.below(3)) {
        case 0:
          how = "next";
          got.push_back(subject.next());
          break;
        case 1: {
          const std::size_t n = 1 + dice.below(300);
          how = "next_batch(" + std::to_string(n) + ")";
          EXPECT_EQ(subject.next_batch(block.data(), n), n);
          got.assign(block.begin(), block.begin() + static_cast<std::ptrdiff_t>(n));
          break;
        }
        default: {
          const std::size_t max_refs = 1 + dice.below(300);
          const std::size_t max_ops = 1 + dice.below(300);
          how = "next_ref_batch(" + std::to_string(max_refs) + ", " + std::to_string(max_ops) + ")";
          std::uint32_t trailing = 0;
          const auto batch = subject.next_ref_batch(refs.data(), max_refs, max_ops, &trailing);
          EXPECT_LE(batch.refs, max_refs) << name << " " << how;
          EXPECT_TRUE(batch.ops == max_ops || batch.refs == max_refs) << name << " " << how;
          expand_refs(refs, batch.refs, trailing, got);
          EXPECT_EQ(got.size(), batch.ops) << name << " " << how;
          if (batch.refs == max_refs) {
            EXPECT_EQ(trailing, 0u) << name << " " << how;
          }
        }
      }
      return std::make_pair(got, how);
    };

    std::size_t at = 0;  // position of `w` in the stream
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t action = dice.below(10);
      if (action == 0) {
        // Reset: the stream restarts from its first instruction.
        w->reset();
        at = 0;
      } else if (action == 1) {
        // Clone: the clone continues from here; the original, consumed
        // afterwards, must be undisturbed.  Either may carry on.
        std::unique_ptr<Workload> clone = w->clone();
        std::size_t clone_at = at;
        for (int k = 0; k < 3; ++k) {
          const auto [got, how] = consume(*clone);
          expect_from(clone_at, got, "clone " + how);
          clone_at += got.size();
        }
        if (dice.below(2) == 0) {
          w = std::move(clone);
          at = clone_at;
        }
      } else {
        const auto [got, how] = consume(*w);
        expect_from(at, got, how);
        at += got.size();
      }
      if (HasFatalFailure()) return;
    }
  }
}

TEST(StreamV2, CloneContinuesIdentically) {
  const auto w = make_app("blockie", kMem, 13, StreamVersion::kV2);
  for (int i = 0; i < 5000; ++i) w->next();
  const auto clone = w->clone();
  EXPECT_EQ(clone->stream_version(), StreamVersion::kV2);
  for (int i = 0; i < 5000; ++i) {
    const auto a = w->next();
    const auto b = clone->next();
    ASSERT_EQ(a.kind, b.kind) << i;
    ASSERT_EQ(a.addr, b.addr) << i;
  }
}

TEST(StreamV2, ResetRestartsStream) {
  const auto w = make_app("mcf", kMem, 19, StreamVersion::kV2);
  const std::uint64_t first = fingerprint(*w, 20'000);
  w->reset();
  EXPECT_EQ(fingerprint(*w, 20'000), first);
}

TEST(StreamV2, OffsetsStayInWorkingSet) {
  for (const auto& profile : app_profiles()) {
    const auto w = make_app(profile.name, kMem, 7, StreamVersion::kV2);
    std::vector<mem::Op> block(256);
    for (int chunk = 0; chunk < 40; ++chunk) {
      w->next_batch(block.data(), block.size());
      for (const auto& op : block) {
        if (op.kind != mem::OpKind::kCompute) {
          ASSERT_LT(op.addr, w->spec().working_set) << profile.name;
        }
      }
    }
  }
}

TEST(StreamV2, InstructionMixMatchesSpec) {
  for (const char* app : {"gcc", "lbm", "blockie", "povray"}) {
    const auto w = make_app(app, kMem, 7, StreamVersion::kV2);
    const int n = 100'000;
    int mem_ops = 0, stores = 0;
    for (int i = 0; i < n; ++i) {
      const auto op = w->next();
      if (op.kind != mem::OpKind::kCompute) {
        ++mem_ops;
        stores += op.kind == mem::OpKind::kStore ? 1 : 0;
      }
    }
    EXPECT_NEAR(static_cast<double>(mem_ops) / n, w->spec().mem_ratio, 0.02) << app;
    EXPECT_NEAR(static_cast<double>(stores) / std::max(mem_ops, 1), w->spec().write_ratio,
                0.03)
        << app;
  }
}

TEST(StreamV2, DecorrelatedFromV1Stream) {
  // The seed-versioned v2 RNG must not replay v1 draws: the two
  // formats' fingerprints differ (they are different streams).
  const auto v1 = make_app("blockie", kMem, 21);
  const auto v2 = make_app("blockie", kMem, 21, StreamVersion::kV2);
  EXPECT_NE(fingerprint(*v1, 50'000), fingerprint(*v2, 50'000));
}

// --- v2 miss-rate agreement on the fig-1 regimes ------------------------

struct ReplayStats {
  std::uint64_t accesses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t llc_refs = 0;
  std::uint64_t llc_misses = 0;
};

ReplayStats replay(Workload& w, std::uint64_t ops) {
  cache::MemorySystem memory(cache::Topology{1, 1}, kMem, /*seed=*/1);
  auto ctx = memory.context(0, 0, 0);
  std::vector<mem::Op> block(256);
  ReplayStats out;
  for (std::uint64_t done = 0; done < ops; done += block.size()) {
    w.next_batch(block.data(), block.size());
    for (const auto& op : block) {
      if (op.kind == mem::OpKind::kCompute) continue;
      const auto access =
          ctx.access((1ull << 30) + op.addr, op.kind == mem::OpKind::kStore);
      out.llc_refs += access.llc_reference;
      out.llc_misses += access.llc_miss;
    }
  }
  out.accesses = memory.l1(0).stats().accesses;
  out.l1_hits = memory.l1(0).stats().hits;
  return out;
}

TEST(StreamV2, MissRatesAgreeWithV1OnFig1Mixes) {
  // The four fig-1 regimes of the throughput bench: ILC-resident
  // streams, the LLC stream, and the LLC-busting random mix.
  struct MixCase {
    const char* name;
    Bytes ws;
    double mem_ratio;
    bool sequential;
  };
  const MixCase mixes[] = {
      {"stream_l2", kMem.l2.size / 2, 0.6, true},
      {"stream_llc", kMem.llc.size / 2, 0.6, true},
      {"random_mem", kMem.llc.size * 3, 0.8, false},
  };
  for (const auto& mix : mixes) {
    auto make = [&](StreamVersion stream) {
      WorkloadSpec spec;
      spec.name = mix.name;
      spec.mem_ratio = mix.mem_ratio;
      spec.write_ratio = 0.3;
      spec.stream = stream;
      std::unique_ptr<mem::Pattern> pattern;
      if (mix.sequential) {
        pattern = std::make_unique<mem::SequentialPattern>(mix.ws);
      } else {
        pattern = std::make_unique<mem::UniformRandomPattern>(mix.ws);
      }
      return std::make_unique<PatternWorkload>(spec, std::move(pattern), 42);
    };
    const auto v1 = make(StreamVersion::kV1);
    const auto v2 = make(StreamVersion::kV2);
    const std::uint64_t ops = 1'500'000;
    const ReplayStats a = replay(*v1, ops);
    const ReplayStats b = replay(*v2, ops);

    const double acc_rel = std::abs(static_cast<double>(a.accesses) -
                                    static_cast<double>(b.accesses)) /
                           static_cast<double>(a.accesses);
    EXPECT_LT(acc_rel, 0.01) << mix.name;

    const double l1_a = static_cast<double>(a.l1_hits) / static_cast<double>(a.accesses);
    const double l1_b = static_cast<double>(b.l1_hits) / static_cast<double>(b.accesses);
    EXPECT_NEAR(l1_a, l1_b, 0.02) << mix.name;

    const double miss_a =
        static_cast<double>(a.llc_misses) / static_cast<double>(a.accesses);
    const double miss_b =
        static_cast<double>(b.llc_misses) / static_cast<double>(b.accesses);
    // Relative agreement where the rate is substantial, absolute for
    // near-zero rates (the L2-resident stream).
    if (miss_a > 0.05) {
      EXPECT_LT(std::abs(miss_a - miss_b) / miss_a, 0.05) << mix.name;
    } else {
      EXPECT_NEAR(miss_a, miss_b, 0.01) << mix.name;
    }
  }
}

}  // namespace
}  // namespace kyoto::workloads
