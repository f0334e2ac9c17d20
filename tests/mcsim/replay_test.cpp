#include "mcsim/replay.hpp"

#include <gtest/gtest.h>

#include "cache/config.hpp"
#include "support/per_op_engine.hpp"
#include "support/pin_tracer.hpp"
#include "test_util.hpp"
#include "workloads/catalog.hpp"

namespace kyoto::mcsim {
namespace {

const cache::MemSystemConfig kMem = cache::scaled_mem_system();
constexpr KHz kFreq = 43'750;

TEST(PinTracer, CapturesExactFutureStream) {
  const auto live = workloads::make_app("gcc", kMem, 5);
  for (int i = 0; i < 1000; ++i) live->next();  // advance the live app
  const auto clone = live->clone();
  const auto trace = test::PinTracer::capture(*live, 500);
  ASSERT_EQ(trace.size(), 500u);
  // The trace equals the clone's stream...
  for (const auto& op : trace) {
    const auto expect = clone->next();
    ASSERT_EQ(op.addr, expect.addr);
    ASSERT_EQ(static_cast<int>(op.kind), static_cast<int>(expect.kind));
  }
  // ...and capture did not perturb the live workload.
  const auto clone2 = live->clone();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(clone2->next().addr, trace[i].addr);
  }
}

TEST(PinTracer, RejectsEmptyTrace) {
  const auto live = workloads::make_app("gcc", kMem, 5);
  EXPECT_THROW(test::PinTracer::capture(*live, 0), std::logic_error);
}

TEST(ReplaySimulator, DeterministicForSameInput) {
  const auto live = workloads::make_app("lbm", kMem, 5);
  ReplaySimulator sim(kMem, kFreq);
  const auto a = sim.replay_live(*live, 50'000);
  const auto b = sim.replay_live(*live, 50'000);
  EXPECT_EQ(a.llc_misses, b.llc_misses);
  EXPECT_EQ(a.cycles, b.cycles);
  // A quarter of the window is warm-up and not counted.
  EXPECT_EQ(a.instructions, 37'500);
}

TEST(ReplaySimulator, WarmupSuppressesColdLoadBias) {
  // For a cache-resident app the cold-loading burst is the ONLY
  // source of misses; with warm-up discarded the measured intrinsic
  // rate collapses toward its true (near-zero) value.  The cold
  // reference counts the same trace from its first instruction.
  const auto gcc = workloads::make_app("gcc", kMem, 5);
  const auto trace = test::PinTracer::capture(*gcc, 150'000);
  const auto cold = test::per_op_replay(kMem, 99, 0.0, gcc->spec(), trace);
  ReplaySimulator sim(kMem, kFreq);
  const auto warm = test::replay_trace(sim, trace, gcc->spec());
  EXPECT_LT(warm.llc_cap_act(kFreq), cold.llc_cap_act(kFreq) * 0.6);
}

TEST(ReplaySimulator, StreamingMissesFarMoreThanResident) {
  ReplaySimulator sim(kMem, kFreq);
  const auto lbm = workloads::make_app("lbm", kMem, 5);
  const auto hmmer = workloads::make_app("hmmer", kMem, 5);
  const auto big = sim.replay_live(*lbm, 80'000);
  const auto small = sim.replay_live(*hmmer, 80'000);
  EXPECT_GT(big.llc_cap_act(kFreq), small.llc_cap_act(kFreq) * 10.0 + 1.0);
}

TEST(ReplaySimulator, TraceAndLiveReplayAgree) {
  const auto live = workloads::make_app("mcf", kMem, 7);
  for (int i = 0; i < 500; ++i) live->next();
  ReplaySimulator sim(kMem, kFreq);
  const auto from_live = sim.replay_live(*live, 30'000);
  const auto trace = test::PinTracer::capture(*live, 30'000);
  const auto from_trace = test::replay_trace(sim, trace, live->spec());
  EXPECT_EQ(from_live.llc_misses, from_trace.llc_misses);
  EXPECT_EQ(from_live.cycles, from_trace.cycles);
  EXPECT_EQ(from_live.llc_references, from_trace.llc_references);
}

TEST(ReplaySimulator, Equation1Helpers) {
  ReplayResult r;
  r.instructions = 1000;
  r.cycles = 43'750;  // exactly 1 ms at kFreq
  r.llc_misses = 220;
  EXPECT_NEAR(r.llc_cap_act(kFreq), 220.0, 1e-9);
  EXPECT_NEAR(r.ipc(), 1000.0 / 43'750.0, 1e-12);
  ReplayResult empty;
  EXPECT_DOUBLE_EQ(empty.llc_cap_act(kFreq), 0.0);
  EXPECT_DOUBLE_EQ(empty.ipc(), 0.0);
}

TEST(ReplaySimulator, MlpReducesCycles) {
  // Same trace replayed under specs differing only in MLP: higher MLP
  // must yield fewer stall cycles.
  const auto live = workloads::make_app("lbm", kMem, 5);
  const auto trace = test::PinTracer::capture(*live, 20'000);
  ReplaySimulator sim(kMem, kFreq);
  workloads::WorkloadSpec spec = live->spec();
  spec.mlp = 1.0;
  const auto slow = test::replay_trace(sim, trace, spec);
  spec.mlp = 4.0;
  const auto fast = test::replay_trace(sim, trace, spec);
  EXPECT_LT(fast.cycles, slow.cycles);
  EXPECT_EQ(fast.llc_misses, slow.llc_misses);  // same reference stream
}

}  // namespace
}  // namespace kyoto::mcsim
