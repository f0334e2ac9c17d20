// A vCPU's first lookahead block is generated on demand.
//
// Machine::run_vcpu opens each block where the per-op engine refilled
// (Vcpu::RefBuffer), and generates a vCPU's first block in doubling
// pieces: a tenant that retires a few instructions and is destroyed
// generates a few, not a whole block.  A counting workload records the
// `max_ops` of every next_ref_batch request the machine makes; no
// clock is read.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "hv/credit_scheduler.hpp"
#include "hv/hypervisor.hpp"
#include "mem/patterns.hpp"
#include "test_util.hpp"
#include "workloads/pattern_workload.hpp"

namespace kyoto::hv {
namespace {

/// Forwards to `inner` and logs each next_ref_batch request's max_ops.
/// Clones forward too but log nothing.
class CountingWorkload final : public workloads::Workload {
 public:
  CountingWorkload(std::unique_ptr<workloads::Workload> inner, std::vector<std::size_t>* log)
      : inner_(std::move(inner)), log_(log) {}

  mem::Op next() override { return inner_->next(); }
  RefBatch next_ref_batch(workloads::AccessRef* out, std::size_t max_refs, std::size_t max_ops,
                          std::uint32_t* trailing_gap) override {
    if (log_ != nullptr) log_->push_back(max_ops);
    return inner_->next_ref_batch(out, max_refs, max_ops, trailing_gap);
  }
  void reset() override { inner_->reset(); }
  std::unique_ptr<Workload> clone() const override {
    return std::make_unique<CountingWorkload>(inner_->clone(), nullptr);
  }
  const workloads::WorkloadSpec& spec() const override { return inner_->spec(); }
  workloads::StreamVersion stream_version() const override { return inner_->stream_version(); }

 private:
  std::unique_ptr<workloads::Workload> inner_;
  std::vector<std::size_t>* log_;
};

/// A looping v1 Zipf tenant of `length` instructions per run.
std::unique_ptr<workloads::Workload> zipf_tenant(const MachineConfig& mc, Instructions length) {
  workloads::WorkloadSpec spec;
  spec.name = "zipf";
  spec.mem_ratio = 0.4;
  spec.write_ratio = 0.3;
  spec.length = length;
  return std::make_unique<workloads::PatternWorkload>(
      spec, std::make_unique<mem::ZipfPattern>(mc.mem.llc.size, 0.9, 3), 3);
}

TEST(LookaheadPieces, FirstBlockIsGeneratedInDoublingPieces) {
  constexpr std::size_t kBlock = Vcpu::RefBuffer::kV1MaxOps;
  constexpr Instructions kLength = 3'001;  // 3001 % 256 = 185
  const MachineConfig mc = test::test_machine();
  Hypervisor hv(mc, std::make_unique<CreditScheduler>());
  std::vector<std::size_t> requests;
  Vcpu& vcpu = hv.create_vm(VmConfig{.name = "zipf", .loop_workload = true},
                            std::make_unique<CountingWorkload>(zipf_tenant(mc, kLength),
                                                               &requests),
                            0)
                   .vcpu(0);
  ASSERT_EQ(vcpu.workload().stream_version(), workloads::StreamVersion::kV1);

  // A 1-cycle burst retires one instruction and generates one piece.
  std::int64_t wall = 0;
  wall += hv.machine().run_vcpu(vcpu, 0, 1, wall).cycles_used;
  ASSERT_FALSE(requests.empty());
  for (const std::size_t r : requests) EXPECT_LE(r, Vcpu::RefBuffer::kFirstPiece);
  EXPECT_EQ(vcpu.ref_buffer().block_left, kBlock - Vcpu::RefBuffer::kFirstPiece);

  while (vcpu.completed_runs() < 2) {
    wall += hv.machine().run_vcpu(vcpu, 0, 5'000, wall).cycles_used;
  }
  // The pieces of the first block sum to exactly one block...
  std::size_t first_block = 0;
  std::size_t pieces = 0;
  while (first_block < kBlock) {
    ASSERT_LT(pieces, requests.size());
    first_block += requests[pieces++];
  }
  EXPECT_EQ(first_block, kBlock);
  EXPECT_GT(pieces, 1u);
  // ...and every later request is a whole block or the run's remainder.
  std::size_t remainders = 0;
  for (std::size_t k = pieces; k < requests.size(); ++k) {
    if (requests[k] == kLength % kBlock) {
      ++remainders;
    } else {
      EXPECT_EQ(requests[k], kBlock) << "request " << k;
    }
  }
  EXPECT_EQ(remainders, 2u);  // one per completed run
  EXPECT_EQ(vcpu.ref_buffer().block_left, 0u);
}

}  // namespace
}  // namespace kyoto::hv
