// Trace capture and trace replay for the McSim suites.
//
// The library's McSim monitor replays a live clone (ReplaySimulator::
// run / replay_live); these helpers materialize the same future as a
// bounded per-op trace — the pin tool's view — and replay that trace
// through the same replay loop, so suites can check the two agree.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "mcsim/replay.hpp"
#include "mem/access.hpp"
#include "workloads/workload.hpp"

namespace kyoto::test {

/// The pin-tool stand-in: captures a bounded instruction trace from a
/// live workload without perturbing it.
class PinTracer {
 public:
  /// Clones `live` and records its next `n` operations.
  static std::vector<mem::Op> capture(const workloads::Workload& live, Instructions n) {
    KYOTO_CHECK_MSG(n > 0, "trace length must be positive");
    auto clone = live.clone();
    std::vector<mem::Op> trace(static_cast<std::size_t>(n));
    clone->next_batch(trace.data(), trace.size());
    return trace;
  }
};

/// A captured trace served as a workload: next() walks the trace, and
/// the default next_ref_batch compresses it into AccessRefs.
class TraceWorkload final : public workloads::Workload {
 public:
  TraceWorkload(const std::vector<mem::Op>& trace, workloads::WorkloadSpec spec)
      : trace_(trace), spec_(std::move(spec)) {}

  mem::Op next() override { return trace_[cursor_++]; }
  void reset() override { cursor_ = 0; }
  std::unique_ptr<workloads::Workload> clone() const override {
    return std::make_unique<TraceWorkload>(*this);
  }
  const workloads::WorkloadSpec& spec() const override { return spec_; }

 private:
  const std::vector<mem::Op>& trace_;
  workloads::WorkloadSpec spec_;
  std::size_t cursor_ = 0;
};

/// Replays an already-captured trace from a cold private cache.
/// `spec` supplies the instruction-mix metadata (MLP) of the traced
/// application.
inline mcsim::ReplayResult replay_trace(mcsim::ReplaySimulator& sim,
                                        const std::vector<mem::Op>& trace,
                                        const workloads::WorkloadSpec& spec) {
  TraceWorkload workload(trace, spec);
  return sim.run(workload, static_cast<Instructions>(trace.size()));
}

}  // namespace kyoto::test
