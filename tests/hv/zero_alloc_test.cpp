// Steady-state allocation gate: once a hypervisor is warmed up, the
// tick loop must not touch the heap at all.
//
// Everything hot is pre-sized at admission time — ref-batch storage
// from the hypervisor's bump arena, per-VM cache attribution slots,
// the LLC's flat displaced-line table at its high-water capacity,
// scheduler runqueues within vector capacity — so a steady-state tick
// is pure compute over already-owned memory.  This test replaces the
// global allocation functions with counting shims (this TU links into
// its own test binary, so the replacement is contained) and asserts
// that a measured window of ticks performs exactly zero allocations.
//
// The ASan/UBSan CI job runs this same binary, so a regression shows
// up both as a counted allocation here and as interceptor traffic
// there.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "hv/credit_scheduler.hpp"
#include "hv/hypervisor.hpp"
#include "mem/patterns.hpp"
#include "workloads/pattern_workload.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size ? size : 1);
  } else {
    if (posix_memalign(&p, align, size ? size : align) != 0) p = nullptr;
  }
  return p;
}

}  // namespace

// Counting replacements for the whole allocation surface this binary
// can hit.  They must pair with the matching frees below (never the
// library defaults), so every route ends in std::malloc/std::free.
void* operator new(std::size_t size) {
  void* p = counted_alloc(size, 0);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace kyoto::hv {
namespace {

std::unique_ptr<workloads::Workload> endless_mix(const char* name, Bytes ws,
                                                 double mem_ratio, bool sequential,
                                                 workloads::StreamVersion stream,
                                                 std::uint64_t seed) {
  workloads::WorkloadSpec spec;
  spec.name = name;
  spec.mem_ratio = mem_ratio;
  spec.write_ratio = 0.3;
  spec.mlp = sequential ? 2.0 : 1.0;
  spec.length = 0;  // endless: no run-completion/reset path in the window
  spec.stream = stream;
  std::unique_ptr<mem::Pattern> pattern;
  if (sequential) {
    pattern = std::make_unique<mem::SequentialPattern>(ws);
  } else {
    pattern = std::make_unique<mem::UniformRandomPattern>(ws);
  }
  return std::make_unique<workloads::PatternWorkload>(spec, std::move(pattern), seed);
}

TEST(ZeroAlloc, SteadyStateTickLoopDoesNotTouchTheHeap) {
  const MachineConfig machine = scaled_machine();
  const cache::MemSystemConfig& mem = machine.mem;
  Hypervisor hv(machine, std::make_unique<CreditScheduler>());

  // One VM per core, mixing both stream formats and both access
  // patterns: the v2 VMs drive the ref-batch engine (arena storage),
  // the random ones churn the LLC's displaced-line table (a flat
  // table at its high-water capacity), and four runnable vCPUs keep
  // the scheduler's runqueues rotating.
  hv.create_vm(VmConfig{.name = "rand_v2"},
               endless_mix("rand_v2", mem.llc.size * 3, 0.8, false,
                           workloads::StreamVersion::kV2, 5),
               /*core=*/0);
  hv.create_vm(VmConfig{.name = "seq_v2"},
               endless_mix("seq_v2", mem.llc.size / 2, 0.6, true,
                           workloads::StreamVersion::kV2, 6),
               /*core=*/1);
  hv.create_vm(VmConfig{.name = "rand_v1"},
               endless_mix("rand_v1", mem.llc.size * 2, 0.7, false,
                           workloads::StreamVersion::kV1, 7),
               /*core=*/2);
  hv.create_vm(VmConfig{.name = "seq_v1"},
               endless_mix("seq_v1", mem.l2.size / 2, 0.6, true,
                           workloads::StreamVersion::kV1, 8),
               /*core=*/3);

  // Warm-up: long enough for the displaced-line table to reach its
  // high-water capacity (insert + prune per miss), every runqueue
  // rotation to have happened, and all lazily-grown stat storage to
  // exist.
  hv.run_ticks(40);

  g_allocations.store(0);
  g_armed.store(true);
  hv.run_ticks(12);
  g_armed.store(false);

  EXPECT_EQ(g_allocations.load(), 0u)
      << "the steady-state tick loop allocated; a hot-path container is "
         "growing (or a new path heap-allocates per tick)";

  // The window genuinely executed work (the gate is not vacuous).
  for (Vm* vm : hv.vms()) {
    EXPECT_GT(vm->counters().get(pmc::Counter::kInstructions), 0u) << vm->config().name;
  }
}

// Churn gate: admit/evict cycles recycle the destroyed vCPUs'
// arena ref-blocks, so once the live-VM high-water mark is reached
// the exec arena stops growing — and a quiesced tick loop after heavy
// churn history is still allocation-free (the displaced-line table and
// per-id vectors reached their high-water sizes).
TEST(ZeroAlloc, SteadyStateChurnStopsGrowingTheArena) {
  const MachineConfig machine = scaled_machine();
  const cache::MemSystemConfig& mem = machine.mem;
  Hypervisor hv(machine, std::make_unique<CreditScheduler>());

  hv.create_vm(VmConfig{.name = "static"},
               endless_mix("static", mem.llc.size * 2, 0.7, false,
                           workloads::StreamVersion::kV2, 3),
               /*core=*/0);

  std::uint64_t seed = 50;
  const auto churn_generation = [&](int generations) {
    for (int gen = 0; gen < generations; ++gen) {
      std::vector<int> ids;
      for (int core = 1; core < 4; ++core) {
        ids.push_back(hv.create_vm(VmConfig{.name = "tenant"},
                                   endless_mix("tenant", mem.llc.size, 0.7,
                                               core == 2, workloads::StreamVersion::kV2,
                                               seed++),
                                   core)
                          .id());
      }
      hv.run_ticks(6);
      for (int id : ids) hv.destroy_vm(id);
      hv.run_ticks(2);
    }
  };

  churn_generation(3);  // reach the live-VM high-water mark
  const std::size_t reserved = hv.exec_arena().bytes_reserved();
  const std::size_t used = hv.exec_arena().bytes_used();

  churn_generation(4);  // steady state: every block comes from recycling
  EXPECT_EQ(hv.exec_arena().bytes_reserved(), reserved)
      << "churn grew the exec arena past the high-water mark; ref-block "
         "recycling is broken";
  EXPECT_EQ(hv.exec_arena().bytes_used(), used);

  // Quiesced ticks after the churn history are still allocation-free.
  churn_generation(1);
  hv.run_ticks(20);
  g_allocations.store(0);
  g_armed.store(true);
  hv.run_ticks(12);
  g_armed.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "the post-churn steady-state tick loop allocated";
}

}  // namespace
}  // namespace kyoto::hv
