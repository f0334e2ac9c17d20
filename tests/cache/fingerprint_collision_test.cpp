// Fingerprint collisions against the frozen reference engine.
//
// SetAssocCache probes a set through a row of one-byte tag
// fingerprints and confirms each candidate with the full tag.  Random
// streams rarely put many equal fingerprints in one set, so this test
// brute-forces tags that share both a set and a fingerprint byte and
// drives them through hits, misses, evictions, invalidate(),
// release_vm() and a partition installed (and later cleared) mid-run,
// on 8-, 16- and 20-way caches.  Every step is checked against
// ReferenceSetAssocCache (tests/support/reference_cache.hpp), which
// probes with a plain tag scan.  The reference has no release_vm, so
// the test tracks each resident line's owner and invalidates the
// released VM's lines one by one.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/set_assoc_cache.hpp"
#include "common/rng.hpp"
#include "support/reference_cache.hpp"

namespace kyoto::cache {
namespace {

struct Shape {
  unsigned sets;
  unsigned ways;
  ReplacementKind policy;
};

std::string describe(const Shape& shape) {
  return "sets=" + std::to_string(shape.sets) + " ways=" + std::to_string(shape.ways) +
         " policy=" + replacement_name(shape.policy);
}

/// The tag pool: 3*ways tags sharing set 1 and one fingerprint byte,
/// `ways` tags in set 1 with other bytes, and a few in set 0.
std::vector<Address> colliding_pool(const SetAssocCache& cache, unsigned sets,
                                    unsigned ways) {
  const unsigned target_set = 1 % sets;
  const std::uint8_t target_fp = cache.fingerprint(target_set + 5ull * sets);
  std::vector<Address> colliding, other_fp, other_set;
  for (Address tag = 0; colliding.size() < 3 * ways || other_fp.size() < ways ||
                        other_set.size() < 4;
       ++tag) {
    const bool in_set = tag % sets == target_set;
    if (in_set && cache.fingerprint(tag) == target_fp) {
      if (colliding.size() < 3 * ways) colliding.push_back(tag);
    } else if (in_set) {
      if (other_fp.size() < ways) other_fp.push_back(tag);
    } else if (other_set.size() < 4) {
      other_set.push_back(tag);
    }
  }
  std::vector<Address> pool = colliding;
  pool.insert(pool.end(), other_fp.begin(), other_fp.end());
  pool.insert(pool.end(), other_set.begin(), other_set.end());
  return pool;
}

void run_shape(const Shape& shape) {
  constexpr Bytes kLine = 64;
  const CacheGeometry geom{static_cast<Bytes>(shape.sets) * shape.ways * kLine, shape.ways,
                           kLine};
  SetAssocCache current("fp", geom, shape.policy, /*seed=*/9);
  current.observe_ground_truth();  // per-VM stats are compared below
  ReferenceSetAssocCache reference("fp", geom, shape.policy, /*seed=*/9);
  const std::vector<Address> pool = colliding_pool(current, shape.sets, shape.ways);
  const std::size_t n_colliding = 3 * shape.ways;
  // Sanity: the pool really shares one set and one fingerprint byte.
  for (std::size_t i = 1; i < n_colliding; ++i) {
    ASSERT_EQ(pool[0] % shape.sets, pool[i] % shape.sets);
    ASSERT_EQ(current.fingerprint(pool[0]), current.fingerprint(pool[i]));
  }

  std::unordered_map<Address, int> owner;  // resident tag -> filling vm
  constexpr int kVms = 4;
  Rng rng(0xf1a9ull + shape.ways * 131 + shape.sets);
  constexpr int kOps = 30'000;
  const auto check_residency = [&](int op) {
    for (const Address tag : pool) {
      ASSERT_EQ(reference.probe(tag * kLine), current.probe(tag * kLine))
          << describe(shape) << " op=" << op << " tag=" << tag;
    }
  };

  for (int op = 0; op < kOps; ++op) {
    // Three quarters of the traffic hammers the colliding tags.
    const Address tag = rng.chance(0.75) ? pool[rng.below(n_colliding)]
                                         : pool[rng.below(pool.size())];
    const Requester req{static_cast<int>(rng.below(2)),
                        static_cast<int>(rng.below(kVms))};
    const bool write = rng.chance(0.3);
    const LookupResult got = current.access(tag * kLine, write, req);
    const LookupResult want = reference.access(tag * kLine, write, req);
    ASSERT_EQ(want.hit, got.hit) << describe(shape) << " op=" << op;
    ASSERT_EQ(want.evicted, got.evicted) << describe(shape) << " op=" << op;
    if (want.evicted) owner.erase(*want.evicted / kLine);
    if (!want.hit) owner[tag] = req.vm;

    if (rng.chance(0.02)) {
      // Leaves a stale fingerprint byte behind in the current engine.
      const Address victim = pool[rng.below(n_colliding)];
      current.invalidate(victim * kLine);
      reference.invalidate(victim * kLine);
      owner.erase(victim);
    }
    if (rng.chance(0.003)) {
      const int vm = static_cast<int>(rng.below(kVms));
      std::uint64_t dropped = 0;
      for (auto it = owner.begin(); it != owner.end();) {
        if (it->second == vm) {
          reference.invalidate(it->first * kLine);
          ++dropped;
          it = owner.erase(it);
        } else {
          ++it;
        }
      }
      ASSERT_EQ(dropped, current.release_vm(vm)) << describe(shape) << " op=" << op;
    }
    if (op == kOps / 3) {
      current.set_partition(/*vm=*/2, /*first_way=*/1, shape.ways / 2);
      reference.set_partition(2, 1, shape.ways / 2);
    }
    if (op == 2 * kOps / 3) {
      current.clear_partitions();
      reference.clear_partitions();
    }
    if (op % 1000 == 0) check_residency(op);
  }
  check_residency(kOps);

  const auto expect_stats_eq = [&](const CacheStats& want, const CacheStats& got,
                                   const std::string& what) {
    EXPECT_EQ(want.accesses, got.accesses) << describe(shape) << " " << what;
    EXPECT_EQ(want.hits, got.hits) << describe(shape) << " " << what;
    EXPECT_EQ(want.misses, got.misses) << describe(shape) << " " << what;
    EXPECT_EQ(want.evictions, got.evictions) << describe(shape) << " " << what;
    EXPECT_EQ(want.writebacks, got.writebacks) << describe(shape) << " " << what;
  };
  expect_stats_eq(reference.stats(), current.stats(), "total");
  for (int vm = 0; vm < kVms; ++vm) {
    expect_stats_eq(reference.stats_for_vm(vm), current.stats_for_vm(vm),
                    "vm " + std::to_string(vm));
    EXPECT_EQ(reference.footprint_lines(vm), current.footprint_lines(vm))
        << describe(shape) << " vm " << vm;
  }
  // Non-vacuity: the colliding tags both hit and missed.
  EXPECT_GT(current.stats().hits, 1000u) << describe(shape);
  EXPECT_GT(current.stats().evictions, 1000u) << describe(shape);
}

TEST(FingerprintCollision, CollidingTagsMatchReferenceEngine) {
  const Shape shapes[] = {
      {16, 8, ReplacementKind::kLru},  {16, 16, ReplacementKind::kLru},
      {64, 20, ReplacementKind::kLru}, {128, 20, ReplacementKind::kLru},
      {16, 8, ReplacementKind::kPlru}, {64, 20, ReplacementKind::kDip},
  };
  for (const Shape& shape : shapes) {
    run_shape(shape);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace kyoto::cache
