// DisplacedIndex (the LLC's flat displaced-line table) against a
// std::unordered_map oracle.
//
// Seeded random add / find / take / clear_bits / clear sequences are
// replayed through both and every answer is compared, with periodic
// full-content checks.  Directed cases cover what a random stream
// rarely hits: tag 0 as a key, keys sharing one home slot, probe runs
// that wrap past the table end (erase and clear_bits across the
// wrap), and growth.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/displaced_index.hpp"
#include "common/rng.hpp"

namespace kyoto::cache {
namespace {

using Oracle = std::unordered_map<Address, std::uint64_t>;

void expect_same_contents(const DisplacedIndex& index, const Oracle& oracle) {
  ASSERT_EQ(oracle.size(), index.size());
  for (const auto& [tag, bits] : oracle) {
    ASSERT_EQ(bits, index.find(tag)) << "tag " << tag;
  }
}

void oracle_add(Oracle& oracle, Address tag, std::uint64_t bits) { oracle[tag] |= bits; }

bool oracle_take(Oracle& oracle, Address tag, std::uint64_t bit) {
  const auto it = oracle.find(tag);
  if (it == oracle.end() || (it->second & bit) == 0) return false;
  it->second &= ~bit;
  if (it->second == 0) oracle.erase(it);
  return true;
}

void oracle_clear_bits(Oracle& oracle, std::uint64_t bits) {
  for (auto it = oracle.begin(); it != oracle.end();) {
    if ((it->second &= ~bits) == 0) {
      it = oracle.erase(it);
    } else {
      ++it;
    }
  }
}

/// `n` distinct tags whose home slot is `slot` (index capacity fixed).
std::vector<Address> tags_homed_at(const DisplacedIndex& index, std::size_t slot,
                                   std::size_t n, Address start = 1) {
  std::vector<Address> tags;
  for (Address t = start; tags.size() < n; ++t) {
    if (index.home_slot(t) == slot) tags.push_back(t);
  }
  return tags;
}

TEST(DisplacedIndex, RandomSequencesMatchUnorderedMapOracle) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    Rng rng(seed);
    DisplacedIndex index;
    Oracle oracle;
    // Key universes from a few hundred (dense reuse) to tens of
    // thousands (several growth steps); tag 0 is always in range.
    const std::uint64_t universe = 300ull << (3 * (seed - 1));
    const int vms = 1 + static_cast<int>(rng.below(64));
    for (int op = 0; op < 60'000; ++op) {
      const Address tag = rng.below(universe);
      const std::uint64_t bit = 1ull << rng.below(static_cast<std::uint64_t>(vms));
      const std::uint64_t roll = rng.below(1000);
      if (roll < 450) {
        const std::uint64_t bits = rng.chance(0.2) ? (rng() | bit) : bit;
        index.add(tag, bits);
        oracle_add(oracle, tag, bits);
      } else if (roll < 850) {
        ASSERT_EQ(oracle_take(oracle, tag, bit), index.take(tag, bit))
            << "seed " << seed << " op " << op;
      } else if (roll < 995) {
        const auto it = oracle.find(tag);
        ASSERT_EQ(it == oracle.end() ? 0 : it->second, index.find(tag))
            << "seed " << seed << " op " << op;
      } else if (roll < 999) {
        const std::size_t capacity = index.capacity();
        index.clear_bits(bit);
        oracle_clear_bits(oracle, bit);
        ASSERT_EQ(capacity, index.capacity()) << "clear_bits must work in place";
      } else {
        const std::size_t capacity = index.capacity();
        index.clear();
        oracle.clear();
        ASSERT_EQ(capacity, index.capacity());
      }
      if (op % 5000 == 0) expect_same_contents(index, oracle);
      ASSERT_LE(index.size() * 2, index.capacity());
    }
    expect_same_contents(index, oracle);
  }
}

TEST(DisplacedIndex, TagZeroIsAnOrdinaryKey) {
  DisplacedIndex index;
  EXPECT_EQ(0u, index.find(0));
  EXPECT_FALSE(index.take(0, 1));
  index.add(0, 0b101);
  EXPECT_EQ(1u, index.size());
  EXPECT_EQ(0b101u, index.find(0));
  EXPECT_TRUE(index.take(0, 0b001));
  EXPECT_FALSE(index.take(0, 0b001));
  EXPECT_EQ(0b100u, index.find(0));
  EXPECT_TRUE(index.take(0, 0b100));
  EXPECT_EQ(0u, index.find(0));
  EXPECT_EQ(0u, index.size());
}

TEST(DisplacedIndex, SharedHomeSlotRunsWrapPastTheTableEnd) {
  DisplacedIndex index;
  index.add(~0ull, 1);  // allocate the first table
  index.take(~0ull, 1);
  const std::size_t cap = index.capacity();
  ASSERT_GT(cap, 0u);

  // Six keys homed at the last slot and three at slot 0: the run
  // starts at the end of the table and continues at its front.
  Oracle oracle;
  std::vector<Address> tags = tags_homed_at(index, cap - 1, 6);
  const std::vector<Address> front = tags_homed_at(index, 0, 3);
  tags.insert(tags.end(), front.begin(), front.end());
  for (std::size_t i = 0; i < tags.size(); ++i) {
    const std::uint64_t bits = (1ull << (i % 3)) | (i % 2 == 0 ? 8 : 0);
    index.add(tags[i], bits);
    oracle_add(oracle, tags[i], bits);
  }
  ASSERT_EQ(cap, index.capacity());
  expect_same_contents(index, oracle);

  // Erase from the middle of the wrapped run, then from its head.
  for (const std::size_t victim : {2u, 0u, 7u}) {
    const std::uint64_t bits = index.find(tags[victim]);
    for (unsigned b = 0; b < 64; ++b) {
      if ((bits >> b) & 1u) {
        ASSERT_TRUE(index.take(tags[victim], 1ull << b));
        oracle_take(oracle, tags[victim], 1ull << b);
      }
    }
    expect_same_contents(index, oracle);
  }

  // A VM release across the wrapped run: every entry holding only
  // bit 1 disappears, the rest keep their other bits.
  index.clear_bits(0b010);
  oracle_clear_bits(oracle, 0b010);
  expect_same_contents(index, oracle);
  index.clear_bits(0b1101);
  oracle_clear_bits(oracle, 0b1101);
  expect_same_contents(index, oracle);
  EXPECT_EQ(0u, index.size());
  EXPECT_EQ(cap, index.capacity());
}

TEST(DisplacedIndex, GrowthKeepsEveryEntryAndTheLoadBound) {
  DisplacedIndex index;
  Oracle oracle;
  std::size_t capacity = 0;
  int growths = 0;
  for (Address tag = 0; tag < 20'000; ++tag) {
    const Address key = tag * 2048 + 7;  // set-aligned tags, as an LLC produces
    const std::uint64_t bits = 1ull << (tag % 64);
    index.add(key, bits);
    oracle_add(oracle, key, bits);
    if (index.capacity() != capacity) {
      capacity = index.capacity();
      ++growths;
      ASSERT_TRUE((capacity & (capacity - 1)) == 0) << capacity;
      expect_same_contents(index, oracle);
    }
  }
  EXPECT_GE(growths, 5);
  EXPECT_LE(index.size() * 2, index.capacity());
  expect_same_contents(index, oracle);

  // Draining keeps the capacity (the high-water mark) for reuse.
  const std::size_t high_water = index.capacity();
  for (Address tag = 0; tag < 20'000; ++tag) {
    ASSERT_TRUE(index.take(tag * 2048 + 7, 1ull << (tag % 64)));
  }
  EXPECT_EQ(0u, index.size());
  EXPECT_EQ(high_water, index.capacity());
}

}  // namespace
}  // namespace kyoto::cache
