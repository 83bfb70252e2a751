#include "common/swap_remove_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

namespace hetsched {
namespace {

TEST(SwapRemovePool, StartsFull) {
  SwapRemovePool pool(10);
  EXPECT_EQ(pool.size(), 10u);
  EXPECT_FALSE(pool.empty());
  for (std::uint64_t id = 0; id < 10; ++id) EXPECT_TRUE(pool.contains(id));
}

TEST(SwapRemovePool, EmptyPool) {
  SwapRemovePool pool(0);
  EXPECT_TRUE(pool.empty());
  EXPECT_FALSE(pool.contains(0));
}

TEST(SwapRemovePool, RemoveRemoves) {
  SwapRemovePool pool(5);
  EXPECT_TRUE(pool.remove(3));
  EXPECT_FALSE(pool.contains(3));
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_FALSE(pool.remove(3));  // second removal is a no-op
  EXPECT_EQ(pool.size(), 4u);
}

TEST(SwapRemovePool, RemoveOutOfRangeIsFalse) {
  SwapRemovePool pool(5);
  EXPECT_FALSE(pool.remove(99));
}

TEST(SwapRemovePool, PopRandomDrainsExactlyOnce) {
  SwapRemovePool pool(100);
  Rng rng(1);
  std::set<std::uint64_t> seen;
  while (!pool.empty()) {
    const std::uint64_t id = pool.pop_random(rng);
    EXPECT_LT(id, 100u);
    EXPECT_TRUE(seen.insert(id).second) << "id " << id << " popped twice";
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(SwapRemovePool, PopRandomIsRoughlyUniformOnFirstDraw) {
  // Distribution check: the first pop from a 4-element pool should hit
  // each element about a quarter of the time across seeds.
  std::vector<int> counts(4, 0);
  for (std::uint64_t seed = 0; seed < 4000; ++seed) {
    SwapRemovePool pool(4);
    Rng rng(seed);
    ++counts[pool.pop_random(rng)];
  }
  for (const int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(SwapRemovePool, PopFirstIsLexicographic) {
  SwapRemovePool pool(5);
  for (std::uint64_t expect = 0; expect < 5; ++expect) {
    EXPECT_EQ(pool.pop_first(), expect);
  }
  EXPECT_TRUE(pool.empty());
}

TEST(SwapRemovePool, PopFirstSkipsRemoved) {
  SwapRemovePool pool(6);
  pool.remove(0);
  pool.remove(2);
  EXPECT_EQ(pool.pop_first(), 1u);
  EXPECT_EQ(pool.pop_first(), 3u);
  pool.remove(4);
  EXPECT_EQ(pool.pop_first(), 5u);
  EXPECT_TRUE(pool.empty());
}

TEST(SwapRemovePool, MixedOperationsKeepInvariant) {
  SwapRemovePool pool(50);
  Rng rng(7);
  std::set<std::uint64_t> gone;
  for (int step = 0; step < 40; ++step) {
    if (step % 3 == 0) {
      const std::uint64_t id = step;
      if (pool.remove(id)) gone.insert(id);
    } else {
      const std::uint64_t id = pool.pop_random(rng);
      EXPECT_TRUE(gone.insert(id).second);
    }
    EXPECT_EQ(pool.size() + gone.size(), 50u);
    for (const std::uint64_t id : gone) EXPECT_FALSE(pool.contains(id));
  }
}

TEST(SwapRemovePool, PopOnEmptyPoolThrows) {
  SwapRemovePool pool(0);
  Rng rng(1);
  EXPECT_THROW(pool.pop_first(), std::logic_error);
  EXPECT_THROW(pool.pop_random(rng), std::logic_error);
}

TEST(SwapRemovePool, PopAfterDrainThrowsAndRecoversOnInsert) {
  SwapRemovePool pool(3);
  while (!pool.empty()) pool.pop_first();
  Rng rng(2);
  EXPECT_THROW(pool.pop_first(), std::logic_error);
  EXPECT_THROW(pool.pop_random(rng), std::logic_error);
  // A requeue after the drain brings the pool back to life.
  EXPECT_TRUE(pool.insert(1));
  EXPECT_EQ(pool.pop_first(), 1u);
  EXPECT_THROW(pool.pop_first(), std::logic_error);
}

TEST(SwapRemovePool, IdsViewMatchesSize) {
  SwapRemovePool pool(8);
  pool.remove(1);
  pool.remove(5);
  EXPECT_EQ(pool.ids().size(), pool.size());
  for (const std::uint64_t id : pool.ids()) EXPECT_TRUE(pool.contains(id));
}

TEST(SwapRemovePool, CapacityAboveUint32BoundaryThrows) {
  // Positions/ids are uint32 with ~0u as the absent marker, so any
  // capacity past kMaxCapacity would silently corrupt the index. The
  // constructor must refuse it loudly (TaskPool is the supported path).
  EXPECT_THROW(SwapRemovePool(SwapRemovePool::kMaxCapacity + 1),
               std::length_error);
  EXPECT_THROW(SwapRemovePool(std::uint64_t{1} << 32), std::length_error);
  EXPECT_THROW(SwapRemovePool((std::uint64_t{1} << 40) + 17),
               std::length_error);
  EXPECT_EQ(SwapRemovePool::kMaxCapacity, 0xFFFFFFFEull);
}

TEST(SwapRemovePool, ResetRefillsToIdentity) {
  SwapRemovePool pool(6);
  Rng rng(9);
  pool.pop_random(rng);
  pool.pop_first();
  pool.remove(4);
  pool.reset();
  EXPECT_EQ(pool.size(), 6u);
  for (std::uint64_t id = 0; id < 6; ++id) EXPECT_TRUE(pool.contains(id));
  for (std::uint64_t id = 0; id < 6; ++id) EXPECT_EQ(pool.pop_first(), id);
}

TEST(SwapRemovePool, ResetPoolMatchesFreshPoolBitForBit) {
  // The reuse contract: after reset(), the pool must consume an RNG
  // stream and produce ids exactly like a newly constructed pool.
  SwapRemovePool reused(64);
  Rng warm(5);
  for (int i = 0; i < 40; ++i) reused.pop_random(warm);
  reused.insert(7);
  reused.reset();

  SwapRemovePool fresh(64);
  Rng rng_a(321), rng_b(321);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(reused.pop_random(rng_a), fresh.pop_random(rng_b)) << i;
  }
}

TEST(SwapRemovePool, UnindexedPopsMatchIndexedPopsExactly) {
  // pop_random_unindexed must consume the RNG identically and return
  // the identical id sequence; the deferred index must self-heal on
  // the first indexed operation so contains/insert/pop_first behave
  // as if every pop had been indexed (the crash-requeue path).
  SwapRemovePool indexed(97), lazy(97);
  Rng rng_a(11), rng_b(11);
  for (int i = 0; i < 60; ++i) {
    ASSERT_EQ(indexed.pop_random(rng_a), lazy.pop_random_unindexed(rng_b))
        << i;
  }
  // Index self-heal: membership agrees for every id.
  for (std::uint64_t id = 0; id < 97; ++id) {
    ASSERT_EQ(indexed.contains(id), lazy.contains(id)) << id;
  }
  // Requeue + further mixed use stays in lockstep.
  for (std::uint64_t id = 0; id < 97; ++id) {
    if (!indexed.contains(id)) {
      ASSERT_TRUE(indexed.insert(id));
      ASSERT_TRUE(lazy.insert(id));
      break;
    }
  }
  ASSERT_EQ(indexed.size(), lazy.size());
  while (!indexed.empty()) {
    ASSERT_EQ(indexed.pop_first(), lazy.pop_first());
    if (indexed.empty()) break;
    ASSERT_EQ(indexed.pop_random(rng_a), lazy.pop_random_unindexed(rng_b));
  }
  EXPECT_TRUE(lazy.empty());
}

TEST(SwapRemovePool, ManyResetCyclesStayConsistent) {
  SwapRemovePool pool(16);
  for (int cycle = 0; cycle < 100; ++cycle) {
    Rng rng(static_cast<std::uint64_t>(cycle));
    std::set<std::uint64_t> seen;
    while (!pool.empty()) seen.insert(pool.pop_random(rng));
    EXPECT_EQ(seen.size(), 16u);
    pool.reset();
  }
  EXPECT_EQ(pool.size(), 16u);
}

// -- Look-ahead prefetch: a hint, never a result ----------------------
// pop_random_unindexed prefetches with a private copy of the caller's
// Rng that runs kLookAhead draws ahead. These tests run it in lockstep
// with the plain swap-remove loop it replaced and require the same ids
// and the same final caller Rng state through every way the
// look-ahead can go stale.

// The reference: rng.next_below(size) and a swap-remove, nothing else.
// insert appends and remove swaps the last id into the hole, as the
// pool does.
struct ReferencePool {
  std::vector<std::uint64_t> ids;

  explicit ReferencePool(std::uint64_t n) : ids(n) {
    std::iota(ids.begin(), ids.end(), 0);
  }
  std::uint64_t pop(Rng& rng) {
    const std::uint64_t pos = rng.next_below(ids.size());
    const std::uint64_t id = ids[pos];
    ids[pos] = ids.back();
    ids.pop_back();
    return id;
  }
  void remove(std::uint64_t id) {
    const auto it = std::find(ids.begin(), ids.end(), id);
    ASSERT_NE(it, ids.end());
    *it = ids.back();
    ids.pop_back();
  }
};

// Same state <=> same future stream (compared on copies).
void expect_same_rng_state(Rng a, Rng b) {
  for (int i = 0; i < 4; ++i) ASSERT_EQ(a.next_u64(), b.next_u64()) << i;
}

// Pops `count` ids from both, asserting every id matches.
void pop_lockstep(SwapRemovePool& pool, Rng& rng, ReferencePool& ref,
                  Rng& ref_rng, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    ASSERT_EQ(pool.pop_random_unindexed(rng), ref.pop(ref_rng)) << i;
    ASSERT_EQ(pool.size(), ref.ids.size());
  }
}

TEST(SwapRemovePoolLookAhead, FullDrainMatchesPlainLoop) {
  SwapRemovePool pool(5000);
  ReferencePool ref(5000);
  Rng rng(91), ref_rng(91);
  pop_lockstep(pool, rng, ref, ref_rng, 5000);
  EXPECT_TRUE(pool.empty());
  expect_same_rng_state(rng, ref_rng);
}

TEST(SwapRemovePoolLookAhead, ResetWithReseededRngMatchesPlainLoop) {
  SwapRemovePool pool(700);
  ReferencePool ref(700);
  Rng rng(3), ref_rng(3);
  pop_lockstep(pool, rng, ref, ref_rng, 300);
  // A new replication: pool rewound, caller's Rng replaced. The
  // look-ahead still follows the old stream and must not leak into
  // the new one.
  pool.reset();
  ref = ReferencePool(700);
  rng = Rng(4);
  ref_rng = Rng(4);
  pop_lockstep(pool, rng, ref, ref_rng, 700);
  expect_same_rng_state(rng, ref_rng);
}

TEST(SwapRemovePoolLookAhead, RequeueInsertsPartwayMatchPlainLoop) {
  SwapRemovePool pool(1000);
  ReferencePool ref(1000);
  Rng rng(17), ref_rng(17);
  std::vector<std::uint64_t> popped;
  for (int i = 0; i < 400; ++i) {
    popped.push_back(pool.pop_random_unindexed(rng));
    ASSERT_EQ(popped.back(), ref.pop(ref_rng)) << i;
  }
  // Crash requeue: a few served ids come back mid-drain.
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t id = popped[static_cast<std::size_t>(i * 37)];
    ASSERT_TRUE(pool.insert(id));
    ref.ids.push_back(id);
  }
  pop_lockstep(pool, rng, ref, ref_rng, 300);
  ASSERT_TRUE(pool.insert(popped[1]));  // and once more, later
  ref.ids.push_back(popped[1]);
  pop_lockstep(pool, rng, ref, ref_rng, ref.ids.size());
  EXPECT_TRUE(pool.empty());
  expect_same_rng_state(rng, ref_rng);
}

TEST(SwapRemovePoolLookAhead, IndexedOperationsAfterUnindexedPopsMatch) {
  SwapRemovePool pool(600);
  ReferencePool ref(600);
  Rng rng(23), ref_rng(23);
  pop_lockstep(pool, rng, ref, ref_rng, 150);
  // contains() forces reindex(); the membership it reports must be the
  // reference's.
  const std::set<std::uint64_t> present(ref.ids.begin(), ref.ids.end());
  for (std::uint64_t id = 0; id < 600; ++id) {
    ASSERT_EQ(pool.contains(id), present.count(id) == 1) << id;
  }
  pop_lockstep(pool, rng, ref, ref_rng, 50);
  // remove() shrinks the pool off the look-ahead's track.
  const std::uint64_t victim = ref.ids[ref.ids.size() / 2];
  ASSERT_TRUE(pool.remove(victim));
  ref.remove(victim);
  pop_lockstep(pool, rng, ref, ref_rng, 100);
  // An indexed pop draws on the same Rng.
  ASSERT_EQ(pool.pop_random(rng), ref.pop(ref_rng));
  pop_lockstep(pool, rng, ref, ref_rng, ref.ids.size());
  EXPECT_TRUE(pool.empty());
  expect_same_rng_state(rng, ref_rng);
}

TEST(SwapRemovePoolLookAhead, PoolsSmallerThanLookAheadMatch) {
  for (std::uint64_t n = 1; n <= SwapRemovePool::kLookAhead + 2; ++n) {
    SCOPED_TRACE(n);
    SwapRemovePool pool(n);
    ReferencePool ref(n);
    Rng rng(n), ref_rng(n);
    pop_lockstep(pool, rng, ref, ref_rng, n);
    EXPECT_TRUE(pool.empty());
    expect_same_rng_state(rng, ref_rng);
    // Refill from empty one id at a time (size 1 each time).
    for (std::uint64_t id = 0; id < n; ++id) {
      ASSERT_TRUE(pool.insert(id));
      ref.ids.push_back(id);
      pop_lockstep(pool, rng, ref, ref_rng, 1);
    }
    expect_same_rng_state(rng, ref_rng);
  }
}

}  // namespace
}  // namespace hetsched
