#include "cluster/shard_ring.h"

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace atnn::cluster {
namespace {

TEST(ShardRingTest, ShardForStaysInRangeAcrossTheWholeKeyDomain) {
  const ShardRing ring(5);
  const std::vector<int64_t> extremes = {
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::min() + 1,
      -1,
      0,
      1,
      std::numeric_limits<int64_t>::max() - 1,
      std::numeric_limits<int64_t>::max()};
  for (const int64_t key : extremes) {
    EXPECT_LT(ring.ShardFor(key), 5u) << "key " << key;
  }
  for (int64_t key = -5000; key < 5000; ++key) {
    ASSERT_LT(ring.ShardFor(key), 5u);
  }
}

TEST(ShardRingTest, IdenticalConfigsAgreeOnEveryKey) {
  // Two independently constructed rings (as two processes would build them
  // for the same shard count) must agree bitwise on every assignment.
  const ShardRing a(8);
  const ShardRing b(8);
  for (int64_t key = -20000; key < 20000; ++key) {
    ASSERT_EQ(a.ShardFor(key), b.ShardFor(key)) << "key " << key;
  }
}

TEST(ShardRingTest, GoldenAssignmentsPinCrossProcessDeterminism) {
  // Frozen outputs of the 4-shard ring. A library change that silently
  // reshuffles placement (different mixer, seed or vnode count, different
  // vnode derivation, a sort-order change) breaks these — which is the
  // point: every process that ever partitioned a catalog into 4 shards
  // must keep routing identically.
  const ShardRing ring(4);
  const std::vector<std::pair<int64_t, size_t>> golden = {
      {0LL, 0},         {1LL, 3},
      {2LL, 1},         {3LL, 3},
      {4LL, 1},         {5LL, 3},
      {6LL, 1},         {7LL, 0},
      {8LL, 0},         {9LL, 1},
      {10LL, 3},        {100LL, 2},
      {1000LL, 0},      {123456789LL, 2},
      {-1LL, 3},        {-2LL, 3},
      {-100LL, 0},      {std::numeric_limits<int64_t>::min(), 2},
      {std::numeric_limits<int64_t>::max(), 2}};
  for (const auto& [key, shard] : golden) {
    EXPECT_EQ(ring.ShardFor(key), shard) << "key " << key;
  }
}

TEST(ShardRingTest, KeysDoNotCollideWithVnodePositions) {
  // Regression: key hashing and vnode placement must live in disjoint hash
  // domains. Without the domain tags, key v and shard 0's vnode v hash
  // identically, so keys 0..vnodes-1 all landed exactly on shard 0's own
  // points — the low key range routed wholesale to shard 0.
  const ShardRing ring(4);
  std::vector<int64_t> counts(4, 0);
  const int64_t vnodes =
      static_cast<int64_t>(ShardRing::kVirtualNodesPerShard);
  for (int64_t key = 0; key < vnodes; ++key) {
    ++counts[ring.ShardFor(key)];
  }
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GT(counts[s], 0) << "shard " << s
                            << " owns no low keys: domain collision";
    EXPECT_LT(counts[s], vnodes) << "shard " << s << " owns every low key";
  }
}

TEST(ShardRingTest, ArcFractionsSumToOneAndStayBalanced) {
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const ShardRing ring(shards);
    const std::vector<double> fractions = ring.ArcFractions();
    ASSERT_EQ(fractions.size(), shards);
    double sum = 0.0;
    const double fair = 1.0 / static_cast<double>(shards);
    for (const double f : fractions) {
      sum += f;
      // 128 vnodes/shard keeps every shard's share within 2x of fair —
      // the balance bound the capacity planner assumes.
      EXPECT_GT(f, fair / 2.0);
      EXPECT_LT(f, fair * 2.0);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(ShardRingTest, KeyStreamIsUniformOverTheRing) {
  // Chi-squared test of observed shard counts against the ring's own arc
  // fractions. Using arc fractions (not 1/N) as the reference separates
  // the property under test — SplitMix64 hashes keys uniformly around the
  // ring — from vnode-placement variance, which the balance test above
  // bounds separately.
  const ShardRing ring(8);
  const std::vector<double> fractions = ring.ArcFractions();
  constexpr int64_t kKeys = 200000;
  std::vector<int64_t> observed(8, 0);
  for (int64_t key = 0; key < kKeys; ++key) {
    ++observed[ring.ShardFor(key)];
  }
  double chi2 = 0.0;
  for (size_t s = 0; s < 8; ++s) {
    const double expected = fractions[s] * static_cast<double>(kKeys);
    ASSERT_GT(expected, 0.0);
    const double delta = static_cast<double>(observed[s]) - expected;
    chi2 += delta * delta / expected;
  }
  // 7 degrees of freedom: P(chi2 > 30) < 1e-4. Sequential int64 keys are
  // the adversarial case — any linearity in the mixer shows up here.
  EXPECT_LT(chi2, 30.0) << "chi2=" << chi2;
}

TEST(ShardRingTest, GrowingTheRingMovesOnlyABoundedFractionToTheNewShard) {
  constexpr int64_t kKeys = 100000;
  for (size_t n = 1; n <= 7; ++n) {
    const ShardRing before(n);
    const ShardRing after(n + 1);
    int64_t moved = 0;
    for (int64_t key = 0; key < kKeys; ++key) {
      const size_t old_shard = before.ShardFor(key);
      const size_t new_shard = after.ShardFor(key);
      if (old_shard == new_shard) continue;
      ++moved;
      // The strong consistent-hashing property: a key never moves between
      // two pre-existing shards — it can only be captured by the shard
      // that joined.
      ASSERT_EQ(new_shard, n) << "key " << key << " moved " << old_shard
                              << " -> " << new_shard;
    }
    const double moved_fraction =
        static_cast<double>(moved) / static_cast<double>(kKeys);
    // Expected 1/(n+1); the slack absorbs vnode-placement variance (the
    // new shard's actual arc share, ~±10% relative at 128 vnodes).
    EXPECT_LE(moved_fraction, 1.0 / static_cast<double>(n + 1) + 0.05)
        << "n=" << n;
    EXPECT_GT(moved, 0) << "n=" << n;
  }
}

}  // namespace
}  // namespace atnn::cluster
