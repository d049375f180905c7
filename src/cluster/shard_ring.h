#ifndef ATNN_CLUSTER_SHARD_RING_H_
#define ATNN_CLUSTER_SHARD_RING_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace atnn::cluster {

/// Seeded consistent-hash ring: item id -> shard. Each shard owns
/// kVirtualNodesPerShard pseudo-random points on a uint64 ring; a key
/// hashes to a position and belongs to the shard owning the next point
/// clockwise. The two properties the serving layer leans on:
///
///   - Determinism: every placement is a pure function of the shard count
///     (and the two constants below), so two processes that agree on the
///     count agree on every key's shard without exchanging a byte — which
///     is what lets a scatter/gather front-end, an offline catalog
///     partitioner, and a replay bench all route identically (tested
///     against golden assignments).
///   - Bounded remap: growing N -> N+1 shards moves only the keys whose
///     successor point is one of the new shard's — an expected fraction of
///     1/(N+1) — and never moves a key between two pre-existing shards.
///
/// Immutable after construction; lookups are lock-free O(log vnodes).
class ShardRing {
 public:
  /// Ring points per shard. More virtual nodes flatten the shard-share
  /// distribution (relative imbalance shrinks like 1/sqrt(vnodes)) at the
  /// cost of a larger sorted point table; 128 keeps max/min share within a
  /// few percent for single-digit shard counts while lookups stay in L1.
  static constexpr size_t kVirtualNodesPerShard = 128;
  /// Placement seed. Mixed (via SplitMix64) into every vnode position and
  /// every key hash; never fed to std::hash, whose layout is
  /// implementation-defined and would break cross-process determinism.
  static constexpr uint64_t kSeed = 0x7ea75eed2021ULL;

  /// Aborts unless num_shards >= 1.
  explicit ShardRing(size_t num_shards);

  /// Owning shard of `key`, in [0, num_shards). Any int64 is accepted —
  /// the key is hashed, not interpreted as a row index.
  size_t ShardFor(int64_t key) const;

  size_t num_shards() const { return num_shards_; }

  /// Fraction of the ring's circumference owned by each shard (sums to 1).
  /// This is the exact expected share of a uniformly hashed key stream —
  /// the reference distribution the uniformity test chi-squares observed
  /// counts against, separating hash quality from vnode-placement
  /// variance.
  std::vector<double> ArcFractions() const;

 private:
  size_t num_shards_;
  /// (position, shard), sorted by position; ties broken by shard for
  /// determinism.
  std::vector<std::pair<uint64_t, uint32_t>> points_;
};

}  // namespace atnn::cluster

#endif  // ATNN_CLUSTER_SHARD_RING_H_
