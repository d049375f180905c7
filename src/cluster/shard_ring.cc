#include "cluster/shard_ring.h"

#include <algorithm>

#include "common/macros.h"
#include "common/rng.h"

namespace atnn::cluster {

namespace {

/// Domain tags keep vnode placement and key hashing in disjoint hash
/// families. Without them, shard 0's vnode v and key v share the exact
/// same input (the packed pair for shard 0 is just v), so every small key
/// lands precisely ON a shard-0 point and the whole low key range routes
/// to shard 0.
constexpr uint64_t kVnodeDomain = 0xa5a5c3d2766e0de5ULL;
constexpr uint64_t kKeyDomain = 0x1d8af06b97f2a3c1ULL;

/// Position of virtual node `vnode` of `shard`. Double-mixed so that
/// neighbouring (shard, vnode) pairs land far apart: a single SplitMix64
/// over the packed pair already decorrelates, the second pass folds the
/// seed and domain in without giving any shard a structured offset.
uint64_t VnodePosition(size_t shard, size_t vnode) {
  const uint64_t packed =
      (static_cast<uint64_t>(shard) << 32) | static_cast<uint64_t>(vnode);
  return SplitMix64(ShardRing::kSeed ^ kVnodeDomain ^ SplitMix64(packed));
}

uint64_t KeyPosition(int64_t key) {
  return SplitMix64(ShardRing::kSeed ^ kKeyDomain ^
                    SplitMix64(static_cast<uint64_t>(key)));
}

}  // namespace

ShardRing::ShardRing(size_t num_shards) : num_shards_(num_shards) {
  ATNN_CHECK(num_shards >= 1) << "a ShardRing needs at least one shard";
  points_.reserve(num_shards * kVirtualNodesPerShard);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    for (size_t vnode = 0; vnode < kVirtualNodesPerShard; ++vnode) {
      points_.emplace_back(VnodePosition(shard, vnode),
                           static_cast<uint32_t>(shard));
    }
  }
  // Sort by position; a (vanishingly unlikely) position collision resolves
  // by shard index so the mapping stays deterministic either way.
  std::sort(points_.begin(), points_.end());
}

size_t ShardRing::ShardFor(int64_t key) const {
  const uint64_t position = KeyPosition(key);
  // First point clockwise from the key's position, wrapping past the top.
  const auto it = std::lower_bound(
      points_.begin(), points_.end(),
      std::make_pair(position, static_cast<uint32_t>(0)));
  return it == points_.end() ? points_.front().second : it->second;
}

std::vector<double> ShardRing::ArcFractions() const {
  // Point at position p owns the arc (previous point, p]; the first point
  // additionally owns the wraparound arc from the last point through 0.
  std::vector<double> fractions(num_shards_, 0.0);
  constexpr double kRing = 18446744073709551616.0;  // 2^64
  uint64_t previous = points_.back().first;
  for (const auto& [position, shard] : points_) {
    // Wrapping unsigned subtraction measures the arc even across the top.
    const uint64_t arc = position - previous;
    fractions[shard] += static_cast<double>(arc) / kRing;
    previous = position;
  }
  // All vnodes at one position (only possible with one point): it owns the
  // whole ring, but the wrap subtraction above yielded 0.
  if (points_.size() == 1) fractions[points_.front().second] = 1.0;
  return fractions;
}

}  // namespace atnn::cluster
