/**
 * @file
 * Shard placement for the sharded remote tier.
 *
 * A placement maps a far-heap stripe index to the shard holding its
 * primary copy; replicas follow the primary around the shard ring (see
 * ShardedCluster). Striped placement is the default (deterministic
 * round-robin, perfect balance for sequential heaps); hashed placement
 * decorrelates placement from the access pattern the way consistent
 * hashing does in rack-scale memory tiers, trading neighborliness for
 * robustness against strided hot spots.
 */

#ifndef TRACKFM_CLUSTER_PLACEMENT_HH
#define TRACKFM_CLUSTER_PLACEMENT_HH

#include <cstdint>

namespace tfm
{

/** Which built-in placement a cluster config selects. */
enum class PlacementKind
{
    Striped, ///< stripe i -> shard i mod N (round-robin)
    Hashed   ///< stripe i -> mix64(i) mod N (decorrelated)
};

/**
 * Shard holding the primary copy of @p stripe (< @p shardCount) under
 * @p kind. Stateless and cheap: called per operation.
 */
inline std::uint32_t
primaryShard(PlacementKind kind, std::uint64_t stripe,
             std::uint32_t shardCount)
{
    std::uint64_t x = stripe;
    if (kind == PlacementKind::Hashed) {
        // splitmix64 finalizer: full-avalanche, so adjacent stripes land
        // on unrelated shards.
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        x ^= x >> 31;
    }
    return static_cast<std::uint32_t>(x % shardCount);
}

} // namespace tfm

#endif // TRACKFM_CLUSTER_PLACEMENT_HH
