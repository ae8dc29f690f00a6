/**
 * @file
 * ShardedCluster: the far heap striped over N remote memory nodes,
 * each behind its own independent NetworkModel link, with k-way
 * replication and injectable shard failure.
 *
 * Topology. The heap is cut into fixed-size stripes (a multiple of the
 * runtime object size, one object per stripe by default). A placement
 * policy maps each stripe to a primary shard; the stripe's k replicas
 * are the first k *live* shards on the ring starting at the primary.
 * Before any failure that is simply {primary, primary+1, ...,
 * primary+k-1} mod N — static striping — and after a failure the rule
 * is itself the failover protocol: the dead shard drops out of every
 * replica set it belonged to and the next live shard on the ring takes
 * its place.
 *
 * Consistency. Reads are served by the first live replica
 * (read-one); writebacks go to every live replica in one message per
 * shard (write-all). Multi-object messages from the batched data plane
 * are split by shard and re-coalesced, so per-shard coalescing — the
 * whole point of PR 1 — survives sharding.
 *
 * Failure. A FailurePlan kills links at given cycles; failures are
 * noticed at the next backend operation. On death the cluster eagerly
 * re-replicates: every stripe that lost a copy is copied from a
 * surviving replica onto its ring-successor, charged as bulk transfer
 * on the two links involved. After recovery every stripe is back to
 * min(k, live shards) copies, which is what makes "failover
 * mid-writeback leaves nothing unreplicated" hold.
 */

#ifndef TRACKFM_CLUSTER_SHARDED_CLUSTER_HH
#define TRACKFM_CLUSTER_SHARDED_CLUSTER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/remote_backend.hh"
#include "sim/cost_params.hh"

namespace tfm
{

/** The sharded, replicated, failure-injectable remote tier. */
class ShardedCluster final : public RemoteBackend
{
  public:
    /// Sanity bound: a rack of memory nodes, not a datacenter.
    static constexpr std::uint32_t maxShards = 64;
    /// Replica sets are small; bound them so routing never allocates.
    static constexpr std::uint32_t maxReplicas = 8;

    /** The (up to k) shards holding one stripe, in read-preference order. */
    struct ReplicaSet
    {
        std::array<std::uint32_t, maxReplicas> shard{};
        std::uint32_t count = 0;

        bool
        contains(std::uint32_t s) const
        {
            for (std::uint32_t i = 0; i < count; i++)
                if (shard[i] == s)
                    return true;
            return false;
        }

        bool operator==(const ReplicaSet &) const = default;
    };

    ShardedCluster(CycleClock &clock, const CostParams &costs,
                   std::uint64_t capacityBytes,
                   std::uint32_t objectSizeBytes,
                   const ClusterConfig &config);

    /** @name RemoteBackend interface
     * @{ */
    void fetch(std::uint64_t offset, std::byte *dst,
               std::size_t len) override;
    std::uint64_t fetchBatchAsync(std::span<const RemoteFetchSeg> segs,
                                  std::span<std::uint64_t> arrivals) override;
    void writebackBatch(std::span<const RemoteWriteSeg> segs) override;
    void rawWrite(std::uint64_t offset, const std::byte *src,
                  std::size_t len) override;
    void rawRead(std::uint64_t offset, std::byte *dst,
                 std::size_t len) const override;
    /**
     * The store of the one shard holding [offset, offset + len) when
     * nothing can move or copy those bytes: replication 1, every
     * stripe of the range on that live shard, none of them lost, and
     * no scheduled failure still pending. nullptr otherwise.
     */
    std::byte *rawSpan(std::uint64_t offset, std::size_t len) override;
    NetStats netStats() const override;
    std::uint32_t
    shardCount() const override
    {
        return static_cast<std::uint32_t>(shards_.size());
    }
    NetworkModel &link(std::uint32_t shard) override;
    RemoteNode &node(std::uint32_t shard) override;
    void attachObs(Observability *sink, std::uint32_t stream) override;
    void exportStats(StatSet &set) const override;
    NetStats shardNetStats(std::uint32_t shard) const override;
    ClusterStats clusterStats() const override { return cstats_; }
    /** @} */

    /** @name Cluster-specific surface (tests, benches)
     * @{ */
    /**
     * Attach a flight recorder: every link then logs its message
     * scheduling, and the cluster its failures and re-replication, as
     * context events on @p instance's streams (makeRemoteBackend).
     */
    void attachRecorder(FlightRecorder *recorder, std::uint16_t instance);
    /** Aggregate remote-node statistics (sum over shards). */
    RemoteStats remoteStats() const;
    std::uint32_t replicationFactor() const { return repl_; }
    std::uint64_t stripeBytes() const { return stripeBytes_; }
    bool shardAlive(std::uint32_t shard) const;
    const RemoteStats &shardRemoteStats(std::uint32_t shard) const;
    /** Primary shard of the stripe containing @p offset (dead or not). */
    std::uint32_t primaryShardOf(std::uint64_t offset) const;
    /** Live replica set of the stripe containing @p offset. */
    ReplicaSet replicasOf(std::uint64_t offset) const;
    /** @} */

  private:
    /** One remote node behind its own link (own CostParams copy so the
     *  per-shard bandwidth knob can diverge from the host's). */
    struct Shard
    {
        Shard(CycleClock &clock, const CostParams &shard_costs,
              std::uint64_t capacity)
            : costs(shard_costs), net(clock, costs), node(capacity)
        {}

        CostParams costs;
        NetworkModel net;
        RemoteNode node;
        bool alive = true;
    };

    std::uint64_t stripeOf(std::uint64_t offset) const;
    /**
     * Trace track base of @p shard's link: a lone shard renders on the
     * runtime's own net-in/net-out/remote tracks, each shard of a
     * larger tier on its own triple.
     */
    std::uint32_t trackBase(std::uint32_t shard) const;
    /** First @p repl_ live shards on the ring from the primary. */
    ReplicaSet liveReplicas(std::uint64_t stripe) const;
    /**
     * The stripe of a segment's first byte. A segment may run on over
     * the following stripes while they have the same live replicas (a
     * page on a 1-shard tier); panics when it crosses onto another set.
     */
    std::uint64_t segmentStripe(std::uint64_t offset, std::size_t len) const;
    /** Did @p stripe die with its last replica? */
    bool
    lost(std::uint64_t stripe) const
    {
        return stripe < lost_.size() && lost_[stripe];
    }
    /**
     * End of the run of consecutive stripes from @p at's (capped at
     * @p end) whose live replicas are @p set, those of @p at's stripe:
     * the raw paths make one node call per run.
     */
    std::uint64_t runEnd(std::uint64_t at, std::uint64_t end,
                         const ReplicaSet &set) const;
    /** Recompute soleNode_ (construction, shard death). */
    void updateSoleNode();
    /** Is any stripe of [offset, end) lost? */
    bool anyLost(std::uint64_t offset, std::uint64_t end) const;
    /**
     * The shard serving reads of the segment [offset, offset + len);
     * panics when one of its stripes is lost or no replica is left.
     */
    std::uint32_t readShard(std::uint64_t offset, std::size_t len);
    /** Apply any failure whose cycle has been reached. */
    void pollFailures();
    /** Kill @p dead and re-replicate every stripe it held. */
    void onShardDeath(std::uint32_t dead);
    /**
     * Route one writeback segment: check it, count a degraded write,
     * mark a lost stripe it re-covers written, and return the replicas
     * it goes to. Panics on a charge-only segment of a lost stripe.
     */
    ReplicaSet writeReplicas(const RemoteWriteSeg &seg);
    /** Clear the lost flag of every lost stripe [offset, end) covers. */
    void markWritten(std::uint64_t offset, std::uint64_t end);

    CycleClock &clock_;
    std::uint64_t capacity_;
    std::uint64_t stripeBytes_;
    std::uint32_t repl_;
    PlacementKind placement_;
    std::vector<std::unique_ptr<Shard>> shards_;
    /// The store of the one live shard while no stripe is lost: it
    /// holds every stripe, so a raw access of any range is one call.
    RemoteNode *soleNode_ = nullptr;
    std::vector<ShardFailure> pending_; ///< sorted by cycle, ascending
    std::size_t nextFailure_ = 0;
    /// Stripes whose last replica died (k == 1 failures); sized lazily
    /// at the first death. Reading one is a loud error.
    std::vector<bool> lost_;
    ClusterStats cstats_;
    Observability *obs_ = nullptr;
    std::uint32_t obsStream_ = 0;
    FlightRecorder *rec_ = nullptr;
    std::uint16_t recInstance_ = 0;
};

} // namespace tfm

#endif // TRACKFM_CLUSTER_SHARDED_CLUSTER_HH
