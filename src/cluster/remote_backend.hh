/**
 * @file
 * The remote-tier backend abstraction.
 *
 * FarMemRuntime talks to its remote memory exclusively through this
 * interface. The tier it drives is always a ShardedCluster
 * (sharded_cluster.hh): the far heap striped over N remote nodes, each
 * behind its own NetworkModel link, with k-way replication and
 * injectable failures. The paper's single remote server is the cluster
 * of one shard and one copy, which charges exactly what one RemoteNode
 * behind one link does. The replay decorators (obs/replay.hh) wrap or
 * replace it. The data plane flows through the same three operations
 * everywhere: the blocking fetch, and the async fetch and writeback,
 * whose messages carry one or more segments.
 */

#ifndef TRACKFM_CLUSTER_REMOTE_BACKEND_HH
#define TRACKFM_CLUSTER_REMOTE_BACKEND_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "cluster/failure_plan.hh"
#include "cluster/placement.hh"
#include "net/network_model.hh"
#include "remote/remote_node.hh"

namespace tfm
{

class CycleClock;
class FlightRecorder;
class Observability;
class StatSet;
struct CostParams;

/** Remote-tier topology knobs (part of RuntimeConfig). */
struct ClusterConfig
{
    /// Remote memory nodes the far heap is striped over. 1 is the
    /// paper's single remote server.
    std::uint32_t shardCount = 1;
    /// Copies of every stripe (read-one/write-all). 1 disables
    /// replication; must not exceed shardCount.
    std::uint32_t replicationFactor = 1;
    /// Striping granularity in bytes; must be a multiple of the object
    /// size. 0 means one stripe per object.
    std::uint64_t stripeBytes = 0;
    /// How stripes map to primary shards.
    PlacementKind placement = PlacementKind::Striped;
    /// Per-shard link bandwidth override (bytes/cycle). 0 gives every
    /// shard the full CostParams::netBytesPerCycle link, so aggregate
    /// bandwidth scales with shardCount; set it to model a shared
    /// bisection instead.
    double shardBytesPerCycle = 0.0;
    /// Scheduled shard deaths (see failure_plan.hh).
    FailurePlan failures;
};

/** Cluster-level event counters (beyond per-shard Net/RemoteStats). */
struct ClusterStats
{
    std::uint64_t shardFailures = 0;     ///< links killed by the plan
    std::uint64_t degradedReads = 0;     ///< served by a non-primary replica
    std::uint64_t degradedWrites = 0;    ///< reached fewer than k replicas
    std::uint64_t reReplicatedStripes = 0;
    std::uint64_t reReplicatedBytes = 0;
    std::uint64_t splitFetchBatches = 0; ///< host batches split over shards
    std::uint64_t splitWritebackBatches = 0;
};

/**
 * What FarMemRuntime needs from any remote tier. All offsets are
 * far-heap byte offsets; cycle accounting happens inside (each
 * implementation drives its own NetworkModel links).
 */
class RemoteBackend
{
  public:
    virtual ~RemoteBackend() = default;

    /**
     * Blocking demand fetch (full round trip, clock advances).
     *
     * A null @p dst makes the fetch charge-only: the link is charged,
     * the message and its bytes are counted, and a recorder records it
     * (a replay replays it) exactly as with a buffer, but no host byte
     * is copied. The paging plane fetches this way, because its callers
     * read the far heap in place.
     */
    virtual void fetch(std::uint64_t offset, std::byte *dst,
                       std::size_t len) = 0;

    /**
     * Async fetch of every segment of @p segs: one message per remote
     * node touched. @p arrivals, sized like @p segs, gets each
     * segment's arrival cycle. A segment with a null dst is
     * charge-only, as in fetch(). Batching off is a one-segment call.
     * @return arrival of the last payload.
     */
    virtual std::uint64_t
    fetchBatchAsync(std::span<const RemoteFetchSeg> segs,
                    std::span<std::uint64_t> arrivals) = 0;

    /**
     * Writeback of every segment of @p segs (evacuation): one message
     * per remote node touched.
     *
     * A segment with a null src is charge-only, as in fetch(): the
     * transfer is charged, counted and recorded, and every store keeps
     * its bytes. It is for data the far heap already holds, such as a
     * page the paging plane writes back after its callers wrote it in
     * place. It writes no replica, so it never re-homes a stripe lost
     * with its last replica; a cluster dies on such a stripe instead.
     */
    virtual void writebackBatch(std::span<const RemoteWriteSeg> segs) = 0;

    /** @name Initialization / verification (no cycle accounting)
     * @{ */
    virtual void rawWrite(std::uint64_t offset, const std::byte *src,
                          std::size_t len) = 0;
    virtual void rawRead(std::uint64_t offset, std::byte *dst,
                         std::size_t len) const = 0;
    /**
     * Host address of far-heap bytes [offset, offset + len) when one
     * store holds them contiguously as their only copy, and keeps them
     * so, so a caller may read and write them in place exactly as
     * rawRead/rawWrite would. nullptr when there is no such span.
     */
    virtual std::byte *rawSpan(std::uint64_t offset, std::size_t len) = 0;
    /** @} */

    /** Aggregate link statistics (sum over shards). */
    virtual NetStats netStats() const = 0;

    /**
     * One shard's link statistics. Benches use this — not a downcast —
     * so decorating backends (recording) and substituted ones (replay)
     * answer per-shard questions too.
     */
    virtual NetStats shardNetStats(std::uint32_t shard) const = 0;

    /** Cluster health counters. */
    virtual ClusterStats clusterStats() const = 0;

    virtual std::uint32_t shardCount() const = 0;
    /** The link of @p shard (a 1-shard tier's only link is shard 0's). */
    virtual NetworkModel &link(std::uint32_t shard = 0) = 0;
    /** The store of @p shard. */
    virtual RemoteNode &node(std::uint32_t shard = 0) = 0;

    /** Attach the runtime's trace sink to every link. */
    virtual void attachObs(Observability *sink, std::uint32_t stream) = 0;

    /** Backend-specific counters ("cluster.*"); default exports none. */
    virtual void exportStats(StatSet &set) const;
};

/**
 * Build the remote tier @p config describes: a ShardedCluster.
 *
 * @param objectSizeBytes the runtime's object size; stripe granularity
 *        defaults to it and must stay a multiple of it, so no coalesced
 *        segment ever straddles a shard boundary.
 * @param recorder when non-null, every link logs its message
 *        scheduling (and a cluster its failures and re-replication) as
 *        context events on @p instance's streams, and the tier comes
 *        back wrapped in a RecordingBackend that logs each operation.
 */
std::unique_ptr<RemoteBackend>
makeRemoteBackend(CycleClock &clock, const CostParams &costs,
                  std::uint64_t capacityBytes, std::uint32_t objectSizeBytes,
                  const ClusterConfig &config, FlightRecorder *recorder,
                  std::uint16_t instance);

} // namespace tfm

#endif // TRACKFM_CLUSTER_REMOTE_BACKEND_HH
