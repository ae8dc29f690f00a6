/**
 * @file
 * Tests for the sharded remote tier (src/cluster): shard-map routing,
 * single-shard equivalence with the single-node backend, read-one/
 * write-all replication, failover, and re-replication after an
 * injected shard death.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cluster/remote_backend.hh"
#include "cluster/sharded_cluster.hh"
#include "runtime/far_mem_runtime.hh"
#include "sim/cost_params.hh"
#include "sim/cycle_clock.hh"

namespace tfm
{
namespace
{

constexpr std::uint32_t kObj = 4096;

void
expectSameNetStats(const NetStats &a, const NetStats &b)
{
    EXPECT_EQ(a.bytesFetched, b.bytesFetched);
    EXPECT_EQ(a.bytesWrittenBack, b.bytesWrittenBack);
    EXPECT_EQ(a.fetchMessages, b.fetchMessages);
    EXPECT_EQ(a.writebackMessages, b.writebackMessages);
    EXPECT_EQ(a.fetchPayloads, b.fetchPayloads);
    EXPECT_EQ(a.writebackPayloads, b.writebackPayloads);
    EXPECT_EQ(a.fetchBatches, b.fetchBatches);
    EXPECT_EQ(a.writebackBatches, b.writebackBatches);
    EXPECT_EQ(a.maxFetchBatch, b.maxFetchBatch);
    EXPECT_EQ(a.maxWritebackBatch, b.maxWritebackBatch);
}

/** Fill @p n bytes at @p seed with a recognizable per-offset pattern. */
void
fillPattern(std::vector<std::byte> &buf, std::uint64_t seed)
{
    for (std::size_t i = 0; i < buf.size(); i++)
        buf[i] = static_cast<std::byte>((seed + i) * 2654435761u >> 16);
}

TEST(ShardMap, StripedPlacementRoutesByStripe)
{
    CycleClock clock;
    const CostParams costs;
    ClusterConfig cfg;
    cfg.shardCount = 4;
    ShardedCluster cluster(clock, costs, 1 << 20, kObj, cfg);

    EXPECT_EQ(cluster.stripeBytes(), kObj);
    for (std::uint64_t obj = 0; obj < 16; obj++) {
        EXPECT_EQ(cluster.primaryShardOf(obj * kObj), obj % 4);
        // Every byte of the object routes like its first byte.
        EXPECT_EQ(cluster.primaryShardOf(obj * kObj + kObj - 1), obj % 4);
    }
}

TEST(ShardMap, ObjectExactlyOnStripeBoundary)
{
    // Two objects per stripe: the object starting exactly at a stripe
    // boundary belongs to the next stripe, not the previous one.
    CycleClock clock;
    const CostParams costs;
    ClusterConfig cfg;
    cfg.shardCount = 4;
    cfg.stripeBytes = 2 * kObj;
    ShardedCluster cluster(clock, costs, 1 << 20, kObj, cfg);

    EXPECT_EQ(cluster.primaryShardOf(0), 0u);
    EXPECT_EQ(cluster.primaryShardOf(2 * kObj - 1), 0u);
    EXPECT_EQ(cluster.primaryShardOf(2 * kObj), 1u);
    EXPECT_EQ(cluster.primaryShardOf(4 * kObj), 2u);
    EXPECT_EQ(cluster.primaryShardOf(8 * kObj), 0u); // wraps around
}

TEST(ShardMap, ReplicaSetIsRingSuccessors)
{
    CycleClock clock;
    const CostParams costs;
    ClusterConfig cfg;
    cfg.shardCount = 4;
    cfg.replicationFactor = 2;
    ShardedCluster cluster(clock, costs, 1 << 20, kObj, cfg);

    const auto set = cluster.replicasOf(3 * kObj); // primary shard 3
    ASSERT_EQ(set.count, 2u);
    EXPECT_EQ(set.shard[0], 3u);
    EXPECT_EQ(set.shard[1], 0u); // wraps around the ring
}

TEST(ShardMap, HashedPlacementCoversAllShards)
{
    CycleClock clock;
    const CostParams costs;
    ClusterConfig cfg;
    cfg.shardCount = 4;
    cfg.placement = PlacementKind::Hashed;
    ShardedCluster cluster(clock, costs, 1 << 20, kObj, cfg);

    std::vector<std::uint32_t> hits(4, 0);
    for (std::uint64_t obj = 0; obj < 256; obj++)
        hits[cluster.primaryShardOf(obj * kObj)]++;
    for (std::uint32_t s = 0; s < 4; s++)
        EXPECT_GT(hits[s], 0u) << "shard " << s << " never primary";
}

TEST(ShardMap, InvalidConfigsPanic)
{
    CycleClock clock;
    const CostParams costs;
    ClusterConfig repl;
    repl.shardCount = 2;
    repl.replicationFactor = 3;
    EXPECT_DEATH(ShardedCluster(clock, costs, 1 << 20, kObj, repl),
                 "replication factor");

    ClusterConfig stripe;
    stripe.shardCount = 2;
    stripe.stripeBytes = kObj + 512; // not a multiple of the object size
    EXPECT_DEATH(ShardedCluster(clock, costs, 1 << 20, kObj, stripe),
                 "multiple of the object");

    ClusterConfig plan;
    plan.shardCount = 2;
    plan.failures.killShard(7, 1000);
    EXPECT_DEATH(ShardedCluster(clock, costs, 1 << 20, kObj, plan),
                 "outside the cluster");
}

TEST(ClusterEquivalence, OneShardMatchesSingleNodeByteForByte)
{
    // The same operation sequence against the single-node backend and a
    // 1-shard/1-copy cluster must produce identical NetStats (every
    // field) and identical clocks: sharding is free when degenerate.
    const CostParams costs;
    const std::uint64_t cap = 1 << 20;

    const auto drive = [](RemoteBackend &b, CycleClock &clock,
                          NetStats &out) {
        std::vector<std::byte> init(8 * kObj);
        fillPattern(init, 17);
        b.rawWrite(0, init.data(), init.size());

        std::vector<std::byte> buf(kObj);
        b.fetch(0, buf.data(), kObj);
        const std::uint64_t a1 = b.fetchAsync(kObj, buf.data(), kObj);
        clock.advanceTo(a1);

        std::vector<std::byte> f2(kObj), f3(kObj), f4(kObj);
        std::vector<RemoteFetchSeg> segs{{2 * kObj, f2.data(), kObj},
                                         {3 * kObj, f3.data(), kObj},
                                         {4 * kObj, f4.data(), kObj}};
        std::vector<std::uint64_t> arrivals;
        clock.advanceTo(b.fetchBatchAsync(segs, &arrivals));

        b.writeback(5 * kObj, buf.data(), kObj);
        std::vector<RemoteWriteSeg> wsegs{{6 * kObj, f2.data(), kObj},
                                          {7 * kObj, f3.data(), kObj}};
        b.writebackBatch(wsegs);
        out = b.netStats();
    };

    CycleClock singleClock;
    SingleNodeBackend single(singleClock, costs, cap);
    NetStats singleStats;
    drive(single, singleClock, singleStats);

    CycleClock clusterClock;
    ClusterConfig cfg;
    cfg.forceCluster = true;
    ShardedCluster cluster(clusterClock, costs, cap, kObj, cfg);
    EXPECT_EQ(cluster.shardCount(), 1u);
    NetStats clusterStats;
    drive(cluster, clusterClock, clusterStats);

    expectSameNetStats(singleStats, clusterStats);
    EXPECT_EQ(singleClock.now(), clusterClock.now());
}

TEST(ClusterEquivalence, RuntimeWithForcedClusterMatchesDefault)
{
    // End-to-end: the full runtime (prefetcher, writeback coalescing,
    // eviction) over the forced 1-shard cluster reproduces the default
    // backend's NetStats and final clock exactly.
    const auto run = [](bool force, NetStats &net, std::uint64_t &cycles,
                        std::uint64_t &checksum) {
        RuntimeConfig cfg;
        cfg.farHeapBytes = 1 << 20;
        cfg.localMemBytes = 16 * kObj;
        cfg.objectSizeBytes = kObj;
        cfg.cluster.forceCluster = force;
        FarMemRuntime rt(cfg, CostParams{});
        const std::uint64_t base = rt.allocate(128 * kObj);
        for (std::uint64_t i = 0; i < 128; i++) {
            auto *p = rt.localize(base + i * kObj, true);
            std::memcpy(p, &i, sizeof(i));
        }
        checksum = 0;
        for (std::uint64_t i = 0; i < 128; i++) {
            std::uint64_t v = 0;
            std::memcpy(&v, rt.localize(base + i * kObj, false),
                        sizeof(v));
            checksum += v * (i + 1);
        }
        rt.flushWritebacks();
        net = rt.backend().netStats();
        cycles = rt.clock().now();
    };

    NetStats defNet, cluNet;
    std::uint64_t defCycles = 0, cluCycles = 0;
    std::uint64_t defSum = 0, cluSum = 0;
    run(false, defNet, defCycles, defSum);
    run(true, cluNet, cluCycles, cluSum);

    expectSameNetStats(defNet, cluNet);
    EXPECT_EQ(defCycles, cluCycles);
    EXPECT_EQ(defSum, cluSum);
}

TEST(ClusterReplication, WriteAllReadOne)
{
    CycleClock clock;
    const CostParams costs;
    ClusterConfig cfg;
    cfg.shardCount = 2;
    cfg.replicationFactor = 2;
    ShardedCluster cluster(clock, costs, 1 << 20, kObj, cfg);

    std::vector<std::byte> data(kObj);
    fillPattern(data, 42);
    cluster.writeback(0, data.data(), kObj);

    // Write-all: both shards absorbed the payload...
    std::vector<std::byte> check(kObj);
    for (std::uint32_t s = 0; s < 2; s++) {
        cluster.node(s).rawRead(0, check.data(), kObj);
        EXPECT_EQ(std::memcmp(check.data(), data.data(), kObj), 0)
            << "shard " << s << " missing the replica";
        EXPECT_EQ(cluster.shardNetStats(s).bytesWrittenBack, kObj);
    }

    // ...but read-one: a fetch touches only the primary's link.
    cluster.fetch(0, check.data(), kObj);
    EXPECT_EQ(std::memcmp(check.data(), data.data(), kObj), 0);
    EXPECT_EQ(cluster.shardNetStats(0).bytesFetched, kObj);
    EXPECT_EQ(cluster.shardNetStats(1).bytesFetched, 0u);
    EXPECT_EQ(cluster.clusterStats().degradedReads, 0u);
}

TEST(ClusterReplication, AggregateStatsSumShards)
{
    CycleClock clock;
    const CostParams costs;
    ClusterConfig cfg;
    cfg.shardCount = 4;
    ShardedCluster cluster(clock, costs, 1 << 20, kObj, cfg);

    std::vector<std::byte> buf(kObj);
    for (std::uint64_t obj = 0; obj < 8; obj++)
        cluster.fetch(obj * kObj, buf.data(), kObj);

    const NetStats total = cluster.netStats();
    EXPECT_EQ(total.bytesFetched, 8ull * kObj);
    EXPECT_EQ(total.fetchMessages, 8u);
    for (std::uint32_t s = 0; s < 4; s++)
        EXPECT_EQ(cluster.shardNetStats(s).bytesFetched, 2ull * kObj);
    EXPECT_EQ(cluster.remoteStats().fetchRequests, 8u);
}

TEST(ClusterReplication, SplitBatchKeepsPerShardCoalescing)
{
    // An 8-object host batch over 4 shards must become exactly one
    // 2-payload coalesced message per shard, not 8 singletons.
    CycleClock clock;
    const CostParams costs;
    ClusterConfig cfg;
    cfg.shardCount = 4;
    ShardedCluster cluster(clock, costs, 1 << 20, kObj, cfg);

    std::vector<std::byte> frames(8 * kObj);
    std::vector<RemoteFetchSeg> segs;
    for (std::uint64_t obj = 0; obj < 8; obj++)
        segs.push_back({obj * kObj, frames.data() + obj * kObj, kObj});
    std::vector<std::uint64_t> arrivals;
    clock.advanceTo(cluster.fetchBatchAsync(segs, &arrivals));
    ASSERT_EQ(arrivals.size(), segs.size());

    for (std::uint32_t s = 0; s < 4; s++) {
        EXPECT_EQ(cluster.shardNetStats(s).fetchMessages, 1u);
        EXPECT_EQ(cluster.shardNetStats(s).fetchPayloads, 2u);
    }
    EXPECT_DOUBLE_EQ(cluster.netStats().fetchCoalescing(), 2.0);
    EXPECT_EQ(cluster.clusterStats().splitFetchBatches, 1u);
}

TEST(ClusterFailover, ReadsRerouteToReplicaAndDataSurvives)
{
    CycleClock clock;
    const CostParams costs;
    ClusterConfig cfg;
    cfg.shardCount = 4;
    cfg.replicationFactor = 2;
    cfg.failures.killShard(1, 1); // dies at the first post-cycle-1 op
    ShardedCluster cluster(clock, costs, 1 << 20, kObj, cfg);

    std::vector<std::byte> data(kObj);
    fillPattern(data, 7);
    cluster.rawWrite(1 * kObj, data.data(), kObj); // primary: shard 1

    clock.advance(10);
    std::vector<std::byte> check(kObj);
    cluster.fetch(1 * kObj, check.data(), kObj);

    EXPECT_FALSE(cluster.shardAlive(1));
    EXPECT_EQ(cluster.clusterStats().shardFailures, 1u);
    EXPECT_GE(cluster.clusterStats().degradedReads, 1u);
    EXPECT_EQ(std::memcmp(check.data(), data.data(), kObj), 0);
    // The read was actually served by the ring successor's link.
    EXPECT_EQ(cluster.shardNetStats(1).bytesFetched, 0u);
    EXPECT_EQ(cluster.shardNetStats(2).bytesFetched, kObj);
}

TEST(ClusterFailover, DeathTriggersReReplicationOntoSurvivors)
{
    CycleClock clock;
    const CostParams costs;
    const std::uint64_t cap = 64 * kObj;
    ClusterConfig cfg;
    cfg.shardCount = 3;
    cfg.replicationFactor = 2;
    cfg.failures.killShard(0, 1);
    ShardedCluster cluster(clock, costs, cap, kObj, cfg);

    std::vector<std::byte> stripe(kObj);
    for (std::uint64_t obj = 0; obj < cap / kObj; obj++) {
        fillPattern(stripe, obj);
        cluster.rawWrite(obj * kObj, stripe.data(), kObj);
    }

    clock.advance(10);
    std::vector<std::byte> probe(kObj);
    cluster.fetch(0, probe.data(), kObj); // polls the failure plan

    EXPECT_FALSE(cluster.shardAlive(0));
    EXPECT_GT(cluster.clusterStats().reReplicatedStripes, 0u);
    EXPECT_EQ(cluster.clusterStats().reReplicatedBytes,
              cluster.clusterStats().reReplicatedStripes * kObj);

    // Every stripe is back to 2 live replicas and each holds the data.
    std::vector<std::byte> expect(kObj), got(kObj);
    for (std::uint64_t obj = 0; obj < cap / kObj; obj++) {
        const auto set = cluster.replicasOf(obj * kObj);
        ASSERT_EQ(set.count, 2u) << "object " << obj;
        fillPattern(expect, obj);
        for (std::uint32_t i = 0; i < set.count; i++) {
            EXPECT_NE(set.shard[i], 0u);
            cluster.node(set.shard[i]).rawRead(obj * kObj, got.data(),
                                               kObj);
            EXPECT_EQ(std::memcmp(got.data(), expect.data(), kObj), 0)
                << "object " << obj << " replica on shard "
                << set.shard[i];
        }
    }
}

TEST(ClusterFailover, MidWritebackFailureLeavesNoObjectUnreplicated)
{
    // Drive the full runtime with a failure injected mid-workload while
    // dirty objects cycle through the coalescing writeback buffer. At
    // the end, every object's latest bytes must sit on every live
    // replica of its stripe — nothing may be left single-copy or stale.
    RuntimeConfig cfg;
    cfg.farHeapBytes = 1 << 20;
    cfg.localMemBytes = 8 * kObj;
    cfg.objectSizeBytes = kObj;
    cfg.prefetchEnabled = false;
    cfg.cluster.shardCount = 4;
    cfg.cluster.replicationFactor = 2;
    cfg.cluster.failures.killShard(2, 2'000'000);
    FarMemRuntime rt(cfg, CostParams{});
    ASSERT_NE(dynamic_cast<ShardedCluster *>(&rt.backend()), nullptr);

    const std::uint64_t objects = 64;
    const std::uint64_t base = rt.allocate(objects * kObj);
    // Two dirtying passes so evictions interleave with the failure.
    for (std::uint64_t pass = 0; pass < 2; pass++) {
        for (std::uint64_t i = 0; i < objects; i++) {
            auto *p = rt.localize(base + i * kObj, true);
            const std::uint64_t v = pass * 1000003 + i;
            std::memcpy(p, &v, sizeof(v));
        }
    }
    rt.flushWritebacks();
    rt.evacuateAll();
    ASSERT_GT(rt.clock().now(), 2'000'000u) << "failure never fired";

    auto &cluster = static_cast<ShardedCluster &>(rt.backend());
    EXPECT_FALSE(cluster.shardAlive(2));
    EXPECT_EQ(cluster.clusterStats().shardFailures, 1u);

    for (std::uint64_t i = 0; i < objects; i++) {
        const std::uint64_t off = base + i * kObj;
        const std::uint64_t expect = 1 * 1000003 + i;
        const auto set = cluster.replicasOf(off);
        ASSERT_EQ(set.count, 2u) << "object " << i;
        for (std::uint32_t r = 0; r < set.count; r++) {
            std::uint64_t v = 0;
            cluster.node(set.shard[r])
                .rawRead(off, reinterpret_cast<std::byte *>(&v),
                         sizeof(v));
            EXPECT_EQ(v, expect) << "object " << i << " on shard "
                                 << set.shard[r];
        }
    }
}

TEST(ClusterFailover, UnreplicatedStripeLossIsLoud)
{
    // replication factor 1: losing a shard loses data, and reading it
    // must panic instead of returning the newcomer's zero-filled store.
    CycleClock clock;
    const CostParams costs;
    ClusterConfig cfg;
    cfg.shardCount = 2;
    cfg.failures.killShard(0, 1);
    ShardedCluster cluster(clock, costs, 1 << 20, kObj, cfg);

    std::vector<std::byte> data(kObj);
    fillPattern(data, 3);
    cluster.rawWrite(0, data.data(), kObj); // stripe 0: only on shard 0

    clock.advance(10);
    std::vector<std::byte> buf(kObj);
    // Stripe 1 lives on the surviving shard and still reads fine...
    cluster.fetch(1 * kObj, buf.data(), kObj);
    EXPECT_FALSE(cluster.shardAlive(0));
    // ...but stripe 0 died with shard 0.
    EXPECT_DEATH(cluster.fetch(0, buf.data(), kObj), "lost");
    // A charge-only write carries no bytes, so it cannot re-home it.
    EXPECT_DEATH(cluster.writeback(0, nullptr, kObj), "lost");

    // A full overwrite re-homes the stripe on the survivors.
    cluster.writeback(0, data.data(), kObj);
    cluster.fetch(0, buf.data(), kObj);
    EXPECT_EQ(std::memcmp(buf.data(), data.data(), kObj), 0);
}

TEST(ClusterKnobs, PerShardBandwidthOverrideSlowsTransfers)
{
    const CostParams costs;
    const auto fetchCycles = [&](double bw) {
        CycleClock clock;
        ClusterConfig cfg;
        cfg.shardCount = 2;
        cfg.shardBytesPerCycle = bw;
        ShardedCluster cluster(clock, costs, 1 << 20, kObj, cfg);
        std::vector<std::byte> buf(kObj);
        cluster.fetch(0, buf.data(), kObj);
        return clock.now();
    };
    EXPECT_GT(fetchCycles(costs.netBytesPerCycle / 4),
              fetchCycles(costs.netBytesPerCycle));
}

/**
 * rawSpan is the single-node store itself: reading the span reads what
 * rawRead reads, and writing through it is what rawRead sees next.
 */
TEST(RawSpan, SingleNodeSpanIsTheStore)
{
    const CostParams costs;
    CycleClock clock;
    SingleNodeBackend backend(clock, costs, 8 * kObj);
    std::vector<std::byte> init(8 * kObj);
    fillPattern(init, 5);
    backend.rawWrite(0, init.data(), init.size());

    std::byte *span = backend.rawSpan(3 * kObj + 16, kObj);
    ASSERT_NE(span, nullptr);
    std::vector<std::byte> viaRead(kObj);
    backend.rawRead(3 * kObj + 16, viaRead.data(), kObj);
    EXPECT_EQ(std::memcmp(span, viaRead.data(), kObj), 0);

    span[0] = std::byte{0x5a};
    backend.rawRead(3 * kObj + 16, viaRead.data(), 1);
    EXPECT_EQ(viaRead[0], std::byte{0x5a});
    EXPECT_EQ(clock.now(), 0u);
    EXPECT_EQ(backend.netStats().totalMessages(), 0u);
}

TEST(RawSpan, SingleNodeSpanOutOfRangePanics)
{
    const CostParams costs;
    CycleClock clock;
    SingleNodeBackend backend(clock, costs, 8 * kObj);
    EXPECT_DEATH(backend.rawSpan(8 * kObj - 4, 8), "range");
}

/** A striped tier keeps no contiguous copy, so it offers no span. */
TEST(RawSpan, ShardedClusterHasNone)
{
    const CostParams costs;
    CycleClock clock;
    ClusterConfig cfg;
    cfg.shardCount = 2;
    ShardedCluster cluster(clock, costs, 8 * kObj, kObj, cfg);
    EXPECT_EQ(cluster.rawSpan(0, kObj), nullptr);
}

} // anonymous namespace
} // namespace tfm
