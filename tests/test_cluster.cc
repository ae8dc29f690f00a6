/**
 * @file
 * Tests for the sharded remote tier (src/cluster): shard-map routing,
 * the 1-shard tier's charges pinned to the single remote server's,
 * read-one/write-all replication, failover, re-replication after an
 * injected shard death, and where the tier lends host spans.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/remote_backend.hh"
#include "cluster/sharded_cluster.hh"
#include "runtime/far_mem_runtime.hh"
#include "sim/cost_params.hh"
#include "sim/cycle_clock.hh"
#include "sim/stats.hh"

namespace tfm
{
namespace
{

constexpr std::uint32_t kObj = 4096;

/// NetStats as pinned below: bytesFetched, bytesWrittenBack,
/// fetchMessages, writebackMessages, fetchPayloads, writebackPayloads,
/// fetchBatches, writebackBatches, maxFetchBatch, maxWritebackBatch.
void
expectNetStats(const NetStats &n, const std::uint64_t (&pinned)[10])
{
    const std::uint64_t got[10] = {
        n.bytesFetched,      n.bytesWrittenBack, n.fetchMessages,
        n.writebackMessages, n.fetchPayloads,    n.writebackPayloads,
        n.fetchBatches,      n.writebackBatches, n.maxFetchBatch,
        n.maxWritebackBatch};
    for (int f = 0; f < 10; f++)
        EXPECT_EQ(got[f], pinned[f]) << "NetStats field " << f;
}

/** The default remote tier: one shard, one copy, no failure plan. */
std::unique_ptr<RemoteBackend>
defaultTier(CycleClock &clock, const CostParams &costs,
            std::uint64_t capacity)
{
    return makeRemoteBackend(clock, costs, capacity, kObj, ClusterConfig{},
                             nullptr, 0);
}

/** Fill @p n bytes at @p seed with a recognizable per-offset pattern. */
void
fillPattern(std::vector<std::byte> &buf, std::uint64_t seed)
{
    for (std::size_t i = 0; i < buf.size(); i++)
        buf[i] = static_cast<std::byte>((seed + i) * 2654435761u >> 16);
}

/** A one-segment async fetch; returns the arrival. */
std::uint64_t
fetchOne(RemoteBackend &b, std::uint64_t offset, std::byte *dst,
         std::size_t len)
{
    const RemoteFetchSeg seg{offset, dst, len};
    std::uint64_t arrival = 0;
    b.fetchBatchAsync({&seg, 1}, {&arrival, 1});
    return arrival;
}

/** A one-segment writeback. */
void
writeOne(RemoteBackend &b, std::uint64_t offset, const std::byte *src,
         std::size_t len)
{
    const RemoteWriteSeg seg{offset, src, len};
    b.writebackBatch({&seg, 1});
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

TEST(ShardMap, SegmentRunsOverStripesWithTheSameReplicas)
{
    // 64 B stripes under a 4 KB page. One shard holds every stripe, so
    // the page is one message; on two shards it would straddle a shard.
    CycleClock clock;
    const CostParams costs;
    std::vector<std::byte> page(4096);
    ShardedCluster one(clock, costs, 1 << 20, 64, ClusterConfig{});
    one.fetch(0, page.data(), page.size());
    writeOne(one, 4096, page.data(), page.size());
    expectNetStats(one.netStats(), {4096, 4096, 1, 1, 1, 1, 0, 0, 1, 1});

    ClusterConfig two;
    two.shardCount = 2;
    ShardedCluster split(clock, costs, 1 << 20, 64, two);
    EXPECT_DEATH(split.fetch(0, page.data(), 128),
                 "straddles a shard boundary");

    // After shard 0 dies the survivor holds every stripe, but a segment
    // over a lost one still panics until a write covers it whole.
    ClusterConfig dies = two;
    dies.failures.killShard(0, 1);
    ShardedCluster survivor(clock, costs, 1 << 20, 64, dies);
    clock.advance(10);
    survivor.fetch(64, page.data(), 64); // notices the death
    ASSERT_FALSE(survivor.shardAlive(0));
    EXPECT_DEATH(survivor.fetch(64, page.data(), 192), "lost");
    EXPECT_DEATH(writeOne(survivor, 64, nullptr, 192), "lost");
    fillPattern(page, 5);
    writeOne(survivor, 0, page.data(), 256);
    std::vector<std::byte> back(256);
    survivor.fetch(0, back.data(), back.size());
    EXPECT_EQ(std::memcmp(back.data(), page.data(), back.size()), 0);
}

TEST(ClusterKnobs, OnlyAMultiShardTierExportsClusterStats)
{
    // The 1-shard tier's stats are the single link's, as a replay's are.
    CycleClock clock;
    const CostParams costs;
    StatSet single;
    defaultTier(clock, costs, 1 << 20)->exportStats(single);
    EXPECT_TRUE(single.all().empty());

    ClusterConfig two;
    two.shardCount = 2;
    StatSet pair;
    makeRemoteBackend(clock, costs, 1 << 20, kObj, two, nullptr, 0)
        ->exportStats(pair);
    ASSERT_NE(pair.find("cluster.shards"), nullptr);
    EXPECT_EQ(pair.get("cluster.shards"), 2u);
    EXPECT_EQ(pair.get("cluster.shard1.alive"), 1u);
}

TEST(ClusterEquivalence, OneShardMatchesSingleNodeByteForByte)
{
    // The paper's single remote server is the 1-shard/1-copy tier. The
    // pinned NetStats (every field) and clock are what one RemoteNode
    // behind one link charged for this sequence before the tier was
    // always a cluster: sharding is free when degenerate.
    const CostParams costs;
    CycleClock clock;
    std::unique_ptr<RemoteBackend> tier = defaultTier(clock, costs, 1 << 20);
    RemoteBackend &b = *tier;
    EXPECT_EQ(b.shardCount(), 1u);

    std::vector<std::byte> init(8 * kObj);
    fillPattern(init, 17);
    b.rawWrite(0, init.data(), init.size());

    std::vector<std::byte> buf(kObj);
    b.fetch(0, buf.data(), kObj);
    const std::uint64_t a1 = fetchOne(b, kObj, buf.data(), kObj);
    EXPECT_EQ(a1, 62982u);
    clock.advanceTo(a1);

    std::vector<std::byte> f2(kObj), f3(kObj), f4(kObj);
    std::vector<RemoteFetchSeg> segs{{2 * kObj, f2.data(), kObj},
                                     {3 * kObj, f3.data(), kObj},
                                     {4 * kObj, f4.data(), kObj}};
    std::vector<std::uint64_t> arrivals(segs.size());
    clock.advanceTo(b.fetchBatchAsync(segs, arrivals));
    EXPECT_EQ(arrivals, (std::vector<std::uint64_t>{94293, 97444, 100595}));

    writeOne(b, 5 * kObj, buf.data(), kObj);
    std::vector<RemoteWriteSeg> wsegs{{6 * kObj, f2.data(), kObj},
                                      {7 * kObj, f3.data(), kObj}};
    b.writebackBatch(wsegs);

    expectNetStats(b.netStats(), {20480, 12288, 3, 2, 5, 3, 1, 1, 3, 2});
    EXPECT_EQ(clock.now(), 101835u);
    std::vector<std::byte> back(8 * kObj);
    b.rawRead(0, back.data(), back.size());
    EXPECT_EQ(std::memcmp(back.data(), init.data(), 5 * kObj), 0);
    EXPECT_EQ(std::memcmp(back.data() + 6 * kObj, f2.data(), kObj), 0);
}

TEST(ClusterEquivalence, RuntimeWithForcedClusterMatchesDefault)
{
    // End-to-end: the full runtime (prefetcher, writeback coalescing,
    // eviction) over its default tier, the 1-shard cluster, reproduces
    // the NetStats, final clock and checksum the single remote server
    // gave before the tier was always a cluster.
    RuntimeConfig cfg;
    cfg.farHeapBytes = 1 << 20;
    cfg.localMemBytes = 16 * kObj;
    cfg.objectSizeBytes = kObj;
    FarMemRuntime rt(cfg, CostParams{});
    EXPECT_EQ(rt.backend().shardCount(), 1u);
    const std::uint64_t base = rt.allocate(128 * kObj);
    for (std::uint64_t i = 0; i < 128; i++) {
        auto *p = rt.localize(base + i * kObj, true);
        std::memcpy(p, &i, sizeof(i));
    }
    std::uint64_t checksum = 0;
    for (std::uint64_t i = 0; i < 128; i++) {
        std::uint64_t v = 0;
        std::memcpy(&v, rt.localize(base + i * kObj, false), sizeof(v));
        checksum += v * (i + 1);
    }
    rt.flushWritebacks();

    expectNetStats(rt.backend().netStats(),
                   {1048576, 524288, 96, 16, 256, 128, 24, 16, 8, 8});
    EXPECT_EQ(rt.clock().now(), 3893976u);
    EXPECT_EQ(checksum, 699008u);
    EXPECT_EQ(rt.heapChecksum(), 7462023396937499523ull);
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
    writeOne(cluster, 0, data.data(), kObj);

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
    std::vector<std::uint64_t> arrivals(segs.size());
    clock.advanceTo(cluster.fetchBatchAsync(segs, arrivals));

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
    EXPECT_DEATH(writeOne(cluster, 0, nullptr, kObj), "lost");

    // A full overwrite re-homes the stripe on the survivors.
    writeOne(cluster, 0, data.data(), kObj);
    cluster.fetch(0, buf.data(), kObj);
    EXPECT_EQ(std::memcmp(buf.data(), data.data(), kObj), 0);
}

TEST(ClusterFailover, RawWriteReHomesOnlyWholeLostStripes)
{
    // Shard 0's death loses stripes 0, 2, 4, ...; the survivor holds
    // every stripe now, so one raw write covers stripes 0-2 in one run.
    // It re-homes the stripes it covers whole and no other.
    CycleClock clock;
    const CostParams costs;
    ClusterConfig cfg;
    cfg.shardCount = 2;
    cfg.failures.killShard(0, 1);
    ShardedCluster cluster(clock, costs, 1 << 20, kObj, cfg);
    clock.advance(10);
    std::vector<std::byte> buf(3 * kObj);
    cluster.fetch(1 * kObj, buf.data(), kObj); // notices the death
    ASSERT_FALSE(cluster.shardAlive(0));

    fillPattern(buf, 4);
    cluster.rawWrite(0, buf.data(), 2 * kObj + 64);
    std::vector<std::byte> back(2 * kObj);
    cluster.rawRead(0, back.data(), back.size());
    EXPECT_EQ(std::memcmp(back.data(), buf.data(), back.size()), 0);
    EXPECT_NE(cluster.rawSpan(0, kObj), nullptr);
    EXPECT_EQ(cluster.rawSpan(2 * kObj, 64), nullptr);
    EXPECT_DEATH(cluster.rawRead(2 * kObj, back.data(), 64), "lost");
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
 * rawSpan of the default tier is its one store: reading the span reads
 * what rawRead reads, and writing through it is what rawRead sees next.
 */
TEST(RawSpan, SingleNodeSpanIsTheStore)
{
    const CostParams costs;
    CycleClock clock;
    std::unique_ptr<RemoteBackend> tier = defaultTier(clock, costs, 8 * kObj);
    RemoteBackend &backend = *tier;
    std::vector<std::byte> init(8 * kObj);
    fillPattern(init, 5);
    backend.rawWrite(0, init.data(), init.size());

    std::byte *span = backend.rawSpan(3 * kObj + 16, kObj);
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span, backend.node(0).span(3 * kObj + 16, kObj));
    std::vector<std::byte> viaRead(kObj);
    backend.rawRead(3 * kObj + 16, viaRead.data(), kObj);
    EXPECT_EQ(std::memcmp(span, viaRead.data(), kObj), 0);

    span[0] = std::byte{0x5a};
    backend.rawRead(3 * kObj + 16, viaRead.data(), 1);
    EXPECT_EQ(viaRead[0], std::byte{0x5a});
    // One shard holds every stripe, so the whole heap is one span.
    EXPECT_NE(backend.rawSpan(0, 8 * kObj), nullptr);
    EXPECT_EQ(clock.now(), 0u);
    EXPECT_EQ(backend.netStats().totalMessages(), 0u);
}

TEST(RawSpan, SingleNodeSpanOutOfRangePanics)
{
    const CostParams costs;
    CycleClock clock;
    std::unique_ptr<RemoteBackend> tier = defaultTier(clock, costs, 8 * kObj);
    EXPECT_DEATH(tier->rawSpan(8 * kObj - 4, 8), "range");
}

/**
 * A cluster lends a span only where one live store holds the only copy
 * and nothing scheduled can move it: inside one stripe of a 2-shard
 * k=1 tier, but not across shards, not on a replicated tier, not over
 * a lost stripe and not while a failure is pending.
 */
TEST(RawSpan, ClusterSpanNeedsOneLiveUnreplicatedShard)
{
    const CostParams costs;
    ClusterConfig cfg;
    cfg.shardCount = 2;
    {
        CycleClock clock;
        ShardedCluster cluster(clock, costs, 8 * kObj, kObj, cfg);
        EXPECT_EQ(cluster.rawSpan(kObj + 8, 64),
                  cluster.node(1).span(kObj + 8, 64));
        EXPECT_EQ(cluster.rawSpan(0, kObj), cluster.node(0).span(0, kObj));
        EXPECT_EQ(cluster.rawSpan(kObj - 8, 16), nullptr); // two shards
    }
    {
        ClusterConfig repl = cfg;
        repl.replicationFactor = 2;
        CycleClock clock;
        ShardedCluster cluster(clock, costs, 8 * kObj, kObj, repl);
        EXPECT_EQ(cluster.rawSpan(0, 64), nullptr);
    }
    {
        ClusterConfig plan = cfg;
        plan.failures.killShard(0, 1000);
        CycleClock clock;
        ShardedCluster cluster(clock, costs, 8 * kObj, kObj, plan);
        EXPECT_EQ(cluster.rawSpan(kObj, 64), nullptr); // pending failure
        clock.advance(2000);
        std::vector<std::byte> buf(kObj);
        fetchOne(cluster, kObj, buf.data(), kObj); // notices the death
        ASSERT_FALSE(cluster.shardAlive(0));
        EXPECT_EQ(cluster.rawSpan(0, 64), nullptr); // lost stripe 0
        EXPECT_EQ(cluster.rawSpan(kObj, 64),
                  cluster.node(1).span(kObj, 64));
    }
}

// ---------------------------------------------------------------------
// One message shape: batching off is a one-segment batch. The cells
// below were produced by the single-payload async fetch and writeback
// calls that one-segment batches replaced; every clock, counter, link
// reservation and arrival must stay as it was.
// ---------------------------------------------------------------------

/** Expected outcome of two one-segment operations on a fresh tier. */
struct OneSegCell
{
    /// "single" (the default tier: 1 shard, 1 copy), or "cluster"
    /// (2 shards, 2 copies)
    const char *backend;
    const char *op;      ///< "fetch" or "writeback"
    const char *kind;    ///< "64B", "4KB" or "charge-only" (4 KB)
    std::uint64_t clock;
    std::uint64_t arrival[2];
    /// bytesFetched, bytesWrittenBack, fetchMessages, writebackMessages,
    /// fetchPayloads, writebackPayloads, fetchBatches, writebackBatches,
    /// maxFetchBatch, maxWritebackBatch
    std::uint64_t net[10];
    /// fetchRequests, writebackRequests, fetchPayloads, writebackPayloads
    std::uint64_t remote[4];
    /// inboundFreeAt, outboundFreeAt of link 0, then of link 1 (0 on a
    /// 1-shard tier, which has no link 1)
    std::uint64_t links[4];
    /// splitFetchBatches, splitWritebackBatches, degradedReads,
    /// degradedWrites
    std::uint64_t cluster[4];
};

constexpr OneSegCell kOneSegCells[] = {
    {"single", "fetch", "64B", 160, {28130, 28210}, {128,0,2,0,2,0,0,0,1,0}, {2,0,2,0}, {28210, 0, 0, 0}, {0, 0, 0, 0}},
    {"single", "fetch", "4KB", 160, {31231, 34382}, {8192,0,2,0,2,0,0,0,1,0}, {2,0,2,0}, {34382, 0, 0, 0}, {0, 0, 0, 0}},
    {"single", "fetch", "charge-only", 160, {31231, 34382}, {8192,0,2,0,2,0,0,0,1,0}, {2,0,2,0}, {34382, 0, 0, 0}, {0, 0, 0, 0}},
    {"single", "writeback", "64B", 1200, {0, 0}, {0,128,0,2,0,2,0,0,0,1}, {0,2,0,2}, {0, 1250, 0, 0}, {0, 0, 0, 0}},
    {"single", "writeback", "4KB", 1200, {0, 0}, {0,8192,0,2,0,2,0,0,0,1}, {0,2,0,2}, {0, 6902, 0, 0}, {0, 0, 0, 0}},
    {"single", "writeback", "charge-only", 1200, {0, 0}, {0,8192,0,2,0,2,0,0,0,1}, {0,2,0,2}, {0, 6902, 0, 0}, {0, 0, 0, 0}},
    {"cluster", "fetch", "64B", 160, {28130, 28210}, {128,0,2,0,2,0,0,0,1,0}, {2,0,2,0}, {28210, 0, 28130, 0}, {0, 0, 0, 0}},
    {"cluster", "fetch", "4KB", 160, {31231, 31311}, {8192,0,2,0,2,0,0,0,1,0}, {2,0,2,0}, {31311, 0, 31231, 0}, {0, 0, 0, 0}},
    {"cluster", "fetch", "charge-only", 160, {31231, 31311}, {8192,0,2,0,2,0,0,0,1,0}, {2,0,2,0}, {31311, 0, 31231, 0}, {0, 0, 0, 0}},
    {"cluster", "writeback", "64B", 2400, {0, 0}, {0,256,0,4,0,4,0,0,0,1}, {0,4,0,4}, {0, 1850, 0, 2450}, {0, 0, 0, 0}},
    {"cluster", "writeback", "4KB", 2400, {0, 0}, {0,16384,0,4,0,4,0,0,0,1}, {0,4,0,4}, {0, 7502, 0, 6902}, {0, 0, 0, 0}},
    {"cluster", "writeback", "charge-only", 2400, {0, 0}, {0,16384,0,4,0,4,0,0,0,1}, {0,4,0,4}, {0, 7502, 0, 6902}, {0, 0, 0, 0}},
};

std::unique_ptr<RemoteBackend>
makeOneSegTier(const OneSegCell &cell, CycleClock &clock,
               const CostParams &costs)
{
    if (std::strcmp(cell.backend, "single") == 0)
        return defaultTier(clock, costs, 1 << 20);
    ClusterConfig cfg;
    cfg.shardCount = 2;
    cfg.replicationFactor = 2;
    return std::make_unique<ShardedCluster>(clock, costs, 1 << 20, kObj,
                                            cfg);
}

TEST(OneSegmentMessages, MatchPinnedSinglePayloadCharges)
{
    const CostParams costs;
    for (const OneSegCell &cell : kOneSegCells) {
        SCOPED_TRACE(std::string(cell.backend) + " " + cell.op + " " +
                     cell.kind);
        CycleClock clock;
        std::unique_ptr<RemoteBackend> tier =
            makeOneSegTier(cell, clock, costs);
        const bool charge_only = std::strcmp(cell.kind, "charge-only") == 0;
        const std::size_t len = std::strcmp(cell.kind, "64B") == 0 ? 64 : kObj;
        // Stripe 3's replicas are {1, 0} (the ring wraps), stripe 4's
        // {0, 1}: a replicated write reaches the primary first.
        const std::uint64_t offsets[2] = {3 * kObj + (len == 64 ? 128 : 0),
                                          4 * kObj};
        std::vector<std::byte> buf(kObj);
        std::uint64_t arrivals[2] = {0, 0};
        for (int i = 0; i < 2; i++) {
            fillPattern(buf, static_cast<std::uint64_t>(i));
            std::byte *data = charge_only ? nullptr : buf.data();
            if (std::strcmp(cell.op, "fetch") == 0)
                arrivals[i] = fetchOne(*tier, offsets[i], data, len);
            else
                writeOne(*tier, offsets[i], data, len);
        }

        EXPECT_EQ(clock.now(), cell.clock);
        EXPECT_EQ(arrivals[0], cell.arrival[0]);
        EXPECT_EQ(arrivals[1], cell.arrival[1]);
        expectNetStats(tier->netStats(), cell.net);
        RemoteStats r;
        for (std::uint32_t s = 0; s < tier->shardCount(); s++)
            r += tier->node(s).stats();
        const std::uint64_t remote[4] = {r.fetchRequests,
                                         r.writebackRequests,
                                         r.fetchPayloads,
                                         r.writebackPayloads};
        for (int f = 0; f < 4; f++)
            EXPECT_EQ(remote[f], cell.remote[f]) << "RemoteStats field " << f;
        for (std::uint32_t s = 0; s < 2; s++) {
            const bool has_link = s < tier->shardCount();
            EXPECT_EQ(has_link ? tier->link(s).inboundFreeAt() : 0,
                      cell.links[2 * s])
                << "link " << s;
            EXPECT_EQ(has_link ? tier->link(s).outboundFreeAt() : 0,
                      cell.links[2 * s + 1])
                << "link " << s;
        }
        const ClusterStats c = tier->clusterStats();
        EXPECT_EQ(c.splitFetchBatches, cell.cluster[0]);
        EXPECT_EQ(c.splitWritebackBatches, cell.cluster[1]);
        EXPECT_EQ(c.degradedReads, cell.cluster[2]);
        EXPECT_EQ(c.degradedWrites, cell.cluster[3]);
    }
}

TEST(OneSegmentMessages, ReplicasKeepTheirBytesUnderChargeOnlyWrites)
{
    CycleClock clock;
    const CostParams costs;
    ClusterConfig cfg;
    cfg.shardCount = 2;
    cfg.replicationFactor = 2;
    ShardedCluster cluster(clock, costs, 1 << 20, kObj, cfg);

    std::vector<std::byte> held(kObj), sent(kObj), check(kObj);
    fillPattern(held, 5);
    fillPattern(sent, 6);
    cluster.rawWrite(3 * kObj, held.data(), kObj);
    writeOne(cluster, 3 * kObj, nullptr, kObj);
    for (std::uint32_t s = 0; s < 2; s++) {
        cluster.node(s).rawRead(3 * kObj, check.data(), kObj);
        EXPECT_EQ(check, held) << "shard " << s;
        EXPECT_EQ(cluster.shardNetStats(s).bytesWrittenBack, kObj);
    }
    // A buffered one-segment write reaches both replicas.
    writeOne(cluster, 3 * kObj, sent.data(), kObj);
    for (std::uint32_t s = 0; s < 2; s++) {
        cluster.node(s).rawRead(3 * kObj, check.data(), kObj);
        EXPECT_EQ(check, sent) << "shard " << s;
    }
}

TEST(OneSegmentMessagesDeathTest, ChargeOnlySegmentOfLostStripeDies)
{
    // Replication 1: shard 0's death loses stripe 0. A batch whose
    // charge-only segment names it dies even beside a buffered segment
    // of a live stripe, and a buffered segment never needs one.
    CycleClock clock;
    const CostParams costs;
    ClusterConfig cfg;
    cfg.shardCount = 2;
    cfg.failures.killShard(0, 1);
    ShardedCluster cluster(clock, costs, 1 << 20, kObj, cfg);
    clock.advance(10);
    std::vector<std::byte> data(kObj);
    fillPattern(data, 9);
    cluster.fetch(1 * kObj, data.data(), kObj); // notices the death
    ASSERT_FALSE(cluster.shardAlive(0));

    const std::vector<RemoteWriteSeg> mixed = {{1 * kObj, data.data(), kObj},
                                               {0, nullptr, kObj}};
    EXPECT_DEATH(cluster.writebackBatch(mixed),
                 "charge-only write of a stripe lost");
    // The charge-only segment alone must not re-home the stripe either.
    EXPECT_DEATH(writeOne(cluster, 0, nullptr, 64), "lost");
}

} // anonymous namespace
} // namespace tfm
