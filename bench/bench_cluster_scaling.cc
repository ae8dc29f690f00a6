/**
 * @file
 * Cluster scaling bench: the far heap striped over N remote memory
 * shards, each behind its own link (src/cluster). Sweeps shard count
 * and replication factor over a bandwidth-bound streaming scan and
 * reports aggregate fetch bandwidth, per-shard byte skew, and the
 * degraded-mode slowdown after an injected mid-run shard failure.
 *
 * The workload is sized so deep prefetch windows (256 objects, 64 per
 * coalesced message) keep every link serialization-bound: with one
 * shard the single link is the bottleneck, with N shards each link
 * carries 1/N of the stripes concurrently, so aggregate bandwidth
 * scales until the app-side per-object costs dominate. Replication
 * factor k multiplies writeback traffic (write-all) but not fetch
 * traffic (read-one). Run with --trace=<file> to see the failover as
 * per-shard trace tracks (shardN-in/out/remote) going quiet.
 */

#include <cstdio>
#include <cstring>

#include "bench_util.hh"
#include "cluster/sharded_cluster.hh"
#include "runtime/far_mem_runtime.hh"

using namespace tfm;

namespace
{

constexpr std::uint64_t arrayBytes = 32ull << 20; // 8192 objects
constexpr std::uint32_t objectSize = 4096;
constexpr std::uint64_t objects = arrayBytes / objectSize;
constexpr std::uint64_t passes = 2;

struct RunResult
{
    std::uint64_t startCycle = 0;  ///< clock at measurement start
    std::uint64_t cycles = 0;      ///< measured scan cycles
    std::uint64_t checksum = 0;
    std::uint64_t bytesFetched = 0;
    std::uint64_t bytesWrittenBack = 0;
    double skew = 1.0;             ///< max/mean per-shard fetch bytes
    std::uint64_t degradedReads = 0;
    std::uint64_t reReplicatedBytes = 0;
    std::uint64_t shardFailures = 0;

    double
    fetchBandwidth() const
    {
        return static_cast<double>(bytesFetched) /
               static_cast<double>(cycles);
    }
};

RunResult
runScan(std::uint32_t shards, std::uint32_t repl, std::uint64_t failShard,
        std::uint64_t failCycle, const CostParams &costs)
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 64ull << 20;
    cfg.localMemBytes = arrayBytes / 4; // 25% local memory
    cfg.objectSizeBytes = objectSize;
    cfg.prefetchEnabled = true;
    cfg.prefetchDepth = 256; // deep windows: links serialization-bound
    cfg.fetchBatchMax = 64;
    cfg.writebackBatchMax = 32;
    cfg.cluster.shardCount = shards;
    cfg.cluster.replicationFactor = repl;
    if (failCycle)
        cfg.cluster.failures.killShard(
            static_cast<std::uint32_t>(failShard), failCycle);

    FarMemRuntime rt(cfg, costs);
    const std::uint64_t base = rt.allocate(arrayBytes);
    for (std::uint64_t i = 0; i < objects; i++)
        rt.rawWrite(base + i * objectSize, &i, sizeof(i));

    RunResult r;
    r.startCycle = rt.clock().now();
    // Read-modify-write scan, one u64 per object: fetch-dominated, but
    // every object comes back dirty so write-all replication shows up
    // on the outbound links.
    for (std::uint64_t pass = 0; pass < passes; pass++) {
        for (std::uint64_t i = 0; i < objects; i++) {
            auto *p = rt.localize(base + i * objectSize, true);
            std::uint64_t v = 0;
            std::memcpy(&v, p, sizeof(v));
            r.checksum += v;
            v++;
            std::memcpy(p, &v, sizeof(v));
        }
    }
    rt.flushWritebacks();
    r.cycles = rt.clock().now() - r.startCycle;

    const NetStats net = rt.backend().netStats();
    r.bytesFetched = net.bytesFetched;
    r.bytesWrittenBack = net.bytesWrittenBack;
    // Per-shard and cluster stats come through the RemoteBackend
    // interface (never a downcast), so they answer correctly behind
    // the recording decorator and under --replay.
    if (rt.backend().shardCount() >= 2) {
        std::uint64_t max = 0, total = 0;
        for (std::uint32_t s = 0; s < shards; s++) {
            const std::uint64_t b =
                rt.backend().shardNetStats(s).bytesFetched;
            max = max > b ? max : b;
            total += b;
        }
        if (total)
            r.skew = static_cast<double>(max) * shards /
                     static_cast<double>(total);
        const ClusterStats cstats = rt.backend().clusterStats();
        r.degradedReads = cstats.degradedReads;
        r.reReplicatedBytes = cstats.reReplicatedBytes;
        r.shardFailures = cstats.shardFailures;
    }
    return r;
}

void
report(std::uint32_t shards, std::uint32_t repl, const RunResult &r,
       const CostParams &costs)
{
    std::printf("%6u %5u %12.3f %10.3f %8.2f %14llu %14llu\n", shards,
                repl, bench::seconds(r.cycles, costs) * 1e3,
                r.fetchBandwidth(), r.skew,
                static_cast<unsigned long long>(r.bytesFetched),
                static_cast<unsigned long long>(r.bytesWrittenBack));
    bench::JsonLine json("cluster_scaling");
    json.field("shards", static_cast<std::uint64_t>(shards))
        .field("replication", static_cast<std::uint64_t>(repl))
        .field("cycles", r.cycles)
        .field("fetch_bandwidth", r.fetchBandwidth())
        .field("shard_skew", r.skew)
        .field("bytes_fetched", r.bytesFetched)
        .field("bytes_written_back", r.bytesWrittenBack);
    json.emit();
}

} // anonymous namespace

int
main()
{
    const CostParams costs;
    bench::banner(
        "Cluster scaling - sharded remote tier with replication",
        "striping the far heap over N independent links scales "
        "aggregate fetch bandwidth; k-way replication costs only "
        "outbound write-all traffic; an injected shard failure degrades "
        "throughput but not correctness",
        "32 MB x 2-pass RMW scan, 25% local memory, depth-256 prefetch, "
        "64-object coalesced messages");

    bench::section("shard/replication sweep (shards | repl | sim ms | "
                   "fetch B/cyc | skew | fetch B | writeback B)");
    const std::uint32_t shardSweep[] = {1, 2, 4, 8};
    const std::uint32_t replSweep[] = {1, 2};
    double bw1 = 0.0, bw4 = 0.0;
    std::uint64_t checksum1 = 0;
    for (const std::uint32_t repl : replSweep) {
        for (const std::uint32_t shards : shardSweep) {
            if (repl > shards)
                continue;
            const RunResult r = runScan(shards, repl, 0, 0, costs);
            report(shards, repl, r, costs);
            if (repl == 1 && shards == 1) {
                bw1 = r.fetchBandwidth();
                checksum1 = r.checksum;
            }
            if (repl == 1 && shards == 4)
                bw4 = r.fetchBandwidth();
        }
    }

    bench::section("failure injection (4 shards, repl 2, shard 1 dies "
                   "mid-scan)");
    const RunResult healthy = runScan(4, 2, 0, 0, costs);
    const std::uint64_t failAt = healthy.startCycle + healthy.cycles / 2;
    const RunResult degraded = runScan(4, 2, 1, failAt, costs);
    const double slowdown = static_cast<double>(degraded.cycles) /
                            static_cast<double>(healthy.cycles);
    const bool correct = degraded.checksum == healthy.checksum &&
                         degraded.checksum == checksum1;
    std::printf("healthy run:        %.3f sim ms\n",
                bench::seconds(healthy.cycles, costs) * 1e3);
    std::printf("degraded run:       %.3f sim ms (%.2fx slowdown)\n",
                bench::seconds(degraded.cycles, costs) * 1e3, slowdown);
    std::printf("shard failures:     %llu (degraded reads %llu, "
                "re-replicated %llu bytes)\n",
                static_cast<unsigned long long>(degraded.shardFailures),
                static_cast<unsigned long long>(degraded.degradedReads),
                static_cast<unsigned long long>(
                    degraded.reReplicatedBytes));
    std::printf("checksum unchanged: %s\n", correct ? "yes" : "NO");

    bench::section("summary");
    const double scaling = bw4 / bw1;
    std::printf("fetch bandwidth, 1 shard:   %.3f bytes/cycle\n", bw1);
    std::printf("fetch bandwidth, 4 shards:  %.3f bytes/cycle "
                "(%.2fx)\n",
                bw4, scaling);
    bench::JsonLine json("cluster_scaling_summary");
    json.field("scaling_4_shards", scaling)
        .field("degraded_slowdown", slowdown)
        .field("degraded_correct",
               static_cast<std::uint64_t>(correct ? 1 : 0))
        .field("degraded_reads", degraded.degradedReads)
        .field("re_replicated_bytes", degraded.reReplicatedBytes);
    json.emit();
    return scaling >= 2.5 && correct ? 0 : 1;
}
