/**
 * @file
 * Figure 16: memcached with USR key/value sizes — throughput, event
 * counts, and data transferred, sweeping the zipf skew parameter.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/memcached.hh"

using namespace tfm;

namespace
{

MemcachedResult
runOne(SystemKind kind, double skew, const CostParams &costs)
{
    MemcachedParams params;
    params.seed = bench::runSeed(params.seed);
    params.numKeys = 1000000; // 100M keys scaled 100x
    params.numGets = 300000;
    params.zipfSkew = skew;

    BackendConfig cfg;
    cfg.kind = kind;
    cfg.farHeapBytes = 256 << 20;
    // TrackFM / AIFM use small objects for tiny KV pairs; Fastswap is
    // stuck at the architected page size.
    cfg.objectSizeBytes = 64;
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = ChunkPolicy::CostModel;
    // Paper: 12 GB WS, 1 GB local (1/12). Items are ~64 B each here.
    const std::uint64_t working_set = params.numKeys * 96;
    cfg.localMemBytes = working_set / 12;
    if (kind == SystemKind::Local)
        cfg.localMemBytes = cfg.farHeapBytes;

    auto backend = makeBackend(cfg, costs);
    MemcachedWorkload workload(*backend, params);
    workload.run(); // warm-up: exclude the one-time cold fill
    return workload.run();
}

} // anonymous namespace

int
main()
{
    const CostParams costs;
    bench::banner(
        "Figure 16 - memcached (USR sizes), sweeping zipf skew",
        "TrackFM ~1.7x over Fastswap at low skew (I/O amplification); "
        "Fastswap converges as skew rises and faults amortize",
        "1M keys / 300K gets standing in for 100M keys; local memory "
        "1/12 of the working set as in the paper");

    const double skews[] = {1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3};

    // One run per system and skew; (a), (b) and (c) all read the same
    // runs. Every cell also goes to one BENCH_JSON line, keyed e.g.
    // "tfm_cycles_s105", that tools/check_build.sh compares against
    // bench/expected/fig16.json.
    struct Row
    {
        MemcachedResult tfm, fsw, local;
    };
    std::vector<Row> rows;
    bench::JsonLine json("fig16_memcached");
    for (const double skew : skews) {
        Row &r = rows.emplace_back();
        r.tfm = runOne(SystemKind::TrackFm, skew, costs);
        r.fsw = runOne(SystemKind::Fastswap, skew, costs);
        r.local = runOne(SystemKind::Local, skew, costs);
        const int s = static_cast<int>(skew * 100.0 + 0.5);
        const auto cell = [&](const char *what, std::uint64_t value) {
            char key[48];
            std::snprintf(key, sizeof(key), "%s_s%d", what, s);
            json.field(key, value);
        };
        cell("tfm_cycles", r.tfm.delta.cycles);
        cell("fastswap_cycles", r.fsw.delta.cycles);
        cell("local_cycles", r.local.delta.cycles);
        cell("tfm_hits", r.tfm.hits);
        cell("fastswap_hits", r.fsw.hits);
        cell("local_hits", r.local.hits);
        cell("tfm_far_events", r.tfm.delta.farEvents);
        cell("fastswap_far_events", r.fsw.delta.farEvents);
        cell("tfm_bytes", r.tfm.delta.bytesTransferred);
        cell("fastswap_bytes", r.fsw.delta.bytesTransferred);
    }

    bench::section("(a) throughput (KOps/s)");
    std::printf("%6s %12s %12s %12s %10s\n", "skew", "TrackFM",
                "Fastswap", "All local", "TFM/FSW");
    for (std::size_t i = 0; i < rows.size(); i++) {
        const Row &r = rows[i];
        std::printf("%6.2f %12.1f %12.1f %12.1f %9.2fx\n", skews[i],
                    r.tfm.throughputKopsPerSec(costs.cpuGhz),
                    r.fsw.throughputKopsPerSec(costs.cpuGhz),
                    r.local.throughputKopsPerSec(costs.cpuGhz),
                    r.tfm.throughputKopsPerSec(costs.cpuGhz) /
                        r.fsw.throughputKopsPerSec(costs.cpuGhz));
    }

    bench::section("(b) far-memory events per 1K gets");
    std::printf("%6s %16s %16s\n", "skew", "TrackFM guards",
                "Fastswap faults");
    for (std::size_t i = 0; i < rows.size(); i++) {
        const Row &r = rows[i];
        std::printf("%6.2f %16.1f %16.1f\n", skews[i],
                    1000.0 * static_cast<double>(r.tfm.delta.farEvents) /
                        static_cast<double>(r.tfm.hits),
                    1000.0 * static_cast<double>(r.fsw.delta.farEvents) /
                        static_cast<double>(r.fsw.hits));
    }

    bench::section("(c) data transferred (x working set)");
    std::printf("%6s %12s %12s\n", "skew", "TrackFM", "Fastswap");
    const double working_set = 1000000.0 * 96.0;
    for (std::size_t i = 0; i < rows.size(); i++) {
        const Row &r = rows[i];
        std::printf("%6.2f %11.1fx %11.1fx\n", skews[i],
                    static_cast<double>(r.tfm.delta.bytesTransferred) /
                        working_set,
                    static_cast<double>(r.fsw.delta.bytesTransferred) /
                        working_set);
    }
    std::printf("\nPaper reference: Fastswap transfers ~66x the WS, "
                "TrackFM ~15x; throughput gap shrinks with skew.\n");
    json.emit();
    return 0;
}
