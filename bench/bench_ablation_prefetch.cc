/**
 * @file
 * Ablation: prefetch depth. The runtime's look-ahead is the knob that
 * trades local-memory pollution against fetch-latency hiding; the
 * paper fixes it implicitly inside AIFM. Swept here over STREAM under
 * heavy pressure.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/stream.hh"

using namespace tfm;

namespace
{

struct Point
{
    std::uint64_t cycles;
    std::uint64_t prefetchIssued;
    std::uint64_t bytesFetched;
};

Point
runSum(std::uint32_t depth)
{
    BackendConfig cfg;
    cfg.kind = SystemKind::TrackFm;
    cfg.farHeapBytes = 32 << 20;
    cfg.objectSizeBytes = 4096;
    cfg.chunkPolicy = ChunkPolicy::All;
    cfg.prefetchEnabled = depth > 0;
    cfg.prefetchDepth = depth == 0 ? 1 : depth;
    cfg.localMemBytes = 1 << 20; // 12.5% of the working set
    auto backend = makeBackend(cfg, CostParams{});
    StreamWorkload stream(*backend, 1u << 20, 2, 4);
    const StreamResult result = stream.runSum();
    Point point;
    point.cycles = result.delta.cycles;
    point.prefetchIssued = backend->stats().get("runtime.prefetch_issued");
    point.bytesFetched = result.delta.bytesFetched;
    return point;
}

} // anonymous namespace

int
main()
{
    bench::banner(
        "Ablation - prefetch depth under heavy memory pressure",
        "deeper look-ahead hides more fetch latency until the link "
        "saturates; returns diminish past the bandwidth-delay product",
        "8 MB STREAM sum, 12.5% local memory, cold start");

    std::printf("%8s %14s %10s %16s %14s\n", "depth", "cycles",
                "speedup", "prefetches", "MB fetched");
    // Every cell, keyed e.g. "cycles_d16"; the build check compares
    // them exactly against bench/expected/ablation_prefetch.json.
    bench::JsonLine json("ablation_prefetch");
    const auto cell = [&json](const char *name, std::uint32_t depth,
                              std::uint64_t value) {
        const std::string key = name + std::to_string(depth);
        json.field(key.c_str(), value);
    };
    std::uint64_t baseline = 0;
    for (const std::uint32_t depth : {0u, 1u, 2u, 4u, 8u, 16u, 32u}) {
        const Point point = runSum(depth);
        if (depth == 0)
            baseline = point.cycles;
        std::printf("%8u %14llu %9.2fx %16llu %14.2f\n", depth,
                    static_cast<unsigned long long>(point.cycles),
                    static_cast<double>(baseline) /
                        static_cast<double>(point.cycles),
                    static_cast<unsigned long long>(
                        point.prefetchIssued),
                    static_cast<double>(point.bytesFetched) / 1e6);
        cell("cycles_d", depth, point.cycles);
        cell("prefetches_d", depth, point.prefetchIssued);
        cell("bytes_fetched_d", depth, point.bytesFetched);
    }
    json.emit();
    return 0;
}
