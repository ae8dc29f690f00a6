/**
 * @file
 * Figure 10: impact of object size on STREAM copy bandwidth (perfect
 * spatial locality): larger objects win.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/stream.hh"

using namespace tfm;

namespace
{

/** The measured copy pass (after a warm-up pass). */
StreamResult
runStream(std::uint32_t object_size, double local_fraction,
          const CostParams &costs)
{
    BackendConfig cfg;
    cfg.kind = SystemKind::TrackFm;
    cfg.farHeapBytes = 32 << 20;
    cfg.objectSizeBytes = object_size;
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = ChunkPolicy::CostModel;
    const std::uint64_t elements = 1u << 20; // 4 MB per array
    const std::uint64_t working_set = 2 * elements * 4;
    cfg.localMemBytes =
        bench::localBytesFor(local_fraction, working_set, object_size);

    auto backend = makeBackend(cfg, costs);
    StreamWorkload stream(*backend, elements, 2, 4);
    stream.runCopy(); // steady-state warm-up
    return stream.runCopy();
}

} // anonymous namespace

int
main()
{
    const CostParams costs;
    bench::banner(
        "Figure 10 - object size on STREAM copy (memory bandwidth)",
        "high spatial locality favours larger (4 KB) objects",
        "8 MB working set standing in for the paper's 9 GB");

    const std::uint32_t sizes[] = {4096, 2048, 1024, 512, 256};

    // Every cell of (a) as simulated cycles, keyed e.g.
    // "copy_cycles_o4096_l25"; the build check compares them exactly
    // against bench/expected/fig10.json. (b) reruns (a)'s 25% column.
    bench::JsonLine json("fig10_objsize_stream");

    bench::section("(a) bandwidth (MB/s) vs local memory");
    std::printf("%10s", "local mem");
    for (const std::uint32_t size : sizes)
        std::printf(" %9uB", size);
    std::printf("\n");
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        const double fraction = bench::localMemSweep[i];
        std::printf("%10s", bench::pct(fraction).c_str());
        for (const std::uint32_t size : sizes) {
            const StreamResult result = runStream(size, fraction, costs);
            std::printf(" %10.1f", result.bandwidthMBps(costs.cpuGhz));
            char key[48];
            std::snprintf(key, sizeof(key), "copy_cycles_o%u_l%d", size,
                          static_cast<int>(fraction * 100.0 + 0.5));
            json.field(key, result.delta.cycles);
        }
        std::printf("\n");
    }

    bench::section("(b) fixed 25% local memory");
    std::printf("%10s %14s\n", "obj size", "MB/s");
    for (const std::uint32_t size : sizes)
        std::printf("%9uB %14.1f\n", size,
                    runStream(size, 0.25, costs).bandwidthMBps(costs.cpuGhz));

    std::printf("\nPaper reference: bandwidth increases monotonically "
                "with object size; 4 KB is best.\n");
    json.emit();
    return 0;
}
