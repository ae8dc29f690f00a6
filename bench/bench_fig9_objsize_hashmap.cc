/**
 * @file
 * Figure 9: impact of the compiler's object-size choice on a zipfian
 * hashmap (fine-grained accesses, little spatial locality): smaller
 * objects win.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/hashmap.hh"

using namespace tfm;

namespace
{

HashmapResult
runHashmap(std::uint32_t object_size, double local_fraction,
           const CostParams &costs)
{
    HashmapParams params;
    params.seed = bench::runSeed(params.seed);
    params.numKeys = 60000;   // 2 GB working set scaled down
    params.numOps = 200000;   // 50M lookups scaled down
    params.zipfSkew = 1.02;

    BackendConfig cfg;
    cfg.kind = SystemKind::TrackFm;
    cfg.farHeapBytes = 32 << 20;
    cfg.objectSizeBytes = object_size;
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = ChunkPolicy::CostModel;
    // Working set: table (2x keys rounded, 16 B slots) + trace.
    const std::uint64_t working_set =
        (131072ull * 16) + params.numOps * 4;
    cfg.localMemBytes =
        bench::localBytesFor(local_fraction, working_set, object_size);

    auto backend = makeBackend(cfg, costs);
    HashmapWorkload workload(*backend, params);
    workload.run(); // warm-up: exclude the one-time cold fill
    return workload.run();
}

} // anonymous namespace

int
main()
{
    const CostParams costs;
    bench::banner(
        "Figure 9 - object size on a zipfian STL-style hashmap",
        "4 B key/value lookups benefit from small object sizes",
        "60K keys / 200K lookups standing in for 2 GB WS / 50M lookups");

    const std::uint32_t sizes[] = {4096, 2048, 1024, 512, 256};

    // Every (a) cell's cycles and fetched bytes, keyed e.g.
    // "cycles_s256_l25"; the build check compares them exactly against
    // bench/expected/fig9.json, so a sampler change cannot move a draw
    // unnoticed. (b) reruns the 25% row and adds no cells.
    bench::JsonLine json("fig9_objsize_hashmap");
    const auto cell = [&json](const char *metric, std::uint32_t size,
                              double fraction, std::uint64_t value) {
        char key[48];
        std::snprintf(key, sizeof(key), "%s_s%u_l%d", metric, size,
                      static_cast<int>(fraction * 100.0 + 0.5));
        json.field(key, value);
    };

    bench::section("(a) throughput (MOps/s) vs local memory");
    std::printf("%10s", "local mem");
    for (const std::uint32_t size : sizes)
        std::printf(" %9uB", size);
    std::printf("\n");
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        const double fraction = bench::localMemSweep[i];
        std::printf("%10s", bench::pct(fraction).c_str());
        for (const std::uint32_t size : sizes) {
            const HashmapResult r = runHashmap(size, fraction, costs);
            std::printf(" %10.3f",
                        r.throughputMopsPerSec(costs.cpuGhz));
            cell("cycles", size, fraction, r.delta.cycles);
            cell("bytes_fetched", size, fraction, r.delta.bytesFetched);
        }
        std::printf("\n");
    }

    bench::section("(b) fixed 25% local memory");
    std::printf("%10s %14s\n", "obj size", "MOps/s");
    for (const std::uint32_t size : sizes) {
        const HashmapResult r = runHashmap(size, 0.25, costs);
        std::printf("%9uB %14.3f\n", size,
                    r.throughputMopsPerSec(costs.cpuGhz));
    }
    std::printf("\nPaper reference: throughput increases monotonically "
                "as object size shrinks toward 256 B.\n");
    json.emit();
    return 0;
}
