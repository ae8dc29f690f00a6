/**
 * @file
 * Figure 8: selective loop chunking on k-means. Applying the chunking
 * transformation to every loop (including the low-density nested
 * feature loops) is a large slowdown; filtering through the section 3.4
 * cost model recovers a speedup.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/kmeans.hh"

using namespace tfm;

namespace
{

std::uint64_t
runKmeans(ChunkPolicy policy, double local_fraction)
{
    KMeansParams params;
    params.seed = bench::runSeed(params.seed);
    params.numPoints = 30000; // 30M in the paper, scaled 1000x
    params.dims = 8;
    params.iterations = 1;

    BackendConfig cfg;
    cfg.kind = SystemKind::TrackFm;
    cfg.farHeapBytes = 32 << 20;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = policy;
    const std::uint64_t working_set =
        params.numPoints * (params.dims * 4 + params.dims * 4 + 4);
    cfg.localMemBytes =
        bench::localBytesFor(local_fraction, working_set, 4096);

    auto backend = makeBackend(cfg, CostParams{});
    KMeansWorkload workload(*backend, params);
    return workload.run().delta.cycles;
}

} // anonymous namespace

int
main()
{
    bench::banner(
        "Figure 8 - selective loop chunking on k-means",
        "chunking all loops gives ~4x slowdown; the cost model filter "
        "yields up to ~2.5x speedup over the baseline",
        "30K points standing in for the paper's 30M (1 GB working set)");

    // Every run's simulated cycles also go to one BENCH_JSON line,
    // keyed e.g. "all_cycles_l25", that tools/check_build.sh compares
    // against bench/expected/fig8.json.
    bench::JsonLine json("fig8_kmeans_chunking");
    std::printf("%10s %12s %16s\n", "local mem", "all loops",
                "high-density only");
    std::printf("%10s %12s %16s\n", "", "(speedup)", "(speedup)");
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        const double fraction = bench::localMemSweep[i];
        const std::uint64_t baseline =
            runKmeans(ChunkPolicy::None, fraction);
        const std::uint64_t all_loops =
            runKmeans(ChunkPolicy::All, fraction);
        const std::uint64_t selective =
            runKmeans(ChunkPolicy::CostModel, fraction);
        std::printf("%10s %11.2fx %15.2fx\n",
                    bench::pct(fraction).c_str(),
                    static_cast<double>(baseline) /
                        static_cast<double>(all_loops),
                    static_cast<double>(baseline) /
                        static_cast<double>(selective));
        const int pct = static_cast<int>(fraction * 100.0 + 0.5);
        const auto cell = [&](const char *what, std::uint64_t value) {
            char key[48];
            std::snprintf(key, sizeof(key), "%s_cycles_l%d", what, pct);
            json.field(key, value);
        };
        cell("baseline", baseline);
        cell("all", all_loops);
        cell("cost_model", selective);
    }
    std::printf("\nPaper reference: 'all loops' well below 1.0 "
                "(mean ~0.25x); 'high-density only' above 1.0 "
                "(up to ~2.5x).\n");
    json.emit();
    return 0;
}
