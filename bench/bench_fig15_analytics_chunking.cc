/**
 * @file
 * Figure 15: loop-chunking variants on the analytics application. The
 * aggregation query iterates over many small row groups (low object
 * density); chunking them indiscriminately costs performance.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/dataframe.hh"

using namespace tfm;

namespace
{

std::uint64_t
runOne(SystemKind kind, ChunkPolicy policy, double local_fraction)
{
    DataframeParams params;
    params.seed = bench::runSeed(params.seed);
    params.numRows = 300000;

    BackendConfig cfg;
    cfg.kind = kind;
    cfg.farHeapBytes = 64 << 20;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = policy;
    const std::uint64_t working_set = params.numRows * 44;
    cfg.localMemBytes =
        bench::localBytesFor(local_fraction, working_set, 4096);

    auto backend = makeBackend(cfg, CostParams{});
    DataframeWorkload workload(*backend, params);
    const std::uint64_t before = backend->cycles();
    workload.run();
    workload.run();
    return backend->cycles() - before;
}

} // anonymous namespace

int
main()
{
    bench::banner(
        "Figure 15 - loop-chunking variants on the analytics app",
        "chunking the low-density row-group loops hurts; the cost model "
        "keeps only the dense column scans chunked",
        "300K synthetic taxi rows standing in for the 31 GB dataset");

    // Every run's simulated cycles also go to one BENCH_JSON line,
    // keyed e.g. "all_cycles_l25", that tools/check_build.sh compares
    // against bench/expected/fig15.json.
    bench::JsonLine json("fig15_analytics_chunking");
    std::printf("%10s %10s %10s %18s\n", "local mem", "baseline",
                "all loops", "high-density only");
    std::printf("%10s %30s\n", "", "(slowdown vs local-only)");
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        const double fraction = bench::localMemSweep[i];
        const std::uint64_t local_cycles =
            runOne(SystemKind::Local, ChunkPolicy::None, fraction);
        const std::uint64_t baseline = runOne(
            SystemKind::TrackFm, ChunkPolicy::None, fraction);
        const std::uint64_t all_loops =
            runOne(SystemKind::TrackFm, ChunkPolicy::All, fraction);
        const std::uint64_t selective = runOne(
            SystemKind::TrackFm, ChunkPolicy::CostModel, fraction);
        std::printf("%10s %9.2fx %9.2fx %17.2fx\n",
                    bench::pct(fraction).c_str(),
                    static_cast<double>(baseline) / local_cycles,
                    static_cast<double>(all_loops) / local_cycles,
                    static_cast<double>(selective) / local_cycles);
        const int pct = static_cast<int>(fraction * 100.0 + 0.5);
        const auto cell = [&](const char *what, std::uint64_t value) {
            char key[48];
            std::snprintf(key, sizeof(key), "%s_cycles_l%d", what, pct);
            json.field(key, value);
        };
        cell("local", local_cycles);
        cell("baseline", baseline);
        cell("all", all_loops);
        cell("cost_model", selective);
    }
    std::printf("\nPaper reference: 'all loops' sits above the "
                "baseline; 'high-density only' is the lowest curve.\n");
    json.emit();
    return 0;
}
