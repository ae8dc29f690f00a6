/**
 * @file
 * Figure 14: the NYC-taxi analytics application on TrackFM, Fastswap,
 * and AIFM — slowdown vs a local-only run, plus the guard/fault event
 * counts that explain it.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/dataframe.hh"

using namespace tfm;

namespace
{

DataframeResult
runOne(SystemKind kind, double local_fraction)
{
    DataframeParams params;
    params.seed = bench::runSeed(params.seed);
    params.numRows = 300000; // 31 GB scaled to ~10 MB

    BackendConfig cfg;
    cfg.kind = kind;
    cfg.farHeapBytes = 64 << 20;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = true;
    cfg.prefetchDepth = 16;
    cfg.chunkPolicy = ChunkPolicy::CostModel;
    const std::uint64_t working_set = params.numRows * 44;
    cfg.localMemBytes =
        bench::localBytesFor(local_fraction, working_set, 4096);

    auto backend = makeBackend(cfg, CostParams{});
    DataframeWorkload workload(*backend, params);
    // Analytics sessions re-run query suites over the same columns;
    // two consecutive suites expose the reuse that local memory can
    // capture.
    const BackendSnapshot before = backend->snapshot();
    DataframeResult result = workload.run();
    workload.run();
    result.delta = deltaSince(before, backend->snapshot());
    return result;
}

} // anonymous namespace

int
main()
{
    bench::banner(
        "Figure 14 - taxi analytics: TrackFM vs Fastswap vs AIFM",
        "TrackFM within ~10% of AIFM under memory pressure; Fastswap "
        "considerably slower until ~75% of the WS is local",
        "300K synthetic taxi rows standing in for the 31 GB dataset");

    // One run per system and local-memory point; (a) reads the cycles
    // and (b) the far-memory event counts of the same runs. Every cell
    // also goes to one BENCH_JSON line, keyed e.g. "tfm_cycles_l10",
    // that tools/check_build.sh compares against
    // bench/expected/fig14.json.
    struct Point
    {
        BackendSnapshot local, tfm, fsw, aifm;
    };
    std::vector<Point> points(bench::localMemSweepPoints);
    bench::JsonLine json("fig14_analytics");
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        const double fraction = bench::localMemSweep[i];
        Point &p = points[static_cast<std::size_t>(i)];
        p.local = runOne(SystemKind::Local, fraction).delta;
        p.tfm = runOne(SystemKind::TrackFm, fraction).delta;
        p.fsw = runOne(SystemKind::Fastswap, fraction).delta;
        p.aifm = runOne(SystemKind::Aifm, fraction).delta;
        const int pct = static_cast<int>(fraction * 100.0 + 0.5);
        const auto cell = [&](const char *what, std::uint64_t value) {
            char key[48];
            std::snprintf(key, sizeof(key), "%s_l%d", what, pct);
            json.field(key, value);
        };
        cell("local_cycles", p.local.cycles);
        cell("tfm_cycles", p.tfm.cycles);
        cell("fastswap_cycles", p.fsw.cycles);
        cell("aifm_cycles", p.aifm.cycles);
        cell("tfm_far_events", p.tfm.farEvents);
        cell("fastswap_far_events", p.fsw.farEvents);
    }

    bench::section("(a) slowdown vs local-only");
    std::printf("%10s %10s %10s %10s %14s\n", "local mem", "TrackFM",
                "Fastswap", "AIFM", "TFM vs AIFM");
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        const Point &p = points[static_cast<std::size_t>(i)];
        const double local = static_cast<double>(p.local.cycles);
        std::printf("%10s %9.2fx %9.2fx %9.2fx %13.1f%%\n",
                    bench::pct(bench::localMemSweep[i]).c_str(),
                    static_cast<double>(p.tfm.cycles) / local,
                    static_cast<double>(p.fsw.cycles) / local,
                    static_cast<double>(p.aifm.cycles) / local,
                    100.0 * (static_cast<double>(p.tfm.cycles) /
                                 static_cast<double>(p.aifm.cycles) -
                             1.0));
    }

    bench::section("(b) far-memory events (slow guards vs page faults)");
    std::printf("%10s %16s %16s\n", "local mem", "TrackFM guards",
                "Fastswap faults");
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        const Point &p = points[static_cast<std::size_t>(i)];
        std::printf("%10s %16llu %16llu\n",
                    bench::pct(bench::localMemSweep[i]).c_str(),
                    static_cast<unsigned long long>(p.tfm.farEvents),
                    static_cast<unsigned long long>(p.fsw.farEvents));
    }
    std::printf("\nPaper reference: TrackFM within 10%% of AIFM under "
                "pressure; event counts track performance.\n");
    json.emit();
    return 0;
}
