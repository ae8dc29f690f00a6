/**
 * @file
 * Figure 13: I/O amplification on the zipfian hashmap — execution time
 * and total data fetched, TrackFM with 64 B objects vs Fastswap's
 * architected 4 KB pages.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/hashmap.hh"

using namespace tfm;

namespace
{

struct Point
{
    std::uint64_t cycles;
    std::uint64_t bytesFetched;
    double seconds;
    double fetchedGb;
    double amplification;
};

Point
runOne(SystemKind kind, double local_fraction, const CostParams &costs)
{
    HashmapParams params;
    params.seed = bench::runSeed(params.seed);
    params.numKeys = 60000;
    params.numOps = 200000;
    params.zipfSkew = 1.02;

    BackendConfig cfg;
    cfg.kind = kind;
    cfg.farHeapBytes = 32 << 20;
    cfg.objectSizeBytes = 64; // the paper's Fig. 13 choice for TrackFM
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = ChunkPolicy::CostModel;
    const std::uint64_t working_set =
        (131072ull * 16) + params.numOps * 4;
    cfg.localMemBytes =
        bench::localBytesFor(local_fraction, working_set, 4096);

    auto backend = makeBackend(cfg, costs);
    HashmapWorkload workload(*backend, params);
    workload.run(); // warm-up: exclude the one-time cold fill
    const HashmapResult r = workload.run();
    Point point;
    point.cycles = r.delta.cycles;
    point.bytesFetched = r.delta.bytesFetched;
    point.seconds = bench::seconds(r.delta.cycles, costs);
    point.fetchedGb =
        static_cast<double>(r.delta.bytesFetched) / 1e9;
    point.amplification = static_cast<double>(r.delta.bytesFetched) /
                          static_cast<double>(working_set);
    return point;
}

} // anonymous namespace

int
main()
{
    const CostParams costs;
    bench::banner(
        "Figure 13 - I/O amplification (zipf hashmap, 4 B pairs)",
        "Fastswap transfers ~43x the working set; TrackFM (64 B "
        "objects) only ~2.3x, for an average ~12x speedup",
        "60K keys / 200K lookups standing in for 2 GB WS / 50M lookups");

    // The cycles behind table (a) and the bytes behind table (b), keyed
    // e.g. "fastswap_cycles_l25"; the build check compares them exactly
    // against bench/expected/fig13.json.
    bench::JsonLine json("fig13_io_amplification");
    const auto cell = [&json](const char *system, const char *what,
                          double fraction, std::uint64_t value) {
        char key[48];
        std::snprintf(key, sizeof(key), "%s_%s_l%d", system, what,
                      static_cast<int>(fraction * 100.0 + 0.5));
        json.field(key, value);
    };

    bench::section("(a) execution time (simulated seconds)");
    std::printf("%10s %14s %14s %10s\n", "local mem", "TrackFM 64B",
                "Fastswap", "speedup");
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        const double fraction = bench::localMemSweep[i];
        const Point tfm_point =
            runOne(SystemKind::TrackFm, fraction, costs);
        const Point fsw_point =
            runOne(SystemKind::Fastswap, fraction, costs);
        std::printf("%10s %14.4f %14.4f %9.2fx\n",
                    bench::pct(fraction).c_str(), tfm_point.seconds,
                    fsw_point.seconds,
                    fsw_point.seconds / tfm_point.seconds);
        cell("trackfm", "cycles", fraction, tfm_point.cycles);
        cell("fastswap", "cycles", fraction, fsw_point.cycles);
    }

    bench::section("(b) total data fetched (x working set)");
    std::printf("%10s %14s %14s\n", "local mem", "TrackFM 64B",
                "Fastswap");
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        const double fraction = bench::localMemSweep[i];
        const Point tfm_point =
            runOne(SystemKind::TrackFm, fraction, costs);
        const Point fsw_point =
            runOne(SystemKind::Fastswap, fraction, costs);
        std::printf("%10s %13.1fx %13.1fx\n",
                    bench::pct(fraction).c_str(),
                    tfm_point.amplification, fsw_point.amplification);
        cell("trackfm", "bytes_fetched", fraction, tfm_point.bytesFetched);
        cell("fastswap", "bytes_fetched", fraction, fsw_point.bytesFetched);
    }
    std::printf("\nPaper reference: Fastswap ~43x WS transferred vs "
                "TrackFM ~2.3x; ~12x average speedup.\n");
    json.emit();
    return 0;
}
