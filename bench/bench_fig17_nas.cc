/**
 * @file
 * Figure 17: NAS kernels at 25% local memory — (a) TrackFM vs Fastswap
 * slowdowns normalized to local-only; (b) FT and SP with the O1
 * pre-optimization pipeline (redundant loads eliminated before guard
 * insertion).
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/nas.hh"

using namespace tfm;

namespace
{

struct KernelRun
{
    std::uint64_t cycles = 0;
    std::uint64_t guards = 0;
};

KernelRun
runOne(const char *name, SystemKind kind, bool pre_optimized)
{
    NasParams params;
    params.seed = bench::runSeed(params.seed);
    // Scales chosen so per-line working sets fit 25% local memory, as
    // they do at the paper's class C/D sizes (SP's penta-diagonal line
    // state is the largest).
    params.scale = (std::string(name) == "sp") ? 48 : 32;
    params.iterations = 1;
    params.preOptimized = pre_optimized;

    BackendConfig cfg;
    cfg.kind = kind;
    cfg.farHeapBytes = 64 << 20;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = ChunkPolicy::CostModel;

    auto probe = makeBackend(cfg, CostParams{});
    const std::uint64_t working_set =
        makeNasKernel(name, *probe, params)->workingSetBytes();

    cfg.localMemBytes = bench::localBytesFor(
        kind == SystemKind::Local ? 1.0 : 0.25, working_set, 4096);
    auto backend = makeBackend(cfg, CostParams{});
    auto kernel = makeNasKernel(name, *backend, params);
    const NasResult result = kernel->run();
    return {result.delta.cycles, result.delta.guardEvents};
}

} // anonymous namespace

int
main()
{
    bench::banner(
        "Figure 17 - NAS kernels, 25% local memory",
        "TrackFM beats Fastswap on most kernels; FT is the outlier "
        "until the O1 pipeline trims its guard count",
        "scale-16 kernels (MBs) standing in for NAS classes C/D (GBs)");

    const char *kernels[] = {"cg", "ft", "is", "mg", "sp"};
    // (b) reruns these kernels with the O1 pre-optimization pipeline.
    const auto pre_optimized = [](const std::string &name) {
        return name == "ft" || name == "sp";
    };

    // One run per kernel and system (plus TFM/O1 for FT and SP); (a)
    // and (b) read the same runs. Every cell also goes to one
    // BENCH_JSON line, keyed e.g. "tfm_cycles_cg", that
    // tools/check_build.sh compares against bench/expected/fig17.json.
    struct Row
    {
        KernelRun local, fsw, tfm, tfm_o1;
    };
    std::vector<Row> rows;
    bench::JsonLine json("fig17_nas");
    for (const char *name : kernels) {
        Row &r = rows.emplace_back();
        r.local = runOne(name, SystemKind::Local, false);
        r.fsw = runOne(name, SystemKind::Fastswap, false);
        r.tfm = runOne(name, SystemKind::TrackFm, false);
        if (pre_optimized(name))
            r.tfm_o1 = runOne(name, SystemKind::TrackFm, true);
        const auto cell = [&](const char *what, std::uint64_t value) {
            char key[48];
            std::snprintf(key, sizeof(key), "%s_%s", what, name);
            json.field(key, value);
        };
        cell("local_cycles", r.local.cycles);
        cell("fastswap_cycles", r.fsw.cycles);
        cell("tfm_cycles", r.tfm.cycles);
        cell("tfm_guards", r.tfm.guards);
        if (pre_optimized(name)) {
            cell("tfm_o1_cycles", r.tfm_o1.cycles);
            cell("tfm_o1_guards", r.tfm_o1.guards);
        }
    }

    bench::section("(a) slowdown vs local-only");
    std::printf("%6s %12s %12s\n", "bench", "Fastswap", "TrackFM");
    double geo_fsw = 1.0, geo_tfm = 1.0;
    for (std::size_t i = 0; i < rows.size(); i++) {
        const Row &r = rows[i];
        const double fsw_slow = static_cast<double>(r.fsw.cycles) /
                                static_cast<double>(r.local.cycles);
        const double tfm_slow = static_cast<double>(r.tfm.cycles) /
                                static_cast<double>(r.local.cycles);
        geo_fsw *= fsw_slow;
        geo_tfm *= tfm_slow;
        std::printf("%6s %11.2fx %11.2fx\n", kernels[i], fsw_slow,
                    tfm_slow);
    }
    std::printf("%6s %11.2fx %11.2fx\n", "GeoM.",
                std::pow(geo_fsw, 1.0 / 5.0),
                std::pow(geo_tfm, 1.0 / 5.0));

    bench::section("(b) FT and SP with the O1 pipeline (TFM/O1)");
    std::printf("%6s %10s %10s %10s %14s\n", "bench", "FSwap", "TFM",
                "TFM/O1", "guard cut");
    for (std::size_t i = 0; i < rows.size(); i++) {
        if (!pre_optimized(kernels[i]))
            continue;
        const Row &r = rows[i];
        const auto local = static_cast<double>(r.local.cycles);
        std::printf("%6s %9.2fx %9.2fx %9.2fx %13.1fx\n", kernels[i],
                    static_cast<double>(r.fsw.cycles) / local,
                    static_cast<double>(r.tfm.cycles) / local,
                    static_cast<double>(r.tfm_o1.cycles) / local,
                    static_cast<double>(r.tfm.guards) /
                        static_cast<double>(r.tfm_o1.guards));
    }
    std::printf("\nPaper reference: O1 cuts FT memory instructions ~6x "
                "and SP ~4x, dramatically reducing guard overheads.\n");
    json.emit();
    return 0;
}
