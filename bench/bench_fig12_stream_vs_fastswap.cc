/**
 * @file
 * Figure 12: TrackFM (chunking + prefetching) versus Fastswap on
 * STREAM Sum and Copy.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/stream.hh"

using namespace tfm;

namespace
{

std::uint64_t
runKernel(SystemKind kind, double local_fraction, bool copy)
{
    BackendConfig cfg;
    cfg.kind = kind;
    cfg.farHeapBytes = 32 << 20;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = true;
    cfg.prefetchDepth = 16;
    cfg.chunkPolicy = ChunkPolicy::All;
    const std::uint64_t elements = 1u << 20;
    const std::uint64_t working_set = 2 * elements * 4;
    cfg.localMemBytes =
        bench::localBytesFor(local_fraction, working_set, 4096);
    auto backend = makeBackend(cfg, CostParams{});
    StreamWorkload stream(*backend, elements, 2, 4);
    return (copy ? stream.runCopy() : stream.runSum()).delta.cycles;
}

} // anonymous namespace

int
main()
{
    bench::banner(
        "Figure 12 - STREAM speedup over Fastswap "
        "(chunking + prefetching enabled)",
        "TrackFM ~2.7x (Sum) and ~2.9x (Copy) faster than Fastswap",
        "8 MB working set standing in for the paper's 12 GB");

    // Every cell, keyed e.g. "copy_fastswap_cycles_l25"; the build
    // check compares them exactly against bench/expected/fig12.json.
    bench::JsonLine json("fig12_stream_vs_fastswap");
    const auto cell = [&json](const char *kernel, const char *system,
                          double fraction, std::uint64_t value) {
        char key[48];
        std::snprintf(key, sizeof(key), "%s_%s_cycles_l%d", kernel, system,
                      static_cast<int>(fraction * 100.0 + 0.5));
        json.field(key, value);
    };

    for (const bool copy : {false, true}) {
        const char *kernel = copy ? "copy" : "sum";
        bench::section(copy ? "Copy" : "Sum");
        std::printf("%10s %16s %16s %10s\n", "local mem",
                    "Fastswap cyc", "TrackFM cyc", "speedup");
        for (int i = 0; i < bench::localMemSweepPoints; i++) {
            const double fraction = bench::localMemSweep[i];
            const std::uint64_t fsw =
                runKernel(SystemKind::Fastswap, fraction, copy);
            const std::uint64_t tfm_cycles =
                runKernel(SystemKind::TrackFm, fraction, copy);
            std::printf("%10s %16llu %16llu %9.2fx\n",
                        bench::pct(fraction).c_str(),
                        static_cast<unsigned long long>(fsw),
                        static_cast<unsigned long long>(tfm_cycles),
                        static_cast<double>(fsw) /
                            static_cast<double>(tfm_cycles));
            cell(kernel, "fastswap", fraction, fsw);
            cell(kernel, "trackfm", fraction, tfm_cycles);
        }
    }
    std::printf("\nPaper reference: TrackFM wins by ~2-3x in the "
                "memory-pressured region.\n");
    json.emit();
    return 0;
}
