/**
 * @file
 * Figure 11: speedup of prefetching coupled with loop chunking versus
 * loop chunking alone, on STREAM Sum and Copy.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/stream.hh"

using namespace tfm;

namespace
{

std::uint64_t
runKernel(bool prefetch, double local_fraction, bool copy)
{
    BackendConfig cfg;
    cfg.kind = SystemKind::TrackFm;
    cfg.farHeapBytes = 32 << 20;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = prefetch;
    cfg.prefetchDepth = 16;
    cfg.chunkPolicy = ChunkPolicy::All;
    const std::uint64_t elements = 1u << 20;
    const std::uint64_t working_set = 2 * elements * 4;
    cfg.localMemBytes =
        bench::localBytesFor(local_fraction, working_set, 4096);
    auto backend = makeBackend(cfg, CostParams{});
    StreamWorkload stream(*backend, elements, 2, 4);
    // Warm-up pass: at high local fractions the arrays stay resident,
    // so prefetching has nothing left to hide (the paper's taper).
    if (copy)
        stream.runCopy();
    else
        stream.runSum();
    return (copy ? stream.runCopy() : stream.runSum()).delta.cycles;
}

} // anonymous namespace

int
main()
{
    bench::banner(
        "Figure 11 - prefetching coupled with loop chunking on STREAM",
        "up to ~5x where remote costs dominate (left); benefit shrinks "
        "as more of the working set is local",
        "8 MB working set standing in for the paper's 12 GB");

    // Every cell, keyed e.g. "copy_prefetch_cycles_l25"; the build check
    // compares them exactly against bench/expected/fig11.json.
    bench::JsonLine json("fig11_prefetch");
    const auto cell = [&json](const char *kernel, const char *variant,
                              double fraction, std::uint64_t value) {
        char key[48];
        std::snprintf(key, sizeof(key), "%s_%s_cycles_l%d", kernel, variant,
                      static_cast<int>(fraction * 100.0 + 0.5));
        json.field(key, value);
    };

    for (const bool copy : {false, true}) {
        const char *kernel = copy ? "copy" : "sum";
        bench::section(copy ? "Copy" : "Sum");
        std::printf("%10s %16s %16s %10s\n", "local mem",
                    "no-prefetch cyc", "prefetch cyc", "speedup");
        for (int i = 0; i < bench::localMemSweepPoints; i++) {
            const double fraction = bench::localMemSweep[i];
            const std::uint64_t off = runKernel(false, fraction, copy);
            const std::uint64_t on = runKernel(true, fraction, copy);
            std::printf("%10s %16llu %16llu %9.2fx\n",
                        bench::pct(fraction).c_str(),
                        static_cast<unsigned long long>(off),
                        static_cast<unsigned long long>(on),
                        static_cast<double>(off) /
                            static_cast<double>(on));
            cell(kernel, "noprefetch", fraction, off);
            cell(kernel, "prefetch", fraction, on);
        }
    }
    std::printf("\nPaper reference: ~5x at the far-memory-dominated "
                "left edge, tapering toward 1x at full local memory.\n");
    json.emit();
    return 0;
}
