/**
 * @file
 * Figure 7: speedup of the loop-chunking transformation over the naive
 * guard-per-element transformation on STREAM Sum and Copy, sweeping
 * the local memory fraction.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/stream.hh"

using namespace tfm;

namespace
{

constexpr std::uint64_t elementsPerArray = 1u << 20; // 4 MB per array
constexpr std::uint32_t elemBytes = 4;               // density 1024

std::uint64_t
runKernel(ChunkPolicy policy, double local_fraction, bool copy)
{
    BackendConfig cfg;
    cfg.kind = SystemKind::TrackFm;
    cfg.farHeapBytes = 32 << 20;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = policy;
    const std::uint64_t working_set = 2 * elementsPerArray * elemBytes;
    cfg.localMemBytes =
        bench::localBytesFor(local_fraction, working_set, 4096);
    auto backend = makeBackend(cfg, CostParams{});
    StreamWorkload stream(*backend, elementsPerArray, 2, elemBytes);
    // Warm-up pass: STREAM reports steady-state sweeps, so the local
    // tier holds whatever fits before measurement starts.
    if (copy)
        stream.runCopy();
    else
        stream.runSum();
    const StreamResult result =
        copy ? stream.runCopy() : stream.runSum();
    return result.delta.cycles;
}

} // anonymous namespace

int
main()
{
    bench::banner(
        "Figure 7 - loop chunking speedup on STREAM (Sum, Copy)",
        "chunking speeds STREAM up 1.5-2x; benefit grows to the right "
        "(less network-bound) and with more accesses per loop",
        "working set 8 MB standing in for the paper's 12 GB; sweep is "
        "over fractions so shapes are preserved");

    // Every cell, keyed e.g. "copy_chunked_cycles_l25"; the build check
    // compares them exactly against bench/expected/fig7.json.
    bench::JsonLine json("fig7_loop_chunking");
    const auto cell = [&json](const char *kernel, const char *variant,
                              double fraction, std::uint64_t value) {
        char key[48];
        std::snprintf(key, sizeof(key), "%s_%s_cycles_l%d", kernel, variant,
                      static_cast<int>(fraction * 100.0 + 0.5));
        json.field(key, value);
    };

    for (const bool copy : {false, true}) {
        const char *kernel = copy ? "copy" : "sum";
        bench::section(copy ? "Copy (two accesses per iteration)"
                            : "Sum (one access per iteration)");
        std::printf("%10s %14s %14s %10s\n", "local mem", "naive cyc",
                    "chunked cyc", "speedup");
        for (int i = 0; i < bench::localMemSweepPoints; i++) {
            const double fraction = bench::localMemSweep[i];
            const std::uint64_t naive =
                runKernel(ChunkPolicy::None, fraction, copy);
            const std::uint64_t chunked =
                runKernel(ChunkPolicy::All, fraction, copy);
            std::printf("%10s %14llu %14llu %9.2fx\n",
                        bench::pct(fraction).c_str(),
                        static_cast<unsigned long long>(naive),
                        static_cast<unsigned long long>(chunked),
                        static_cast<double>(naive) /
                            static_cast<double>(chunked));
            cell(kernel, "naive", fraction, naive);
            cell(kernel, "chunked", fraction, chunked);
        }
    }
    std::printf("\nPaper reference: speedups between ~1.5x and ~2x, "
                "rising toward full local memory.\n");
    json.emit();
    return 0;
}
