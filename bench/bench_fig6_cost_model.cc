/**
 * @file
 * Figure 6: the loop-chunking cost model. Sweeps object density
 * (elements per object), measuring empirical speedup of the chunked
 * transformation over the naive one on an all-local sequential sweep,
 * and prints the model's predicted break-even (~730 elements/object).
 */

#include <cstdio>

#include "bench_util.hh"
#include "tfm/cost_model.hh"
#include "workloads/backend_config.hh"
#include "workloads/stream.hh"

using namespace tfm;

namespace
{

/** Cycles for one sum pass with the given chunk policy, all local. */
std::uint64_t
sweepCycles(std::uint32_t object_size, std::uint32_t elem_bytes,
            ChunkPolicy policy)
{
    BackendConfig cfg;
    cfg.kind = SystemKind::TrackFm;
    cfg.farHeapBytes = 16 << 20;
    cfg.localMemBytes = 16 << 20; // everything fits: guards dominate
    cfg.objectSizeBytes = object_size;
    cfg.prefetchEnabled = false;
    cfg.chunkPolicy = policy;
    auto backend = makeBackend(cfg, CostParams{});
    const std::uint64_t elements = (4 << 20) / elem_bytes;
    StreamWorkload stream(*backend, elements, 2, elem_bytes);
    // Warm pass localizes everything; measured pass is all-fast-path.
    stream.runSum();
    return stream.runSum().delta.cycles;
}

} // anonymous namespace

int
main()
{
    const CostParams costs;
    const ChunkCostModel model;
    bench::banner(
        "Figure 6 - loop-chunking cost model crossover",
        "chunking wins once objects hold more than ~730 elements",
        "4 MB array, all-local; density swept via object size at fixed "
        "8 B elements");

    std::printf("predicted break-even density: %.0f elements/object\n\n",
                model.breakEvenDensity());
    std::printf("%10s %12s %12s %10s %10s\n", "elems/obj", "naive cyc",
                "chunked cyc", "speedup", "model");
    // Object sizes must be powers of two, so achievable densities at a
    // fixed element size are powers of two as well; the crossover falls
    // between the 512 and 1024 points, bracketing the predicted 730.
    const std::uint32_t elem_bytes = 8;
    // Every cell, keyed e.g. "chunked_cycles_d1024"; the build check
    // compares them exactly against bench/expected/fig6.json.
    bench::JsonLine json("fig6_cost_model");
    for (const std::uint32_t density :
         {64u, 128u, 256u, 512u, 1024u, 2048u}) {
        const std::uint32_t object_size = density * elem_bytes;
        const std::uint64_t naive =
            sweepCycles(object_size, elem_bytes, ChunkPolicy::None);
        const std::uint64_t chunked =
            sweepCycles(object_size, elem_bytes, ChunkPolicy::All);
        const double speedup = static_cast<double>(naive) /
                               static_cast<double>(chunked);
        std::printf("%10u %12llu %12llu %9.2fx %10s\n", density,
                    static_cast<unsigned long long>(naive),
                    static_cast<unsigned long long>(chunked), speedup,
                    model.shouldChunk(density) ? "chunk" : "don't");
        char key[32];
        std::snprintf(key, sizeof(key), "naive_cycles_d%u", density);
        json.field(key, naive);
        std::snprintf(key, sizeof(key), "chunked_cycles_d%u", density);
        json.field(key, chunked);
    }
    std::printf(
        "\nPaper reference: the model predicts ~730 elements/object and "
        "the paper's\nempirical crossing matches it. In this simulator "
        "the runtime charge for a\nlocality guard is mechanistic (~2K "
        "cycles, not the ~13K the fitted model\nconstants imply), so "
        "the empirical crossing lands near d~100; the published\n"
        "decision threshold is kept, making the compiler strictly "
        "conservative\n(it never chunks a loop our runtime would not "
        "profit from).\n");
    json.emit();
    return 0;
}
