/**
 * @file
 * Ablation: reduce guard COSTS vs reduce guard COUNTS.
 *
 * Section 4.2 names the two paths to making compiler-based far memory
 * feasible; section 5's "Lessons" reports that eliminating guards
 * (chunking) was the more fruitful path than making each guard cheaper.
 * This ablation sweeps the fast-path guard cost for the naive
 * transformation and compares each point against chunking at the
 * paper's real 21-cycle guard.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/stream.hh"

using namespace tfm;

namespace
{

std::uint64_t
runSum(ChunkPolicy policy, std::uint64_t fast_path_cycles)
{
    CostParams costs;
    costs.fastPathReadCycles = fast_path_cycles;
    costs.fastPathWriteCycles = fast_path_cycles;

    BackendConfig cfg;
    cfg.kind = SystemKind::TrackFm;
    cfg.farHeapBytes = 32 << 20;
    cfg.objectSizeBytes = 4096;
    cfg.chunkPolicy = policy;
    cfg.localMemBytes = 8 << 20; // everything local: guards dominate
    auto backend = makeBackend(cfg, costs);
    StreamWorkload stream(*backend, 1u << 20, 2, 4);
    stream.runSum(); // warm
    return stream.runSum().delta.cycles;
}

} // anonymous namespace

int
main()
{
    bench::banner(
        "Ablation - cheaper guards vs fewer guards (section 5 lesson)",
        "even a hypothetical 4-cycle fast path cannot match eliminating "
        "the guards via loop chunking",
        "4 MB STREAM sum, fully local (guard-bound regime)");

    // Every cell, keyed e.g. "naive_cycles_fp21"; the build check
    // compares them exactly against bench/expected/ablation_guards.json.
    bench::JsonLine json("ablation_guards");
    const std::uint64_t chunked = runSum(ChunkPolicy::All, 21);
    json.field("chunked_cycles_fp21", chunked);
    std::printf("chunked transformation (real 21-cycle guards): "
                "%llu cycles\n\n",
                static_cast<unsigned long long>(chunked));
    std::printf("%18s %14s %18s\n", "fast-path cycles", "naive cyc",
                "chunked speedup");
    for (const std::uint64_t cost : {80ull, 40ull, 21ull, 10ull, 4ull}) {
        const std::uint64_t naive = runSum(ChunkPolicy::None, cost);
        const std::string key = "naive_cycles_fp" + std::to_string(cost);
        json.field(key.c_str(), naive);
        std::printf("%18llu %14llu %17.2fx\n",
                    static_cast<unsigned long long>(cost),
                    static_cast<unsigned long long>(naive),
                    static_cast<double>(naive) /
                        static_cast<double>(chunked));
    }
    std::printf(
        "\nAt the real 21-cycle fast path, chunking wins 1.8x. Matching "
        "it by cheapening\nguards would need them under ~5 cycles total "
        "-- less than the custody check alone\n(4 cycles) before the "
        "state-table load even happens. Eliminating guards is the\n"
        "fruitful path, as section 5's Lessons report.\n");
    json.emit();
    return 0;
}
