/**
 * @file
 * Google-benchmark microbenchmarks for the hot primitives: guard fast
 * path, slow path, chunk cursor step, Fastswap resident access, AIFM
 * deref. Wall time measures the simulator's own overhead; the
 * `sim_cycles` counter reports the simulated cost per operation, which
 * is the number to compare against Tables 1-2.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "aifmlib/aifm_runtime.hh"
#include "fastswap/fastswap_runtime.hh"
#include "tfm/chunk.hh"
#include "tfm/tfm_runtime.hh"

using namespace tfm;

namespace
{

RuntimeConfig
config()
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 8 << 20;
    cfg.localMemBytes = 4 << 20;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = false;
    return cfg;
}

void
BM_GuardFastPathRead(benchmark::State &state)
{
    TfmRuntime rt(config(), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(4096);
    rt.load<std::uint64_t>(addr);
    std::uint64_t start = rt.clock().now();
    for (auto _ : state)
        benchmark::DoNotOptimize(rt.load<std::uint64_t>(addr));
    state.counters["sim_cycles"] = benchmark::Counter(
        static_cast<double>(rt.clock().now() - start),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_GuardFastPathRead);

void
BM_GuardFastPathWrite(benchmark::State &state)
{
    TfmRuntime rt(config(), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(4096);
    rt.store<std::uint64_t>(addr, 1);
    std::uint64_t start = rt.clock().now();
    for (auto _ : state)
        rt.store<std::uint64_t>(addr, 2);
    state.counters["sim_cycles"] = benchmark::Counter(
        static_cast<double>(rt.clock().now() - start),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_GuardFastPathWrite);

void
BM_GuardRevalidateHit(benchmark::State &state)
{
    TfmRuntime rt(config(), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(4096);
    rt.guardWrite(addr); // arm the epoch
    const std::uint64_t epoch = rt.runtime().evictionEpoch();
    std::uint64_t start = rt.clock().now();
    for (auto _ : state)
        benchmark::DoNotOptimize(rt.revalidate(addr, epoch));
    state.counters["sim_cycles"] = benchmark::Counter(
        static_cast<double>(rt.clock().now() - start),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_GuardRevalidateHit);

void
BM_GuardSlowPathRemote(benchmark::State &state)
{
    TfmRuntime rt(config(), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(4 << 20);
    std::uint64_t obj = 0;
    const std::uint64_t objects = (4ull << 20) / 4096;
    std::uint64_t start = rt.clock().now();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            rt.load<std::uint64_t>(addr + (obj % objects) * 4096));
        rt.runtime().evacuateAll();
        obj++;
    }
    state.counters["sim_cycles"] = benchmark::Counter(
        static_cast<double>(rt.clock().now() - start),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_GuardSlowPathRemote);

/**
 * The object miss path at steady state: 64 B objects read in a seeded
 * random order from a populated 6 MB heap through 512 KB of local memory
 * (1/12 of it, as in the Fig. 16 memcached runs). Nearly every
 * iteration is guard, miss, CLOCK eviction and fetch; unlike
 * BM_GuardSlowPathRemote it never evacuates.
 */
void
BM_DemandMissEvict(benchmark::State &state)
{
    RuntimeConfig cfg = config();
    cfg.objectSizeBytes = 64;
    cfg.localMemBytes = 512 << 10;
    TfmRuntime rt(cfg, CostParams{});
    constexpr std::uint64_t heap = 6 << 20;
    constexpr std::uint64_t objects = heap / 64;
    const std::uint64_t addr = rt.tfmMalloc(heap);
    std::uint64_t rng = 0x5eed;
    const auto next = [&] {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 16;
    };
    std::vector<std::uint64_t> page(4096 / 8);
    for (std::uint64_t at = 0; at < heap; at += 4096) {
        for (std::uint64_t &word : page)
            word = next();
        rt.rawWrite(addr + at, page.data(), 4096);
    }
    // Fill local memory so the timed loop starts evicting at once.
    for (std::uint64_t i = 0; i < cfg.localMemBytes / 64; i++)
        rt.load<std::uint64_t>(addr + next() % objects * 64);
    const std::uint64_t start = rt.clock().now();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            rt.load<std::uint64_t>(addr + next() % objects * 64));
    }
    state.counters["sim_cycles"] = benchmark::Counter(
        static_cast<double>(rt.clock().now() - start),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DemandMissEvict);

void
BM_CustodyReject(benchmark::State &state)
{
    TfmRuntime rt(config(), CostParams{});
    std::uint64_t host_value = 7;
    const auto addr = reinterpret_cast<std::uint64_t>(&host_value);
    std::uint64_t start = rt.clock().now();
    for (auto _ : state)
        benchmark::DoNotOptimize(rt.load<std::uint64_t>(addr));
    state.counters["sim_cycles"] = benchmark::Counter(
        static_cast<double>(rt.clock().now() - start),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CustodyReject);

void
BM_FastswapResidentAccess(benchmark::State &state)
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 8 << 20;
    cfg.localMemBytes = 4 << 20;
    FastswapRuntime fs(cfg, CostParams{});
    const std::uint64_t heap = fs.allocate(4096);
    fs.load<std::uint64_t>(heap);
    std::uint64_t start = fs.clock().now();
    for (auto _ : state)
        benchmark::DoNotOptimize(fs.load<std::uint64_t>(heap));
    state.counters["sim_cycles"] = benchmark::Counter(
        static_cast<double>(fs.clock().now() - start),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FastswapResidentAccess);

void
BM_AifmDeref(benchmark::State &state)
{
    AifmRuntime rt(config(), CostParams{});
    const std::uint64_t offset = rt.runtime().allocate(4096);
    rt.deref(offset, false);
    std::uint64_t start = rt.clock().now();
    for (auto _ : state)
        benchmark::DoNotOptimize(rt.deref(offset, false));
    state.counters["sim_cycles"] = benchmark::Counter(
        static_cast<double>(rt.clock().now() - start),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AifmDeref);

} // anonymous namespace

BENCHMARK_MAIN();
