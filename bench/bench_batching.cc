/**
 * @file
 * Batched data plane micro-benchmark: messages, bytes, and cycles for a
 * guarded read-modify-write stream over a far array, with the batched
 * remote I/O pipeline (fetch coalescing + writeback batching) and the
 * guard last-object cache toggled independently.
 *
 * The paper's TCP backend amortizes per-message software cost by
 * aggregating object transfers (sections 3.3/4.3); this harness shows
 * the same lever in the simulated data plane: equal bytes moved, far
 * fewer messages, measurably fewer end-to-end cycles. Results are also
 * emitted as BENCH_JSON lines for trajectory tracking.
 */

#include <cstdio>

#include "bench_util.hh"
#include "tfm/tfm_runtime.hh"

using namespace tfm;

namespace
{

constexpr std::uint64_t arrayBytes = 16ull << 20; // 16 MB stream
constexpr std::uint32_t objectSize = 4096;

struct ModeResult
{
    const char *name;
    std::uint64_t cycles = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    double coalescing = 1.0;
    double wbCoalescing = 1.0;
    std::uint64_t cacheHits = 0;
};

ModeResult
runStream(const char *name, bool batching, bool guard_cache,
          const CostParams &costs)
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 64ull << 20;
    cfg.localMemBytes = arrayBytes / 4; // 25% local memory
    cfg.objectSizeBytes = objectSize;
    cfg.prefetchEnabled = true;
    cfg.prefetchDepth = 16;
    // Batching off is a batch size of 1: every message carries one
    // payload.
    cfg.fetchBatchMax = batching ? 16 : 1;
    cfg.writebackBatchMax = batching ? 8 : 1;
    cfg.guardCacheEnabled = guard_cache;

    TfmRuntime rt(cfg, costs);
    const std::uint64_t addr = rt.tfmMalloc(arrayBytes);
    const std::uint64_t elems = arrayBytes / sizeof(std::uint64_t);

    const std::uint64_t start = rt.clock().now();
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < elems; i++) {
        const std::uint64_t at = addr + i * sizeof(std::uint64_t);
        const std::uint64_t value = rt.load<std::uint64_t>(at);
        sum += value;
        rt.store<std::uint64_t>(at, value + 1);
    }
    // Drain the coalescing buffer so every mode accounts for the same
    // payload bytes on the wire.
    rt.runtime().flushWritebacks();

    ModeResult r;
    r.name = name;
    r.cycles = rt.clock().now() - start;
    const NetStats &net = rt.runtime().net().stats();
    r.messages = net.totalMessages();
    r.bytes = net.totalBytes();
    r.coalescing = net.fetchCoalescing();
    r.wbCoalescing = net.writebackCoalescing();
    r.cacheHits = rt.guardStats().cacheHitReads +
                  rt.guardStats().cacheHitWrites;
    if (sum == ~0ull) // defeat dead-code elimination of the stream
        std::printf("impossible\n");
    return r;
}

void
report(const ModeResult &r, const CostParams &costs)
{
    std::printf("%-18s %10llu %12llu %10.3f %9.2f %9.2f %12llu\n",
                r.name, static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.bytes),
                bench::seconds(r.cycles, costs) * 1e3, r.coalescing,
                r.wbCoalescing,
                static_cast<unsigned long long>(r.cacheHits));
    bench::JsonLine json("batching");
    json.field("mode", r.name)
        .field("messages", r.messages)
        .field("bytes", r.bytes)
        .field("cycles", r.cycles)
        .field("fetch_coalescing", r.coalescing)
        .field("writeback_coalescing", r.wbCoalescing)
        .field("guard_cache_hits", r.cacheHits);
    json.emit();
}

} // anonymous namespace

int
main()
{
    const CostParams costs;
    bench::banner(
        "Batched data plane - coalesced fetch/writeback + guard cache",
        "one per-message charge covers a whole coalesced window, so "
        "batching moves the same bytes in >=4x fewer messages and "
        "fewer end-to-end cycles",
        "16 MB guarded read-modify-write stream, 25% local memory");

    bench::section("streaming modes (messages | bytes | sim ms | "
                   "fetch coalescing | wb coalescing | guard cache hits)");
    const ModeResult unbatched =
        runStream("unbatched", false, false, costs);
    const ModeResult batched = runStream("batched", true, false, costs);
    const ModeResult batched_cache =
        runStream("batched+cache", true, true, costs);
    report(unbatched, costs);
    report(batched, costs);
    report(batched_cache, costs);

    bench::section("summary");
    const double msg_ratio = static_cast<double>(unbatched.messages) /
                             static_cast<double>(batched.messages);
    const double cycle_gain =
        static_cast<double>(unbatched.cycles) /
        static_cast<double>(batched_cache.cycles);
    std::printf("message reduction (batched vs unbatched):  %.2fx\n",
                msg_ratio);
    std::printf("equal bytes on the wire:                   %s (%llu vs "
                "%llu)\n",
                unbatched.bytes == batched.bytes ? "yes" : "NO",
                static_cast<unsigned long long>(unbatched.bytes),
                static_cast<unsigned long long>(batched.bytes));
    std::printf("end-to-end speedup (batched+cache):        %.2fx\n",
                cycle_gain);
    bench::JsonLine json("batching_summary");
    json.field("message_reduction", msg_ratio)
        .field("cycle_speedup", cycle_gain)
        .field("equal_bytes",
               static_cast<std::uint64_t>(
                   unbatched.bytes == batched.bytes ? 1 : 0));
    json.emit();
    return 0;
}
