/**
 * @file
 * Host heap allocations on the steady-state miss path. This executable
 * replaces the global operator new with one that counts every
 * allocation, so it holds only tests that read the count: no other
 * test runs under the replacement.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "tfm/tfm_runtime.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t bytes) noexcept
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(bytes ? bytes : 1);
}

void *
countedAllocOrThrow(std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

} // anonymous namespace

// Every non-aligned form, so each allocation pairs with a free().
void *operator new(std::size_t n) { return countedAllocOrThrow(n); }
void *operator new[](std::size_t n) { return countedAllocOrThrow(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace tfm
{
namespace
{

/**
 * A sequential TrackFM scan of 2,048 4 KB objects through 1 MB of local
 * memory with 8-object prefetch batches: every pass misses, prefetches
 * and evicts. After one warm-up pass, a read-only pass through the
 * default remote tier allocates nothing.
 */
TEST(AllocFree, PrefetchingScanAllocatesNothingAfterWarmUp)
{
    constexpr std::uint64_t kObjects = 2048;
    constexpr std::uint32_t kObj = 4096;
    RuntimeConfig cfg;
    cfg.farHeapBytes = 2 * kObjects * kObj;
    cfg.localMemBytes = 1 << 20;
    cfg.objectSizeBytes = kObj;
    cfg.fetchBatchMax = 8;
    TfmRuntime tfm(cfg, CostParams{});
    const std::uint64_t base = tfm.tfmMalloc(kObjects * kObj);
    for (std::uint64_t i = 0; i < kObjects; i++)
        tfm.rawWrite(base + i * kObj, &i, sizeof(i));

    const auto scan = [&] {
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < kObjects; i++)
            sum += tfm.load<std::uint64_t>(base + i * kObj);
        return sum;
    };
    const std::uint64_t expected = kObjects * (kObjects - 1) / 2;
    EXPECT_EQ(scan(), expected); // warm-up

    const RuntimeStats before = tfm.runtime().stats();
    const std::uint64_t allocs_before = allocations.load();
    const std::uint64_t sum = scan();
    const std::uint64_t allocs = allocations.load() - allocs_before;
    const RuntimeStats after = tfm.runtime().stats();

    EXPECT_EQ(sum, expected);
    EXPECT_GT(after.demandFetches, before.demandFetches);
    EXPECT_GT(after.prefetchBatches, before.prefetchBatches);
    EXPECT_GT(after.evictions, before.evictions);
    EXPECT_EQ(allocs, 0u);
}

} // anonymous namespace
} // namespace tfm
