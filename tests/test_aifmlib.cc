/**
 * @file
 * Unit tests for the AIFM library-mode baseline runtime.
 */

#include <gtest/gtest.h>

#include "aifmlib/aifm_runtime.hh"

namespace tfm
{
namespace
{

RuntimeConfig
smallConfig()
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 4 << 20;
    cfg.localMemBytes = 16 * 4096;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = false;
    return cfg;
}

TEST(AifmRuntime, DerefHitIsCheap)
{
    const CostParams c;
    AifmRuntime rt(smallConfig(), c);
    const std::uint64_t off = rt.runtime().allocate(4096);
    rt.deref(off, false); // miss, localizes

    const std::uint64_t before = rt.clock().now();
    rt.deref(off, false);
    EXPECT_EQ(rt.clock().now() - before, c.smartPtrDerefCycles);
    EXPECT_EQ(rt.stats().derefs, 1u);
    EXPECT_EQ(rt.stats().misses, 1u);
}

} // namespace
} // namespace tfm
