/**
 * @file
 * Unit tests for the TrackFM layer: tagged pointers, custody checks,
 * guards, the malloc family, loop chunking, the cost model, and
 * pointer chases over far memory.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "sim/rng.hh"
#include "tfm/chunk.hh"
#include "tfm/cost_model.hh"
#include "tfm/tagged_ptr.hh"
#include "tfm/tfm_runtime.hh"

namespace tfm
{
namespace
{

RuntimeConfig
smallConfig(std::uint32_t object_size = 4096, std::uint64_t frames = 16)
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 4 << 20;
    cfg.localMemBytes = frames * object_size;
    cfg.objectSizeBytes = object_size;
    cfg.prefetchEnabled = false;
    return cfg;
}

TEST(TaggedPtr, EncodeSetsBit60)
{
    const std::uint64_t addr = tfmEncode(0x1234);
    EXPECT_TRUE(tfmIsTagged(addr));
    EXPECT_EQ(tfmOffsetOf(addr), 0x1234u);
    EXPECT_EQ(addr, (1ull << 60) | 0x1234u);
}

TEST(TaggedPtr, PlainAddressesAreUntagged)
{
    int on_stack = 0;
    EXPECT_FALSE(tfmIsTagged(reinterpret_cast<std::uint64_t>(&on_stack)));
    EXPECT_FALSE(tfmIsTagged(0));
}

TEST(TaggedPtr, ArithmeticPreservesTag)
{
    std::uint64_t addr = tfmEncode(4096);
    addr += 8 * 100; // offset math through an integer cast
    EXPECT_TRUE(tfmIsTagged(addr));
    EXPECT_EQ(tfmOffsetOf(addr), 4096u + 800u);
}

TEST(TfmRuntime, MallocReturnsTaggedPointers)
{
    TfmRuntime rt(smallConfig(), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(100);
    EXPECT_TRUE(tfmIsTagged(addr));
}

TEST(TfmRuntime, LoadStoreRoundTrip)
{
    TfmRuntime rt(smallConfig(), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(4096);
    rt.store<std::uint64_t>(addr + 16, 0xfeedfacecafebeefull);
    EXPECT_EQ(rt.load<std::uint64_t>(addr + 16), 0xfeedfacecafebeefull);
}

TEST(TfmRuntime, FirstAccessIsSlowPathThenFast)
{
    TfmRuntime rt(smallConfig(), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(4096);
    rt.load<std::uint32_t>(addr);
    EXPECT_EQ(rt.guardStats().slowRemoteReads, 1u);
    EXPECT_EQ(rt.guardStats().fastReads, 0u);
    rt.load<std::uint32_t>(addr);
    EXPECT_EQ(rt.guardStats().fastReads, 1u);
}

TEST(TfmRuntime, GuardCostsMatchTable1)
{
    const CostParams c;
    // Measure the raw Table 1 guard: the last-object inline cache would
    // otherwise serve the repeated accesses at its cheaper hit cost.
    RuntimeConfig cfg = smallConfig();
    cfg.guardCacheEnabled = false;
    TfmRuntime rt(cfg, c);
    const std::uint64_t addr = rt.tfmMalloc(4096);
    rt.load<std::uint32_t>(addr); // localize (slow path + fetch)

    std::uint64_t before = rt.clock().now();
    rt.load<std::uint32_t>(addr);
    EXPECT_EQ(rt.clock().now() - before, c.fastPathReadCycles);

    before = rt.clock().now();
    rt.store<std::uint32_t>(addr, 1);
    EXPECT_EQ(rt.clock().now() - before, c.fastPathWriteCycles);
}

TEST(TfmRuntime, RevalidateFastPathHitsAndMisses)
{
    const CostParams c;
    TfmRuntime rt(smallConfig(), c);
    const std::uint64_t addr = rt.tfmMalloc(64);
    rt.guardWrite(addr); // arm: localize and capture the epoch
    const std::uint64_t epoch = rt.runtime().evictionEpoch();

    const std::uint64_t before = rt.clock().now();
    EXPECT_TRUE(rt.revalidate(addr, epoch));
    EXPECT_EQ(rt.clock().now() - before, c.revalidateCycles);
    EXPECT_EQ(rt.guardStats().revalidations, 1u);
    EXPECT_EQ(rt.guardStats().revalidationHits, 1u);
    EXPECT_EQ(rt.guardStats().revalidationMisses, 0u);

    // Any unmap bumps the eviction epoch and invalidates the arming.
    rt.runtime().evacuateAll();
    EXPECT_FALSE(rt.revalidate(addr, epoch));
    EXPECT_EQ(rt.guardStats().revalidations, 2u);
    EXPECT_EQ(rt.guardStats().revalidationHits, 1u);
    EXPECT_EQ(rt.guardStats().revalidationMisses, 1u);

    // Re-arming at the new epoch restores the fast path.
    rt.guardWrite(addr);
    EXPECT_TRUE(rt.revalidate(addr, rt.runtime().evictionEpoch()));
    EXPECT_EQ(rt.guardStats().revalidationHits, 2u);
}

TEST(TfmRuntime, CustodyCheckPassesHostPointersThrough)
{
    TfmRuntime rt(smallConfig(), CostParams{});
    std::uint64_t host_value = 99;
    const auto host_addr = reinterpret_cast<std::uint64_t>(&host_value);
    EXPECT_EQ(rt.load<std::uint64_t>(host_addr), 99u);
    EXPECT_EQ(rt.guardStats().custodyRejects, 1u);
    EXPECT_EQ(rt.guardStats().fastReads, 0u);
    EXPECT_EQ(rt.guardStats().slowTotal(), 0u);
}

TEST(TfmRuntime, WritesSurviveEvictionAndRefetch)
{
    TfmRuntime rt(smallConfig(4096, 2), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(32 * 4096);
    rt.store<std::uint64_t>(addr, 4242);
    // Push the first object out with reads of other objects.
    for (int i = 1; i < 8; i++)
        rt.load<std::uint64_t>(addr + i * 4096);
    EXPECT_EQ(rt.load<std::uint64_t>(addr), 4242u);
}

TEST(TfmRuntime, ReadGuardedStraddlesObjectBoundary)
{
    TfmRuntime rt(smallConfig(64), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(256);
    std::uint8_t data[128];
    for (int i = 0; i < 128; i++)
        data[i] = static_cast<std::uint8_t>(i);
    rt.rawWrite(addr, data, sizeof(data));

    std::uint8_t out[128] = {};
    rt.readGuarded(addr, out, sizeof(out));
    EXPECT_EQ(std::memcmp(data, out, sizeof(out)), 0);
    // 128 bytes over 64 B objects = accesses to 2 objects.
    EXPECT_EQ(rt.guardStats().slowRemoteReads, 2u);
}

TEST(TfmRuntime, CallocZeroes)
{
    TfmRuntime rt(smallConfig(), CostParams{});
    const std::uint64_t addr = rt.tfmCalloc(100, 8);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(rt.load<std::uint64_t>(addr + i * 8), 0u);
}

TEST(TfmRuntime, CallocOverflowReturnsNull)
{
    TfmRuntime rt(smallConfig(), CostParams{});
    // count * size wraps std::size_t: calloc(3) semantics require a
    // clean failure, not a tiny allocation with a huge apparent extent.
    const std::size_t huge = std::numeric_limits<std::size_t>::max() / 8 + 1;
    EXPECT_EQ(rt.tfmCalloc(huge, 16), 0u);
    EXPECT_EQ(rt.tfmCalloc(16, huge), 0u);
    // The allocator is untouched and still usable afterwards.
    const std::uint64_t addr = rt.tfmCalloc(4, 8);
    EXPECT_TRUE(tfmIsTagged(addr));
    for (int i = 0; i < 4; i++)
        EXPECT_EQ(rt.load<std::uint64_t>(addr + i * 8), 0u);
}

TEST(TfmRuntime, ReallocPreservesPrefix)
{
    TfmRuntime rt(smallConfig(), CostParams{});
    std::uint64_t addr = rt.tfmMalloc(64);
    rt.store<std::uint64_t>(addr, 111);
    rt.store<std::uint64_t>(addr + 8, 222);
    addr = rt.tfmRealloc(addr, 4096);
    EXPECT_TRUE(tfmIsTagged(addr));
    EXPECT_EQ(rt.load<std::uint64_t>(addr), 111u);
    EXPECT_EQ(rt.load<std::uint64_t>(addr + 8), 222u);
}

TEST(TfmRuntime, FreeRecyclesFarMemory)
{
    TfmRuntime rt(smallConfig(), CostParams{});
    const std::uint64_t a = rt.tfmMalloc(128);
    rt.tfmFree(a);
    const std::uint64_t b = rt.tfmMalloc(128);
    EXPECT_EQ(a, b);
}

/** Allocate @p n int32 elements holding 0..n-1, unmetered. */
std::uint64_t
iotaArray(TfmRuntime &rt, int n)
{
    const std::uint64_t addr = rt.tfmMalloc(n * sizeof(std::int32_t));
    for (std::int32_t i = 0; i < n; i++)
        rt.rawWrite(addr + i * sizeof(i), &i, sizeof(i));
    return addr;
}

TEST(ChunkCursor, ReadsSequentiallyAcrossObjects)
{
    TfmRuntime rt(smallConfig(256), CostParams{});
    const int n = 512; // 8 objects of 64 elements (int32)
    const std::uint64_t array = iotaArray(rt, n);

    ChunkCursorRaw cursor(rt, array, sizeof(std::int32_t), false);
    std::int64_t sum = 0;
    for (int i = 0; i < n; i++) {
        std::int32_t value;
        cursor.read(&value);
        sum += value;
    }
    EXPECT_EQ(sum, static_cast<std::int64_t>(n) * (n - 1) / 2);
}

TEST(ChunkCursor, UsesLocalityGuardsNotFastPaths)
{
    TfmRuntime rt(smallConfig(256), CostParams{});
    const int n = 512;
    const std::uint64_t array = iotaArray(rt, n);
    {
        ChunkCursorRaw cursor(rt, array, sizeof(std::int32_t), false);
        std::int32_t value;
        for (int i = 0; i < n; i++)
            cursor.read(&value);
    }
    const GuardStats &g = rt.guardStats();
    EXPECT_EQ(g.fastReads, 0u);
    // One locality guard per object touched (512 * 4 / 256 = 8), plus
    // possibly one more for the boundary after the last element.
    EXPECT_GE(g.localityGuards, 8u);
    EXPECT_LE(g.localityGuards, 9u);
    EXPECT_EQ(g.boundaryChecks, static_cast<std::uint64_t>(n));
}

TEST(ChunkCursor, WritesArePersisted)
{
    TfmRuntime rt(smallConfig(256, 4), CostParams{});
    const int n = 1024;
    const std::uint64_t array = rt.tfmMalloc(n * sizeof(std::int32_t));
    {
        ChunkCursorRaw cursor(rt, array, sizeof(std::int32_t), true);
        for (std::int32_t i = 0; i < n; i++) {
            const std::int32_t value = i * 2;
            cursor.write(&value);
        }
    }
    rt.runtime().evacuateAll();
    for (int i = 0; i < n; i += 61) {
        std::int32_t value;
        rt.rawRead(array + i * sizeof(value), &value, sizeof(value));
        EXPECT_EQ(value, i * 2);
    }
}

TEST(ChunkCursor, PinIsReleasedOnDestruction)
{
    TfmRuntime rt(smallConfig(4096, 4), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(8 * 4096);
    {
        ChunkCursorRaw cursor(rt, addr, sizeof(std::int64_t), false);
        std::int64_t value;
        cursor.read(&value);
    }
    // After destruction nothing is pinned, so evacuateAll succeeds.
    rt.runtime().evacuateAll();
    SUCCEED();
}

TEST(ChunkCostModel, BreakEvenNearPaperCrossover)
{
    ChunkCostModel model;
    // Fig. 6: chunking becomes advantageous around ~730 elements/object.
    EXPECT_NEAR(model.breakEvenDensity(), 730.0, 10.0);
    EXPECT_FALSE(model.shouldChunk(512));
    EXPECT_TRUE(model.shouldChunk(1024));
}

TEST(ChunkCostModel, CostsCrossAtBreakEven)
{
    ChunkCostModel model;
    const auto d = static_cast<std::uint64_t>(model.breakEvenDensity());
    EXPECT_GT(model.chunkedCostPerObject(d - 100),
              model.naiveCostPerObject(d - 100));
    EXPECT_LT(model.chunkedCostPerObject(d + 100),
              model.naiveCostPerObject(d + 100));
}

TEST(ChunkCostModel, DensityFromSizes)
{
    EXPECT_EQ(ChunkCostModel::density(4096, 4), 1024u);
    EXPECT_EQ(ChunkCostModel::density(4096, 8), 512u);
    EXPECT_EQ(ChunkCostModel::density(64, 64), 1u);
}

TEST(TfmRuntime, StatsExportIncludesGuards)
{
    TfmRuntime rt(smallConfig(), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(4096);
    rt.load<std::uint32_t>(addr);
    rt.load<std::uint32_t>(addr);
    StatSet set;
    rt.exportStats(set);
    EXPECT_EQ(set.get("guard.fast_reads"), 1u);
    EXPECT_EQ(set.get("guard.slow_remote_reads"), 1u);
}

// Pointer chases over far memory: the section 2 claim that linked
// nodes want small (64 B) objects, and the compiler's guarded view of a
// recursive structure.

RuntimeConfig
chaseConfig(std::uint32_t object_size, std::uint64_t local_kb)
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 8 << 20;
    cfg.localMemBytes = local_kb << 10;
    cfg.objectSizeBytes = object_size;
    cfg.prefetchEnabled = false;
    return cfg;
}

TEST(RemoteList, SmallObjectsBeatPagesForPointerChase)
{
    // Section 2: a linked list wants node-sized (64 B) objects. A
    // traversal with 4 KB objects drags 4 KB per node fetched.
    // A fresh list allocates nodes contiguously, so big objects would
    // accidentally batch successors; real lists are scattered by
    // allocator churn. Model that: pre-allocate a padded node pool,
    // then link a random permutation of it.
    std::uint64_t small_cycles = 0, page_cycles = 0;
    for (const std::uint32_t objsize : {64u, 4096u}) {
        TfmRuntime rt(chaseConfig(objsize, 32), CostParams{});
        struct Node
        {
            std::uint64_t next;
            std::int64_t value;
        };
        const int n = 3000;
        std::vector<std::uint64_t> nodes;
        for (int i = 0; i < n; i++) {
            nodes.push_back(rt.tfmMalloc(sizeof(Node)));
            rt.tfmMalloc(48); // churn padding between nodes
        }
        Rng rng(3);
        for (int i = n - 1; i > 0; i--)
            std::swap(nodes[static_cast<std::size_t>(i)],
                      nodes[rng.below(static_cast<std::uint64_t>(i) + 1)]);
        for (int i = 0; i < n; i++) {
            const Node node{i + 1 < n ? nodes[static_cast<std::size_t>(
                                            i + 1)]
                                      : 0,
                            i};
            rt.rawWrite(nodes[static_cast<std::size_t>(i)], &node,
                        sizeof(node));
        }
        rt.runtime().evacuateAll();

        const std::uint64_t before = rt.clock().now();
        std::int64_t sum = 0;
        std::uint64_t cursor = nodes[0];
        while (cursor != 0) {
            const Node node = rt.load<Node>(cursor);
            sum += node.value;
            cursor = node.next;
        }
        EXPECT_EQ(sum, static_cast<std::int64_t>(n) * (n - 1) / 2);
        (objsize == 64 ? small_cycles : page_cycles) =
            rt.clock().now() - before;
    }
    EXPECT_LT(small_cycles, page_cycles);
}

TEST(RemoteList, TrackFmGuardedPointerChaseMatches)
{
    // The same pointer chase through TrackFM guards (the compiler's
    // view of a recursive structure): build the list with tagged
    // pointers and chase it with guarded loads.
    TfmRuntime rt(chaseConfig(64, 16), CostParams{});
    struct Node
    {
        std::uint64_t next;
        std::int64_t value;
    };
    std::uint64_t head = 0; // 0 = nil (offset 0 is never allocated-0?)
    // Build front-to-back with explicit nil = 0 sentinel: allocate a
    // dummy first so no real node sits at tagged offset 0.
    rt.tfmMalloc(sizeof(Node));
    for (int i = 0; i < 2000; i++) {
        const std::uint64_t node = rt.tfmMalloc(sizeof(Node));
        Node fresh{head, i};
        rt.rawWrite(node, &fresh, sizeof(fresh));
        head = node;
    }
    rt.runtime().evacuateAll();

    std::int64_t sum = 0;
    std::uint64_t cursor = head;
    std::uint64_t hops = 0;
    while (cursor != 0) {
        const Node node = rt.load<Node>(cursor);
        sum += node.value;
        cursor = node.next;
        hops++;
    }
    EXPECT_EQ(hops, 2000u);
    EXPECT_EQ(sum, 2000ll * 1999 / 2);
    // Every hop is a guard; under pressure many are slow-path.
    EXPECT_GE(rt.guardStats().guardTotal(), 2000u);
    EXPECT_GT(rt.guardStats().slowRemoteReads, 100u);
}

} // namespace
} // namespace tfm
