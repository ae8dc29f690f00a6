/**
 * @file
 * Unit tests for the far-memory object runtime: metadata, state table,
 * allocator, frame cache, localization, eviction, pinning, prefetch.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>
#include <vector>

#include "runtime/far_mem_runtime.hh"
#include "sim/rng.hh"
#include "tfm/tfm_runtime.hh"
#include "runtime/frame_cache.hh"
#include "runtime/object_meta.hh"
#include "runtime/object_state_table.hh"
#include "runtime/prefetcher.hh"
#include "runtime/region_allocator.hh"

namespace tfm
{
namespace
{

TEST(ObjectMeta, StartsRemote)
{
    ObjectMeta meta;
    EXPECT_FALSE(meta.present());
    EXPECT_FALSE(meta.dirty());
    EXPECT_FALSE(meta.safeForFastPath());
}

// Every mutator runs in both memory orders: seq_cst once a worker is
// registered, relaxed before.
TEST(ObjectMeta, LocalFormatCarriesFrame)
{
    for (bool shared : {false, true}) {
        ObjectMeta meta;
        meta.makeLocal(12345, shared);
        EXPECT_TRUE(meta.present());
        EXPECT_EQ(meta.frame(), 12345u);
        EXPECT_TRUE(meta.safeForFastPath());
    }
}

TEST(ObjectMeta, InflightBlocksFastPath)
{
    for (bool shared : {false, true}) {
        ObjectMeta meta;
        meta.makeLocal(1, shared);
        meta.setInflight(shared);
        EXPECT_TRUE(meta.present());
        EXPECT_FALSE(meta.safeForFastPath());
        meta.clearInflight(shared);
        EXPECT_TRUE(meta.safeForFastPath());
    }
}

TEST(ObjectMeta, MakeRemoteClearsEverything)
{
    for (bool shared : {false, true}) {
        ObjectMeta meta;
        meta.makeLocal(7, shared);
        meta.setDirty(shared);
        meta.setPinned(shared);
        EXPECT_TRUE(meta.dirty());
        EXPECT_TRUE(meta.pinned());
        meta.clearPinned(shared);
        meta.clearDirty(shared);
        EXPECT_FALSE(meta.pinned());
        EXPECT_FALSE(meta.dirty());
        EXPECT_EQ(meta.frame(), 7u);
        meta.setDirty(shared);
        meta.makeRemote(shared);
        EXPECT_FALSE(meta.present());
        EXPECT_FALSE(meta.dirty());
    }
}

TEST(ObjectStateTable, MapsOffsetsToObjects)
{
    ObjectStateTable table(1 << 20, 4096);
    EXPECT_EQ(table.numObjects(), (1u << 20) / 4096);
    EXPECT_EQ(table.objectOf(0), 0u);
    EXPECT_EQ(table.objectOf(4095), 0u);
    EXPECT_EQ(table.objectOf(4096), 1u);
    EXPECT_EQ(table.offsetInObject(4100), 4u);
}

TEST(ObjectStateTable, FootprintIsLikeAPageTable)
{
    // Paper's example: 32 GB heap, 4 KB objects -> 2^23 entries = 64 MB.
    ObjectStateTable table(32ull << 30, 4096);
    EXPECT_EQ(table.numObjects(), 1ull << 23);
    EXPECT_EQ(table.footprintBytes(), 64ull << 20);
}

TEST(RegionAllocator, SmallAllocationsNeverStraddleObjects)
{
    RegionAllocator alloc(1 << 20, 4096);
    for (int i = 0; i < 1000; i++) {
        const std::uint64_t off = alloc.allocate(48); // rounds to 64
        ASSERT_NE(off, RegionAllocator::badOffset);
        const std::uint64_t first_obj = off / 4096;
        const std::uint64_t last_obj = (off + 63) / 4096;
        EXPECT_EQ(first_obj, last_obj);
    }
}

TEST(RegionAllocator, LargeAllocationsAreObjectAligned)
{
    RegionAllocator alloc(1 << 22, 4096);
    alloc.allocate(10); // misalign the bump pointer
    const std::uint64_t off = alloc.allocate(8192);
    EXPECT_EQ(off % 4096, 0u);
}

TEST(RegionAllocator, FreedBlocksAreReused)
{
    RegionAllocator alloc(1 << 20, 4096);
    const std::uint64_t a = alloc.allocate(100);
    alloc.deallocate(a);
    const std::uint64_t b = alloc.allocate(100);
    EXPECT_EQ(a, b);
}

TEST(RegionAllocator, SizeOfReportsRoundedSize)
{
    RegionAllocator alloc(1 << 20, 4096);
    const std::uint64_t a = alloc.allocate(100);
    EXPECT_EQ(alloc.sizeOf(a), 128u);
    EXPECT_EQ(alloc.sizeOf(a + 1), 0u);
}

TEST(RegionAllocator, ExhaustionReturnsBadOffset)
{
    RegionAllocator alloc(8192, 4096);
    EXPECT_NE(alloc.allocate(4096), RegionAllocator::badOffset);
    EXPECT_NE(alloc.allocate(4096), RegionAllocator::badOffset);
    EXPECT_EQ(alloc.allocate(4096), RegionAllocator::badOffset);
}

TEST(RegionAllocator, BytesInUseTracksAllocations)
{
    RegionAllocator alloc(1 << 20, 4096);
    const std::uint64_t a = alloc.allocate(256);
    EXPECT_EQ(alloc.bytesInUse(), 256u);
    alloc.deallocate(a);
    EXPECT_EQ(alloc.bytesInUse(), 0u);
}

/**
 * The allocator as it was with two hash maps (class -> free list,
 * offset -> live class): the reference the flat allocator must match
 * offset for offset.
 */
class TwoMapAllocator
{
  public:
    TwoMapAllocator(std::uint64_t heap_bytes, std::uint32_t object_size)
        : heapBytes(heap_bytes), objSize(object_size)
    {}

    std::uint64_t
    allocate(std::uint64_t bytes)
    {
        if (bytes == 0)
            bytes = 1;
        std::uint64_t rounded = 16;
        while (rounded < bytes)
            rounded <<= 1;
        auto it = freeLists.find(rounded);
        if (it != freeLists.end() && !it->second.empty()) {
            const std::uint64_t offset = it->second.back();
            it->second.pop_back();
            return take(offset, rounded);
        }
        const std::uint64_t align =
            rounded < objSize ? rounded : std::uint64_t{objSize};
        const std::uint64_t offset = (bump + align - 1) & ~(align - 1);
        if (offset + rounded > heapBytes)
            return RegionAllocator::badOffset;
        bump = offset + rounded;
        return take(offset, rounded);
    }

    void
    deallocate(std::uint64_t offset)
    {
        auto it = liveSizes.find(offset);
        ASSERT_NE(it, liveSizes.end());
        freeLists[it->second].push_back(offset);
        stats.frees++;
        stats.bytesFreed += it->second;
        liveSizes.erase(it);
    }

    std::uint64_t
    sizeOf(std::uint64_t offset) const
    {
        auto it = liveSizes.find(offset);
        return it == liveSizes.end() ? 0 : it->second;
    }

    AllocStats stats;

  private:
    std::uint64_t
    take(std::uint64_t offset, std::uint64_t rounded)
    {
        liveSizes[offset] = rounded;
        stats.allocations++;
        stats.bytesAllocated += rounded;
        return offset;
    }

    std::uint64_t heapBytes;
    std::uint32_t objSize;
    std::uint64_t bump = 0;
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> freeLists;
    std::unordered_map<std::uint64_t, std::uint64_t> liveSizes;
};

/**
 * 200K seeded allocations and frees of 16 B to 64 KB classes, in
 * phases that exhaust the heap and free it again: every offset (or badOffset),
 * every sizeOf of a block's start, of its interior and of a freed
 * offset, and the stats must equal the two-map allocator's. Popping a
 * free list oldest first instead of newest first fails here at the
 * first reuse of a class with two freed blocks.
 */
TEST(RegionAllocator, MatchesTheTwoMapAllocator)
{
    for (const std::uint32_t object_size : {64u, 4096u}) {
        SCOPED_TRACE(object_size);
        const std::uint64_t heap = 16ull << 20;
        RegionAllocator alloc(heap, object_size);
        TwoMapAllocator ref(heap, object_size);
        Rng rng(0x5eed + object_size);
        std::vector<std::uint64_t> live;
        std::uint64_t failed = 0;
        for (int op = 0; op < 200000; op++) {
            // Alternate 20K-op phases that grow (a third of the ops
            // free) and shrink (two thirds free) the live set.
            const std::uint64_t frees = (op / 20000) % 2 == 0 ? 1 : 2;
            if (!live.empty() && rng.below(3) < frees) {
                const std::size_t i = rng.below(live.size());
                const std::uint64_t offset = live[i];
                live[i] = live.back();
                live.pop_back();
                alloc.deallocate(offset);
                ref.deallocate(offset);
                ASSERT_EQ(alloc.sizeOf(offset), 0u) << "op " << op;
                ASSERT_EQ(ref.sizeOf(offset), 0u) << "op " << op;
                continue;
            }
            const std::uint64_t cls = 4 + rng.below(13); // 16 B .. 64 KB
            const std::uint64_t bytes =
                rng.below(8) == 0
                    ? rng.below(17)
                    : (1ull << cls) - rng.below(1ull << (cls - 1));
            const std::uint64_t offset = alloc.allocate(bytes);
            ASSERT_EQ(offset, ref.allocate(bytes))
                << "op " << op << ", " << bytes << " bytes";
            if (offset == RegionAllocator::badOffset) {
                failed++;
                continue;
            }
            live.push_back(offset);
            const std::uint64_t size = alloc.sizeOf(offset);
            ASSERT_EQ(size, ref.sizeOf(offset)) << "op " << op;
            for (const std::uint64_t inside :
                 {offset + 1, offset + 16, offset + size / 2,
                  offset + size - 16}) {
                ASSERT_EQ(alloc.sizeOf(inside), ref.sizeOf(inside))
                    << "op " << op << " interior " << inside - offset;
            }
            ASSERT_EQ(alloc.stats().allocations, ref.stats.allocations);
            ASSERT_EQ(alloc.stats().frees, ref.stats.frees);
            ASSERT_EQ(alloc.stats().bytesAllocated,
                      ref.stats.bytesAllocated);
            ASSERT_EQ(alloc.stats().bytesFreed, ref.stats.bytesFreed);
        }
        EXPECT_GT(failed, 0u) << "the run never exhausted the heap";
        for (const std::uint64_t offset : live)
            ASSERT_EQ(alloc.sizeOf(offset), ref.sizeOf(offset));
        EXPECT_EQ(alloc.sizeOf(heap + 4096), 0u);
    }
}

TEST(RegionAllocatorDeathTest, DoubleFreeIsUnknownPointer)
{
    RegionAllocator alloc(1 << 20, 4096);
    const std::uint64_t a = alloc.allocate(100);
    alloc.deallocate(a);
    EXPECT_DEATH(alloc.deallocate(a), "free of unknown far pointer");
    EXPECT_DEATH(alloc.deallocate(a + 16), "free of unknown far pointer");
}

TEST(FrameCache, AllocatesUntilFull)
{
    FrameCache cache(4 * 4096, 4096);
    EXPECT_EQ(cache.numFrames(), 4u);
    for (int i = 0; i < 4; i++)
        EXPECT_NE(cache.allocFrameIn(0), FrameCache::noFrame);
    EXPECT_EQ(cache.allocFrameIn(0), FrameCache::noFrame);
}

TEST(FrameCache, ClockEvictsUnreferencedFirst)
{
    FrameCache cache(4 * 4096, 4096);
    std::uint64_t frames[4];
    for (int i = 0; i < 4; i++) {
        frames[i] = cache.allocFrameIn(0);
        cache.frame(frames[i]).objId = i;
    }
    // Clear one frame's reference bit; CLOCK must pick it eventually.
    cache.frame(frames[2]).refbit = false;
    const std::uint64_t victim = cache.pickVictimIn(0);
    EXPECT_EQ(victim, frames[2]);
}

TEST(FrameCache, PinnedFramesAreNeverVictims)
{
    FrameCache cache(2 * 4096, 4096);
    const std::uint64_t a = cache.allocFrameIn(0);
    const std::uint64_t b = cache.allocFrameIn(0);
    cache.frame(a).pins = 1;
    cache.frame(a).refbit = false;
    cache.frame(b).refbit = false;
    EXPECT_EQ(cache.pickVictimIn(0), b);
    cache.frame(b).pins = 1;
    EXPECT_EQ(cache.pickVictimIn(0), FrameCache::noFrame);
}

TEST(FrameCache, ReleaseReturnsFrameToFreeList)
{
    FrameCache cache(2 * 4096, 4096);
    const std::uint64_t a = cache.allocFrameIn(0);
    cache.allocFrameIn(0);
    EXPECT_EQ(cache.freeFrames(), 0u);
    // Eviction retires the frame; reclaiming it once no reader can
    // hold it puts it back on the free list.
    cache.retireFrame(0, a, 1);
    EXPECT_EQ(cache.freeFrames(), 0u);
    EXPECT_EQ(cache.reclaimFrames(0, FarMemRuntime::quiescentEpoch), 1u);
    EXPECT_EQ(cache.freeFrames(), 1u);
    EXPECT_EQ(cache.allocFrameIn(0), a);
}

TEST(StridePrefetcher, DetectsUnitStride)
{
    StridePrefetcher prefetcher(8, 2);
    EXPECT_EQ(prefetcher.onDemandMiss(10), 0);
    EXPECT_EQ(prefetcher.onDemandMiss(11), 0); // confidence 1
    EXPECT_EQ(prefetcher.onDemandMiss(12), 1); // armed
    EXPECT_EQ(prefetcher.onDemandMiss(13), 1);
}

TEST(StridePrefetcher, DetectsNegativeStride)
{
    StridePrefetcher prefetcher(8, 2);
    prefetcher.onDemandMiss(100);
    prefetcher.onDemandMiss(98);
    EXPECT_EQ(prefetcher.onDemandMiss(96), -2);
}

TEST(StridePrefetcher, TracksInterleavedStreams)
{
    StridePrefetcher prefetcher(8, 2);
    // Two far-apart sequential streams, interleaved (STREAM copy).
    prefetcher.onDemandMiss(1000);
    prefetcher.onDemandMiss(9000);
    prefetcher.onDemandMiss(1001);
    prefetcher.onDemandMiss(9001);
    EXPECT_EQ(prefetcher.onDemandMiss(1002), 1);
    EXPECT_EQ(prefetcher.onDemandMiss(9002), 1);
}

TEST(StridePrefetcher, InterleavedStreamsKeepSeparateTrackers)
{
    StridePrefetcher prefetcher(8, 2);
    // Four interleaved sweeps (two forward, one backward, one wide
    // stride), all far enough apart to never share a tracker.
    const std::int64_t bases[4] = {1000, 9000, 20000, 40000};
    const std::int64_t strides[4] = {1, 1, -1, 4};
    for (int step = 0; step < 8; step++) {
        for (int s = 0; s < 4; s++) {
            const std::int64_t obj = bases[s] + strides[s] * step;
            const std::int64_t got = prefetcher.onDemandMiss(
                static_cast<std::uint64_t>(obj));
            // Once trained, every stream reports its own stride.
            if (step >= 2) {
                EXPECT_EQ(got, strides[s]) << "stream " << s;
            }
        }
    }
    const PrefetcherStats &stats = prefetcher.stats();
    EXPECT_EQ(stats.trackerAllocs, 4u);     // one per stream
    EXPECT_EQ(stats.trackerEvictions, 0u);  // 4 streams, 8 trackers
    // 4 streams * 6 armed misses each (steps 2..7).
    EXPECT_EQ(stats.armedMisses, 24u);
}

TEST(StridePrefetcher, RepeatedObjectMatchesItsOwnTracker)
{
    StridePrefetcher prefetcher(8, 2);
    // A hot object re-missed repeatedly must keep matching its own
    // tracker (exact-match early exit), not allocate new streams or
    // perturb a neighbour within the match window.
    prefetcher.onDemandMiss(100);
    prefetcher.onDemandMiss(101);
    prefetcher.onDemandMiss(102); // armed, stride 1
    for (int i = 0; i < 5; i++)
        EXPECT_EQ(prefetcher.onDemandMiss(102), 0); // zero stride
    EXPECT_EQ(prefetcher.stats().trackerAllocs, 1u);
    // The zero-stride run clobbered the stride history, so the resumed
    // sweep retrains (one miss) and then re-arms — still in the same
    // tracker, without a fresh allocation.
    EXPECT_EQ(prefetcher.onDemandMiss(103), 0);
    EXPECT_EQ(prefetcher.onDemandMiss(104), 1);
    EXPECT_EQ(prefetcher.stats().trackerAllocs, 1u);
}

TEST(StridePrefetcher, MoreStreamsThanTrackersEvicts)
{
    StridePrefetcher prefetcher(8, 2);
    // 12 far-apart streams into 8 trackers: 4 must displace others.
    for (int s = 0; s < 12; s++)
        prefetcher.onDemandMiss(static_cast<std::uint64_t>(s) * 100000);
    EXPECT_EQ(prefetcher.stats().trackerAllocs, 12u);
    EXPECT_EQ(prefetcher.stats().trackerEvictions, 4u);
}

TEST(StridePrefetcher, RandomMissesNeverArm)
{
    StridePrefetcher prefetcher(8, 2);
    Rng rng(3);
    int armed = 0;
    for (int i = 0; i < 1000; i++)
        armed += (prefetcher.onDemandMiss(rng.below(1 << 20)) != 0);
    EXPECT_LT(armed, 20);
}

class RuntimeTest : public ::testing::Test
{
  protected:
    RuntimeConfig
    smallConfig()
    {
        RuntimeConfig cfg;
        cfg.farHeapBytes = 1 << 20;    // 1 MB heap
        cfg.localMemBytes = 16 * 4096; // 16 frames
        cfg.objectSizeBytes = 4096;
        cfg.prefetchEnabled = false;
        return cfg;
    }
};

TEST_F(RuntimeTest, LocalizeRoundTripsData)
{
    FarMemRuntime rt(smallConfig(), CostParams{});
    const std::uint64_t off = rt.allocate(8192);
    const std::uint32_t magic = 0xdeadbeef;
    rt.rawWrite(off + 100, &magic, sizeof(magic));

    std::byte *p = rt.localize(off + 100, false);
    std::uint32_t readback;
    std::memcpy(&readback, p, sizeof(readback));
    EXPECT_EQ(readback, magic);
    EXPECT_EQ(rt.stats().demandFetches, 1u);
}

TEST_F(RuntimeTest, SecondLocalizeIsAlreadyLocal)
{
    FarMemRuntime rt(smallConfig(), CostParams{});
    const std::uint64_t off = rt.allocate(4096);
    FarMemRuntime::Localized outcome;
    rt.localize(off, false, &outcome);
    EXPECT_EQ(outcome, FarMemRuntime::Localized::RemoteFetch);
    rt.localize(off, false, &outcome);
    EXPECT_EQ(outcome, FarMemRuntime::Localized::AlreadyLocal);
    EXPECT_EQ(rt.stats().demandFetches, 1u);
}

TEST_F(RuntimeTest, TryFastOnlyHitsLocalObjects)
{
    FarMemRuntime rt(smallConfig(), CostParams{});
    const std::uint64_t off = rt.allocate(4096);
    EXPECT_EQ(rt.tryFast(off, false), nullptr);
    rt.localize(off, false);
    EXPECT_NE(rt.tryFast(off, false), nullptr);
}

TEST_F(RuntimeTest, DirtyEvictionWritesBack)
{
    auto cfg = smallConfig();
    cfg.localMemBytes = 2 * 4096; // 2 frames only
    FarMemRuntime rt(cfg, CostParams{});
    const std::uint64_t off = rt.allocate(16 * 4096);

    // Dirty object 0 through a localized write.
    std::byte *p = rt.localize(off, true);
    const std::uint64_t magic = 0x1122334455667788ull;
    std::memcpy(p, &magic, sizeof(magic));

    // Touch enough other objects to force object 0 out.
    for (int i = 1; i < 8; i++)
        rt.localize(off + i * 4096, false);
    EXPECT_FALSE(rt.isLocal(off));
    EXPECT_GE(rt.stats().dirtyWritebacks, 1u);

    // The write must have reached the remote node.
    std::uint64_t readback = 0;
    rt.rawRead(off, &readback, sizeof(readback));
    EXPECT_EQ(readback, magic);
}

TEST_F(RuntimeTest, CleanEvictionSkipsWriteback)
{
    auto cfg = smallConfig();
    cfg.localMemBytes = 2 * 4096;
    FarMemRuntime rt(cfg, CostParams{});
    const std::uint64_t off = rt.allocate(16 * 4096);
    for (int i = 0; i < 8; i++)
        rt.localize(off + i * 4096, false); // reads only
    EXPECT_GT(rt.stats().evictions, 0u);
    EXPECT_EQ(rt.stats().dirtyWritebacks, 0u);
    EXPECT_EQ(rt.net().stats().bytesWrittenBack, 0u);
}

TEST_F(RuntimeTest, PinnedObjectsSurviveEvictionPressure)
{
    auto cfg = smallConfig();
    cfg.localMemBytes = 4 * 4096;
    FarMemRuntime rt(cfg, CostParams{});
    const std::uint64_t off = rt.allocate(64 * 4096);

    rt.localize(off, false);
    const std::uint64_t obj0 = rt.stateTable().objectOf(off);
    rt.pinObject(obj0);
    for (int i = 1; i < 32; i++)
        rt.localize(off + i * 4096, false);
    EXPECT_TRUE(rt.isLocal(off));
    rt.unpinObject(obj0);
}

TEST_F(RuntimeTest, PrefetchMakesLaterAccessesHits)
{
    auto cfg = smallConfig();
    cfg.prefetchEnabled = true;
    cfg.prefetchDepth = 4;
    FarMemRuntime rt(cfg, CostParams{});
    const std::uint64_t off = rt.allocate(64 * 4096);

    // Sequential sweep: by the third object the prefetcher is armed.
    for (int i = 0; i < 16; i++)
        rt.localize(off + i * 4096, false);
    EXPECT_GT(rt.stats().prefetchIssued, 0u);
    EXPECT_GT(rt.stats().prefetchHits, 0u);
    // Prefetch hits replace demand fetches.
    EXPECT_LT(rt.stats().demandFetches, 16u);
}

TEST_F(RuntimeTest, RawWriteUpdatesLocalizedCopy)
{
    FarMemRuntime rt(smallConfig(), CostParams{});
    const std::uint64_t off = rt.allocate(4096);
    rt.localize(off, false);
    const std::uint32_t value = 42;
    rt.rawWrite(off, &value, sizeof(value));
    std::uint32_t readback = 0;
    std::memcpy(&readback, rt.tryFast(off, false), sizeof(readback));
    EXPECT_EQ(readback, value);
}

TEST_F(RuntimeTest, EvacuateAllFlushesDirtyData)
{
    FarMemRuntime rt(smallConfig(), CostParams{});
    const std::uint64_t off = rt.allocate(4096);
    std::byte *p = rt.localize(off, true);
    const std::uint32_t value = 77;
    std::memcpy(p, &value, sizeof(value));
    rt.evacuateAll();
    EXPECT_FALSE(rt.isLocal(off));
    std::uint32_t readback = 0;
    rt.rawRead(off, &readback, sizeof(readback));
    EXPECT_EQ(readback, value);
}

TEST_F(RuntimeTest, StatsExportContainsKeyCounters)
{
    FarMemRuntime rt(smallConfig(), CostParams{});
    const std::uint64_t off = rt.allocate(4096);
    rt.localize(off, false);
    StatSet set;
    rt.exportStats(set);
    EXPECT_EQ(set.get("runtime.demand_fetches"), 1u);
    EXPECT_GT(set.get("net.bytes_fetched"), 0u);
    EXPECT_GT(set.get("clock.cycles"), 0u);
}

TEST_F(RuntimeTest, SpansMultipleObjectsIndependently)
{
    // An allocation spanning several objects can be in "superposition":
    // some chunks local, others remote (section 3.2).
    FarMemRuntime rt(smallConfig(), CostParams{});
    const std::uint64_t off = rt.allocate(4 * 4096);
    rt.localize(off, false);
    rt.localize(off + 2 * 4096, false);
    EXPECT_TRUE(rt.isLocal(off));
    EXPECT_FALSE(rt.isLocal(off + 4096));
    EXPECT_TRUE(rt.isLocal(off + 2 * 4096));
    EXPECT_FALSE(rt.isLocal(off + 3 * 4096));
}

// ---------------------------------------------------------------------
// Batched data plane: fetch coalescing and writeback batching.
// ---------------------------------------------------------------------

TEST_F(RuntimeTest, BatchedPrefetchCoalescesMessages)
{
    auto sweep = [&](bool batching) {
        auto cfg = smallConfig();
        cfg.localMemBytes = 32 * 4096;
        cfg.prefetchEnabled = true;
        cfg.prefetchDepth = 16;
        cfg.fetchBatchMax = batching ? 16 : 1;
        // Heap-allocated: the runtime is pinned in place (mutexes,
        // atomics) and cannot be returned by value.
        auto rt = std::make_unique<FarMemRuntime>(cfg, CostParams{});
        const std::uint64_t off = rt->allocate(128 * 4096);
        for (int i = 0; i < 128; i++)
            rt->localize(off + i * 4096, false);
        return rt;
    };
    auto unbatched = sweep(false);
    auto batched = sweep(true);

    // Same bytes on the wire (every object fetched exactly once)...
    EXPECT_EQ(unbatched->net().stats().bytesFetched,
              batched->net().stats().bytesFetched);
    // ...but the batched sweep coalesces each prefetch window into one
    // message instead of one message per object.
    EXPECT_GT(batched->stats().prefetchBatches, 0u);
    EXPECT_GT(batched->net().stats().fetchBatches, 0u);
    EXPECT_LE(batched->net().stats().fetchMessages * 4,
              unbatched->net().stats().fetchMessages);
}

TEST_F(RuntimeTest, LocalizeJoinsInflightBatchedFetch)
{
    auto cfg = smallConfig();
    cfg.fetchBatchMax = 8;
    FarMemRuntime rt(cfg, CostParams{});
    const std::uint64_t off = rt.allocate(8 * 4096);

    // One coalesced message covering objects 1..4.
    rt.prefetchObjects(0, 1, 4);
    EXPECT_EQ(rt.net().stats().fetchMessages, 1u);
    EXPECT_EQ(rt.net().stats().fetchPayloads, 4u);

    // A localize of an in-flight member joins the batch: it waits for
    // the arrival instead of issuing a duplicate fetch.
    FarMemRuntime::Localized outcome;
    rt.localize(off + 2 * 4096, false, &outcome);
    EXPECT_EQ(outcome, FarMemRuntime::Localized::PrefetchWait);
    EXPECT_GE(rt.stats().inflightJoins, 1u);
    EXPECT_EQ(rt.stats().demandFetches, 0u);
    EXPECT_EQ(rt.net().stats().fetchMessages, 1u);
}

TEST_F(RuntimeTest, WritebackBufferFlushesOnSizeThreshold)
{
    auto cfg = smallConfig();
    cfg.localMemBytes = 2 * 4096;
    cfg.writebackBatchMax = 4;
    cfg.writebackFlushCycles = ~0ull; // isolate the size trigger
    FarMemRuntime rt(cfg, CostParams{});
    const std::uint64_t off = rt.allocate(16 * 4096);

    // Dirty eight objects under two-frame pressure: six dirty evictions
    // park in the buffer, and the fourth parked entry triggers a flush.
    for (int i = 0; i < 8; i++)
        rt.localize(off + i * 4096, true);
    EXPECT_EQ(rt.stats().dirtyWritebacks, 6u);
    EXPECT_EQ(rt.stats().writebackFlushes, 1u);
    EXPECT_EQ(rt.net().stats().writebackMessages, 1u);
    EXPECT_EQ(rt.net().stats().writebackPayloads, 4u);
    EXPECT_EQ(rt.pendingWritebacks(), 2u);

    rt.flushWritebacks();
    EXPECT_EQ(rt.pendingWritebacks(), 0u);
    EXPECT_EQ(rt.net().stats().writebackMessages, 2u);
    EXPECT_EQ(rt.net().stats().writebackPayloads, 6u);
}

TEST_F(RuntimeTest, BufferedWritebackIsVisibleBeforeFlush)
{
    auto cfg = smallConfig();
    cfg.localMemBytes = 2 * 4096;
    cfg.writebackBatchMax = 8;
    cfg.writebackFlushCycles = ~0ull;
    FarMemRuntime rt(cfg, CostParams{});
    const std::uint64_t off = rt.allocate(16 * 4096);

    std::byte *p = rt.localize(off, true);
    const std::uint64_t magic = 0xabcdef0123456789ull;
    std::memcpy(p, &magic, sizeof(magic));
    for (int i = 1; i < 6; i++)
        rt.localize(off + i * 4096, false);
    ASSERT_FALSE(rt.isLocal(off));
    EXPECT_GE(rt.pendingWritebacks(), 1u);

    // The dirty payload is parked, not yet on the wire, but reads must
    // still observe it (store-buffer coherence).
    std::uint64_t readback = 0;
    rt.rawRead(off, &readback, sizeof(readback));
    EXPECT_EQ(readback, magic);
}

TEST_F(RuntimeTest, EvacuateAllDrainsWritebackBuffer)
{
    auto cfg = smallConfig();
    cfg.localMemBytes = 2 * 4096;
    cfg.writebackBatchMax = 8;
    cfg.writebackFlushCycles = ~0ull;
    FarMemRuntime rt(cfg, CostParams{});
    const std::uint64_t off = rt.allocate(16 * 4096);

    for (int i = 0; i < 4; i++) {
        std::byte *p = rt.localize(off + i * 4096, true);
        const std::uint64_t value = 0x1000u + static_cast<std::uint64_t>(i);
        std::memcpy(p, &value, sizeof(value));
    }
    ASSERT_GE(rt.pendingWritebacks(), 1u);
    rt.evacuateAll();
    EXPECT_EQ(rt.pendingWritebacks(), 0u);
    for (int i = 0; i < 4; i++) {
        std::uint64_t readback = 0;
        rt.rawRead(off + i * 4096, &readback, sizeof(readback));
        EXPECT_EQ(readback, 0x1000u + static_cast<std::uint64_t>(i));
    }
}

TEST_F(RuntimeTest, WritebackBufferHitResurrectsDirtyObject)
{
    auto cfg = smallConfig();
    cfg.localMemBytes = 2 * 4096;
    cfg.writebackBatchMax = 8;
    cfg.writebackFlushCycles = ~0ull;
    FarMemRuntime rt(cfg, CostParams{});
    const std::uint64_t off = rt.allocate(16 * 4096);

    std::byte *p = rt.localize(off, true);
    const std::uint64_t magic = 0x5ca1ab1e0ddba11ull;
    std::memcpy(p, &magic, sizeof(magic));
    for (int i = 1; i < 6; i++)
        rt.localize(off + i * 4096, false);
    ASSERT_FALSE(rt.isLocal(off));
    ASSERT_GE(rt.pendingWritebacks(), 1u);

    // Re-localizing the parked object restores it from the buffer: no
    // new fetch message, and the dirty payload is intact.
    const std::uint64_t fetches_before = rt.net().stats().fetchMessages;
    const std::uint64_t demand_before = rt.stats().demandFetches;
    std::byte *again = rt.localize(off, false);
    std::uint64_t readback = 0;
    std::memcpy(&readback, again, sizeof(readback));
    EXPECT_EQ(readback, magic);
    EXPECT_EQ(rt.stats().writebackBufferHits, 1u);
    EXPECT_EQ(rt.net().stats().fetchMessages, fetches_before);
    EXPECT_EQ(rt.stats().demandFetches, demand_before);

    // Dirtiness survived the round trip through the buffer: a later
    // evacuation still persists the value remotely.
    rt.evacuateAll();
    readback = 0;
    rt.rawRead(off, &readback, sizeof(readback));
    EXPECT_EQ(readback, magic);
}

// ---------------------------------------------------------------------
// Guard-level last-object inline cache (TfmRuntime).
// ---------------------------------------------------------------------

RuntimeConfig
guardCacheConfig(std::uint64_t frames)
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 1 << 20;
    cfg.localMemBytes = frames * 4096;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = false;
    cfg.guardCacheEnabled = true;
    return cfg;
}

TEST(GuardCache, RepeatAccessesHitAtReducedCost)
{
    const CostParams c;
    TfmRuntime rt(guardCacheConfig(16), c);
    const std::uint64_t addr = rt.tfmMalloc(4096);
    rt.store<std::uint64_t>(addr, 7); // localize + fill the cache
    rt.load<std::uint64_t>(addr);

    std::uint64_t before = rt.clock().now();
    EXPECT_EQ(rt.load<std::uint64_t>(addr), 7u);
    EXPECT_EQ(rt.clock().now() - before, c.guardCacheHitReadCycles);

    before = rt.clock().now();
    rt.store<std::uint64_t>(addr, 8);
    EXPECT_EQ(rt.clock().now() - before, c.guardCacheHitWriteCycles);

    EXPECT_GE(rt.guardStats().cacheHitReads, 1u);
    EXPECT_GE(rt.guardStats().cacheHitWrites, 1u);
    // Cache hits are a subset of fast-path guards.
    EXPECT_GE(rt.guardStats().fastReads, rt.guardStats().cacheHitReads);
}

TEST(GuardCache, EvictionNeverYieldsStalePointer)
{
    // Three frames. The cached object is written, then evicted (with a
    // writeback) by locality guards, which never touch the inline
    // cache, while its frame is recycled for other objects. It comes
    // back into another frame, so its meta word reads present and safe
    // again; only the eviction epoch tells that the cached frame now
    // holds another object.
    TfmRuntime rt(guardCacheConfig(3), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(12 * 4096);
    for (int i = 1; i < 12; i++) {
        const std::uint64_t other = 0xb000u + static_cast<std::uint64_t>(i);
        rt.rawWrite(addr + i * 4096, &other, sizeof(other));
    }
    const std::uint64_t magic = 0xfeedbead12345678ull;
    rt.store<std::uint64_t>(addr, magic); // object 0 cached
    const auto &table = rt.runtime().stateTable();
    const std::uint64_t obj0 = table.objectOf(tfmOffsetOf(addr));
    const std::uint64_t cached_frame = table[obj0].frame();

    // Walk a pinned window over objects 1.. until object 0 is gone and
    // its frame has been recycled twice, ending with the window on the
    // object that holds that frame.
    HostWindow window;
    int recycled = 0;
    std::uint64_t pinned_obj = 0;
    for (int i = 1; i < 12 && recycled < 2; i++) {
        rt.localityGuard(addr + i * 4096, window, false);
        pinned_obj = table.objectOf(tfmOffsetOf(addr + i * 4096));
        recycled += table[pinned_obj].frame() == cached_frame;
    }
    ASSERT_EQ(recycled, 2);
    ASSERT_FALSE(rt.runtime().isLocal(tfmOffsetOf(addr)));
    // The pin keeps the recycled frame from taking object 0 back.
    rt.localityGuard(addr, window, false);
    rt.endChunk(window);
    ASSERT_TRUE(rt.runtime().isLocal(tfmOffsetOf(addr)));
    ASSERT_NE(table[obj0].frame(), cached_frame);
    ASSERT_EQ(table[pinned_obj].frame(), cached_frame);

    const std::uint64_t hits_before = rt.guardStats().cacheHitReads;
    EXPECT_EQ(rt.load<std::uint64_t>(addr), magic);
    EXPECT_EQ(rt.guardStats().cacheHitReads, hits_before);
}

TEST(GuardCache, EvacuationInvalidatesCachedTranslation)
{
    // Two frames. evacuateAll() unmaps the cached object; another
    // object then takes the cached frame, and the cached object comes
    // back into the other one. Its meta word reads present and safe,
    // so only the eviction epoch tells that the cached frame is stale.
    TfmRuntime rt(guardCacheConfig(2), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(4 * 4096);
    for (int i = 1; i < 4; i++) {
        const std::uint64_t other = 0xb000u + static_cast<std::uint64_t>(i);
        rt.rawWrite(addr + i * 4096, &other, sizeof(other));
    }
    rt.store<std::uint64_t>(addr, 111);
    rt.load<std::uint64_t>(addr); // cache is hot
    const auto &table = rt.runtime().stateTable();
    const std::uint64_t obj0 = table.objectOf(tfmOffsetOf(addr));
    const std::uint64_t cached_frame = table[obj0].frame();

    rt.runtime().evacuateAll();
    // Mutate the remote copy directly: a stale cache hit would read the
    // other object's bytes instead of the refetched value.
    const std::uint64_t fresh = 222;
    rt.runtime().rawWrite(tfmOffsetOf(addr), &fresh, sizeof(fresh));

    // Locality guards never touch the inline cache. Pin the first
    // object that lands in the cached frame, then bring object 0 back.
    HostWindow window;
    std::uint64_t pinned_obj = obj0;
    for (int i = 1; i < 4 && pinned_obj == obj0; i++) {
        rt.localityGuard(addr + i * 4096, window, false);
        const std::uint64_t obj = table.objectOf(tfmOffsetOf(addr + i * 4096));
        if (table[obj].frame() == cached_frame)
            pinned_obj = obj;
    }
    ASSERT_NE(pinned_obj, obj0);
    rt.localityGuard(addr, window, false);
    rt.endChunk(window);
    ASSERT_TRUE(rt.runtime().isLocal(tfmOffsetOf(addr)));
    ASSERT_NE(table[obj0].frame(), cached_frame);
    ASSERT_EQ(table[pinned_obj].frame(), cached_frame);

    const std::uint64_t hits_before = rt.guardStats().cacheHitReads;
    EXPECT_EQ(rt.load<std::uint64_t>(addr), fresh);
    EXPECT_EQ(rt.guardStats().cacheHitReads, hits_before);
}

TEST(GuardCache, RelocalizedObjectMissesOnEpoch)
{
    // Two frames. The cached object leaves and comes back through
    // locality guards, which never touch the inline cache, so its meta
    // word reads present and safe again; only the eviction epoch tells
    // that the cached frame now holds another object.
    TfmRuntime rt(guardCacheConfig(2), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(3 * 4096);
    const std::uint64_t other = 0xb002u;
    rt.rawWrite(addr + 2 * 4096, &other, sizeof(other));
    const std::uint64_t magic = 0xfeedbead12345678ull;
    rt.store<std::uint64_t>(addr, magic); // object 0 cached
    const auto &table = rt.runtime().stateTable();
    const std::uint64_t obj0 = table.objectOf(tfmOffsetOf(addr));
    const std::uint64_t cached_frame = table[obj0].frame();

    // Object 1 stays pinned while object 2 evicts object 0; object 2
    // stays pinned while object 0 comes back into object 1's frame.
    HostWindow window;
    rt.localityGuard(addr + 4096, window, false);
    rt.localityGuard(addr + 2 * 4096, window, false);
    ASSERT_FALSE(rt.runtime().isLocal(tfmOffsetOf(addr)));
    rt.localityGuard(addr, window, false);
    rt.endChunk(window);
    ASSERT_TRUE(rt.runtime().isLocal(tfmOffsetOf(addr)));
    ASSERT_NE(table[obj0].frame(), cached_frame);

    const std::uint64_t hits_before = rt.guardStats().cacheHitReads;
    EXPECT_EQ(rt.load<std::uint64_t>(addr), magic);
    EXPECT_EQ(rt.guardStats().cacheHitReads, hits_before);
}

TEST(HostWindowPin, LocalityPinHoldsFrameUnderGuardedTraffic)
{
    // Three frames. A locality guard pins object 0's window; guarded
    // loads and stores over ten other objects then recycle both other
    // frames several times. Reading through the window must still see
    // object 0's bytes in object 0's frame: the pin, not luck, keeps
    // the frame. The checks run before endChunk, so a missing pin fails
    // here rather than only in the unpin.
    TfmRuntime rt(guardCacheConfig(3), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(11 * 4096);
    const std::uint64_t magic = 0x5eed0f0b1ec7d00dull;
    rt.rawWrite(addr + 64, &magic, sizeof(magic));
    const auto &table = rt.runtime().stateTable();
    const std::uint64_t obj0 = table.objectOf(tfmOffsetOf(addr));

    HostWindow window;
    rt.localityGuard(addr, window, false);
    const std::uint64_t pinned_frame = table[obj0].frame();
    const std::uint64_t evictions_before = rt.runtime().stats().evictions;
    for (int pass = 0; pass < 2; pass++) {
        for (int i = 1; i < 11; i++) {
            const std::uint64_t at = addr + i * 4096;
            rt.store<std::uint64_t>(at + 64, rt.load<std::uint64_t>(at) + i);
        }
    }
    // 2 passes x 10 objects through 2 unpinned frames.
    ASSERT_GE(rt.runtime().stats().evictions - evictions_before, 4u);

    std::uint64_t seen = 0;
    std::memcpy(&seen, window.at(tfmOffsetOf(addr + 64)), sizeof(seen));
    ASSERT_EQ(seen, magic);
    ASSERT_TRUE(rt.runtime().isLocal(tfmOffsetOf(addr)));
    ASSERT_EQ(table[obj0].frame(), pinned_frame);
    rt.endChunk(window);
}

TEST(GuardCache, DisabledByConfigNeverHits)
{
    auto cfg = guardCacheConfig(16);
    cfg.guardCacheEnabled = false;
    TfmRuntime rt(cfg, CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(4096);
    for (int i = 0; i < 10; i++)
        rt.load<std::uint64_t>(addr);
    EXPECT_EQ(rt.guardStats().cacheHitReads, 0u);
    EXPECT_EQ(rt.guardStats().cacheHitWrites, 0u);
}

} // namespace
} // namespace tfm
