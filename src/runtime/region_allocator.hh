/**
 * @file
 * Region-based far-heap allocator (the unified ADS object pool).
 *
 * The paper's TrackFM attaches every remotable allocation to a single
 * runtime-managed object pool carved out of AIFM's region allocator
 * (section 3.2). This allocator hands out byte offsets in the far heap
 * with two invariants the guards rely on:
 *
 *  - allocations of at least one object span whole, object-aligned runs
 *    of objects ("a single memory allocation can span multiple objects");
 *  - smaller allocations are packed into objects but never straddle an
 *    object boundary ("smaller allocations are grouped into a single
 *    object"), so one allocation maps to a well-defined object set.
 */

#ifndef TRACKFM_RUNTIME_REGION_ALLOCATOR_HH
#define TRACKFM_RUNTIME_REGION_ALLOCATOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace tfm
{

/** Allocation statistics. */
struct AllocStats
{
    std::uint64_t allocations = 0;
    std::uint64_t frees = 0;
    std::uint64_t bytesAllocated = 0;
    std::uint64_t bytesFreed = 0;
};

/**
 * Segregated free-list allocator over the far heap offset space.
 *
 * Offsets are never real host addresses; they become TrackFM pointers by
 * tagging (tfm/tagged_ptr.hh). Freed blocks are reused exactly by size
 * class, newest first, which is enough fragmentation behaviour for the
 * paper's workloads (memcached-style churn included).
 *
 * Every operation is O(1) and touches no hash table (DESIGN.md §2,
 * runtime/): size classes are powers of two from 16 B, so each has a
 * LIFO free list in a fixed array indexed by log2(class), and every
 * block starts on a 16 B granule, so the class of a live block is one
 * byte per granule (0 for none) in a table paged by 4,096 granules,
 * whose pages are made the first time a block starts in them.
 */
class RegionAllocator
{
  public:
    RegionAllocator(std::uint64_t heap_bytes, std::uint32_t object_size);

    /**
     * Allocate @p bytes; returns the far-heap byte offset.
     * @return offset, or badOffset when the far heap is exhausted.
     */
    std::uint64_t allocate(std::uint64_t bytes);

    /** Would allocate(@p bytes) succeed now? Changes nothing. */
    bool fits(std::uint64_t bytes) const;

    /** Free an allocation previously returned by allocate(). */
    void deallocate(std::uint64_t offset);

    /** Size of a live allocation (0 when unknown). */
    std::uint64_t sizeOf(std::uint64_t offset) const;

    std::uint64_t heapBytes() const { return _heapBytes; }
    /// First never-allocated offset; the prefetcher stops here.
    std::uint64_t frontier() const { return bump; }
    std::uint64_t bytesInUse() const
    {
        return _stats.bytesAllocated - _stats.bytesFreed;
    }
    const AllocStats &stats() const { return _stats; }

    static constexpr std::uint64_t badOffset = ~0ull;

  private:
    /// Blocks start on 16 B granules, the smallest size class.
    static constexpr unsigned kGranuleShift = 4;
    /// One class-table page covers 4,096 granules (64 KB of heap).
    static constexpr unsigned kPageShift = 12;

    /// log2 of the size class of a request of @p bytes (at least 4).
    static unsigned classOf(std::uint64_t bytes);
    /// Where a fresh block of class 2^@p cls would start at the bump.
    std::uint64_t bumpOffset(unsigned cls) const;
    /// log2 class of the live block starting at @p offset; 0 if none.
    unsigned liveClass(std::uint64_t offset) const;
    /// Class-table byte of the granule at @p offset (an aligned
    /// offset below the heap end), making its page on first use.
    std::uint8_t &classSlot(std::uint64_t offset);

    std::uint64_t _heapBytes;
    std::uint32_t objSize;
    std::uint64_t bump = 0;
    AllocStats _stats;
    /// freeLists[c]: freed offsets of class 2^c, popped newest first.
    std::array<std::vector<std::uint64_t>, 64> freeLists;
    /// Class table pages (nullptr until a block starts in the page).
    std::vector<std::unique_ptr<std::uint8_t[]>> classPages;
};

} // namespace tfm

#endif // TRACKFM_RUNTIME_REGION_ALLOCATOR_HH
