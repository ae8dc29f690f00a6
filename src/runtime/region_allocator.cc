#include "region_allocator.hh"

#include <bit>

#include "sim/logging.hh"

namespace tfm
{

RegionAllocator::RegionAllocator(std::uint64_t heap_bytes,
                                 std::uint32_t object_size)
    : _heapBytes(heap_bytes), objSize(object_size)
{
    TFM_ASSERT((object_size & (object_size - 1)) == 0,
               "object size must be a power of two");
}

unsigned
RegionAllocator::classOf(std::uint64_t bytes)
{
    // Size classes are powers of two starting at 16 bytes.
    return bytes <= 16 ? kGranuleShift
                       : static_cast<unsigned>(std::bit_width(bytes - 1));
}

unsigned
RegionAllocator::liveClass(std::uint64_t offset) const
{
    const std::uint64_t granule = offset >> kGranuleShift;
    const std::uint64_t page = granule >> kPageShift;
    if ((offset & ((1ull << kGranuleShift) - 1)) != 0 ||
        page >= classPages.size() || !classPages[page])
        return 0;
    return classPages[page][granule & ((1ull << kPageShift) - 1)];
}

std::uint8_t &
RegionAllocator::classSlot(std::uint64_t offset)
{
    const std::uint64_t granule = offset >> kGranuleShift;
    const std::uint64_t page = granule >> kPageShift;
    if (page >= classPages.size())
        classPages.resize(page + 1);
    if (!classPages[page]) {
        classPages[page] =
            std::make_unique<std::uint8_t[]>(1ull << kPageShift);
    }
    return classPages[page][granule & ((1ull << kPageShift) - 1)];
}

std::uint64_t
RegionAllocator::bumpOffset(unsigned cls) const
{
    // Align every block to min(size class, object size). Large blocks
    // start on an object boundary and span whole objects; small blocks
    // are naturally aligned, which also guarantees they never straddle
    // an object boundary. The bump pointer stays a multiple of 16, so
    // every block starts on a granule.
    const std::uint64_t rounded = 1ull << cls;
    const std::uint64_t align =
        rounded < objSize ? rounded : static_cast<std::uint64_t>(objSize);
    return (bump + align - 1) & ~(align - 1);
}

bool
RegionAllocator::fits(std::uint64_t bytes) const
{
    // No class of a larger request fits, and none was ever handed out.
    if (bytes > _heapBytes)
        return false;
    const unsigned cls = classOf(bytes);
    return !freeLists[cls].empty() ||
           bumpOffset(cls) + (1ull << cls) <= _heapBytes;
}

std::uint64_t
RegionAllocator::allocate(std::uint64_t bytes)
{
    if (!fits(bytes))
        return badOffset;
    const unsigned cls = classOf(bytes);
    const std::uint64_t rounded = 1ull << cls;

    std::uint64_t offset;
    std::vector<std::uint64_t> &reuse = freeLists[cls];
    if (!reuse.empty()) {
        offset = reuse.back();
        reuse.pop_back();
    } else {
        offset = bumpOffset(cls);
        bump = offset + rounded;
    }

    classSlot(offset) = static_cast<std::uint8_t>(cls);
    _stats.allocations++;
    _stats.bytesAllocated += rounded;
    return offset;
}

void
RegionAllocator::deallocate(std::uint64_t offset)
{
    const unsigned cls = liveClass(offset);
    TFM_ASSERT(cls != 0, "free of unknown far pointer");
    classSlot(offset) = 0;
    freeLists[cls].push_back(offset);
    _stats.frees++;
    _stats.bytesFreed += 1ull << cls;
}

std::uint64_t
RegionAllocator::sizeOf(std::uint64_t offset) const
{
    const unsigned cls = liveClass(offset);
    return cls == 0 ? 0 : 1ull << cls;
}

} // namespace tfm
