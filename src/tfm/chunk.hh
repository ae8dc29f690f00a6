/**
 * @file
 * The loop-chunking access pattern (Fig. 5 of the paper), as the
 * compiler emits it for loops that pass the section 3.4 cost model.
 *
 * The naive transformation guards every element access. The chunked
 * transformation localizes and pins one object at a time with a
 * locality-invariant guard, then serves element accesses with a raw
 * pointer plus a 3-instruction boundary check until the loop walks off
 * the object's end.
 */

#ifndef TRACKFM_TFM_CHUNK_HH
#define TRACKFM_TFM_CHUNK_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "tfm_runtime.hh"

namespace tfm
{

/**
 * Sequential cursor over elements of far memory, implementing the
 * chunked loop body:
 *
 *     (end, ptrid) = tfm_init(a); tfmptr = tfm_rw(ptrid)
 *     for (...) { use *tfmptr; if (++tfmptr == end) tfmptr = tfm_rw(...) }
 *
 * The cursor owns the pin on the current object and releases it on
 * destruction or when crossing to the next object. Element size is a
 * run-time parameter.
 */
class ChunkCursorRaw
{
  public:
    /**
     * @param rt the TrackFM runtime
     * @param tagged_base tagged address of element 0
     * @param elem_size element stride in bytes (must divide object size)
     * @param for_write whether accesses mark the object dirty
     */
    ChunkCursorRaw(TfmRuntime &rt, std::uint64_t tagged_base,
                   std::uint32_t elem_size, bool for_write)
        : _rt(rt), addr(tagged_base), elemSize(elem_size),
          writeMode(for_write)
    {
        TFM_ASSERT(
            rt.runtime().stateTable().objectSize() % elem_size == 0,
            "chunked element size must divide the object size");
        refill();
    }

    ChunkCursorRaw(const ChunkCursorRaw &) = delete;
    ChunkCursorRaw &operator=(const ChunkCursorRaw &) = delete;

    ~ChunkCursorRaw() { _rt.endChunk(window); }

    /** Read the current element into @p dst and advance. */
    void
    read(void *dst)
    {
        if (!window.bytes(tfmOffsetOf(addr), writeMode))
            refill();
        readRun(dst, 1);
    }

    /** Write the current element from @p src and advance. */
    void
    write(const void *src)
    {
        if (!window.bytes(tfmOffsetOf(addr), writeMode))
            refill();
        writeRun(src, 1);
    }

    /**
     * Elements, at most @p max, left in the pinned object: 0 exactly
     * when a refill is due. The refill is lazy, on the next access: the
     * loop may exit at the object's end, and a trailing refill could
     * walk past the end of the collection.
     */
    std::uint64_t
    run(std::uint64_t max) const
    {
        return std::min<std::uint64_t>(
            max, window.bytes(tfmOffsetOf(addr), writeMode) / elemSize);
    }

    /**
     * Read @p k <= run(k) elements with one copy, charging k boundary
     * checks, exactly as k read() calls would.
     */
    void
    readRun(void *dst, std::uint64_t k)
    {
        std::memcpy(dst, span(k), k * elemSize);
        advance(k);
    }

    /** Write @p k <= run(k) elements; see readRun(). */
    void
    writeRun(const void *src, std::uint64_t k)
    {
        std::memcpy(span(k), src, k * elemSize);
        advance(k);
    }

    /** Tagged address of the current element. */
    std::uint64_t currentAddr() const { return addr; }

  private:
    /** The next @p k elements, which must lie in the pinned object. */
    std::byte *
    span(std::uint64_t k) const
    {
        const std::uint64_t offset = tfmOffsetOf(addr);
        TFM_ASSERT(k * elemSize <= window.bytes(offset, writeMode),
                   "chunked access past the pinned object");
        return window.at(offset);
    }

    void
    advance(std::uint64_t k)
    {
        // The object-boundary check the transformation inserts on every
        // iteration (yellow nodes in Fig. 5).
        _rt.boundaryCheck(k);
        addr += k * elemSize;
    }

    /** Locality-invariant guard: pin the object holding `addr`. */
    void refill() { _rt.localityGuard(addr, window, writeMode); }

    TfmRuntime &_rt;
    std::uint64_t addr;
    std::uint32_t elemSize;
    bool writeMode;
    HostWindow window; ///< the pinned object
};

} // namespace tfm

#endif // TRACKFM_TFM_CHUNK_HH
