/**
 * @file
 * The host window: one far byte range mapped to host memory, the
 * single shape every in-place access in the simulator goes through.
 *
 * A guard's fast path, a chunked loop's pinned object and a Fastswap
 * mapped page all hand out the same thing: a host base over a far
 * range [begin, end), usable until the runtime may move those bytes.
 * Seen as compiler/runtime address translation, a window is a one-entry
 * software TLB. An epoch window records its plane's epoch at fill time
 * (FarMemRuntime::evictionEpoch() for objects, PagedPlane::mapEpoch()
 * for pages), and a bump of that epoch is its shootdown. A pinned
 * window holds a pin on its object instead (FarMemRuntime::pinWindow)
 * and no epoch bump invalidates it. Filling and charging stay with the
 * code that hands the window out (the guard cache, chunk cursors and
 * iterators over objects; PagedPlane::readVia/writeVia over pages); the
 * window only answers how far an access may go in place.
 */

#ifndef TRACKFM_RUNTIME_HOST_WINDOW_HH
#define TRACKFM_RUNTIME_HOST_WINDOW_HH

#include <cstddef>
#include <cstdint>

namespace tfm
{

struct HostWindow
{
    /// The epoch of a window a pin holds (never a plane epoch value).
    static constexpr std::uint64_t pinned = ~0ull;

    std::byte *host = nullptr; ///< host address of far byte `begin`
    std::uint64_t begin = 0;
    std::uint64_t end = 0;     ///< empty (begin == end) until filled
    std::uint64_t epoch = 0;   ///< plane epoch at fill time, or pinned
    bool writable = false;     ///< may a write move in place

    /** Is the translation still valid while the plane's epoch reads
     *  @p now? Always for a pinned window. */
    bool
    live(std::uint64_t now) const
    {
        return epoch == now || epoch == pinned;
    }

    /**
     * The coverage query: how many bytes from @p offset to the window's
     * end an access may move in place, for a read or (with
     * @p for_write) a write, while the plane's epoch reads @p now (a
     * pinned window's caller passes nothing). 0 outside the window,
     * once the epoch has moved, and for a write to a read-only window.
     */
    std::uint64_t
    bytes(std::uint64_t offset, bool for_write,
          std::uint64_t now = pinned) const
    {
        // Unsigned wrap rejects offsets below begin and empty windows.
        if (offset - begin >= end - begin || !live(now) ||
            (for_write && !writable))
            return 0;
        return end - offset;
    }

    /** Host address of far byte @p offset, which the window covers. */
    std::byte *at(std::uint64_t offset) const
    {
        return host + (offset - begin);
    }
};

} // namespace tfm

#endif // TRACKFM_RUNTIME_HOST_WINDOW_HH
