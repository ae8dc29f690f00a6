/**
 * @file
 * The 4 KB paging model and the one paged accessor over a
 * FarMemRuntime's far heap.
 *
 * FastswapRuntime covers its whole heap with a plane (the kernel-based
 * baseline), and the hybrid path arbiter (DESIGN.md §4l) routes
 * allocation sites to TfmRuntime's plane. A resident mapped page costs
 * nothing per access, a first touch takes a fault that moves a whole
 * 4 KB page, and reclamation charges kernel-style per-page eviction.
 * The plane shares its owner's clock, remote tier (page transfers are
 * metered, recorded and replayed like object transfers) and trace
 * stream. read/write charge the touched pages, then move the bytes with
 * the owner's rawRead/rawWrite, so routing a site here can change
 * cycles but never program results or the heap checksum: the contract
 * the differential hybrid gate checks. Page transfers are therefore
 * charge-only (a null buffer): a fault or a page-out charges, counts
 * and records its 4 KB but copies none.
 *
 * Which copy of a byte is newest depends on the owner:
 *  - FastswapRuntime: the far-heap store, always (nothing is localized
 *    or parked for writeback), so page windows onto the store
 *    (readVia/writeVia) are legal.
 *  - TfmRuntime: a guard's frame or a parked writeback can be newer
 *    than the store, so its paged sites use read/write only, whose raw
 *    copies merge the newer bytes. A window fill asserts that the store
 *    is newest.
 */

#ifndef TRACKFM_FASTSWAP_PAGED_PLANE_HH
#define TRACKFM_FASTSWAP_PAGED_PLANE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "runtime/far_mem_runtime.hh"

namespace tfm
{

/** Fault/paging counters (Fig. 14b and 16b plot these). */
struct PagedStats
{
    std::uint64_t minorFaults = 0; ///< data local, PTE fixup only
    std::uint64_t majorFaults = 0; ///< remote fetch required
    std::uint64_t pageouts = 0;    ///< dirty pages written back
    std::uint64_t reclaims = 0;    ///< pages evicted
    std::uint64_t readaheads = 0;  ///< pages pulled in speculatively
};

/**
 * The CLOCK ring: resident page ids in the order they became resident,
 * and a hand.
 *
 * An intrusive doubly linked list over page ids (8 bytes of links per
 * page of the heap), so appending, removing and moving the hand are
 * O(1). The hand visits pages in exactly the order an index into a
 * vector would, with removal by erasing in place: it wraps from the
 * newest page to the oldest, removing the page under it moves it to the
 * next page (past the end after the newest), and a page appended while
 * it is past the end is the next page it shows.
 */
class ClockRing
{
  public:
    /** A ring over page ids [0, @p ids). */
    explicit ClockRing(std::size_t ids);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Add @p id, which must not be in the ring, as the newest page. */
    void pushBack(std::uint32_t id);
    /**
     * The page under the hand; a hand past the end wraps to the oldest
     * page first. The ring must not be empty.
     */
    std::uint32_t hand();
    /**
     * Move the hand from the page hand() shows to the next one (past
     * the end after the newest).
     */
    void advance() { hand_ = links_[hand()].next; }
    /** Remove the page under the hand; the hand moves to the next one. */
    void eraseHand();
    /** Remove every page; the hand is past the end. */
    void clear();

    /** Call @p f(id) for each page, oldest first. */
    template <typename F>
    void
    forEach(F f) const
    {
        for (std::uint32_t id = head_; id != nil; id = links_[id].next)
            f(id);
    }

  private:
    static constexpr std::uint32_t nil = ~std::uint32_t{0};
    struct Link
    {
        std::uint32_t prev = nil;
        std::uint32_t next = nil;
    };

    void unlink(std::uint32_t id);

    std::vector<Link> links_; ///< valid only for ids in the ring
    std::uint32_t head_ = nil;
    std::uint32_t tail_ = nil;
    std::uint32_t hand_ = nil; ///< nil: past the end
    std::size_t size_ = 0;
};

/**
 * Kernel-swap residency model over the shared far heap.
 *
 * Pages are 4 KB windows of the far-heap offset space. "Mapped" pages
 * (resident, not in flight) model a valid PTE; "in flight" pages model
 * swap-cache entries readahead has fetched but no fault has mapped yet
 * (a touch pays only the local minor-fault price). Victim selection is
 * a CLOCK sweep with reference bits over the resident pages in the
 * order they were brought in.
 */
class PagedPlane
{
  public:
    /// Architected page size — fixed at 4 KB on the paper's testbed.
    static constexpr std::uint32_t pageSize = 4096;

    explicit PagedPlane(FarMemRuntime &rt);

    /**
     * Read @p len bytes at far-heap @p offset: minor/major faults per
     * 4 KB page touched, then the bytes through the owner's rawRead.
     */
    void
    read(std::uint64_t offset, void *dst, std::size_t len)
    {
        touch(offset, len, /*for_write=*/false);
        rt_.rawRead(offset, dst, len);
    }

    /** Write @p len bytes at @p offset; one potential fault per page. */
    void
    write(std::uint64_t offset, const void *src, std::size_t len)
    {
        touch(offset, len, /*for_write=*/true);
        rt_.rawWrite(offset, src, len);
    }

    /** Typed access helpers. */
    template <typename T>
    T
    load(std::uint64_t offset)
    {
        T value;
        read(offset, &value, sizeof(T));
        return value;
    }

    template <typename T>
    void
    store(std::uint64_t offset, const T &value)
    {
        write(offset, &value, sizeof(T));
    }

    /**
     * read through @p window, a host window onto one mapped page
     * (writable once the page is dirty), valid while mapEpoch() holds.
     * A hit is the copy alone: it skips only touch's mapped-page branch,
     * which would re-set a reference bit that is already set. A miss
     * takes read's path, then refills the window from the page it left
     * mapped. @p len must be nonzero; the owner's store must hold the
     * newest bytes (see the file comment).
     */
    void
    readVia(HostWindow &window, std::uint64_t offset, void *dst,
            std::size_t len)
    {
        if (len <= window.bytes(offset, /*for_write=*/false, mapEpoch())) {
            std::memcpy(dst, window.at(offset), len);
            return;
        }
        read(offset, dst, len);
        fillWindow(window, offset, len);
    }

    /** write through @p window; a hit also needs a dirty page. */
    void
    writeVia(HostWindow &window, std::uint64_t offset, const void *src,
             std::size_t len)
    {
        if (len <= window.bytes(offset, /*for_write=*/true, mapEpoch())) {
            std::memcpy(window.at(offset), src, len);
            return;
        }
        write(offset, src, len);
        fillWindow(window, offset, len);
    }

    /**
     * Drop every resident page so a measurement can start from a fully
     * remote heap. Charges nothing: the far heap already holds every
     * byte, and evacuation sits outside the measurement window (the
     * same rule as FarMemRuntime::evacuateAll).
     */
    void evacuate();

    /**
     * Map epoch, the epoch page windows are valid at: bumped at every
     * reclaimOne() and evacuate(), the only operations that can clear a
     * mapped page's reference or dirty bit or unmap it, so while it
     * holds, touching a mapped, referenced (and dirty) page again would
     * change nothing.
     */
    std::uint64_t mapEpoch() const { return mapEpoch_; }

    const PagedStats &stats() const { return _stats; }

    /** Counters under "paged.*". */
    void exportStats(StatSet &set) const;

  private:
    /** Swap-cache / PTE state of one page of the far heap. */
    struct Page
    {
        bool resident = false;
        bool dirty = false;
        bool inflight = false; ///< fetched by readahead, not yet mapped
        bool refbit = false;   ///< CLOCK reference bit
        std::uint64_t arrival = 0; ///< in-flight completion cycle
    };

    /** Charge one @p len byte access at far-heap @p offset: faults per
     *  4 KB page touched, page transfers over the remote tier; moves
     *  no data. */
    void touch(std::uint64_t offset, std::size_t len, bool for_write);
    /** Point @p window at the page holding the access's last byte. */
    void fillWindow(HostWindow &window, std::uint64_t offset,
                    std::size_t len);
    /** Fault in page @p pageId (resident afterwards). */
    void majorFault(std::uint64_t pageId, bool for_write);
    /** Evict one victim via the CLOCK sweep (budget pressure). */
    void reclaimOne();
    /**
     * Evict resident page @p pageId: charge the reclaim, write it back
     * if dirty, and leave it non-resident. The caller removes it from
     * the ring.
     */
    void evict(std::uint64_t pageId);
    /** Linux-style readahead around a major fault on @p pageId. */
    void readahead(std::uint64_t pageId);
    /** Cumulative paged.* counter emission into the trace (no cycles). */
    void obsCounters();
    /**
     * Call @p op(offset, len) for each run of page @p pageId one remote
     * operation may carry: the whole page (the last page of the heap may
     * be short), or on a multi-shard tier one stripe, since an
     * operation must not straddle shards.
     */
    template <typename Op>
    void forEachSegment(std::uint64_t pageId, Op op);
    /** Write dirty page @p pageId back over the remote tier. */
    void pageOut(std::uint64_t pageId);

    FarMemRuntime &rt_;
    std::uint64_t frameBudget_; ///< resident-page cap
    std::vector<Page> table_;   ///< indexed by page id, whole far heap
    ClockRing resident_;        ///< resident pages, oldest first
    std::uint64_t mapEpoch_ = 0;
    /// Remote operations split pages at multiples of this: a page on a
    /// 1-shard tier, else the tier's stripe (stripeBytes, or the object
    /// size).
    std::uint64_t segmentBytes_ = pageSize;
    PagedStats _stats;
};

} // namespace tfm

#endif // TRACKFM_FASTSWAP_PAGED_PLANE_HH
