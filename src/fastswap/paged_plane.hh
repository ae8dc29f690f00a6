/**
 * @file
 * The 4 KB paging model: kernel-swap residency and fault costs over a
 * FarMemRuntime's far heap.
 *
 * This is the one paging model in the repository. FastswapRuntime
 * covers its whole heap with a plane (the kernel-based baseline), and
 * the hybrid path arbiter (DESIGN.md §4l) routes individual allocation
 * sites to TfmRuntime's plane. Either way a resident mapped page costs
 * nothing per access, a first touch takes a page fault that moves a
 * whole 4 KB page, and reclamation charges kernel-style per-page
 * eviction. The plane is a *residency and cost model only*: it shares
 * the owning FarMemRuntime's clock, remote tier (so page transfers are
 * metered, recorded and replayed like object transfers), and
 * observability stream, and it never changes data — callers read and
 * write the far heap through FarMemRuntime::rawRead/rawWrite, so
 * routing a site to the paging plane can change cycle counts but never
 * program results or the heap checksum. That is the legality contract
 * the differential hybrid gate checks. For the same reason page
 * transfers are charge-only (RemoteBackend::fetch and writeback with a
 * null buffer): the far heap already holds every byte, so a fault or a
 * page-out charges, counts and records its 4 KB but copies none.
 */

#ifndef TRACKFM_FASTSWAP_PAGED_PLANE_HH
#define TRACKFM_FASTSWAP_PAGED_PLANE_HH

#include <cstddef>
#include <cstdint>
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
     * Account one @p len byte access at far-heap @p offset, taking
     * minor/major faults per 4 KB page touched. Charges cycles and
     * sends page transfers over the remote tier; changes no data.
     */
    void touch(std::uint64_t offset, std::size_t len, bool for_write);

    /**
     * Drop every resident page so a measurement can start from a fully
     * remote heap. Charges nothing: the far heap already holds every
     * byte, and evacuation sits outside the measurement window (the
     * same rule as FarMemRuntime::evacuateAll).
     */
    void evacuate();

    /**
     * Map epoch: bumped at every reclaimOne() and evacuate(), the only
     * operations that can clear a mapped page's reference or dirty bit
     * or unmap it. While the epoch is unchanged, a page that was
     * mappedAndReferenced() stays so and a dirty one stays dirty, so
     * touching it again would change nothing.
     */
    std::uint64_t mapEpoch() const { return mapEpoch_; }
    /** Is @p pageId mapped (resident, not in flight) and referenced? */
    bool
    mappedAndReferenced(std::uint64_t pageId) const
    {
        const Page &pg = table_[pageId];
        return pg.resident && !pg.inflight && pg.refbit;
    }
    bool dirty(std::uint64_t pageId) const { return table_[pageId].dirty; }

    const PagedStats &stats() const { return _stats; }
    std::uint64_t residentPages() const { return resident_.size(); }

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
