/**
 * @file
 * Fastswap-style kernel-based far memory baseline.
 *
 * Models the paper's kernel-based comparison point (Amaro et al.,
 * EuroSys '20): the application is unmodified, every page of its heap
 * can be swapped to the remote node, and the only interposition point is
 * the hardware page fault. Consequences the model reproduces:
 *
 *  - accesses to resident, mapped pages cost nothing extra (no guards);
 *  - a fault on a page whose data is already local (readahead landed,
 *    PTE not yet mapped) costs the Table 2 "local" fault price (1.3 K);
 *  - a fault on a remote page pays fault handling plus a full 4 KB page
 *    transfer (~34-35 K cycles total);
 *  - transfers are always whole pages — the I/O amplification that
 *    Figures 13 and 16 measure;
 *  - reclamation (cgroups accounting, unmapping) charges per evicted
 *    page and writes back dirty pages;
 *  - Linux-style swap readahead fetches a cluster of pages around a
 *    major fault, which is what lets Fastswap amortize faults under
 *    temporal/spatial locality (section 5 "Lessons").
 *
 * FastswapRuntime holds no access path of its own: a FarMemRuntime
 * (4 KB objects, prefetcher off) owns the far heap, clock, remote tier,
 * flight recorder and trace stream, and one PagedPlane — the same
 * paging model and accessor the hybrid arbiter's paged sites use —
 * covers every allocation, charges the faults and moves the bytes
 * (plane()). What is left here is the configuration of that pair, the
 * unaccounted initialization copies and the fastswap.* statistics.
 */

#ifndef TRACKFM_FASTSWAP_FASTSWAP_RUNTIME_HH
#define TRACKFM_FASTSWAP_FASTSWAP_RUNTIME_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "paged_plane.hh"
#include "runtime/far_mem_runtime.hh"

namespace tfm
{

/**
 * The kernel-swap simulator. Reads the far heap's size, the local
 * memory budget (pagedLocalMemBytes, else localMemBytes), the readahead
 * window (pagedReadaheadPages, 0 = off), and the obs/recorder/cluster
 * plumbing from RuntimeConfig; the object size and prefetcher settings
 * are fixed.
 */
class FastswapRuntime
{
  public:
    FastswapRuntime(const RuntimeConfig &config,
                    const CostParams &cost_params);

    FarMemRuntime &runtime() { return rt; }
    CycleClock &clock() { return rt.clock(); }
    const CostParams &costs() const { return rt.costs(); }

    /** Allocate heap (ordinary malloc; any page may be swapped). */
    std::uint64_t allocate(std::uint64_t bytes) { return rt.allocate(bytes); }
    void deallocate(std::uint64_t offset) { rt.deallocate(offset); }

    /** The plane: accounted access, page windows, counters, evacuation. */
    PagedPlane &plane() { return plane_; }
    const PagedPlane &plane() const { return plane_; }

    /** @name Initialization (no accounting)
     * @{ */
    void
    rawWrite(std::uint64_t offset, const void *src, std::size_t len)
    {
        if (std::byte *host = rt.backend().rawSpan(offset, len))
            std::memcpy(host, src, len);
        else
            rt.rawWrite(offset, src, len);
    }
    void
    rawRead(std::uint64_t offset, void *dst, std::size_t len)
    {
        if (const std::byte *host = rt.backend().rawSpan(offset, len))
            std::memcpy(dst, host, len);
        else
            rt.rawRead(offset, dst, len);
    }
    /** @} */

    NetStats netStats() const { return rt.backend().netStats(); }
    /** fastswap.* counters, link bytes, the clock, and obs stats. */
    void exportStats(StatSet &set) const;

  private:
    FarMemRuntime rt;
    PagedPlane plane_;
};

} // namespace tfm

#endif // TRACKFM_FASTSWAP_FASTSWAP_RUNTIME_HH
