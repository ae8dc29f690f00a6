/**
 * @file
 * Cost-model constants for the TrackFM reproduction.
 *
 * All durations are in simulated CPU cycles at the paper's 2.4 GHz clock.
 * Defaults are calibrated against Tables 1 and 2 of the paper (median
 * cycles over 1000 trials) and the empirical anchors called out in
 * DESIGN.md section 4.
 */

#ifndef TRACKFM_SIM_COST_PARAMS_HH
#define TRACKFM_SIM_COST_PARAMS_HH

#include <cstdint>

namespace tfm
{

/**
 * Tunable cycle costs for every primitive event in the simulation.
 *
 * A single CostParams instance is shared by a System and all of its
 * runtimes so that TrackFM, Fastswap, and AIFM baselines are charged
 * from one consistent model.
 */
struct CostParams
{
    /// Simulated core frequency, used only to convert cycles to seconds.
    double cpuGhz = 2.4;

    /** @name Baseline memory access costs
     *  Per-access cost the application pays regardless of far-memory
     *  system. Sequential (streaming, vectorizable) access is far cheaper
     *  per element than dependent/random access (Table 1 measures the
     *  random-ish case at 36 cycles).
     * @{ */
    /// Vectorizable sequential access (e.g. STREAM inner loop).
    std::uint64_t seqAccessCycles = 4;
    /// Dependent or random access (pointer chase, hash probe).
    std::uint64_t randAccessCycles = 36;
    /// Sequential access whose loop carries an inline guard: the guard's
    /// branches defeat vectorization, so the base cost rises.
    std::uint64_t guardedSeqAccessCycles = 15;
    /// Generic non-memory work per loop iteration when a workload wants
    /// to model compute (e.g. k-means distance math), per flop-ish unit.
    std::uint64_t computeCycles = 1;
    /** @} */

    /** @name TrackFM guard costs (Table 1)
     * @{ */
    std::uint64_t fastPathReadCycles = 21;
    std::uint64_t fastPathWriteCycles = 21;
    std::uint64_t fastPathUncachedReadCycles = 297;
    std::uint64_t fastPathUncachedWriteCycles = 309;
    /// Slow path with the object already local (runtime call only).
    std::uint64_t slowPathReadCycles = 144;
    std::uint64_t slowPathWriteCycles = 159;
    std::uint64_t slowPathUncachedReadCycles = 453;
    std::uint64_t slowPathUncachedWriteCycles = 432;
    /// Custody-check rejection for non-TrackFM pointers (~4 instructions).
    std::uint64_t custodyRejectCycles = 4;
    /** @} */

    /** @name Loop chunking costs (section 3.4)
     *  The boundary check replaces the fast-path guard inside chunked
     *  loops; the locality-invariant guard replaces the slow-path guard
     *  at object-crossing boundaries and pins the object via a runtime
     *  call — "slightly more expensive" than the slow-path guard
     *  (section 3.4), i.e. a few hundred cycles of runtime call + pin
     *  bookkeeping. Note that the compiler's *decision* model uses the
     *  paper's own fitted constants (tfm/cost_model.hh), which place
     *  the break-even at ~730 elements/object; see DESIGN.md section 4
     *  for the discussion of that split.
     * @{ */
    std::uint64_t boundaryCheckCycles = 3;
    std::uint64_t localityGuardCycles = 2000;
    /** @} */

    /** @name Fastswap costs (Table 2)
     *  Software fault-handling cost; the remote case additionally pays the
     *  network model for the 4 KB page transfer, which brings the total to
     *  the paper's ~34-35 K cycles.
     * @{ */
    std::uint64_t pageFaultLocalCycles = 1300;
    std::uint64_t pageFaultRemoteSwCycles = 2900;
    /// Per evicted page under memory pressure: cgroup direct reclaim,
    /// unmapping, and TLB shootdown (~5 us). Not part of Table 2's
    /// fault microbenchmark (which faults into free frames); this is
    /// the kernel-side cost the paper cites ("mapping and cgroups
    /// memory reclamation") that user-level evacuation avoids.
    std::uint64_t pageReclaimCycles = 12000;
    /** @} */

    /** @name AIFM library-mode costs
     * @{ */
    /// Smart-pointer dereference indirection on a local object.
    std::uint64_t smartPtrDerefCycles = 5;
    /// Per-element cost of a library iterator's inner loop (bounds
    /// check + pointer bump + non-vectorizable loop body), comparable
    /// to TrackFM's chunked loop body — the 10% gap between the two
    /// systems comes from guards on non-loop accesses.
    std::uint64_t aifmIteratorCycles = 16;
    /** @} */

    /** @name Network model (25 Gb/s NIC, TCP backend)
     * @{ */
    /// One-way request + response latency (~11.7 us at 2.4 GHz).
    std::uint64_t netLatencyCycles = 28000;
    /// Link bandwidth: 25 Gb/s at 2.4 GHz is ~1.3 bytes per cycle.
    double netBytesPerCycle = 1.3;
    /// Per-message CPU cost on the local side (TCP stack, Shenango).
    std::uint64_t perMessageCpuCycles = 600;
    /// CPU cost of each additional payload coalesced into a multi-object
    /// message (scatter-gather entry + per-object header), far below the
    /// per-message charge — the gap batching exploits.
    std::uint64_t perPayloadCpuCycles = 40;
    /** @} */

    /** @name Guard last-object inline cache
     *  Repeated hits on the object touched by the previous guard skip
     *  the object-state-table load: compare the cached object id, test
     *  the cached meta word, and reuse the translated frame pointer — a
     *  handful of straight-line instructions, cheaper than the full
     *  Table 1 fast path.
     * @{ */
    std::uint64_t guardCacheHitReadCycles = 8;
    std::uint64_t guardCacheHitWriteCycles = 8;
    /// Epoch revalidation of a hoisted guard: load the global eviction
    /// epoch, compare with the armed value, branch — cheaper than even
    /// the inline-cache hit because no address math or meta check runs.
    std::uint64_t revalidateCycles = 3;
    /** @} */

    /** @name Runtime bookkeeping
     * @{ */
    /// Software overhead of a blocking remote object fetch beyond the
    /// network time (AIFM request setup, yield, wakeup).
    std::uint64_t remoteFetchSwCycles = 3300;
    /// Evacuating one object (metadata flip + writeback issue).
    std::uint64_t evacuateObjectCycles = 400;
    /// Allocation fast path in the region allocator.
    std::uint64_t allocCycles = 120;
    /// Issuing one asynchronous prefetch request.
    std::uint64_t prefetchIssueCycles = 80;
    /** @} */
};

} // namespace tfm

#endif // TRACKFM_SIM_COST_PARAMS_HH
