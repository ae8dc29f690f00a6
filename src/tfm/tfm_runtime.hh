/**
 * @file
 * The TrackFM runtime layer: the thin layer the compiler injects into
 * the application, bridging guarded loads/stores to the far-memory
 * runtime underneath (sections 3.1-3.3 of the paper).
 *
 * Responsibilities:
 *  - the custom malloc family returning tagged (non-canonical) pointers;
 *  - the guard state machine: custody check -> object-state-table lookup
 *    -> fast path or slow path (runtime call, possibly a remote fetch);
 *  - loop-chunk support calls (tfm_init / tfm_rw in Fig. 5);
 *  - compiler-directed prefetch;
 *  - guard statistics.
 */

#ifndef TRACKFM_TFM_TFM_RUNTIME_HH
#define TRACKFM_TFM_TFM_RUNTIME_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "guard_stats.hh"
#include "runtime/far_mem_runtime.hh"
#include "tagged_ptr.hh"

namespace tfm
{

class PagedPlane;

/**
 * Which path a traced guard took: section 3.3's optional debug
 * instrumentation ("indicates when guards take the fast or slow path,
 * and which AIFM code path they trigger"). Each outcome is one "guard"
 * instant on the observability trace's app track; custody rejects and
 * fast paths stay off the trace to keep it bounded.
 */
enum class GuardPath : std::uint8_t
{
    SlowLocalRead,   ///< runtime call; object was already local
    SlowLocalWrite,
    SlowRemoteRead,  ///< runtime call; blocking remote fetch
    SlowRemoteWrite,
    LocalityLocal,   ///< chunk locality guard; object local
    LocalityRemote,  ///< chunk locality guard; remote fetch
    Revalidate       ///< hoisted-guard epoch revalidation hit
};

/** The trace event name of @p path. */
const char *guardPathName(GuardPath path);

/**
 * TrackFM's injected runtime.
 *
 * Guard methods return a host pointer that is valid until the next
 * runtime call (the paper's evacuator cannot run while a thread is
 * inside a guard; here evacuation happens only inside runtime calls, so
 * the same invariant holds by construction).
 */
class TfmRuntime
{
  public:
    // Both out of line: PagedPlane is incomplete here, and an inline
    // constructor/destructor would instantiate its unique_ptr deleter.
    TfmRuntime(const RuntimeConfig &config, const CostParams &cost_params);
    ~TfmRuntime();

    FarMemRuntime &runtime() { return rt; }
    const FarMemRuntime &runtime() const { return rt; }
    const CostParams &costs() const { return rt.costs(); }
    CycleClock &clock() { return rt.clock(); }
    /** The main thread's guard counters (mergedGuardStats() adds every
     *  worker's). */
    GuardStats &guardStats() { return main_.gstats; }
    const GuardStats &guardStats() const { return main_.gstats; }

    /** @name The TrackFM libc replacement (section 3.1)
     *  All return tagged pointers in the non-canonical range.
     * @{ */
    std::uint64_t
    tfmMalloc(std::size_t bytes)
    {
        return tfmEncode(rt.allocate(bytes));
    }

    /**
     * Zero-initialized array allocation. Returns 0 (the null TrackFM
     * pointer) when count * size overflows size_t, like calloc(3), so
     * the caller never receives a too-small region.
     */
    std::uint64_t
    tfmCalloc(std::size_t count, std::size_t size)
    {
        if (size != 0 &&
            count > std::numeric_limits<std::size_t>::max() / size) {
            return 0;
        }
        const std::size_t bytes = count * size;
        const std::uint64_t addr = tfmMalloc(bytes);
        zeroFill(addr, bytes);
        return addr;
    }

    std::uint64_t tfmRealloc(std::uint64_t addr, std::size_t bytes);

    void
    tfmFree(std::uint64_t addr)
    {
        rt.deallocate(tfmOffsetOf(addr));
    }
    /** @} */

    /** @name Paged data plane (hybrid arbiter; DESIGN.md §4l)
     *
     * The pg_malloc family backs allocation sites the PathArbiterPass
     * routed to the paging plane. Pointers carry the bit-61 tag (so
     * guards custody-reject them and the interpreter's memory choke
     * point resolves them here); accesses charge fault costs through a
     * lazily created PagedPlane — the paging model FastswapRuntime also
     * runs on — sharing this runtime's clock and remote tier, while the
     * data itself moves through the far heap's raw read/write: results
     * are plane-independent by construction.
     * @{ */
    std::uint64_t pagedMalloc(std::size_t bytes);
    std::uint64_t pagedCalloc(std::size_t count, std::size_t size);
    void
    pagedFree(std::uint64_t addr)
    {
        rt.deallocate(tfmOffsetOf(addr));
    }
    /** Fault accounting + copy-out via rawRead. */
    void pagedRead(std::uint64_t addr, void *dst, std::size_t len);
    /** Fault accounting + write-through via rawWrite. */
    void pagedWrite(std::uint64_t addr, const void *src, std::size_t len);
    /** The plane, created on first use; nullptr when never used. */
    PagedPlane *pagedPlane() const { return paged_.get(); }
    /** Drop the plane's residency (cold-start measurements). */
    void evacuatePaged();
    /** @} */

    /** @name Guards (section 3.3, Fig. 4)
     *
     * Every guard runs one body: custody check, last-object inline
     * cache, fast path, slow path. The pointer-returning entry points
     * (guardRead, guardWrite, guardCacheFastPath, localityGuard) are
     * for an unbound thread only: a bound worker's pointer could
     * outlive the epoch section or shard lock that keeps it valid, so
     * workers copy through readGuarded / writeGuarded instead.
     * @{ */
    /**
     * Guard a read of @p size bytes at @p addr.
     *
     * Tagged pointers go through the fast/slow paths with the Table 1
     * cycle charges; untagged pointers take the ~4-instruction custody
     * rejection and are returned unchanged as host pointers.
     */
    std::byte *
    guardRead(std::uint64_t addr)
    {
        return guard(mainWorker(), addr, false, nullptr, 0);
    }

    /** Guard a write; identical shape, write-path costs, sets dirty. */
    std::byte *
    guardWrite(std::uint64_t addr)
    {
        return guard(mainWorker(), addr, true, nullptr, 0);
    }

    /**
     * Inline-cache-only guard probe for dispatch loops that want to
     * resolve a guard without a full runtime call: on a last-object
     * cache hit this performs the complete fast-path guard — identical
     * cycle charges and GuardStats as guardRead/guardWrite taking
     * their cache-hit branch — and returns the host pointer.
     * Untagged pointers and cache misses return nullptr with NO
     * accounting; the caller must then fall back to
     * guardRead/guardWrite, which re-probes the (side-effect-free on
     * miss) cache.
     */
    std::byte *
    guardCacheFastPath(std::uint64_t addr, bool for_write)
    {
        Worker &w = mainWorker();
        if (!tfmIsTagged(addr))
            return nullptr;
        std::byte *cached = cacheLookup(w.cache, tfmOffsetOf(addr),
                                        for_write);
        if (cached)
            cacheHit(w, for_write);
        return cached;
    }

    /**
     * Epoch revalidation of a hoisted guard (guard.reval fast path):
     * compare @p armed_epoch against the runtime's eviction epoch, with
     * no state-table lookup. An unchanged epoch proves every
     * object->frame translation the arming guard produced is still
     * live — and, for writes, that the dirty bit it set has not been
     * consumed by a writeback (clearing dirty implies an unmap, which
     * bumps the epoch). On a miss the caller must re-run the full
     * guard.
     *
     * @return true when the armed host pointer may be reused.
     */
    bool
    revalidate(std::uint64_t addr, std::uint64_t armed_epoch)
    {
        Worker &w = worker();
        w.rt->clock.advance(costs().revalidateCycles);
        w.gstats.revalidations++;
        if (armed_epoch == rt.evictionEpoch()) {
            w.gstats.revalidationHits++;
            traceGuard(w, addr, GuardPath::Revalidate);
            return true;
        }
        w.gstats.revalidationMisses++;
        return false;
    }

    /**
     * Guarded multi-byte read. Accesses that straddle object boundaries
     * take one guard per object touched, since each constituent object
     * can independently be local or remote (the "superposition" the
     * paper calls out in section 3.2).
     */
    void
    readGuarded(std::uint64_t addr, void *dst, std::size_t len)
    {
        guardRange(addr, static_cast<std::byte *>(dst), len, false);
    }

    /** Guarded multi-byte write; one guard per object touched. */
    void
    writeGuarded(std::uint64_t addr, const void *src, std::size_t len)
    {
        // The buffer is only read from on the write path.
        guardRange(addr,
                   static_cast<std::byte *>(const_cast<void *>(src)), len,
                   true);
    }

    /** @name Workers (DESIGN.md §4k)
     *
     * One Worker per thread: the FarMemRuntime context it runs on, a
     * private GuardStats set and a private last-object inline cache.
     * The main thread has one too. A thread that binds a registered
     * Worker runs readGuarded/writeGuarded on it; the first
     * registration makes the runtime shared (FarMemRuntime).
     * @{ */
    /**
     * Last-object inline cache (the guard-level analogue of an MMU's
     * micro-TLB): the object window the most recent guard produced. A
     * hit requires the window to cover the address at an unchanged
     * eviction epoch and a still-safe meta word — so a cached host
     * pointer can never outlive the frame mapping it refers to. The
     * meta word and frame serve the hit's write rule (reference bit,
     * dirty bit).
     */
    struct GuardCache
    {
        HostWindow window; ///< writable: a write hit sets the dirty bit
        ObjectMeta *meta = nullptr;
        Frame *frame = nullptr;
    };

    struct Worker
    {
        FarMemRuntime::WorkerContext *rt = nullptr;
        GuardStats gstats; ///< single-writer, merged on report
        GuardCache cache;
        TfmRuntime *owner = nullptr;
    };

    /** Create a worker (before starting threads; not thread-safe). */
    Worker *registerWorker();
    /** Bind @p w (and its runtime context) to the calling thread. */
    void bindWorker(Worker *w);
    void unbindWorker();
    Worker *boundWorker() const;

    /** Main-thread guard counters plus every worker's. */
    GuardStats mergedGuardStats() const;
    /** @} */

    /** Typed guarded load. */
    template <typename T>
    T
    load(std::uint64_t addr)
    {
        T value;
        readGuarded(addr, &value, sizeof(T));
        return value;
    }

    /** Typed guarded store. */
    template <typename T>
    void
    store(std::uint64_t addr, const T &value)
    {
        writeGuarded(addr, &value, sizeof(T));
    }
    /** @} */

    /** @name Loop-chunking support (section 3.4, Fig. 5)
     * @{ */
    /**
     * The locality-invariant guard: localize the object holding
     * @p addr and move the pinned @p window onto it, releasing the
     * object it held (none on the first chunk). Charges the
     * locality-guard cost plus any remote-fetch time.
     *
     * @return host pointer to the byte at @p addr.
     */
    std::byte *localityGuard(std::uint64_t addr, HostWindow &window,
                             bool for_write);

    /** Charge @p count object-boundary checks (3 instructions each). */
    void
    boundaryCheck(std::uint64_t count = 1)
    {
        Worker &w = worker();
        w.rt->clock.advance(count * costs().boundaryCheckCycles);
        w.gstats.boundaryChecks += count;
    }

    /** Release the pin taken by the last locality guard of a loop. */
    void endChunk(HostWindow &window) { rt.unpinWindow(window); }
    /** @} */

    /**
     * Compiler-directed prefetch: issue async fetches for @p count
     * objects after the one containing @p addr.
     */
    void
    prefetchAhead(std::uint64_t addr, std::int64_t stride,
                  std::uint32_t count)
    {
        const std::uint64_t obj_id =
            rt.stateTable().objectOf(tfmOffsetOf(addr));
        rt.prefetchObjects(obj_id, stride, count);
        mainWorker().gstats.prefetchCalls++;
    }

    /** @name Initialization helpers (no cycle accounting)
     * @{ */
    void
    rawWrite(std::uint64_t addr, const void *src, std::size_t len)
    {
        rt.rawWrite(tfmOffsetOf(addr), src, len);
    }

    void
    rawRead(std::uint64_t addr, void *dst, std::size_t len)
    {
        rt.rawRead(tfmOffsetOf(addr), dst, len);
    }
    /** @} */

    void exportStats(StatSet &set) const;

  private:
    /** Label this stack's observability stream as TrackFM's. */
    static RuntimeConfig
    tagged(RuntimeConfig config)
    {
        config.obsKind = "trackfm";
        return config;
    }

    void zeroFill(std::uint64_t addr, std::size_t bytes);

    /** The calling thread's Worker: its bound one, else main_. */
    Worker &
    worker()
    {
        Worker *w = rt.shared() ? boundWorker() : nullptr;
        return w ? *w : main_;
    }
    /** main_, for the pointer-returning entry points. */
    Worker &
    mainWorker()
    {
        TFM_ASSERT(!rt.shared() || !boundWorker(),
                   "a bound worker asked for a host pointer");
        return main_;
    }

    /**
     * The one guard body. Resolves @p addr for @p w with the Table 1
     * charges and, when @p buf is non-null, copies @p len bytes between
     * @p buf and the object (into it for writes) while the access is
     * still protected. Returns the host pointer.
     */
    std::byte *guard(Worker &w, std::uint64_t addr, bool for_write,
                     std::byte *buf, std::size_t len);
    /** One guard per object touched by [addr, addr + len); an untagged
     *  range is one custody check. */
    void guardRange(std::uint64_t addr, std::byte *buf, std::size_t len,
                    bool for_write);

    /** The observability instant of a guard outcome; main thread
     *  only, since the trace is single-writer. */
    void traceGuard(const Worker &w, std::uint64_t addr, GuardPath path);

    /** Charge and count an inline-cache hit. */
    void
    cacheHit(Worker &w, bool for_write)
    {
        if (for_write) {
            w.rt->clock.advance(costs().guardCacheHitWriteCycles);
            w.gstats.fastWrites++;
            w.gstats.cacheHitWrites++;
        } else {
            w.rt->clock.advance(costs().guardCacheHitReadCycles);
            w.gstats.fastReads++;
            w.gstats.cacheHitReads++;
        }
    }

    /** Try the inline cache; returns the host pointer or nullptr.
     *  Inline so guardCacheFastPath probes fully in-line from the
     *  bytecode dispatch loop. A miss has no side effects, so probing
     *  twice (probe, then the fallback guard's own lookup) is safe. */
    std::byte *
    cacheLookup(GuardCache &c, std::uint64_t offset, bool for_write)
    {
        if (!rt.config().guardCacheEnabled)
            return nullptr;
        // The epoch check invalidates on any eviction/evacuation since
        // the fill: a hit therefore proves the object->frame
        // translation is still live, never a stale host pointer.
        if (!c.window.bytes(offset, for_write, rt.evictionEpoch()) ||
            !c.meta->safeForFastPath()) {
            return nullptr;
        }
        c.frame->refbit.store(true, std::memory_order_relaxed);
        if (for_write)
            c.meta->setDirty(rt.shared());
        return c.window.at(offset);
    }
    /** Refill @p c after a guard translated @p offset to @p ptr; the
     *  translation was read at eviction epoch @p epoch or later. */
    void cacheFill(GuardCache &c, std::uint64_t offset, std::byte *ptr,
                   std::uint64_t epoch);

    /** The paged plane, or create it on first paged allocation. */
    PagedPlane &ensurePaged();

    FarMemRuntime rt;
    Worker main_; ///< the main thread's guard state
    std::unique_ptr<PagedPlane> paged_;
    std::vector<std::unique_ptr<Worker>> workers_;
    static thread_local Worker *tlsWorker_;
};

} // namespace tfm

#endif // TRACKFM_TFM_TFM_RUNTIME_HH
