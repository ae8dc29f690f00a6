/**
 * @file
 * FarMemRuntime: the AIFM-equivalent far-memory object runtime.
 *
 * Owns the simulated clock, the network link, the remote node, the
 * object state table, the local frame cache, the region allocator
 * (unified ADS object pool), and the stride prefetcher. Both the TrackFM
 * guard layer (src/tfm) and the library-based baseline (src/aifmlib)
 * are built on this runtime, exactly as TrackFM reuses AIFM in the
 * paper.
 */

#ifndef TRACKFM_RUNTIME_FAR_MEM_RUNTIME_HH
#define TRACKFM_RUNTIME_FAR_MEM_RUNTIME_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/remote_backend.hh"
#include "frame_cache.hh"
#include "net/network_model.hh"
#include "object_state_table.hh"
#include "prefetcher.hh"
#include "region_allocator.hh"
#include "remote/remote_node.hh"
#include "sim/cost_params.hh"
#include "sim/cycle_clock.hh"
#include "sim/stats.hh"

namespace tfm
{

class FlightRecorder;
class Observability;

/** Configuration for one far-memory runtime instance. */
struct RuntimeConfig
{
    /// Total far heap (the remote node is sized to hold all of it).
    std::uint64_t farHeapBytes = 64ull << 20;
    /// Local memory available for localized objects.
    std::uint64_t localMemBytes = 16ull << 20;
    /// AIFM object (chunk) size; powers of two, 64 B .. 4 KB typical.
    std::uint32_t objectSizeBytes = 4096;
    /// Enable the stride prefetcher.
    bool prefetchEnabled = true;
    /// Prefetch look-ahead depth in objects.
    std::uint32_t prefetchDepth = 8;

    /** @name Batched data plane (see DESIGN.md "Batched data plane")
     * @{ */
    /// Coalesce prefetch windows and evacuation writebacks into
    /// multi-object network messages.
    bool batchingEnabled = true;
    /// Max object payloads coalesced into one fetch message.
    std::uint32_t fetchBatchMax = 8;
    /// Dirty-writeback buffer flush threshold (objects). The buffer is
    /// also flushed by evacuateAll() and by the age window below.
    std::uint32_t writebackBatchMax = 8;
    /// Age window: flush a non-empty writeback buffer once its oldest
    /// entry is this many cycles old (bounds remote-copy staleness).
    std::uint64_t writebackFlushCycles = 200000;
    /** @} */

    /// Guard-level last-object inline cache (TfmRuntime): repeated hits
    /// on the same object skip the object-state-table lookup.
    bool guardCacheEnabled = true;

    /** @name Paged data plane (PagedPlane; DESIGN.md §4l)
     *
     * The 4 KB kernel-paging model behind both FastswapRuntime (every
     * allocation) and the hybrid arbiter's paged sites. It shares this
     * runtime's clock and remote tier and is a cost/residency model
     * only: data still lives in the far heap and moves through rawRead
     * / rawWrite, so plane choice can never change program results.
     * @{ */
    /// Local memory budget for paged-plane resident pages; 0 means
    /// "share the guard plane's budget" (localMemBytes).
    std::uint64_t pagedLocalMemBytes = 0;
    /// Fault-side readahead window in pages; 0 turns readahead off.
    std::uint32_t pagedReadaheadPages = 8;
    /** @} */

    /** @name Concurrent runtime (DESIGN.md §4k)
     * @{ */
    /// Allow multiple worker threads to share this runtime. Off by
    /// default: the deterministic single-stream mode is what the
    /// record/replay and byte-identity gates run against. When on, the
    /// stride prefetcher is disabled (the MT data plane is demand-only)
    /// and a flight recorder must not be attached.
    bool concurrent = false;
    /// Frame-cache lock stripes (power of two; 0 or 1 = the seed's
    /// single-shard cache). Honored in single-thread mode too, for the
    /// sharding equivalence tests.
    std::uint32_t cacheShards = 1;
    /** @} */

    /// Remote-tier topology: shard count, replication factor, failure
    /// plan, per-shard bandwidth. The default (1 shard, 1 copy) keeps
    /// the original single-server backend.
    ClusterConfig cluster;

    /// Observability sink (tracing, histograms, time series). When
    /// null, falls back to the process-wide default installed by the
    /// bench-level --trace flag (obs::defaultSink()); when that is also
    /// null, every emission site reduces to one pointer check.
    Observability *obs = nullptr;
    /// Stream label registered with the sink; the wrapper runtimes
    /// override it ("trackfm", "aifm") so traces name the whole stack.
    const char *obsKind = "farmem";
    /// Per-instance override for obsKind. Multi-tenant serving runs
    /// several runtimes in one process; naming each tenant's stream
    /// ("tenant0-memcached") keeps their trace tracks apart. Empty
    /// keeps obsKind.
    std::string obsLabel;

    /// Flight recorder (record or replay; see obs/flight_recorder.hh).
    /// When null, falls back to the process-wide default installed by
    /// the bench-level --record/--replay flags (obs::defaultRecorder());
    /// when that is also null, recording is off and the choke points
    /// reduce to one pointer check each. In replay mode the remote
    /// backend is replaced by a ReplayBackend and the evacuator and
    /// prefetcher decisions are verified against the recorded streams.
    FlightRecorder *recorder = nullptr;
};

/** Hot-path runtime event counters. */
struct RuntimeStats
{
    std::uint64_t demandFetches = 0;   ///< blocking remote object fetches
    std::uint64_t prefetchIssued = 0;
    std::uint64_t prefetchHits = 0;    ///< access found a prefetched object
    std::uint64_t prefetchLateHits = 0;///< ... but had to wait for arrival
    std::uint64_t evictions = 0;
    std::uint64_t dirtyWritebacks = 0;
    std::uint64_t localizeCalls = 0;
    std::uint64_t prefetchBatches = 0; ///< coalesced prefetch messages
    std::uint64_t inflightJoins = 0;   ///< localize joined an in-flight fetch
    std::uint64_t writebackFlushes = 0;///< writeback-buffer batch flushes
    std::uint64_t writebackBufferHits = 0; ///< re-localized from the buffer

    /** Element-wise sum (merging per-worker counter sets on report). */
    RuntimeStats &operator+=(const RuntimeStats &other);
};

/**
 * The far-memory object runtime facade.
 *
 * All methods charge simulated cycles for the runtime work they model
 * (fetches, evictions, allocation); guard costs are charged by the layer
 * above (tfm/ or aifmlib/), mirroring the paper's split between
 * compiler-injected code and the AIFM runtime.
 */
class FarMemRuntime
{
  public:
    /** What localize() had to do to make the object local. */
    enum class Localized
    {
        AlreadyLocal,  ///< object was present and safe
        PrefetchWait,  ///< present but in flight; waited for arrival
        RemoteFetch    ///< blocking demand fetch from the remote node
    };

    FarMemRuntime(const RuntimeConfig &config, const CostParams &cost_params);

    /** @name Simulation plumbing
     * @{ */
    /** The calling thread's clock: the bound worker's private clock on
     *  a worker thread, the runtime's main clock otherwise. */
    CycleClock &clock();
    const CycleClock &clock() const;
    /** The remote tier this runtime drives (single node or cluster). */
    RemoteBackend &backend() { return *backend_; }
    const RemoteBackend &backend() const { return *backend_; }
    /** Shard 0's link / node: the whole tier in single-node configs. */
    NetworkModel &net() { return backend_->link(0); }
    RemoteNode &remote() { return backend_->node(0); }
    const CostParams &costs() const { return _costs; }
    const RuntimeConfig &config() const { return cfg; }
    ObjectStateTable &stateTable() { return ost; }
    FrameCache &frameCache() { return cache; }
    /** @} */

    /** @name Allocation (the unified ADS object pool)
     * @{ */
    /** Allocate @p bytes of far memory; returns the far-heap offset. */
    std::uint64_t allocate(std::uint64_t bytes);
    /** Free a prior allocation. */
    void deallocate(std::uint64_t offset);
    /** Rounded size of a live allocation. */
    std::uint64_t sizeOf(std::uint64_t offset) const;
    const RegionAllocator &allocator() const { return alloc_; }
    /** @} */

    /** @name Object access
     * @{ */
    /**
     * Ensure the object containing @p offset is local and return a host
     * pointer to the byte at @p offset. Charges fetch/wait costs but not
     * guard costs.
     */
    std::byte *localize(std::uint64_t offset, bool for_write,
                        Localized *outcome = nullptr);

    /**
     * The fast-path check: if the object is present and safe, mark usage
     * and return the host pointer; otherwise return nullptr with no side
     * effects. Charges nothing (the guard charges its own cycles).
     */
    std::byte *tryFast(std::uint64_t offset, bool for_write);

    /** Is the object containing @p offset currently localized? */
    bool
    isLocal(std::uint64_t offset) const
    {
        return ost[ost.objectOf(offset)].present();
    }

    /** Pin the object containing @p offset (loop-chunk locality guard). */
    void pinObject(std::uint64_t obj_id);
    /** Undo pinObject(). */
    void unpinObject(std::uint64_t obj_id);
    /** @} */

    /** @name Prefetch
     * @{ */
    /**
     * Issue asynchronous fetches for up to @p count objects starting at
     * @p obj_id + @p stride (compiler-directed prefetch, section 4.3).
     */
    void prefetchObjects(std::uint64_t obj_id, std::int64_t stride,
                         std::uint32_t count);
    /** @} */

    /** @name Initialization / verification (no cycle accounting)
     * @{ */
    /** Write through to both the local copy (if any) and the remote. */
    void rawWrite(std::uint64_t offset, const void *src, std::size_t len);
    /** Read the current value wherever it lives. */
    void rawRead(std::uint64_t offset, void *dst, std::size_t len);
    /** @} */

    /**
     * Drop every localized object (writing back dirty ones) so a
     * measurement can start from a fully remote heap.
     */
    void evacuateAll();

    /**
     * Push every buffered dirty writeback to the remote node as one
     * coalesced message. Safe to call with an empty buffer. Charged as
     * normal data-plane traffic (unlike evacuateAll's raw flush).
     */
    void flushWritebacks();

    /** Dirty objects currently parked in the writeback buffer. */
    std::uint64_t pendingWritebacks() const { return wbBuf.size(); }

    /**
     * Monotone counter bumped whenever any frame is unmapped (eviction
     * or evacuation). Guard-level inline caches compare it to detect
     * that a cached object->frame translation may have gone stale; the
     * concurrent runtime additionally uses it as the epoch-based
     * reclamation clock (each retired frame is stamped with the bump
     * its eviction produced).
     */
    std::uint64_t evictionEpoch() const { return _evictionEpoch.load(); }

    /** The calling thread's counter set (bound worker's, else main). */
    const RuntimeStats &stats() const;
    /** Main-thread counters plus every registered worker's (exact under
     *  concurrency: each set is single-writer). */
    RuntimeStats mergedStats() const;
    void exportStats(StatSet &set) const;

    /**
     * FNV-1a over the logical far heap (local frames, parked
     * writebacks, and remote bytes merged, exactly as rawRead sees
     * them): the record/replay bit-exactness witness.
     */
    std::uint64_t heapChecksum();

    /** The attached flight recorder (or nullptr) and this runtime's
     *  recorder instance id. */
    FlightRecorder *recorder() const { return rec_; }
    std::uint16_t recorderInstance() const { return recInstance_; }

    /** @name Observability
     *  The attached sink (or nullptr) and this runtime's trace stream.
     *  TfmRuntime / AifmRuntime reuse both so a whole stack shares one
     *  Perfetto "process".
     * @{ */
    Observability *obs() const { return obs_; }
    std::uint32_t obsStream() const { return obsStream_; }
    /** @} */

  private:
    /** One dirty object parked for a coalesced writeback. */
    struct PendingWriteback
    {
        std::uint64_t objId = 0;
        std::uint64_t parkCycle = 0; ///< clock when parked (residency)
        std::vector<std::byte> data;
    };

    /** Find a frame for @p obj_id's shard, evicting a victim if needed
     *  (deterministic single-thread path). */
    std::uint64_t takeFrame(std::uint64_t obj_id);
    /** Evict the object in @p frame_idx (writeback when dirty). */
    void evictFrame(std::uint64_t frame_idx);
    /**
     * Evacuator decision feed: record (or replay-verify) the CLOCK
     * sweep's victim choice, returning the victim to evict — during
     * replay, the recorded one.
     */
    std::uint64_t evacDecision(std::uint64_t victim);
    /** Demand-miss hook: train the prefetcher and issue lookahead. */
    void onDemandMiss(std::uint64_t obj_id);
    /** Flush the writeback buffer when size/age thresholds are hit. */
    void maybeFlushWritebacks();
    /** Index into wbBuf for @p obj_id, or -1 when not buffered. */
    std::ptrdiff_t findPendingWriteback(std::uint64_t obj_id) const;
    /** Epoch time-series snapshot (occupancy, buffer depth, wire bytes). */
    void obsEpochSample();

    RuntimeConfig cfg;
    CostParams _costs;
    CycleClock _clock;
    std::unique_ptr<RemoteBackend> backend_;
    ObjectStateTable ost;
    FrameCache cache;
    RegionAllocator alloc_;
    StridePrefetcher prefetcher;
    RuntimeStats _stats;
    std::vector<PendingWriteback> wbBuf;
    std::uint64_t wbOldestCycle = 0; ///< clock when wbBuf[0] was parked
    /// Eviction-epoch clock; seq_cst (see DESIGN.md §4k reclamation
    /// proof). Plain increments in the deterministic path compile to
    /// the same uncontended RMW.
    std::atomic<std::uint64_t> _evictionEpoch{0};
    Observability *obs_ = nullptr;
    std::uint32_t obsStream_ = 0;
    FlightRecorder *rec_ = nullptr;
    std::uint16_t recInstance_ = 0;
    std::uint64_t lastMissObj = ~0ull; ///< inter-miss-distance tracking

  public:
    /** @name Concurrent runtime (DESIGN.md §4k)
     *
     * Worker threads register a WorkerContext each and bind it to their
     * thread. Reads go through a lock-free fast path (one object-state
     * snapshot inside an epoch section); misses and all writes take the
     * object's frame-cache shard lock. Evicted frames park in the
     * shard's limbo list until every worker has passed the eviction's
     * epoch, so a lock-free reader can never touch a reused frame.
     *
     * Lock order: shard mutex < worker wbMu / mainWbMu_ < netMu_.
     * Epoch sections never acquire any lock (that is what makes the
     * quiescence wait in takeFrameMt deadlock-free).
     * @{ */

    /** Quiescent epoch-slot value (worker not inside an epoch section). */
    static constexpr std::uint64_t quiescentEpoch = ~0ull;

    /** Per-worker-thread runtime state: private clock, private counter
     *  set, epoch slot, and private dirty-writeback buffer. */
    struct WorkerContext
    {
        CycleClock clock;     ///< this worker's simulated time
        RuntimeStats stats;   ///< single-writer counters, merged on report
        /// Epoch observed at epochEnter(), quiescentEpoch outside any
        /// epoch section. seq_cst: the reclamation proof needs slot
        /// stores and meta/epoch loads in one total order.
        std::atomic<std::uint64_t> epochSlot{quiescentEpoch};
        std::uint32_t index = 0;
        FarMemRuntime *owner = nullptr;

        std::mutex wbMu; ///< guards wbBuf (leaf lock, see lock order)
        std::vector<PendingWriteback> wbBuf;
        std::uint64_t wbOldestCycle = 0;
    };

    /** What a successful MT fast read hands the guard layer so it can
     *  fill its last-object inline cache. */
    struct MtFill
    {
        bool valid = false;
        std::uint64_t objId = 0;
        std::uint64_t epoch = 0; ///< eviction epoch the fill is valid for
        std::byte *frameBase = nullptr;
        ObjectMeta *meta = nullptr;
        Frame *frame = nullptr;
    };

    /** Create a worker context (call before starting worker threads;
     *  not thread-safe against running workers). */
    WorkerContext *registerWorker();
    /** Bind @p w to the calling thread; routes clock()/stats() here. */
    void bindWorker(WorkerContext *w);
    /** Remove the calling thread's binding. */
    void unbindWorker();
    /** The calling thread's bound context, or nullptr. */
    WorkerContext *boundWorker() const;
    const std::vector<std::unique_ptr<WorkerContext>> &workers() const
    {
        return workers_;
    }

    /**
     * Lock-free guarded read attempt: one raw() snapshot of the object
     * state inside an epoch section; on a safe hit, copies @p len bytes
     * at @p offset into @p dst, marks usage, and (optionally) fills
     * @p fill for the guard inline cache. Returns false on any miss
     * (remote, in flight) with no side effects.
     */
    bool tryFastReadMt(WorkerContext &w, std::uint64_t offset, void *dst,
                       std::size_t len, MtFill *fill);

    /**
     * Validate a previous MtFill (the guard layer's last-object inline
     * cache) inside an epoch section and, on a hit, copy out through
     * it. An unchanged eviction epoch proves the object->frame
     * translation is still live; any eviction since the fill misses and
     * the guard falls back to tryFastReadMt, which refills.
     */
    bool tryCachedReadMt(WorkerContext &w, const MtFill &fill,
                         std::uint64_t offset, void *dst, std::size_t len);

    /**
     * Slow-path guarded read: takes the object's shard lock, localizes
     * if needed (stealing a parked writeback copy or fetching), and
     * copies out under the lock.
     */
    void localizeReadMt(WorkerContext &w, std::uint64_t offset, void *dst,
                        std::size_t len, MtFill *fill,
                        Localized *outcome = nullptr);

    /**
     * Guarded write: always takes the shard lock (no lock-free write
     * path — two racing writers to one object must serialize), localizes
     * if needed, copies @p src in, and marks the object dirty.
     * @p was_present reports whether the object was already local (the
     * guard layer charges the fast- or slow-path write cost on it).
     */
    void localizeWriteMt(WorkerContext &w, std::uint64_t offset,
                         const void *src, std::size_t len,
                         bool *was_present, Localized *outcome = nullptr);

    /** Push @p w's parked dirty objects to the remote tier as one
     *  coalesced message (metered; takes wbMu then netMu_). */
    void flushWorkerWritebacks(WorkerContext &w);

    /**
     * Main-thread drain of every worker's parked writebacks after the
     * workers have been joined (unmetered raw writes, like
     * evacuateAll's flush).
     */
    void drainWorkerWritebacks();

    /** @} */

  private:
    /** Enter/exit an epoch section (lock-free readers only). */
    void
    epochEnter(WorkerContext &w)
    {
        w.epochSlot.store(_evictionEpoch.load());
    }
    void epochExit(WorkerContext &w) { w.epochSlot.store(quiescentEpoch); }
    /** Minimum epoch slot over all workers (quiescent = +inf). */
    std::uint64_t minActiveEpoch() const;
    /** Frame acquisition under @p shard's lock: alloc, reclaim limbo,
     *  evict, or spin-yield for reader quiescence. */
    std::uint64_t takeFrameMt(WorkerContext &w, std::uint32_t shard);
    /** Unmap + retire the frame to limbo (caller holds the shard lock);
     *  dirty payloads park in @p w's private buffer. */
    void evictFrameMt(WorkerContext &w, std::uint32_t shard,
                      std::uint64_t frame_idx);
    /** Synchronous fetch on the shared device clock (netMu_; jumps the
     *  device clock to @p w's time and back). */
    void fetchMt(WorkerContext &w, std::uint64_t obj_id, std::byte *data);
    /** Pull a parked dirty copy of @p obj_id out of any writeback
     *  buffer (workers' and the main thread's) into @p dst. */
    bool stealParkedWriteback(std::uint64_t obj_id, std::byte *dst);
    /** Size/age-triggered flush of @p w's buffer. */
    void maybeFlushWorkerWritebacks(WorkerContext &w);

    std::vector<std::unique_ptr<WorkerContext>> workers_;
    std::mutex netMu_;    ///< serializes shared backend/device access
    std::mutex allocMu_;  ///< serializes the region allocator when concurrent
    std::mutex mainWbMu_; ///< workers stealing from the main-thread wbBuf
    std::atomic<std::uint64_t> parkedCount_{0}; ///< hint: skip steal scans
    static thread_local WorkerContext *tlsWorker_;
};

} // namespace tfm

#endif // TRACKFM_RUNTIME_FAR_MEM_RUNTIME_HH
