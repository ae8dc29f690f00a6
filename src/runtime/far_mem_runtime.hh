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
#include "host_window.hh"
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
    /// Max object payloads coalesced into one fetch message. 1 (or 0)
    /// turns fetch batching off: every prefetch is its own message.
    std::uint32_t fetchBatchMax = 8;
    /// Dirty-writeback buffer flush threshold (objects). The buffer is
    /// also flushed by evacuateAll() and by the age window below. 1 (or
    /// 0) turns writeback batching off: an evicted dirty object goes out
    /// at once as its own message, with no buffer.
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

    /** @name Shared runtime (DESIGN.md §4k)
     * @{ */
    /// Frame-cache lock stripes (power of two; 0 or 1 = the seed's
    /// single-shard cache). Honored with no worker registered too, for
    /// the sharding equivalence tests.
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
 *
 * Every access runs on a WorkerContext: the main context (whose clock
 * the remote backend drives) or a registered worker's. There is one
 * data path for both; registering the first worker switches on what
 * sharing needs (DESIGN.md §4k) — shard locks, epoch sections, frame
 * limbo, and the per-worker fetch timeline.
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

    /** One dirty object parked for a coalesced writeback. */
    struct PendingWriteback
    {
        std::uint64_t objId = 0;
        std::uint64_t parkCycle = 0; ///< clock when parked (residency)
        std::vector<std::byte> data;
    };

    /** Quiescent epoch-slot value (context not inside an epoch section). */
    static constexpr std::uint64_t quiescentEpoch = ~0ull;

    /** One thread's runtime state: clock, counter set, epoch slot, and
     *  dirty-writeback buffer. */
    struct WorkerContext
    {
        CycleClock clock;   ///< this context's simulated time
        RuntimeStats stats; ///< single-writer counters, merged on report
        /// Epoch observed at epoch-section entry, quiescentEpoch outside
        /// any section. seq_cst: the reclamation proof needs slot stores
        /// and meta/epoch loads in one total order.
        std::atomic<std::uint64_t> epochSlot{quiescentEpoch};
        FarMemRuntime *owner = nullptr;

        std::mutex wbMu; ///< guards wbBuf when shared (see lock order)
        std::vector<PendingWriteback> wbBuf;
        std::uint64_t wbOldestCycle = 0; ///< clock when wbBuf[0] parked
        /// The flush's segment list, reused so a flush allocates nothing.
        std::vector<RemoteWriteSeg> wbSegs;
    };

    FarMemRuntime(const RuntimeConfig &config, const CostParams &cost_params);

    /** @name Simulation plumbing
     * @{ */
    /** The calling thread's clock: its bound worker's, else the main
     *  context's (the clock the remote backend drives). */
    CycleClock &clock() { return context().clock; }
    const CycleClock &clock() const { return context().clock; }
    /** The remote tier this runtime drives (one or more shards). */
    RemoteBackend &backend() { return *backend_; }
    const RemoteBackend &backend() const { return *backend_; }
    /** Shard 0's link / node: the whole tier when it has one shard. */
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
     * pointer to the byte at @p offset. Charges fetch/wait costs to
     * @p c but not guard costs. When shared, the caller holds the
     * object's shard lock (AccessScope), and the pointer is good only
     * while it does.
     */
    std::byte *localize(WorkerContext &c, std::uint64_t offset,
                        bool for_write, Localized *outcome = nullptr);
    /** localize() on the calling thread's context. */
    std::byte *
    localize(std::uint64_t offset, bool for_write,
             Localized *outcome = nullptr)
    {
        return localize(context(), offset, for_write, outcome);
    }

    /**
     * The fast-path check: if the object is present and safe, mark usage
     * and return the host pointer; otherwise return nullptr with no side
     * effects. Charges nothing (the guard charges its own cycles). Reads
     * the state word once, so a shared-mode reader inside an epoch
     * section never pairs a stale frame with a fresh safety bit.
     */
    std::byte *
    tryFast(std::uint64_t offset, bool for_write)
    {
        ObjectMeta &meta = ost[ost.objectOf(offset)];
        const std::uint64_t raw = meta.raw();
        if (!ObjectMeta::rawSafe(raw))
            return nullptr;
        const std::uint64_t frame_idx = ObjectMeta::rawFrame(raw);
        cache.frame(frame_idx).refbit.store(true, std::memory_order_relaxed);
        if (for_write)
            meta.setDirty();
        return cache.frameData(frame_idx) + ost.offsetInObject(offset);
    }

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

    /** @name Object windows (DESIGN.md §4l)
     * @{ */
    /**
     * The window over the whole object holding @p offset, given the
     * host address @p host of that byte: valid at eviction epoch
     * @p epoch, or HostWindow::pinned while a pin holds the object.
     */
    HostWindow
    objectWindow(std::uint64_t offset, std::byte *host,
                 std::uint64_t epoch, bool writable) const
    {
        const std::uint64_t in_obj = ost.offsetInObject(offset);
        const std::uint64_t begin = offset - in_obj;
        return {host - in_obj, begin, begin + ost.objectSize(), epoch,
                writable};
    }
    /**
     * Move the pinned @p window to the object holding @p offset, whose
     * local byte sits at @p host: pin that object, then release the
     * pin @p window held, if any.
     */
    void
    pinWindow(HostWindow &window, std::uint64_t offset, std::byte *host,
              bool writable)
    {
        pinObject(ost.objectOf(offset));
        unpinWindow(window);
        window = objectWindow(offset, host, HostWindow::pinned, writable);
    }
    /** Release @p window's pin, if it holds one, and empty it. */
    void
    unpinWindow(HostWindow &window)
    {
        if (window.begin != window.end)
            unpinObject(ost.objectOf(window.begin));
        window = HostWindow{};
    }
    /** @} */

    /**
     * The synchronization one guarded access needs. Nothing while no
     * worker is registered; when shared, a read runs inside an epoch
     * section and a write under the object's shard lock, and lock()
     * moves a read that missed to the shard lock for the slow path.
     * Epoch sections never take a lock, which keeps the limbo wait in
     * takeFrame deadlock-free.
     */
    class AccessScope
    {
      public:
        AccessScope(FarMemRuntime &rt, WorkerContext &c,
                    std::uint64_t obj_id, bool for_write)
            : rt_(rt), c_(c), objId_(obj_id)
        {
            if (!rt.shared_)
                return;
            if (for_write) {
                lock();
            } else {
                c.epochSlot.store(rt.evictionEpoch());
                inEpoch_ = true;
            }
        }
        ~AccessScope()
        {
            leaveEpoch();
            if (locked_)
                locked_->unlock();
        }
        AccessScope(const AccessScope &) = delete;
        AccessScope &operator=(const AccessScope &) = delete;

        /** Hold the object's shard lock from here on (when shared). */
        void
        lock()
        {
            if (!rt_.shared_ || locked_)
                return;
            leaveEpoch();
            locked_ = &rt_.cache.shardMutex(rt_.cache.shardOf(objId_));
            locked_->lock();
        }

      private:
        void
        leaveEpoch()
        {
            if (inEpoch_)
                c_.epochSlot.store(quiescentEpoch);
            inEpoch_ = false;
        }

        FarMemRuntime &rt_;
        WorkerContext &c_;
        std::uint64_t objId_;
        bool inEpoch_ = false;
        std::mutex *locked_ = nullptr;
    };
    /** @} */

    /** @name Prefetch
     * @{ */
    /**
     * Issue asynchronous fetches for up to @p count objects starting at
     * @p obj_id + @p stride (compiler-directed prefetch, section 4.3).
     * Main context only.
     */
    void prefetchObjects(std::uint64_t obj_id, std::int64_t stride,
                         std::uint32_t count);
    /** @} */

    /** @name Initialization / verification (no cycle accounting)
     *  Both see every context's parked writebacks; call them while no
     *  worker runs.
     * @{ */
    /** Write through to both the local copy (if any) and the remote. */
    void rawWrite(std::uint64_t offset, const void *src, std::size_t len);
    /** Read the current value wherever it lives. */
    void rawRead(std::uint64_t offset, void *dst, std::size_t len);
    /** @} */

    /**
     * Drop every localized object (writing back dirty ones) so a
     * measurement can start from a fully remote heap. No worker may be
     * running.
     */
    void evacuateAll();

    /**
     * Push the calling thread's buffered dirty writebacks to the remote
     * node as one coalesced message. Safe to call with an empty buffer.
     * Charged as normal data-plane traffic (unlike evacuateAll's raw
     * flush).
     */
    void flushWritebacks();

    /** Write every context's parked dirty objects home, unmetered (like
     *  evacuateAll's flush). No worker may be running. */
    void drainWritebacks();

    /** Dirty objects currently parked, over every context's buffer. */
    std::uint64_t pendingWritebacks() const { return parkedCount_.load(); }

    /**
     * Monotone counter bumped whenever any frame is unmapped (eviction
     * or evacuation). Guard-level inline caches compare it to detect
     * that a cached object->frame translation may have gone stale; it
     * is also the epoch-based reclamation clock (each retired frame is
     * stamped with the bump its eviction produced).
     */
    std::uint64_t evictionEpoch() const { return _evictionEpoch.load(); }

    /** The calling thread's counter set (bound worker's, else main). */
    const RuntimeStats &stats() const { return context().stats; }
    /** Main-context counters plus every registered worker's (exact
     *  under concurrency: each set is single-writer). */
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
     *  Perfetto "process". Emission is main-context only.
     * @{ */
    Observability *obs() const { return obs_; }
    std::uint32_t obsStream() const { return obsStream_; }
    /** @} */

    /** @name Workers (DESIGN.md §4k)
     *
     * Worker threads register a WorkerContext each and bind it to their
     * thread. From the first registration on the runtime is shared:
     * guarded reads run lock-free inside an epoch section until they
     * miss, misses and writes take the object's frame-cache shard lock,
     * and evicted frames wait in the shard's limbo list until every
     * context has passed the eviction's epoch.
     *
     * Lock order: shard mutex < wbMu < netMu_.
     * @{ */
    /**
     * Create a worker context (before starting worker threads; not
     * thread-safe against running workers). The runtime must have no
     * flight recorder, no cluster tier, and the stride prefetcher off.
     */
    WorkerContext *registerWorker();
    /** Bind @p w to the calling thread; routes clock()/stats() here. */
    void bindWorker(WorkerContext *w);
    /** Remove the calling thread's binding. */
    void unbindWorker();
    /** The calling thread's bound worker context, or nullptr. */
    WorkerContext *boundWorker() const;
    /** The calling thread's context: its bound worker, else main. */
    WorkerContext &
    context()
    {
        WorkerContext *w = shared_ ? boundWorker() : nullptr;
        return w ? *w : main_;
    }
    const WorkerContext &
    context() const
    {
        const WorkerContext *w = shared_ ? boundWorker() : nullptr;
        return w ? *w : main_;
    }
    WorkerContext &mainContext() { return main_; }
    /** At least one worker is registered. */
    bool shared() const { return shared_; }
    /** @} */

  private:
    /** Find a frame in @p shard: alloc, reclaim limbo, or evict a
     *  victim (waiting out readers of the shard's limbo when shared). */
    std::uint64_t takeFrame(WorkerContext &c, std::uint32_t shard);
    /** Evict the object in @p frame_idx: park or write back its dirty
     *  payload, unmap it, and retire the frame. */
    void evictFrame(WorkerContext &c, std::uint32_t shard,
                    std::uint64_t frame_idx);
    /** Park @p frame_idx in @p shard's limbo stamped @p stamp; with no
     *  worker registered no reader can hold it, so it is reclaimed at
     *  once. */
    void retireFrame(std::uint32_t shard, std::uint64_t frame_idx,
                     std::uint64_t stamp);
    /**
     * Evacuator decision feed: record (or replay-verify) the CLOCK
     * sweep's victim choice, returning the victim to evict — during
     * replay, the recorded one.
     */
    std::uint64_t evacDecision(std::uint64_t victim);
    /** Demand-miss hook: train the prefetcher and issue lookahead. */
    void onDemandMiss(std::uint64_t obj_id);
    /** Blocking demand fetch of @p obj_id into @p data on @p c's clock. */
    void fetch(WorkerContext &c, std::uint64_t obj_id, std::byte *data);
    /** Run a backend operation on @p c's timeline: the main context
     *  drives the backend clock itself, a worker borrows it. */
    template <typename Op> void onBackend(WorkerContext &c, Op &&op);
    /** Push @p c's parked writebacks as one message (caller holds
     *  c.wbMu when shared). */
    void flushLocked(WorkerContext &c);
    /** Flush @p c's buffer when size/age thresholds are hit. */
    void maybeFlushWritebacks(WorkerContext &c);
    /** Apply @p fn to the parked copy of @p obj_id in whichever context
     *  holds it (under that context's wbMu when shared); false when no
     *  context does. With @p take the entry leaves its buffer. */
    template <typename Fn>
    bool withParked(std::uint64_t obj_id, bool take, Fn &&fn);
    /** Epoch time-series snapshot (occupancy, buffer depth, wire bytes). */
    void obsEpochSample();
    /** Minimum epoch slot over every context (quiescent = +inf). */
    std::uint64_t minActiveEpoch() const;
    /** A lock on @p mu when shared, an empty one otherwise. */
    std::unique_lock<std::mutex>
    lockIfShared(std::mutex &mu)
    {
        return shared_ ? std::unique_lock<std::mutex>(mu)
                       : std::unique_lock<std::mutex>();
    }

    RuntimeConfig cfg;
    CostParams _costs;
    WorkerContext main_; ///< before backend_: the backend drives its clock
    std::unique_ptr<RemoteBackend> backend_;
    ObjectStateTable ost;
    FrameCache cache;
    RegionAllocator alloc_;
    StridePrefetcher prefetcher;
    /// The prefetch batch being assembled: its segments, their frames
    /// and their arrivals. Sized to fetchBatchMax once; prefetch runs on
    /// the main context only, so one set serves every call.
    std::vector<RemoteFetchSeg> prefetchSegs_;
    std::vector<std::uint64_t> prefetchFrames_;
    std::vector<std::uint64_t> prefetchArrivals_;
    /// Eviction-epoch clock; seq_cst (see DESIGN.md §4k reclamation
    /// proof). Plain increments with no worker registered compile to
    /// the same uncontended RMW.
    std::atomic<std::uint64_t> _evictionEpoch{0};
    Observability *obs_ = nullptr;
    std::uint32_t obsStream_ = 0;
    FlightRecorder *rec_ = nullptr;
    std::uint16_t recInstance_ = 0;
    std::uint64_t lastMissObj = ~0ull; ///< inter-miss-distance tracking

    bool shared_ = false; ///< at least one worker registered
    std::vector<std::unique_ptr<WorkerContext>> workers_;
    std::mutex netMu_;   ///< serializes shared backend/device access
    std::mutex allocMu_; ///< serializes the region allocator when shared
    std::atomic<std::uint64_t> parkedCount_{0}; ///< over every context
    static thread_local WorkerContext *tlsWorker_;
};

} // namespace tfm

#endif // TRACKFM_RUNTIME_FAR_MEM_RUNTIME_HH
