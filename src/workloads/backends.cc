/**
 * @file
 * Concrete MemBackend implementations for the four memory systems and
 * the backend factory.
 */

#include "backend_config.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "aifmlib/aifm_runtime.hh"
#include "fastswap/fastswap_runtime.hh"
#include "runtime/region_allocator.hh"
#include "sim/cycle_clock.hh"
#include "sim/logging.hh"
#include "tfm/chunk.hh"
#include "tfm/cost_model.hh"
#include "tfm/tfm_runtime.hh"

namespace tfm
{

namespace
{

/**
 * Local-only backend: a plain heap with per-access base charges. The
 * normalization line in every "slowdown vs. local" figure.
 */
class LocalBackend : public MemBackend
{
  public:
    LocalBackend(const BackendConfig &config, const CostParams &cost_params)
        : costs(cost_params),
          mem(static_cast<std::byte *>(std::calloc(config.farHeapBytes, 1))),
          alloc_(config.farHeapBytes, 4096)
    {
        TFM_ASSERT(mem != nullptr, "local heap allocation failed");
    }

    std::uint64_t
    alloc(std::uint64_t bytes) override
    {
        clock.advance(costs.allocCycles);
        const std::uint64_t offset = alloc_.allocate(bytes);
        TFM_ASSERT(offset != RegionAllocator::badOffset,
                   "local heap exhausted");
        return offset;
    }

    void
    dealloc(std::uint64_t addr) override
    {
        clock.advance(costs.allocCycles);
        alloc_.deallocate(addr);
    }

    void
    read(std::uint64_t addr, void *dst, std::size_t len,
         AccessHint hint) override
    {
        chargeBase(hint);
        std::memcpy(dst, mem.get() + addr, len);
    }

    void
    write(std::uint64_t addr, const void *src, std::size_t len,
          AccessHint hint) override
    {
        chargeBase(hint);
        std::memcpy(mem.get() + addr, src, len);
    }

    class Stream : public SeqStream
    {
      public:
        Stream(LocalBackend &backend, std::uint64_t addr,
               std::uint32_t elem_size)
            : b(backend), cur(addr), elemSize(elem_size)
        {}

        void read(void *dst) override { readRun(dst, 1); }
        void write(const void *src) override { writeRun(src, 1); }

        /** All of local memory is one window. */
        std::uint64_t
        run(std::uint64_t max, bool) override
        {
            return max;
        }

        void
        readRun(void *dst, std::uint64_t k) override
        {
            b.clock.advance(k * b.costs.seqAccessCycles);
            std::memcpy(dst, b.mem.get() + cur, k * elemSize);
            cur += k * elemSize;
        }

        void
        writeRun(const void *src, std::uint64_t k) override
        {
            b.clock.advance(k * b.costs.seqAccessCycles);
            std::memcpy(b.mem.get() + cur, src, k * elemSize);
            cur += k * elemSize;
        }

      private:
        LocalBackend &b;
        std::uint64_t cur;
        std::uint32_t elemSize;
    };

    std::unique_ptr<SeqStream>
    stream(std::uint64_t addr, std::uint32_t elem_size, std::uint64_t count,
           StreamMode mode) override
    {
        (void)count;
        (void)mode;
        return std::make_unique<Stream>(*this, addr, elem_size);
    }

    void compute(std::uint64_t c) override { clock.advance(c); }

    void
    initWrite(std::uint64_t addr, const void *src, std::size_t len) override
    {
        std::memcpy(mem.get() + addr, src, len);
    }

    void
    initRead(std::uint64_t addr, void *dst, std::size_t len) override
    {
        std::memcpy(dst, mem.get() + addr, len);
    }

    void dropCaches() override {}

    std::uint64_t cycles() const override { return clock.now(); }

    BackendSnapshot
    snapshot() const override
    {
        BackendSnapshot s;
        s.cycles = cycles();
        return s;
    }

    StatSet
    stats() const override
    {
        StatSet set;
        set.add("clock.cycles", clock.now());
        return set;
    }

  private:
    void
    chargeBase(AccessHint hint)
    {
        clock.advance(hint == AccessHint::Sequential ? costs.seqAccessCycles
                                                     : costs.randAccessCycles);
    }

    struct FreeBytes
    {
        void operator()(std::byte *p) const { std::free(p); }
    };

    CostParams costs;
    CycleClock clock;
    /// calloc'd, so a large heap is zero-on-demand mapped memory: only
    /// the pages a run touches become resident.
    std::unique_ptr<std::byte[], FreeBytes> mem;
    RegionAllocator alloc_;
};

/**
 * The naive TrackFM transformation of a sequential loop: one guard per
 * element access. Unchunked loops stream through it, and so does every
 * stream of a shared-runtime view (makeSharedBackend).
 */
class GuardedStream : public SeqStream
{
  public:
    GuardedStream(TfmRuntime &runtime, std::uint64_t addr,
                  std::uint32_t elem_size)
        : rt(runtime), cur(addr), elemSize(elem_size)
    {}

    void
    read(void *dst) override
    {
        rt.clock().advance(rt.costs().guardedSeqAccessCycles);
        rt.readGuarded(cur, dst, elemSize);
        cur += elemSize;
    }

    void
    write(const void *src) override
    {
        rt.clock().advance(rt.costs().guardedSeqAccessCycles);
        rt.writeGuarded(cur, src, elemSize);
        cur += elemSize;
    }

  private:
    TfmRuntime &rt;
    std::uint64_t cur;
    std::uint32_t elemSize;
};

/**
 * TrackFM backend: the compiler-transformed program. Handles are tagged
 * pointers; every metered access goes through a guard; sequential
 * streams are chunked according to the configured policy. It owns its
 * runtime, or is a view over a shared one (makeSharedBackend).
 */
class TrackFmBackend : public MemBackend
{
  public:
    /** A backend over its own runtime, built from @p config. */
    TrackFmBackend(const BackendConfig &config, const CostParams &cost_params)
        : cfg(config),
          owned(std::make_unique<TfmRuntime>(runtimeConfig(config),
                                             cost_params)),
          rt(*owned)
    {}

    /** A view over @p runtime, which the caller owns. */
    TrackFmBackend(const BackendConfig &config, TfmRuntime &runtime)
        : cfg(config), rt(runtime)
    {}

    std::uint64_t alloc(std::uint64_t bytes) override
    {
        return rt.tfmMalloc(bytes);
    }

    void dealloc(std::uint64_t addr) override { rt.tfmFree(addr); }

    void
    read(std::uint64_t addr, void *dst, std::size_t len,
         AccessHint hint) override
    {
        chargeBase(hint);
        rt.readGuarded(addr, dst, len);
    }

    void
    write(std::uint64_t addr, const void *src, std::size_t len,
          AccessHint hint) override
    {
        chargeBase(hint);
        rt.writeGuarded(addr, src, len);
    }

    /** Chunked transformation: Fig. 5's rewritten loop body. */
    class ChunkedStream : public SeqStream
    {
      public:
        ChunkedStream(TrackFmBackend &backend, std::uint64_t addr,
                      std::uint32_t elem_size, bool for_write)
            : b(backend), cursor(backend.rt, addr, elem_size, for_write)
        {}

        void
        read(void *dst) override
        {
            // The chunked loop body still carries a per-iteration
            // branch, so its base cost is the non-vectorized one.
            b.rt.clock().advance(b.rt.costs().guardedSeqAccessCycles);
            cursor.read(dst);
        }

        void
        write(const void *src) override
        {
            b.rt.clock().advance(b.rt.costs().guardedSeqAccessCycles);
            cursor.write(src);
        }

        /** The window is the pinned object; 0 when a refill is due. */
        std::uint64_t
        run(std::uint64_t max, bool) override
        {
            return cursor.run(max);
        }

        void
        readRun(void *dst, std::uint64_t k) override
        {
            b.rt.clock().advance(k * b.rt.costs().guardedSeqAccessCycles);
            cursor.readRun(dst, k);
        }

        void
        writeRun(const void *src, std::uint64_t k) override
        {
            b.rt.clock().advance(k * b.rt.costs().guardedSeqAccessCycles);
            cursor.writeRun(src, k);
        }

      private:
        TrackFmBackend &b;
        ChunkCursorRaw cursor;
    };

    std::unique_ptr<SeqStream>
    stream(std::uint64_t addr, std::uint32_t elem_size, std::uint64_t count,
           StreamMode mode) override
    {
        bool chunk = false;
        switch (cfg.chunkPolicy) {
          case ChunkPolicy::None:
            chunk = false;
            break;
          case ChunkPolicy::All:
            chunk = true;
            break;
          case ChunkPolicy::CostModel:
            // Density must clear the section 3.4 break-even AND the
            // loop must span at least one whole object — the paper's
            // profiler filters out loops "with a small iteration
            // space", whose locality guard could never amortize.
            chunk = model.shouldChunk(cfg.objectSizeBytes, elem_size) &&
                    count * elem_size >= cfg.objectSizeBytes;
            break;
        }
        if (chunk) {
            // Compiler-directed prefetch for the detected induction
            // stride (section 4.3).
            if (cfg.prefetchEnabled)
                rt.prefetchAhead(addr, 1, cfg.prefetchDepth);
            return std::make_unique<ChunkedStream>(
                *this, addr, elem_size, mode == StreamMode::Write);
        }
        return std::make_unique<GuardedStream>(rt, addr, elem_size);
    }

    void compute(std::uint64_t c) override { rt.clock().advance(c); }

    void
    initWrite(std::uint64_t addr, const void *src, std::size_t len) override
    {
        rt.rawWrite(addr, src, len);
    }

    void
    initRead(std::uint64_t addr, void *dst, std::size_t len) override
    {
        rt.rawRead(addr, dst, len);
    }

    void dropCaches() override { rt.runtime().evacuateAll(); }

    std::uint64_t cycles() const override { return rt.runtime().clock().now(); }

    BackendSnapshot
    snapshot() const override
    {
        // Merged, so a view counts its workers' guards; with no worker
        // registered this is the main thread's count.
        const GuardStats g = rt.mergedGuardStats();
        // Through the RemoteBackend interface, never the link
        // directly: behind --replay the backend reconstructs these
        // numbers from the recorded net stream.
        const NetStats net = rt.runtime().backend().netStats();
        BackendSnapshot s;
        s.cycles = cycles();
        // Guard events that actually reached the remote node, the
        // analogue of Fastswap's major faults (Figs. 14b / 16b).
        s.farEvents =
            g.slowRemoteReads + g.slowRemoteWrites + g.localityRemotes;
        s.guardEvents = g.guardTotal();
        s.bytesFetched = net.bytesFetched;
        s.bytesTransferred = net.totalBytes();
        return s;
    }

    StatSet
    stats() const override
    {
        StatSet set;
        rt.exportStats(set);
        return set;
    }

  private:
    static RuntimeConfig
    runtimeConfig(const BackendConfig &config)
    {
        RuntimeConfig rc;
        rc.farHeapBytes = config.farHeapBytes;
        rc.localMemBytes = config.localMemBytes;
        rc.objectSizeBytes = config.objectSizeBytes;
        rc.prefetchEnabled = config.prefetchEnabled;
        rc.prefetchDepth = config.prefetchDepth;
        rc.obsLabel = config.obsLabel;
        return rc;
    }

    void
    chargeBase(AccessHint hint)
    {
        rt.clock().advance(hint == AccessHint::Sequential
                               ? rt.costs().guardedSeqAccessCycles
                               : rt.costs().randAccessCycles);
    }

    BackendConfig cfg;
    std::unique_ptr<TfmRuntime> owned; ///< null for a view
    TfmRuntime &rt;
    ChunkCostModel model;
};

/** Fastswap backend: kernel swap on the unmodified program. */
class FastswapBackend : public MemBackend
{
  public:
    FastswapBackend(const BackendConfig &config, const CostParams &cost_params)
        : fs(fastswapConfig(config), cost_params)
    {}

    std::uint64_t alloc(std::uint64_t bytes) override
    {
        return fs.allocate(bytes);
    }

    void dealloc(std::uint64_t addr) override { fs.deallocate(addr); }

    void
    read(std::uint64_t addr, void *dst, std::size_t len,
         AccessHint hint) override
    {
        chargeBase(hint);
        fs.plane().read(addr, dst, len);
    }

    void
    write(std::uint64_t addr, const void *src, std::size_t len,
          AccessHint hint) override
    {
        chargeBase(hint);
        fs.plane().write(addr, src, len);
    }

    class Stream : public SeqStream
    {
      public:
        Stream(FastswapBackend &backend, std::uint64_t addr,
               std::uint32_t elem_size)
            : plane(backend.fs.plane()), clock(backend.fs.clock()),
              seqCycles(backend.fs.costs().seqAccessCycles), cur(addr),
              elemSize(elem_size)
        {}

        void
        read(void *dst) override
        {
            clock.advance(seqCycles);
            plane.readVia(window, cur, dst, elemSize);
            cur += elemSize;
        }

        void
        write(const void *src) override
        {
            clock.advance(seqCycles);
            plane.writeVia(window, cur, src, elemSize);
            cur += elemSize;
        }

        /** The page under the cursor while the plane's map holds. */
        std::uint64_t
        run(std::uint64_t max, bool for_write) override
        {
            return std::min<std::uint64_t>(
                max,
                window.bytes(cur, for_write, plane.mapEpoch()) / elemSize);
        }

        /** Inside the run the page is mapped: nothing but the copy. */
        void
        readRun(void *dst, std::uint64_t k) override
        {
            clock.advance(k * seqCycles);
            std::memcpy(dst, window.at(cur), k * elemSize);
            cur += k * elemSize;
        }

        /** Inside a write run the page is mapped and already dirty. */
        void
        writeRun(const void *src, std::uint64_t k) override
        {
            clock.advance(k * seqCycles);
            std::memcpy(window.at(cur), src, k * elemSize);
            cur += k * elemSize;
        }

      private:
        PagedPlane &plane;
        /// Looked up once: Fastswap never binds worker clocks.
        CycleClock &clock;
        const std::uint64_t seqCycles;
        std::uint64_t cur;
        std::uint32_t elemSize;
        /// The page under the cursor: a mapped page runs at host speed.
        HostWindow window;
    };

    std::unique_ptr<SeqStream>
    stream(std::uint64_t addr, std::uint32_t elem_size, std::uint64_t count,
           StreamMode mode) override
    {
        (void)count;
        (void)mode;
        return std::make_unique<Stream>(*this, addr, elem_size);
    }

    void compute(std::uint64_t c) override { fs.clock().advance(c); }

    void
    initWrite(std::uint64_t addr, const void *src, std::size_t len) override
    {
        fs.rawWrite(addr, src, len);
    }

    void
    initRead(std::uint64_t addr, void *dst, std::size_t len) override
    {
        fs.rawRead(addr, dst, len);
    }

    void dropCaches() override { fs.plane().evacuate(); }

    std::uint64_t cycles() const override { return fs.clock().now(); }

    BackendSnapshot
    snapshot() const override
    {
        const NetStats net = fs.netStats();
        BackendSnapshot s;
        s.cycles = cycles();
        s.farEvents = fs.plane().stats().majorFaults;
        s.bytesFetched = net.bytesFetched;
        s.bytesTransferred = net.totalBytes();
        return s;
    }

    StatSet
    stats() const override
    {
        StatSet set;
        fs.exportStats(set);
        return set;
    }

  private:
    /**
     * Swap readahead stays off: Fastswap's frontswap/RDMA path fetches
     * faulted pages individually, and the paper's results show
     * kernel-side prefetching far weaker than the compiler-informed
     * kind ("post hoc inferences based on run-time page faults").
     */
    static RuntimeConfig
    fastswapConfig(const BackendConfig &config)
    {
        RuntimeConfig rc;
        rc.farHeapBytes = config.farHeapBytes;
        rc.localMemBytes = config.localMemBytes;
        rc.pagedReadaheadPages = 0;
        rc.obsLabel = config.obsLabel;
        return rc;
    }

    void
    chargeBase(AccessHint hint)
    {
        fs.clock().advance(hint == AccessHint::Sequential
                               ? fs.costs().seqAccessCycles
                               : fs.costs().randAccessCycles);
    }

    mutable FastswapRuntime fs;
};

/**
 * AIFM backend: the library-ported program. Every access is bracketed
 * by (amortized) deref scopes; sequential streams use library iterators
 * with object-window reuse.
 */
class AifmBackend : public MemBackend
{
  public:
    AifmBackend(const BackendConfig &config, const CostParams &cost_params)
        : rt(runtimeConfig(config), cost_params)
    {}

    std::uint64_t alloc(std::uint64_t bytes) override
    {
        return rt.runtime().allocate(bytes);
    }

    void dealloc(std::uint64_t addr) override
    {
        rt.runtime().deallocate(addr);
    }

    void
    read(std::uint64_t addr, void *dst, std::size_t len,
         AccessHint hint) override
    {
        chargeBase(hint);
        piecewise(addr, dst, nullptr, len, false);
    }

    void
    write(std::uint64_t addr, const void *src, std::size_t len,
          AccessHint hint) override
    {
        chargeBase(hint);
        piecewise(addr, nullptr, src, len, true);
    }

    /** Library iterator stream with a pinned object window. */
    class Stream : public SeqStream
    {
      public:
        Stream(AifmBackend &backend, std::uint64_t addr,
               std::uint32_t elem_size, bool for_write)
            : b(backend), cur(addr), elemSize(elem_size),
              writeMode(for_write)
        {
            refill();
        }

        ~Stream() override { b.rt.runtime().unpinWindow(window); }

        void
        read(void *dst) override
        {
            b.rt.clock().advance(b.rt.costs().aifmIteratorCycles);
            if (!window.bytes(cur, writeMode))
                refill();
            std::memcpy(dst, window.at(cur), elemSize);
            cur += elemSize;
        }

        void
        write(const void *src) override
        {
            b.rt.clock().advance(b.rt.costs().aifmIteratorCycles);
            if (!window.bytes(cur, writeMode))
                refill();
            std::memcpy(window.at(cur), src, elemSize);
            cur += elemSize;
        }

      private:
        /** Pin the object under the cursor. Past the constructor the
         *  refill is lazy, so a finished loop never walks off the
         *  array. */
        void
        refill()
        {
            b.rt.runtime().pinWindow(window, cur, b.rt.deref(cur, writeMode),
                                     writeMode);
        }

        AifmBackend &b;
        std::uint64_t cur;
        std::uint32_t elemSize;
        bool writeMode;
        HostWindow window; ///< the pinned object under the cursor
    };

    std::unique_ptr<SeqStream>
    stream(std::uint64_t addr, std::uint32_t elem_size, std::uint64_t count,
           StreamMode mode) override
    {
        (void)count;
        return std::make_unique<Stream>(*this, addr, elem_size,
                                        mode == StreamMode::Write);
    }

    void compute(std::uint64_t c) override { rt.clock().advance(c); }

    void
    initWrite(std::uint64_t addr, const void *src, std::size_t len) override
    {
        rt.runtime().rawWrite(addr, src, len);
    }

    void
    initRead(std::uint64_t addr, void *dst, std::size_t len) override
    {
        rt.runtime().rawRead(addr, dst, len);
    }

    void dropCaches() override { rt.runtime().evacuateAll(); }

    std::uint64_t cycles() const override { return rt.runtime().clock().now(); }

    BackendSnapshot
    snapshot() const override
    {
        const NetStats net = rt.runtime().backend().netStats();
        BackendSnapshot s;
        s.cycles = cycles();
        s.farEvents = rt.stats().misses;
        s.bytesFetched = net.bytesFetched;
        s.bytesTransferred = net.totalBytes();
        return s;
    }

    StatSet
    stats() const override
    {
        StatSet set;
        rt.exportStats(set);
        return set;
    }

  private:
    static RuntimeConfig
    runtimeConfig(const BackendConfig &config)
    {
        RuntimeConfig rc;
        rc.farHeapBytes = config.farHeapBytes;
        rc.localMemBytes = config.localMemBytes;
        rc.objectSizeBytes = config.objectSizeBytes;
        rc.prefetchEnabled = config.prefetchEnabled;
        rc.prefetchDepth = config.prefetchDepth;
        rc.obsLabel = config.obsLabel;
        return rc;
    }

    void
    piecewise(std::uint64_t addr, void *dst, const void *src,
              std::size_t len, bool for_write)
    {
        const auto &table = rt.runtime().stateTable();
        std::size_t done = 0;
        while (done < len) {
            const std::uint64_t at = addr + done;
            const std::uint64_t in_obj = table.offsetInObject(at);
            const std::size_t piece = std::min<std::size_t>(
                len - done, table.objectSize() - in_obj);
            std::byte *data = rt.deref(at, for_write);
            if (for_write) {
                std::memcpy(data,
                            static_cast<const std::byte *>(src) + done,
                            piece);
            } else {
                std::memcpy(static_cast<std::byte *>(dst) + done, data,
                            piece);
            }
            done += piece;
        }
    }

    void
    chargeBase(AccessHint hint)
    {
        rt.clock().advance(hint == AccessHint::Sequential
                               ? rt.costs().seqAccessCycles
                               : rt.costs().randAccessCycles);
    }

    mutable AifmRuntime rt;
};

} // anonymous namespace

std::unique_ptr<MemBackend>
makeBackend(const BackendConfig &config, const CostParams &costs)
{
    switch (config.kind) {
      case SystemKind::Local:
        return std::make_unique<LocalBackend>(config, costs);
      case SystemKind::TrackFm:
        return std::make_unique<TrackFmBackend>(config, costs);
      case SystemKind::Fastswap:
        return std::make_unique<FastswapBackend>(config, costs);
      case SystemKind::Aifm:
        return std::make_unique<AifmBackend>(config, costs);
    }
    TFM_PANIC("unknown backend kind");
}

std::unique_ptr<MemBackend>
makeSharedBackend(TfmRuntime &runtime)
{
    // Chunking pins frames across calls, which is single-thread-only,
    // so the view's streams take the one-guard-per-element path.
    BackendConfig config;
    config.chunkPolicy = ChunkPolicy::None;
    return std::make_unique<TrackFmBackend>(config, runtime);
}

const char *
systemName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::Local:
        return "Local";
      case SystemKind::TrackFm:
        return "TrackFM";
      case SystemKind::Fastswap:
        return "Fastswap";
      case SystemKind::Aifm:
        return "AIFM";
    }
    return "?";
}

BackendSnapshot
deltaSince(const BackendSnapshot &a, const BackendSnapshot &b)
{
    BackendSnapshot d;
    d.cycles = b.cycles - a.cycles;
    d.farEvents = b.farEvents - a.farEvents;
    d.guardEvents = b.guardEvents - a.guardEvents;
    d.bytesFetched = b.bytesFetched - a.bytesFetched;
    d.bytesTransferred = b.bytesTransferred - a.bytesTransferred;
    return d;
}

} // namespace tfm
