/**
 * @file
 * The pluggable memory-system interface the application benchmarks are
 * written against.
 *
 * Every workload in src/workloads runs unmodified on four backends:
 *
 *  - Local:    all memory local (the "local-only" normalization line);
 *  - TrackFM:  compiler-transformed program — every heap access goes
 *              through a guard, sequential loops may be chunked and
 *              prefetched per the compiler's cost model;
 *  - Fastswap: unmodified program on kernel swap — page faults;
 *  - AIFM:     programmer-ported program using remote data structures.
 *
 * This mirrors the paper's methodology: one source program, four memory
 * systems, identical access patterns.
 */

#ifndef TRACKFM_WORKLOADS_BACKEND_HH
#define TRACKFM_WORKLOADS_BACKEND_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace tfm
{

/** Locality hint for the base (CPU-side) cost of one access. */
enum class AccessHint
{
    Sequential, ///< streaming, vectorizable access
    Random      ///< dependent or randomly addressed access
};

/** Direction of a sequential stream. */
enum class StreamMode
{
    Read,
    Write
};

/**
 * A sequential element stream: the backend-specific best implementation
 * of "for (i = 0; i < n; i++) use(a[i])".
 *
 * The run contract (DESIGN.md §4l): run() says how many of the next
 * elements the stream's current window (a mapped page, a pinned object,
 * local memory) already covers. Moving them takes no fault, refill or
 * eviction and reads no clock, so readRun/writeRun copy all k at once
 * and charge exactly what k read/write calls would. Streams without a
 * window keep the default run of 0 and go one element at a time.
 */
class SeqStream
{
  public:
    virtual ~SeqStream() = default;
    /** Read the current element into @p dst and advance. */
    virtual void read(void *dst) = 0;
    /** Write the current element from @p src and advance. */
    virtual void write(const void *src) = 0;

    /**
     * How many of the next elements, at most @p max, the current window
     * covers for reads (or, with @p for_write, writes).
     */
    virtual std::uint64_t
    run(std::uint64_t max, bool for_write)
    {
        (void)max;
        (void)for_write;
        return 0;
    }

    /** Read @p k <= run(k, false) elements into @p dst and advance. */
    virtual void
    readRun(void *dst, std::uint64_t k)
    {
        (void)dst;
        (void)k;
        TFM_PANIC("readRun past the stream's run");
    }

    /** Write @p k <= run(k, true) elements from @p src and advance. */
    virtual void
    writeRun(const void *src, std::uint64_t k)
    {
        (void)src;
        (void)k;
        TFM_PANIC("writeRun past the stream's run");
    }
};

/** Point-in-time counters for windowed measurement. */
struct BackendSnapshot
{
    std::uint64_t cycles = 0;
    /// Far-memory events: TrackFM slow-path + locality guards that
    /// reached the remote node, Fastswap major faults, AIFM misses, 0
    /// for local (Figs. 14b / 16b).
    std::uint64_t farEvents = 0;
    /// All guard events including fast paths (TrackFM; 0 elsewhere).
    std::uint64_t guardEvents = 0;
    /// Payload bytes fetched from the remote node.
    std::uint64_t bytesFetched = 0;
    /// Total payload bytes moved in either direction.
    std::uint64_t bytesTransferred = 0;
};

/** Counter deltas between two snapshots (b - a). */
BackendSnapshot deltaSince(const BackendSnapshot &a,
                           const BackendSnapshot &b);

/** Abstract memory system. Addresses are backend-specific handles. */
class MemBackend
{
  public:
    virtual ~MemBackend() = default;

    /** @name Allocation
     * @{ */
    virtual std::uint64_t alloc(std::uint64_t bytes) = 0;
    virtual void dealloc(std::uint64_t addr) = 0;
    /** @} */

    /** @name Metered access
     * @{ */
    virtual void read(std::uint64_t addr, void *dst, std::size_t len,
                      AccessHint hint) = 0;
    virtual void write(std::uint64_t addr, const void *src, std::size_t len,
                       AccessHint hint) = 0;
    /**
     * Open a sequential stream of @p count elements of @p elem_size
     * bytes starting at @p addr.
     */
    virtual std::unique_ptr<SeqStream> stream(std::uint64_t addr,
                                              std::uint32_t elem_size,
                                              std::uint64_t count,
                                              StreamMode mode) = 0;
    /** Charge @p cycles of pure compute (no memory system involvement). */
    virtual void compute(std::uint64_t cycles) = 0;
    /** @} */

    /** @name Unmetered initialization / verification
     * @{ */
    virtual void initWrite(std::uint64_t addr, const void *src,
                           std::size_t len) = 0;
    virtual void initRead(std::uint64_t addr, void *dst,
                          std::size_t len) = 0;
    /** @} */

    /** Push all cached state remote so measurement starts cold. */
    virtual void dropCaches() = 0;

    /** @name Measurement
     * @{ */
    /** Simulated cycles elapsed on this backend's clock. */
    virtual std::uint64_t cycles() const = 0;
    /** The clock and every far-memory counter, read together. */
    virtual BackendSnapshot snapshot() const = 0;
    /** Full statistics export. */
    virtual StatSet stats() const = 0;
    /** @} */

    /** @name Typed sugar
     * @{ */
    template <typename T>
    T
    readT(std::uint64_t addr, AccessHint hint)
    {
        T value;
        read(addr, &value, sizeof(T), hint);
        return value;
    }

    template <typename T>
    void
    writeT(std::uint64_t addr, const T &value, AccessHint hint)
    {
        write(addr, &value, sizeof(T), hint);
    }

    template <typename T>
    void
    initT(std::uint64_t addr, const T &value)
    {
        initWrite(addr, &value, sizeof(T));
    }

    template <typename T>
    T
    peekT(std::uint64_t addr)
    {
        T value;
        initRead(addr, &value, sizeof(T));
        return value;
    }
    /** @} */
};

/**
 * Stages unmetered populate writes and hands each run of consecutive
 * bytes to the backend as one initWrite of at most kBytes. A write that
 * does not continue the staged run flushes it first, so a loop that
 * fills several regions keeps one writer per region and the far-heap
 * image is the one element-wise initT calls would leave (initWrite is
 * unmetered on every backend). flush() before any initRead/peekT of
 * the region and before dropCaches(); the destructor flushes the rest.
 */
class InitWriter
{
  public:
    static constexpr std::size_t kBytes = 4096;

    explicit InitWriter(MemBackend &backend) : b(backend) {}
    ~InitWriter() { flush(); }
    InitWriter(const InitWriter &) = delete;
    InitWriter &operator=(const InitWriter &) = delete;

    /** Stage @p value for far-heap address @p addr. */
    template <typename T>
    void
    put(std::uint64_t addr, const T &value)
    {
        static_assert(sizeof(T) <= kBytes, "element larger than a run");
        if (used != 0 && (addr != base + used || used + sizeof(T) > kBytes))
            flush();
        if (used == 0)
            base = addr;
        std::memcpy(buf + used, &value, sizeof(T));
        used += sizeof(T);
    }

    /** Write the staged run, if any. */
    void
    flush()
    {
        if (used == 0)
            return;
        b.initWrite(base, buf, used);
        used = 0;
    }

  private:
    MemBackend &b;
    std::uint64_t base = 0;
    std::size_t used = 0;
    std::byte buf[kBytes];
};

} // namespace tfm

#endif // TRACKFM_WORKLOADS_BACKEND_HH
