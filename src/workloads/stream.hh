/**
 * @file
 * STREAM-style sequential kernels (McCalpin) — the microbenchmark the
 * paper uses for Figures 7, 10, 11 and 12.
 *
 * "Sum"  : one guarded read per iteration   (sum += a[i])
 * "Copy" : one read and one write           (b[i] = a[i])
 * "Triad": two reads and one write          (c[i] = a[i] + s * b[i])
 *
 * Element size is configurable (4 or 8 bytes): the paper's arrays hold
 * small integers, and at 4 KB objects the 4-byte case sits above the
 * chunking break-even density while the 8-byte case sits below it.
 */

#ifndef TRACKFM_WORKLOADS_STREAM_HH
#define TRACKFM_WORKLOADS_STREAM_HH

#include <cstdint>

#include "backend.hh"

namespace tfm
{

/** Result of one STREAM kernel run. */
struct StreamResult
{
    BackendSnapshot delta;   ///< counters over the measurement window
    std::int64_t checksum = 0; ///< for correctness verification
    std::uint64_t bytesTouched = 0;

    /** Far-memory bandwidth in MB/s of simulated time (Fig. 10). */
    double bandwidthMBps(double cpu_ghz) const;
};

/**
 * @name STREAM kernel bodies over open streams
 * Each step moves k elements: the shortest run() of the kernel's
 * streams (SeqStream's run contract), at least 1. A run of k > 1 is
 * one readRun/writeRun per stream; k == 1 is an ordinary read/write.
 * Both charge the same, so every fault, refill and eviction happens at
 * the same element and the same clock as one access at a time.
 * Elements are @p elem_bytes (4 or 8) wide.
 * @{ */
/** sum += a[i] over @p n elements; returns the sum. */
std::int64_t streamSum(SeqStream &a, std::uint64_t n,
                       std::uint32_t elem_bytes);

/** b[i] = a[i]; returns the last element copied. */
std::int64_t streamCopy(SeqStream &a, SeqStream &b, std::uint64_t n,
                        std::uint32_t elem_bytes);

/**
 * c[i] = a[i] + scale * b[i], charging one compute cycle per element on
 * @p backend; returns the last c[i] before narrowing.
 */
std::int64_t streamTriad(MemBackend &backend, SeqStream &a, SeqStream &b,
                         SeqStream &c, std::uint64_t n,
                         std::uint32_t elem_bytes, std::int64_t scale);
/** @} */

/**
 * STREAM working set: two or three integer arrays on one backend.
 */
class StreamWorkload
{
  public:
    /**
     * @param backend memory system under test
     * @param elements elements per array
     * @param arrays 2 for sum/copy, 3 to also run triad
     * @param element_bytes 4 (int32) or 8 (int64)
     */
    StreamWorkload(MemBackend &backend, std::uint64_t elements,
                   int arrays = 2, std::uint32_t element_bytes = 8);

    /** Array footprint in bytes across all arrays. */
    std::uint64_t workingSetBytes() const;

    /** sum += a[i]; returns the measured window. */
    StreamResult runSum(int passes = 1);

    /** b[i] = a[i]. */
    StreamResult runCopy(int passes = 1);

    /** c[i] = a[i] + s * b[i]. */
    StreamResult runTriad(int passes = 1, std::int64_t scale = 3);

    /** Expected sum of one pass over the source array. */
    std::int64_t expectedSum() const;

    /**
     * Verify the copy destination matches the source, every element
     * (unmetered).
     */
    bool verifyCopy();

    std::uint64_t elements() const { return n; }
    std::uint32_t elementBytes() const { return elemBytes; }

  private:
    /// The source pattern repeats every this many elements.
    static constexpr std::uint64_t patternPeriod = 1000;

    /// Element value pattern: a[i] = i % 1000 - 500 (fits in i32).
    static std::int64_t
    valueAt(std::uint64_t i)
    {
        return static_cast<std::int64_t>(i % patternPeriod) - 500;
    }

    /**
     * Write every element of the array at @p base, the source pattern
     * when @p source, else 0: one initWrite per chunk.
     */
    void populate(std::uint64_t base, bool source);

    MemBackend &b;
    std::uint64_t n;
    int numArrays;
    std::uint32_t elemBytes;
    std::uint64_t srcAddr = 0;
    std::uint64_t dstAddr = 0;
    std::uint64_t thirdAddr = 0;
};

} // namespace tfm

#endif // TRACKFM_WORKLOADS_STREAM_HH
