/**
 * @file
 * Zipf-driven hashmap microbenchmark (Figures 9 and 13 of the paper).
 *
 * Models the paper's STL unordered_map experiment: 4-byte integer keys
 * and values in a hash table that dominates the working set, plus a
 * separate heap-allocated trace array holding the sampled key sequence
 * (the paper's 190 MB trace array). Lookups have high temporal locality
 * (zipf skew 1.02) but essentially no spatial locality, making the
 * workload maximally sensitive to object size and I/O amplification.
 */

#ifndef TRACKFM_WORKLOADS_HASHMAP_HH
#define TRACKFM_WORKLOADS_HASHMAP_HH

#include <cstdint>

#include "backend.hh"

namespace tfm
{

/** Hashmap experiment parameters. */
struct HashmapParams
{
    /// Number of distinct keys resident in the table.
    std::uint64_t numKeys = 100000;
    /// Lookups in the measurement window.
    std::uint64_t numOps = 500000;
    /// Zipf skew of the key popularity distribution.
    double zipfSkew = 1.02;
    std::uint64_t seed = 42;
};

/** Result of one run. */
struct HashmapResult
{
    BackendSnapshot delta;
    std::uint64_t hits = 0;
    std::uint64_t probes = 0;

    double
    throughputMopsPerSec(double cpu_ghz) const
    {
        if (delta.cycles == 0)
            return 0.0;
        const double seconds =
            static_cast<double>(delta.cycles) / (cpu_ghz * 1e9);
        return static_cast<double>(hits) / 1e6 / seconds;
    }
};

/**
 * Open-addressing hash table + key trace, both in far memory.
 *
 * Table slots are 16 bytes ({state, key, value, pad}); capacity is
 * 2x numKeys rounded to a power of two.
 */
class HashmapWorkload
{
  public:
    HashmapWorkload(MemBackend &backend, const HashmapParams &params);

    /** Run all lookups from the trace. */
    HashmapResult run();

    /**
     * Serving-style single probe for @p key (metered, charges the hash
     * plus the probe chain). Returns true on hit; @p probes_out, when
     * non-null, receives the probe count. The per-request op the
     * traffic scheduler dispatches.
     */
    bool lookup(std::uint32_t key, std::uint64_t *probes_out = nullptr);

    /** Expected number of hits (all trace keys are present). */
    std::uint64_t expectedHits() const { return params.numOps; }

  private:
    struct Slot
    {
        std::uint32_t state; // 0 empty, 1 full
        std::uint32_t key;
        std::uint32_t value;
        std::uint32_t pad;
    };
    static_assert(sizeof(Slot) == 16, "slot must pack to 16 bytes");

    static std::uint64_t hashKey(std::uint32_t key);

    MemBackend &b;
    HashmapParams params;
    std::uint64_t capacity;
    std::uint64_t tableAddr = 0;
    std::uint64_t traceAddr = 0;
};

} // namespace tfm

#endif // TRACKFM_WORKLOADS_HASHMAP_HH
