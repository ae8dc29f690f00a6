/**
 * @file
 * Memcached-style in-memory key-value store (Figure 16 of the paper).
 *
 * Get-dominated workload with USR key/value sizes (tiny values, small
 * keys), zipf-distributed key popularity, and a hash index over
 * individually heap-allocated items — the fine-grained, low-spatial-
 * locality pattern that makes kernel paging suffer 4 KB I/O
 * amplification.
 */

#ifndef TRACKFM_WORKLOADS_MEMCACHED_HH
#define TRACKFM_WORKLOADS_MEMCACHED_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "backend.hh"
#include "sim/zipf.hh"

namespace tfm
{

/** Memcached experiment parameters. */
struct MemcachedParams
{
    std::uint64_t numKeys = 100000;
    std::uint64_t numGets = 500000;
    double zipfSkew = 1.02;
    std::uint64_t seed = 13;
};

/** Result of one run. */
struct MemcachedResult
{
    BackendSnapshot delta;
    std::uint64_t hits = 0;
    std::uint64_t valueBytesRead = 0;

    double
    throughputKopsPerSec(double cpu_ghz) const
    {
        if (delta.cycles == 0)
            return 0.0;
        const double seconds =
            static_cast<double>(delta.cycles) / (cpu_ghz * 1e9);
        return static_cast<double>(hits) / 1e3 / seconds;
    }
};

/**
 * A get-oriented KV store: a bucketed hash index whose entries point at
 * per-item heap allocations (header + key bytes + value bytes).
 */
class MemcachedWorkload
{
  public:
    MemcachedWorkload(MemBackend &backend, const MemcachedParams &params);

    /** Run the get trace. */
    MemcachedResult run();

    /** Set (insert or update) — used by tests and the KV example. */
    void set(std::uint64_t key, const void *value,
             std::uint32_t value_len);

    /** Metered get; returns value length or -1 when absent. */
    int get(std::uint64_t key, void *value_out, std::uint32_t max_len);

  private:
    /// Item header preceding key/value payload in its heap allocation.
    struct ItemHeader
    {
        std::uint64_t key;
        std::uint32_t keyLen;
        std::uint32_t valueLen;
    };

    /// One hash-index bucket entry (padded to 16 bytes).
    struct Bucket
    {
        std::uint64_t itemAddr; ///< 0 when empty
        std::uint64_t keyFingerprint;
    };

    static std::uint64_t hashKey(std::uint64_t key);

    MemBackend &b;
    MemcachedParams params;
    std::uint64_t numBuckets;
    std::uint64_t indexAddr = 0;
    /// Client-side key sampler, built by the first run() (serving
    /// tenants never call it); every run() draws a fresh trace, as a
    /// real load generator would.
    std::unique_ptr<ZipfGenerator> keySampler;
};

} // namespace tfm

#endif // TRACKFM_WORKLOADS_MEMCACHED_HH
