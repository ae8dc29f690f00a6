/**
 * @file
 * Zipfian key sampler used by the hashmap and memcached workloads.
 */

#ifndef TRACKFM_SIM_ZIPF_HH
#define TRACKFM_SIM_ZIPF_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "rng.hh"

namespace tfm
{

/**
 * The immutable sampling tables of one (n, skew) law. Generators of an
 * equal law share one instance through a process-wide cache
 * (DESIGN.md §4a); each keeps its own Rng.
 */
struct ZipfTable
{
    /// cdf[k] = P(X <= k); monotone in [0, 1].
    std::vector<double> cdf;
    /// guide[j] = first k with min(floor(cdf[k] * n), n - 1) >= j;
    /// guide[n] = n.
    std::vector<std::uint32_t> guide;

    std::uint64_t
    bytes() const
    {
        return cdf.size() * sizeof(double) +
               guide.size() * sizeof(std::uint32_t);
    }
};

/**
 * Samples integers in [0, n) with P(k) proportional to 1 / (k+1)^skew.
 *
 * Exact inverse-CDF sampling over a precomputed CDF table. A guide
 * table (Chen–Asau indexed search) narrows each draw's binary search to
 * the CDF entries of one of n equal-width buckets of [0, 1), so a draw
 * costs O(1) expected probes and returns exactly the rank a search of
 * the whole table would (DESIGN.md §4a). The paper uses skews between
 * 1.0 and 1.3 (Fig. 16) and 1.02 (Fig. 9/13).
 *
 * The tables are built once per (n, skew) and process: a generator
 * takes them from a mutex-guarded cache, which also keeps tables no
 * generator holds any more, oldest dropped first, up to a fixed byte
 * bound (kRetainedBytes).
 */
class ZipfGenerator
{
  public:
    /// Bytes of recently built tables the cache keeps alive for later
    /// generators of the same law.
    static constexpr std::uint64_t kRetainedBytes = 16ull << 20;

    ZipfGenerator(std::uint64_t n, double skew, std::uint64_t seed = 42);

    /** Draw one sample (a rank in [0, n)). */
    std::uint64_t next() { return rankOf(rng.uniform()); }

    /**
     * The rank a uniform draw @p u in [0, 1) maps to: the first k with
     * cdf[k] >= u, or n-1 when rounding leaves u above every entry.
     */
    std::uint64_t rankOf(double u) const;

    /**
     * Exact sampling probability of rank @p k, straight from the CDF
     * table the sampler draws against — the ground truth the
     * statistical tests compare observed frequencies to.
     */
    double pmf(std::uint64_t k) const;

    std::uint64_t n() const { return _n; }
    double skew() const { return _skew; }
    /** The shared tables this generator draws against. */
    const std::shared_ptr<const ZipfTable> &table() const { return tab; }

  private:
    std::uint64_t _n;
    double _skew;
    Rng rng;
    std::shared_ptr<const ZipfTable> tab;
};

} // namespace tfm

#endif // TRACKFM_SIM_ZIPF_HH
