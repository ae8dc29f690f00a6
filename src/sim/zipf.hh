/**
 * @file
 * Zipfian key sampler used by the hashmap and memcached workloads.
 */

#ifndef TRACKFM_SIM_ZIPF_HH
#define TRACKFM_SIM_ZIPF_HH

#include <cstdint>
#include <vector>

#include "rng.hh"

namespace tfm
{

/**
 * Samples integers in [0, n) with P(k) proportional to 1 / (k+1)^skew.
 *
 * Exact inverse-CDF sampling over a precomputed CDF table. A guide
 * table (Chen–Asau indexed search) narrows each draw's binary search to
 * the CDF entries of one of n equal-width buckets of [0, 1), so a draw
 * costs O(1) expected probes and returns exactly the rank a search of
 * the whole table would (DESIGN.md §4a). The paper uses skews between
 * 1.0 and 1.3 (Fig. 16) and 1.02 (Fig. 9/13).
 */
class ZipfGenerator
{
  public:
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

  private:
    /** Guide bucket of probability @p p: min(floor(p * n), n - 1). */
    std::uint64_t bucketOf(double p) const;

    std::uint64_t _n;
    double _skew;
    Rng rng;
    /// cdf[k] = P(X <= k); monotone in [0, 1].
    std::vector<double> cdf;
    /// guide[j] = first k with bucketOf(cdf[k]) >= j; guide[n] = n.
    std::vector<std::uint32_t> guide;
};

} // namespace tfm

#endif // TRACKFM_SIM_ZIPF_HH
