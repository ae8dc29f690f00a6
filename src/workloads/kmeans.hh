/**
 * @file
 * k-means clustering workload (Figure 8 / Figure 15 companion).
 *
 * Reproduces the structure that makes indiscriminate loop chunking
 * harmful in the paper: many nested inner loops with a tiny iteration
 * space (one point's features at a time — far less than one object per
 * loop entry, so a locality-invariant guard can never amortize), plus
 * long high-density sweeps (4-byte norm-cache passes, 1024 elements
 * per object) that selective chunking still wins on.
 */

#ifndef TRACKFM_WORKLOADS_KMEANS_HH
#define TRACKFM_WORKLOADS_KMEANS_HH

#include <cstdint>
#include <vector>

#include "backend.hh"

namespace tfm
{

/** k-means experiment parameters. */
struct KMeansParams
{
    std::uint64_t numPoints = 50000;
    std::uint32_t dims = 8;       ///< features per point (float32)
    std::uint32_t clusters = 8;
    std::uint32_t iterations = 2;
    std::uint64_t seed = 11;
};

/** Result of one run. */
struct KMeansResult
{
    BackendSnapshot delta;
    /// Final per-cluster population (for cross-backend verification).
    std::vector<std::uint64_t> clusterSizes;
};

/**
 * Lloyd's algorithm over far-memory point data.
 *
 * Per iteration:
 *  1. assignment: for every point, an inner loop over its features per
 *     centroid (nested loops with a tiny iteration space);
 *  2. norm-cache passes: long sequential sweeps over a 4-byte cache
 *     (the high-density loops selective chunking targets).
 *
 * Inner feature loops open a fresh stream per point, so the backend's
 * chunking policy is exercised exactly as the compiler's would be: the
 * All policy pays one locality guard per tiny loop, the CostModel
 * policy falls back to plain guards there (iteration space below one
 * object) while still chunking the long 4-byte sweeps.
 */
class KMeansWorkload
{
  public:
    KMeansWorkload(MemBackend &backend, const KMeansParams &params);

    KMeansResult run();

  private:
    void assignStep(std::vector<std::uint64_t> &sizes);
    void normCachePass();

    MemBackend &b;
    KMeansParams params;
    std::uint64_t pointsAddr = 0;  ///< numPoints * dims float32
    std::uint64_t assignAddr = 0;  ///< numPoints int32
    std::uint64_t normAddr = 0;    ///< numPoints * dims float32 cache
    std::vector<double> centroids; ///< small, stays in local memory
};

} // namespace tfm

#endif // TRACKFM_WORKLOADS_KMEANS_HH
