#include "kmeans.hh"

#include <algorithm>
#include <cmath>

#include "sim/rng.hh"

namespace tfm
{

KMeansWorkload::KMeansWorkload(MemBackend &backend,
                               const KMeansParams &parameters)
    : b(backend), params(parameters)
{
    pointsAddr = b.alloc(params.numPoints * params.dims * sizeof(float));
    assignAddr = b.alloc(params.numPoints * sizeof(std::int32_t));
    normAddr = b.alloc(params.numPoints * params.dims * sizeof(float));

    Rng rng(params.seed);
    {
        InitWriter points(b), norms(b), assign(b);
        for (std::uint64_t p = 0; p < params.numPoints; p++) {
            for (std::uint32_t d = 0; d < params.dims; d++) {
                const auto v = static_cast<float>(rng.uniform() * 100.0);
                points.put<float>(pointsAddr + (p * params.dims + d) * 4, v);
                norms.put<float>(normAddr + (p * params.dims + d) * 4,
                                 v * v);
            }
            assign.put<std::int32_t>(assignAddr + p * 4, -1);
        }
    } // flushed before the centroid read-back below

    // Initial centroids: a deterministic sample of the points.
    centroids.resize(static_cast<std::size_t>(params.clusters) *
                     params.dims);
    for (std::uint32_t c = 0; c < params.clusters; c++) {
        const std::uint64_t p =
            (params.numPoints / params.clusters) * c;
        for (std::uint32_t d = 0; d < params.dims; d++) {
            centroids[c * params.dims + d] =
                b.peekT<float>(pointsAddr + (p * params.dims + d) * 4);
        }
    }
    b.dropCaches();
}

void
KMeansWorkload::assignStep(std::vector<std::uint64_t> &sizes)
{
    std::vector<float> features(params.dims);
    for (std::uint64_t p = 0; p < params.numPoints; p++) {
        // Inner loop over this point's features: a fresh short stream
        // per point. This is the paper's nested-loop pathology: the
        // loop covers far less than one object, so chunking it means
        // one locality-invariant guard per handful of elements.
        {
            auto row = b.stream(pointsAddr + p * params.dims * 4,
                                sizeof(float), params.dims,
                                StreamMode::Read);
            for (std::uint32_t d = 0; d < params.dims; d++)
                row->read(&features[d]);
        }
        // Distance to each centroid (centroids are CPU-local).
        int best = 0;
        double best_dist = 1e300;
        for (std::uint32_t c = 0; c < params.clusters; c++) {
            double dist = 0;
            for (std::uint32_t d = 0; d < params.dims; d++) {
                const double delta = static_cast<double>(features[d]) -
                                     centroids[c * params.dims + d];
                dist += delta * delta;
            }
            b.compute(params.dims * 2);
            if (dist < best_dist) {
                best_dist = dist;
                best = static_cast<int>(c);
            }
        }
        b.writeT<std::int32_t>(assignAddr + p * 4, best,
                               AccessHint::Sequential);
        sizes[static_cast<std::size_t>(best)]++;
    }
}

void
KMeansWorkload::normCachePass()
{
    // A long high-density sweep (4-byte elements over the whole
    // cache): exactly the loop shape the cost model keeps chunked.
    const std::uint64_t count = params.numPoints * params.dims;
    for (std::uint32_t pass = 0; pass < 1; pass++) {
        auto in = b.stream(normAddr, sizeof(float), count,
                           StreamMode::Read);
        float acc = 0;
        for (std::uint64_t i = 0; i < count; i++) {
            float v;
            in->read(&v);
            acc += v;
            b.compute(1);
        }
        // Keep the accumulator alive so the sweep cannot be elided.
        if (acc == 0.12345f)
            b.compute(1);
    }
}

KMeansResult
KMeansWorkload::run()
{
    KMeansResult result;
    result.clusterSizes.assign(params.clusters, 0);
    const BackendSnapshot before = b.snapshot();
    for (std::uint32_t it = 0; it < params.iterations; it++) {
        std::fill(result.clusterSizes.begin(), result.clusterSizes.end(),
                  0ull);
        assignStep(result.clusterSizes);
        normCachePass();
    }
    result.delta = deltaSince(before, b.snapshot());
    return result;
}

} // namespace tfm
