#include "fastswap_runtime.hh"

#include "obs/obs.hh"

namespace tfm
{

namespace
{

/** The runtime under the plane: page-sized objects, no prefetcher. */
RuntimeConfig
pagedConfig(RuntimeConfig config)
{
    config.objectSizeBytes = PagedPlane::pageSize;
    config.prefetchEnabled = false;
    config.obsKind = "fastswap";
    // Nothing is ever localized into the object cache (pages live in
    // the far-heap store), so the plane gets the local budget and the
    // cache its two-frame minimum.
    if (config.pagedLocalMemBytes == 0)
        config.pagedLocalMemBytes = config.localMemBytes;
    config.localMemBytes = 2ull * PagedPlane::pageSize;
    config.cacheShards = 1;
    return config;
}

} // anonymous namespace

FastswapRuntime::FastswapRuntime(const RuntimeConfig &config,
                                 const CostParams &cost_params)
    : rt(pagedConfig(config), cost_params), plane_(rt)
{}

void
FastswapRuntime::exportStats(StatSet &set) const
{
    const PagedStats &s = plane_.stats();
    set.add("fastswap.minor_faults", s.minorFaults);
    set.add("fastswap.major_faults", s.majorFaults);
    set.add("fastswap.pageouts", s.pageouts);
    set.add("fastswap.reclaims", s.reclaims);
    set.add("fastswap.readaheads", s.readaheads);
    const NetStats net = netStats();
    set.add("net.bytes_fetched", net.bytesFetched);
    set.add("net.bytes_written_back", net.bytesWrittenBack);
    set.add("clock.cycles", rt.clock().now());
    if (Observability *obs = rt.obs())
        obs->exportStats(set);
}

} // namespace tfm
