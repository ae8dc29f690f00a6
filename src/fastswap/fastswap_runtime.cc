#include "fastswap_runtime.hh"

#include <algorithm>

#include "obs/obs.hh"
#include "sim/logging.hh"

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
    : rt(pagedConfig(config), cost_params), plane(rt)
{}

void
FastswapRuntime::fillWindow(HostWindow &window, std::uint64_t offset,
                            std::size_t len)
{
    // The store is the newest copy of every byte only because no object
    // is ever localized or parked for writeback (prefetcher off, no
    // guards).
    TFM_ASSERT(rt.stats().localizeCalls == 0 && rt.pendingWritebacks() == 0,
               "a Fastswap page window needs the far-heap store to hold "
               "the newest bytes");
    const std::uint64_t pageId =
        (offset + (len ? len - 1 : 0)) / PagedPlane::pageSize;
    const std::uint64_t begin = pageId * PagedPlane::pageSize;
    const std::uint64_t end = std::min<std::uint64_t>(
        begin + PagedPlane::pageSize, rt.config().farHeapBytes);
    window.host = plane.mappedAndReferenced(pageId)
                      ? rt.backend().rawSpan(begin, end - begin)
                      : nullptr;
    window.begin = begin;
    window.end = window.host ? end : begin;
    window.epoch = plane.mapEpoch();
    window.writable = plane.dirty(pageId);
}

void
FastswapRuntime::exportStats(StatSet &set) const
{
    const PagedStats &s = plane.stats();
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
