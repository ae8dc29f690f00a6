/**
 * @file
 * Per-layer counts derived from the runtimes' public StatSet exports.
 */

#include "workloads.hh"

namespace perfbench
{

namespace
{

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

} // anonymous namespace

void
accumulate(std::map<std::string, std::uint64_t> &into,
           const tfm::StatSet &set)
{
    for (const auto &[name, value] : set.all())
        into[name] += value;
}

std::map<std::string, std::uint64_t>
difference(const std::map<std::string, std::uint64_t> &after,
           const std::map<std::string, std::uint64_t> &before)
{
    std::map<std::string, std::uint64_t> out = after;
    for (const auto &[name, value] : before)
        out[name] -= value;
    return out;
}

Values
layerCounts(const std::map<std::string, std::uint64_t> &stats)
{
    const auto get = [&stats](const char *name) -> std::uint64_t {
        const auto it = stats.find(name);
        return it == stats.end() ? 0 : it->second;
    };
    const auto num = [](std::uint64_t v) { return static_cast<double>(v); };

    const std::uint64_t fast =
        get("guard.fast_reads") + get("guard.fast_writes");
    const std::uint64_t slow_remote =
        get("guard.slow_remote_reads") + get("guard.slow_remote_writes");
    const std::uint64_t slow = get("guard.slow_local_reads") +
                               get("guard.slow_local_writes") + slow_remote;
    const std::uint64_t guards = fast + slow + get("guard.locality_guards");
    const std::uint64_t fetched = get("net.bytes_fetched");
    const std::uint64_t written = get("net.bytes_written_back");

    return {
        {"tfm.guards", num(guards)},
        // Inline-cache hits are a subset of the fast paths.
        {"tfm.fast_frac", ratio(fast, guards)},
        {"tfm.slow_remote", num(slow_remote)},
        {"tfm.locality_guards", num(get("guard.locality_guards"))},
        {"tfm.reval_hit_frac", ratio(get("guard.revalidation_hits"),
                                     get("guard.revalidations"))},
        {"runtime.localize_calls", num(get("runtime.localize_calls"))},
        {"runtime.demand_fetches", num(get("runtime.demand_fetches"))},
        {"runtime.evictions", num(get("runtime.evictions"))},
        {"runtime.dirty_writebacks", num(get("runtime.dirty_writebacks"))},
        {"runtime.prefetch_accuracy", ratio(get("runtime.prefetch_hits"),
                                            get("runtime.prefetch_issued"))},
        {"runtime.prefetch_late_frac",
         ratio(get("runtime.prefetch_late_hits"),
               get("runtime.prefetch_hits"))},
        {"runtime.inflight_joins", num(get("runtime.inflight_joins"))},
        {"runtime.writeback_buffer_hits",
         num(get("runtime.writeback_buffer_hits"))},
        {"net.fetch_messages", num(get("net.fetch_messages"))},
        {"net.writeback_messages", num(get("net.writeback_messages"))},
        {"net.bytes_fetched", num(fetched)},
        {"net.bytes_written_back", num(written)},
        {"net.fetch_coalescing",
         ratio(get("net.fetch_payloads"), get("net.fetch_messages"))},
        {"net_bytes", num(fetched + written)},
        {"fastswap.major_faults", num(get("fastswap.major_faults"))},
        {"fastswap.minor_faults", num(get("fastswap.minor_faults"))},
        {"fastswap.pageouts", num(get("fastswap.pageouts"))},
        {"fastswap.reclaims", num(get("fastswap.reclaims"))},
        {"fastswap.readaheads", num(get("fastswap.readaheads"))},
        {"paged.major_faults", num(get("paged.major_faults"))},
        {"paged.reclaims", num(get("paged.reclaims"))},
    };
}

} // namespace perfbench
