/**
 * @file
 * AIFM library-mode runtime: the programmer-integrated baseline
 * (Ruan et al., OSDI '20) that TrackFM is compared against in Fig. 14.
 *
 * Unlike TrackFM, nothing is automatic here: the programmer picks a
 * remote data structure, annotates it with an object size, and
 * dereferences through AIFM's smart pointers. In exchange there are no
 * custody checks and no guards — just a cheap smart-pointer
 * indirection on the hit path and a runtime call on the miss path.
 * AifmBackend (workloads/backends.cc) drives this runtime for every
 * AIFM number the benches report.
 */

#ifndef TRACKFM_AIFMLIB_AIFM_RUNTIME_HH
#define TRACKFM_AIFMLIB_AIFM_RUNTIME_HH

#include <cstdint>

#include "obs/obs.hh"
#include "runtime/far_mem_runtime.hh"

namespace tfm
{

/** AIFM-side access counters. */
struct AifmStats
{
    std::uint64_t derefs = 0; ///< smart-pointer hits
    std::uint64_t misses = 0; ///< dereferences that called the runtime
};

/**
 * Thin wrapper adding AIFM's access-cost accounting to the shared
 * far-memory runtime.
 */
class AifmRuntime
{
  public:
    AifmRuntime(const RuntimeConfig &config, const CostParams &cost_params)
        : rt(tagged(config), cost_params)
    {}

    FarMemRuntime &runtime() { return rt; }
    const CostParams &costs() const { return rt.costs(); }
    CycleClock &clock() { return rt.clock(); }
    AifmStats &stats() { return _stats; }
    const AifmStats &stats() const { return _stats; }

    /**
     * Dereference a far offset: cheap indirection when local, runtime
     * call (possibly remote fetch) when not.
     *
     * @return host pointer to the byte at @p offset.
     */
    std::byte *
    deref(std::uint64_t offset, bool for_write)
    {
        std::byte *fast = rt.tryFast(offset, for_write);
        if (fast) {
            rt.clock().advance(costs().smartPtrDerefCycles);
            _stats.derefs++;
            return fast;
        }
        // Miss path: same runtime localize call TrackFM's slow path
        // uses, minus the guard dispatch around it.
        rt.clock().advance(costs().slowPathReadCycles);
        _stats.misses++;
        if (Observability *obs = rt.obs();
            obs && obs->trace().enabled()) {
            obs->trace().instant(rt.obsStream(), TrackApp, "aifm.miss",
                                 "runtime", rt.clock().now());
        }
        return rt.localize(offset, for_write);
    }

    void exportStats(StatSet &set) const;

  private:
    /** Label this stack's observability stream as the AIFM baseline's. */
    static RuntimeConfig
    tagged(RuntimeConfig config)
    {
        config.obsKind = "aifm";
        return config;
    }

    FarMemRuntime rt;
    AifmStats _stats;
};

} // namespace tfm

#endif // TRACKFM_AIFMLIB_AIFM_RUNTIME_HH
