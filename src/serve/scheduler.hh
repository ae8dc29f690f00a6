/**
 * @file
 * Multi-tenant request lifecycle scheduler for the serving subsystem.
 *
 * Multiplexes N tenant contexts — each a far-memory-backed
 * memcached/hashmap/analytics worker from src/workloads — onto one
 * simulated timeline served by a configurable number of worker cores.
 * Requests arrive open-loop (src/serve/arrival.hh), queue per tenant,
 * and are dispatched round-robin across tenants so one hot tenant
 * cannot starve the others beyond its turn in the rotation.
 *
 * Queueing delay (arrival -> dispatch) is tracked separately from
 * service time (dispatch -> completion, measured as the tenant
 * backend's cycle delta), so an SLO curve can distinguish load-induced
 * collapse (queue growth) from data-plane cost (service growth) — the
 * distinction DRackSim/Atlas-style serving evaluations hinge on.
 */

#ifndef TRACKFM_SERVE_SCHEDULER_HH
#define TRACKFM_SERVE_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arrival.hh"
#include "obs/histogram.hh"
#include "sim/cost_params.hh"
#include "workloads/backend_config.hh"

namespace tfm
{

class Observability;
class StatSet;

/** Which per-request application a tenant runs. */
enum class TenantWorkloadKind
{
    Memcached, ///< USR-sized KV gets (fine-grained, low spatial locality)
    Hashmap,   ///< open-addressing probe (pointer-chase flavored)
    Analytics  ///< dataframe point query (3 column reads + reduce)
};

/** One tenant context: workload, backend sizing, and load share. */
struct TenantConfig
{
    /// Stream/stat label; empty derives "tenant<i>-<workload>".
    std::string name;
    TenantWorkloadKind workload = TenantWorkloadKind::Memcached;
    SystemKind system = SystemKind::TrackFm;
    /// Keyspace size (rows for Analytics); requests draw keys Zipfian.
    std::uint64_t numKeys = 4000;
    double zipfSkew = 1.02;
    /// Relative share of the aggregate offered load.
    double share = 1.0;
    /// Backend sizing; local memory below the working set creates the
    /// far-memory pressure the serving bench is about.
    std::uint64_t farHeapBytes = 16ull << 20;
    std::uint64_t localMemBytes = 256ull << 10;
    std::uint32_t objectSizeBytes = 64;
};

/** Serving-run parameters. */
struct ServeConfig
{
    std::vector<TenantConfig> tenants;
    /// Aggregate arrival process; ratePerCycle is the total offered
    /// rate, split across tenants by their shares.
    ArrivalConfig arrivals;
    /// Serving cores. Each dispatches one request at a time.
    std::uint32_t workers = 1;
    /// Open-loop run length: arrivals generated before draining.
    std::uint64_t totalRequests = 10000;
    /// Response-time SLO in cycles; completions above it are excluded
    /// from goodput. 0 counts every completion.
    std::uint64_t sloCycles = 0;
    /// Run seed; every tenant's key/client/arrival stream derives its
    /// own RNG from this with splitmix64.
    std::uint64_t seed = 42;
    /// Observability sink for serve.* epoch counters; null falls back
    /// to the process-wide default (the bench --trace flag).
    Observability *obs = nullptr;
    /// Run the workers as real std::threads sharing one TrackFM
    /// runtime (DESIGN.md §4k) instead of simulated cores on one
    /// timeline. Requires every tenant be SystemKind::TrackFm with a
    /// uniform objectSizeBytes; the default (false) keeps the
    /// deterministic single-thread event loop record/replay relies on.
    bool concurrent = false;
    /// Frame-cache shards for the shared concurrent runtime; 0 picks
    /// the smallest power of two >= 4 * workers.
    std::uint32_t cacheShards = 0;
};

/** Per-tenant (and aggregate) serving metrics. */
struct TenantReport
{
    std::string name;
    std::uint64_t arrivals = 0;
    std::uint64_t completions = 0;
    std::uint64_t sloViolations = 0;
    std::uint64_t maxQueueDepth = 0;
    Histogram queueDelay;  ///< arrival -> dispatch cycles
    Histogram serviceTime; ///< dispatch -> completion cycles
    Histogram sojourn;     ///< arrival -> completion cycles
    Histogram queueDepth;  ///< depth observed at each arrival

    /** Completions inside the SLO. */
    std::uint64_t goodput() const { return completions - sloViolations; }
};

/**
 * Per-worker serving counters. Both modes fill completions/busyCycles/
 * endCycle (the deterministic loop per simulated core, the concurrent
 * run per thread); guard fast/slow attribution exists only in
 * concurrent mode, where each worker owns a private GuardStats.
 */
struct WorkerReport
{
    std::uint64_t completions = 0;
    std::uint64_t busyCycles = 0; ///< sum of service cycles executed
    std::uint64_t endCycle = 0;   ///< last completion on this worker
    std::uint64_t guardFast = 0;  ///< guard fast-path hits (concurrent)
    std::uint64_t guardSlow = 0;  ///< guard slow paths (concurrent)
};

/** Result of one serving run. */
struct ServeReport
{
    std::vector<TenantReport> tenants;
    TenantReport aggregate;
    std::vector<WorkerReport> workers;
    /// Completion cycle of the last request (the drain point).
    std::uint64_t endCycle = 0;
    std::uint64_t lastArrivalCycle = 0;

    /** Aggregate goodput in requests per million cycles. */
    double
    goodputPerMcycle() const
    {
        return endCycle == 0 ? 0.0
                             : 1e6 * static_cast<double>(
                                         aggregate.goodput()) /
                                   static_cast<double>(endCycle);
    }

    /**
     * Export as serve.* stats: aggregate under "serve.", per tenant
     * under "serve.<name>.". Latency histograms use the SLO flavor
     * (p50/p99/p99.9).
     */
    void exportStats(StatSet &set) const;
};

/**
 * The serving scheduler. Single-shot: construct (tenant setup runs,
 * caches dropped), then run() simulates the configured number of
 * arrivals through to drain-to-empty and returns the report.
 */
class Scheduler
{
  public:
    Scheduler(const ServeConfig &config, const CostParams &costs);
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Simulate all arrivals through completion. */
    ServeReport run();

  private:
    struct Tenant;
    struct Request;
    friend double meanServiceCycles(const TenantConfig &tenant,
                                    const CostParams &costs,
                                    std::uint64_t seed,
                                    std::uint32_t requests);

    /** Epoch-gated serve.* counter sample at simulated time @p now. */
    void epochSample(std::uint64_t now);
    /** Concurrent-mode run body: real threads, shared runtime. */
    ServeReport runConcurrent();
    /** Attach every tenant's arrival stream and fill nextArrival_. */
    void startArrivals();
    /** Tenant owning the earliest pending arrival (first wins ties). */
    std::size_t earliestArrival() const;
    /**
     * Generate tenant @p i's pending arrival: draws its client, then
     * its key, then the gap to its next arrival — the one sampling
     * order both modes share (made a block of arrivals at a time,
     * Tenant::nextDraw).
     */
    Request admit(std::size_t i);
    /**
     * Copy the tenant reports into @p out and fold their arrivals,
     * completions, SLO violations and latency histograms into
     * out.aggregate. Histogram::merge is exact, so the aggregate equals
     * recording every sample twice.
     */
    void mergeTenantReports(ServeReport &out) const;

    ServeConfig cfg;
    CostParams costs_;
    /// Concurrent mode only: the one TrackFM runtime every tenant
    /// backend views and every worker thread binds into.
    std::unique_ptr<TfmRuntime> shared_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    /// Absolute cycle of each tenant's next arrival, flat so the
    /// per-event earliest-arrival scan reads one array.
    std::vector<std::uint64_t> nextArrival_;
    Observability *obs_ = nullptr;
    std::uint32_t obsStream_ = 0;
    bool ran = false;
    /// Live counters mirrored into the epoch samples.
    std::uint64_t generated_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t queued_ = 0;
};

/**
 * Mean unloaded service time of @p tenant's requests in cycles,
 * measured by running @p requests back-to-back on a throwaway backend.
 * The serving bench divides worker count by this to calibrate the
 * offered-load axis of its SLO curve.
 */
double meanServiceCycles(const TenantConfig &tenant,
                         const CostParams &costs, std::uint64_t seed,
                         std::uint32_t requests = 200);

/** Human-readable tenant workload name ("memcached", ...). */
const char *tenantWorkloadName(TenantWorkloadKind kind);

} // namespace tfm

#endif // TRACKFM_SERVE_SCHEDULER_HH
