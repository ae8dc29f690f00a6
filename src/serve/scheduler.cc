#include "scheduler.hh"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <set>
#include <thread>

#include "obs/obs.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/zipf.hh"
#include "tfm/tfm_runtime.hh"
#include "workloads/dataframe.hh"
#include "workloads/hashmap.hh"
#include "workloads/memcached.hh"

namespace tfm
{

namespace
{

/** Expand one seed into independent per-purpose sub-seeds. */
struct SeedChain
{
    explicit SeedChain(std::uint64_t base) : state(base) {}
    std::uint64_t next() { return splitmix64(state); }
    std::uint64_t state;
};

} // anonymous namespace

/** One queued request. */
struct Scheduler::Request
{
    std::uint64_t arrivalCycle = 0;
    std::uint64_t client = 0;
    std::uint64_t key = 0;
};

/**
 * A live tenant: its backend, its per-request workload, its key/client
 * samplers, its arrival stream, and its queue.
 */
struct Scheduler::Tenant
{
    Tenant(const TenantConfig &config, const CostParams &costs,
           std::uint64_t run_seed, std::uint32_t index,
           double rate_per_cycle, TfmRuntime *shared = nullptr)
        : cfg(config)
    {
        SeedChain seeds(run_seed + 0x7365727665ull * (index + 1));
        report.name = cfg.name.empty()
                          ? "tenant" + std::to_string(index) + "-" +
                                tenantWorkloadName(cfg.workload)
                          : cfg.name;

        if (shared != nullptr) {
            // Concurrent mode: a view over the one runtime every
            // worker thread binds into; sizing was aggregated by the
            // Scheduler ctor.
            backend = makeSharedBackend(*shared);
        } else {
            BackendConfig bc;
            bc.kind = cfg.system;
            bc.farHeapBytes = cfg.farHeapBytes;
            bc.localMemBytes = cfg.system == SystemKind::Local
                                   ? cfg.farHeapBytes
                                   : cfg.localMemBytes;
            bc.objectSizeBytes = cfg.objectSizeBytes;
            bc.obsLabel = report.name;
            backend = makeBackend(bc, costs);
        }

        const std::uint64_t workload_seed = seeds.next();
        switch (cfg.workload) {
          case TenantWorkloadKind::Memcached: {
            MemcachedParams p;
            p.numKeys = cfg.numKeys;
            p.zipfSkew = cfg.zipfSkew;
            p.seed = workload_seed;
            memcached =
                std::make_unique<MemcachedWorkload>(*backend, p);
            break;
          }
          case TenantWorkloadKind::Hashmap: {
            HashmapParams p;
            p.numKeys = cfg.numKeys;
            p.numOps = 0; // no stored trace: keys arrive open-loop
            p.zipfSkew = cfg.zipfSkew;
            p.seed = workload_seed;
            hashmap = std::make_unique<HashmapWorkload>(*backend, p);
            break;
          }
          case TenantWorkloadKind::Analytics: {
            DataframeParams p;
            p.numRows = cfg.numKeys;
            p.seed = workload_seed;
            dataframe =
                std::make_unique<DataframeWorkload>(*backend, p);
            break;
          }
        }

        keySampler = std::make_unique<ZipfGenerator>(
            cfg.numKeys, cfg.zipfSkew, seeds.next());
        ArrivalConfig ac; // rate filled below, shape from the run
        ac.ratePerCycle = rate_per_cycle;
        arrivalSeed = seeds.next();
        arrivalShape = ac;
    }

    /** Attach the (shared-shape) arrival stream and return the cycle
     *  of its first arrival; run() calls this so meanServiceCycles()
     *  never consumes arrival randomness. */
    std::uint64_t
    startArrivals(const ArrivalConfig &shape)
    {
        ArrivalConfig ac = shape;
        ac.ratePerCycle = arrivalShape.ratePerCycle;
        arrivals = std::make_unique<ArrivalProcess>(ac, arrivalSeed);
        return arrivals->nextGapCycles();
    }

    /** One arrival's draws: its client, its key, the gap after it. */
    struct Draw
    {
        std::uint64_t client = 0;
        std::uint64_t key = 0;
        std::uint64_t gap = 0;
    };

    /**
     * The next arrival's draws. They are made kDrawBlock arrivals at a
     * time, each in admit()'s order (client, key, gap): every stream
     * is the tenant's own, so the values are those of drawing one
     * arrival at a time, while a tight loop keeps the sampler's tables
     * in cache.
     */
    const Draw &
    nextDraw()
    {
        if (drawn == draws.size()) {
            draws.resize(kDrawBlock);
            for (Draw &d : draws) {
                d.client = arrivals->nextClient();
                d.key = keySampler->next();
                d.gap = arrivals->nextGapCycles();
            }
            drawn = 0;
        }
        return draws[drawn++];
    }

    /** Execute one request; returns service cycles. */
    std::uint64_t
    serve(std::uint64_t key)
    {
        const std::uint64_t before = backend->cycles();
        switch (cfg.workload) {
          case TenantWorkloadKind::Memcached: {
            std::uint8_t value[512];
            const int len = memcached->get(key, value, sizeof(value));
            TFM_ASSERT(len >= 0, "serving get missed a loaded key");
            break;
          }
          case TenantWorkloadKind::Hashmap: {
            const bool hit = hashmap->lookup(
                static_cast<std::uint32_t>(key));
            TFM_ASSERT(hit, "serving probe missed a loaded key");
            break;
          }
          case TenantWorkloadKind::Analytics:
            dataframe->pointQuery(key);
            break;
        }
        return backend->cycles() - before;
    }

    TenantConfig cfg;
    std::unique_ptr<MemBackend> backend;
    std::unique_ptr<MemcachedWorkload> memcached;
    std::unique_ptr<HashmapWorkload> hashmap;
    std::unique_ptr<DataframeWorkload> dataframe;
    std::unique_ptr<ZipfGenerator> keySampler;
    std::unique_ptr<ArrivalProcess> arrivals;
    ArrivalConfig arrivalShape;
    std::uint64_t arrivalSeed = 0;
    static constexpr std::size_t kDrawBlock = 256;
    std::vector<Draw> draws;
    std::size_t drawn = 0; ///< draws consumed of the current block
    std::deque<Request> queue;
    TenantReport report;
};

Scheduler::Scheduler(const ServeConfig &config, const CostParams &costs)
    : cfg(config), costs_(costs)
{
    TFM_ASSERT(!cfg.tenants.empty(), "serving run with no tenants");
    TFM_ASSERT(cfg.workers > 0, "serving run with no workers");
    double share_sum = 0.0;
    for (const TenantConfig &t : cfg.tenants)
        share_sum += t.share;
    TFM_ASSERT(share_sum > 0.0, "tenant shares sum to zero");

    obs_ = cfg.obs ? cfg.obs : obs::defaultSink();
    if (obs_)
        obsStream_ = obs_->registerStream("serve");

    if (cfg.concurrent) {
        // One runtime, sized for the union of the tenants. Uniform
        // object size because one frame cache serves them all.
        std::uint64_t far_total = 0;
        std::uint64_t local_total = 0;
        for (const TenantConfig &t : cfg.tenants) {
            TFM_ASSERT(t.system == SystemKind::TrackFm,
                       "concurrent serving shares one TrackFM "
                       "runtime; every tenant must be TrackFm");
            TFM_ASSERT(t.objectSizeBytes ==
                           cfg.tenants.front().objectSizeBytes,
                       "concurrent serving needs a uniform tenant "
                       "object size (one shared frame cache)");
            far_total += t.farHeapBytes;
            local_total += t.localMemBytes;
        }
        RuntimeConfig rc;
        rc.farHeapBytes = far_total + far_total / 4; // allocator slack
        rc.localMemBytes = local_total;
        rc.objectSizeBytes = cfg.tenants.front().objectSizeBytes;
        rc.prefetchEnabled = false; // workers need it off
        rc.cacheShards = cfg.cacheShards;
        if (rc.cacheShards == 0) {
            rc.cacheShards = 1;
            while (rc.cacheShards < 4 * cfg.workers)
                rc.cacheShards <<= 1;
        }
        rc.obsLabel = "serve-shared";
        shared_ = std::make_unique<TfmRuntime>(rc, costs_);
    }

    for (std::uint32_t i = 0; i < cfg.tenants.size(); i++) {
        const double rate = cfg.arrivals.ratePerCycle *
                            cfg.tenants[i].share / share_sum;
        tenants_.push_back(std::make_unique<Tenant>(
            cfg.tenants[i], costs_, cfg.seed, i, rate,
            shared_.get()));
    }
}

Scheduler::~Scheduler() = default;

void
Scheduler::epochSample(std::uint64_t now)
{
    if (!obs_ || !obs_->seriesDue(obsStream_, now))
        return;
    obs_->counterSample(obsStream_, now,
                        {{"serve.qdepth", queued_},
                         {"serve.generated", generated_},
                         {"serve.completed", completed_}});
}

void
Scheduler::startArrivals()
{
    for (auto &t : tenants_)
        nextArrival_.push_back(t->startArrivals(cfg.arrivals));
}

std::size_t
Scheduler::earliestArrival() const
{
    return static_cast<std::size_t>(
        std::min_element(nextArrival_.begin(), nextArrival_.end()) -
        nextArrival_.begin());
}

Scheduler::Request
Scheduler::admit(std::size_t i)
{
    Tenant &t = *tenants_[i];
    Request r;
    const Tenant::Draw &d = t.nextDraw();
    r.arrivalCycle = nextArrival_[i];
    r.client = d.client;
    r.key = d.key;
    nextArrival_[i] = r.arrivalCycle + d.gap;
    t.report.arrivals++;
    generated_++;
    return r;
}

void
Scheduler::mergeTenantReports(ServeReport &out) const
{
    TenantReport &all = out.aggregate;
    for (const auto &t : tenants_) {
        const TenantReport &rep = t->report;
        all.arrivals += rep.arrivals;
        all.completions += rep.completions;
        all.sloViolations += rep.sloViolations;
        all.queueDelay.merge(rep.queueDelay);
        all.serviceTime.merge(rep.serviceTime);
        all.sojourn.merge(rep.sojourn);
        out.tenants.push_back(rep);
    }
}

ServeReport
Scheduler::run()
{
    TFM_ASSERT(!ran, "Scheduler::run is single-shot");
    ran = true;
    if (cfg.concurrent)
        return runConcurrent();

    ServeReport out;
    out.aggregate.name = "all";
    out.workers.resize(cfg.workers);
    startArrivals();

    std::vector<std::uint64_t> worker_free(cfg.workers, 0);
    std::size_t rr_cursor = 0; ///< round-robin fairness pointer

    while (completed_ < cfg.totalRequests) {
        // Earliest pending arrival (only while the open-loop generator
        // still owes requests).
        const bool generating = generated_ < cfg.totalRequests;
        const std::size_t arriving = generating ? earliestArrival() : 0;

        // Earliest free worker.
        std::size_t w = 0;
        for (std::size_t i = 1; i < worker_free.size(); i++) {
            if (worker_free[i] < worker_free[w])
                w = i;
        }
        const std::uint64_t worker_cycle = worker_free[w];

        // Admit the arrival if it precedes the next possible dispatch,
        // or if there is nothing queued to dispatch.
        if (generating &&
            (queued_ == 0 || nextArrival_[arriving] <= worker_cycle)) {
            Tenant &t = *tenants_[arriving];
            const Request r = admit(arriving);
            t.queue.push_back(r);
            queued_++;
            out.lastArrivalCycle = r.arrivalCycle;

            const std::uint64_t depth = t.queue.size();
            t.report.queueDepth.record(depth);
            if (depth > t.report.maxQueueDepth)
                t.report.maxQueueDepth = depth;
            // The aggregate's depth observes the global queue, which no
            // tenant report holds, so it is recorded live.
            out.aggregate.queueDepth.record(queued_);
            if (queued_ > out.aggregate.maxQueueDepth)
                out.aggregate.maxQueueDepth = queued_;
            epochSample(r.arrivalCycle);
            continue;
        }

        TFM_ASSERT(queued_ > 0, "serving loop stalled with no work");

        // Dispatch: round-robin over tenants with queued requests so a
        // hot tenant cannot monopolize the workers.
        Tenant *victim = nullptr;
        for (std::size_t i = 0; i < tenants_.size(); i++) {
            const std::size_t j =
                (rr_cursor + i) % tenants_.size();
            if (!tenants_[j]->queue.empty()) {
                victim = tenants_[j].get();
                rr_cursor = j + 1;
                break;
            }
        }
        TFM_ASSERT(victim != nullptr, "queued_ count out of sync");

        const Request r = victim->queue.front();
        victim->queue.pop_front();
        // A worker idle since before the request arrived starts at the
        // arrival instant; otherwise at its free cycle.
        const std::uint64_t start =
            worker_cycle > r.arrivalCycle ? worker_cycle
                                          : r.arrivalCycle;
        const std::uint64_t service = victim->serve(r.key);
        const std::uint64_t done = start + service;
        worker_free[w] = done;
        WorkerReport &wr = out.workers[w];
        wr.completions++;
        wr.busyCycles += service;
        if (done > wr.endCycle)
            wr.endCycle = done;

        // Recorded once, per tenant; mergeTenantReports() builds the
        // aggregate at drain time.
        const std::uint64_t sojourn = done - r.arrivalCycle;
        TenantReport &rep = victim->report;
        rep.completions++;
        rep.queueDelay.record(start - r.arrivalCycle);
        rep.serviceTime.record(service);
        rep.sojourn.record(sojourn);
        if (cfg.sloCycles && sojourn > cfg.sloCycles)
            rep.sloViolations++;
        if (done > out.endCycle)
            out.endCycle = done;
        completed_++;
        queued_--;
        epochSample(start);
    }

    for (auto &t : tenants_) {
        TFM_ASSERT(t->queue.empty(),
                   "serving run ended with queued requests");
    }
    mergeTenantReports(out);
    // Close the epoch series at the drain point.
    epochSample(out.endCycle);
    return out;
}

ServeReport
Scheduler::runConcurrent()
{
    TFM_ASSERT(shared_ != nullptr,
               "concurrent run without a shared runtime");

    ServeReport out;
    out.aggregate.name = "all";
    out.workers.resize(cfg.workers);
    startArrivals();

    // Pre-generate the arrival schedule with the deterministic loop's
    // sampling order (earliestArrival() then admit()), so the offered
    // load is identical for every worker count and independent of
    // thread interleaving.
    struct Item
    {
        std::uint64_t arrival = 0;
        std::uint32_t tenant = 0;
        std::uint64_t key = 0;
    };
    std::vector<Item> schedule;
    schedule.reserve(cfg.totalRequests);
    while (schedule.size() < cfg.totalRequests) {
        const std::size_t who = earliestArrival();
        const Request r = admit(who);
        Item it;
        it.arrival = r.arrivalCycle;
        it.tenant = static_cast<std::uint32_t>(who);
        it.key = r.key;
        schedule.push_back(it);
        out.lastArrivalCycle = r.arrivalCycle;
    }

    // Worker clocks start at the shared runtime's post-setup cycle;
    // every arrival/metric below is relative to that base. Queue-depth
    // accounting needs a serialized timeline, so the concurrent mode
    // leaves the depth histograms empty (DESIGN.md §4k).
    const std::uint64_t base = shared_->runtime().clock().now();
    std::vector<TfmRuntime::Worker *> tws;
    for (std::uint32_t w = 0; w < cfg.workers; w++)
        tws.push_back(shared_->registerWorker());

    std::vector<std::vector<TenantReport>> local(
        cfg.workers, std::vector<TenantReport>(tenants_.size()));
    std::atomic<std::uint64_t> cursor{0};

    // Wall-clock thread speed must not decide who serves what: without
    // coordination the first thread up drains the whole schedule while
    // its siblings are still spawning, and a wall-fast worker races
    // ahead in simulated time, inflating queueing delay. A start
    // barrier plus simulated-time pacing keeps every worker within a
    // bounded window of the slowest, approximating the deterministic
    // loop's earliest-free-worker dispatch.
    std::atomic<std::uint32_t> started{0};
    std::unique_ptr<std::atomic<std::uint64_t>[]> published(
        new std::atomic<std::uint64_t>[cfg.workers]);
    for (std::uint32_t w = 0; w < cfg.workers; w++)
        published[w].store(base, std::memory_order_relaxed);
    const std::uint64_t mean_gap =
        generated_ ? out.lastArrivalCycle / generated_ + 1 : 1;
    const std::uint64_t pace = std::max<std::uint64_t>(
        cfg.sloCycles, 8ull * mean_gap * cfg.workers);

    const auto body = [&](std::uint32_t w) {
        shared_->bindWorker(tws[w]);
        CycleClock &clk = tws[w]->rt->clock;
        WorkerReport &wr = out.workers[w];
        started.fetch_add(1, std::memory_order_acq_rel);
        while (started.load(std::memory_order_acquire) < cfg.workers)
            std::this_thread::yield();
        for (;;) {
            if (cursor.load(std::memory_order_relaxed) >=
                schedule.size())
                break;
            published[w].store(clk.now(), std::memory_order_release);
            std::uint64_t slowest = clk.now();
            for (std::uint32_t v = 0; v < cfg.workers; v++) {
                const std::uint64_t c =
                    published[v].load(std::memory_order_acquire);
                if (c < slowest)
                    slowest = c;
            }
            if (clk.now() > slowest + pace) {
                std::this_thread::yield();
                continue;
            }
            const std::uint64_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= schedule.size())
                break;
            const Item &it = schedule[i];
            const std::uint64_t due = base + it.arrival;
            clk.advanceTo(due); // idle until the request is due
            const std::uint64_t start = clk.now();
            const std::uint64_t service =
                tenants_[it.tenant]->serve(it.key);
            const std::uint64_t sojourn = clk.now() - due;
            TenantReport &rep = local[w][it.tenant];
            rep.completions++;
            rep.queueDelay.record(start - due);
            rep.serviceTime.record(service);
            rep.sojourn.record(sojourn);
            if (cfg.sloCycles && sojourn > cfg.sloCycles)
                rep.sloViolations++;
            wr.completions++;
            wr.busyCycles += service;
        }
        // A finished worker must stop gating the pace window.
        published[w].store(std::numeric_limits<std::uint64_t>::max(),
                           std::memory_order_release);
        wr.endCycle = clk.now() > base ? clk.now() - base : 0;
        shared_->unbindWorker();
    };

    std::vector<std::thread> pool;
    pool.reserve(cfg.workers);
    for (std::uint32_t w = 0; w < cfg.workers; w++)
        pool.emplace_back(body, w);
    for (std::thread &th : pool)
        th.join();

    // Dirty objects parked in worker buffers go home before teardown.
    shared_->runtime().drainWritebacks();

    for (std::uint32_t w = 0; w < cfg.workers; w++) {
        for (std::size_t t = 0; t < tenants_.size(); t++) {
            TenantReport &src = local[w][t];
            TenantReport &dst = tenants_[t]->report;
            dst.completions += src.completions;
            dst.sloViolations += src.sloViolations;
            dst.queueDelay.merge(src.queueDelay);
            dst.serviceTime.merge(src.serviceTime);
            dst.sojourn.merge(src.sojourn);
        }
        WorkerReport &wr = out.workers[w];
        wr.guardFast = tws[w]->gstats.fastTotal();
        wr.guardSlow = tws[w]->gstats.slowTotal();
        if (wr.endCycle > out.endCycle)
            out.endCycle = wr.endCycle;
        completed_ += wr.completions;
    }
    mergeTenantReports(out);
    TFM_ASSERT(completed_ == generated_,
               "concurrent serving lost requests");

    if (obs_) {
        // Two bracketing samples keep the serve.* series well-formed
        // (cumulative counters, monotone per track) without the
        // serialized timeline the epoch sampler wants.
        obs_->counterSample(obsStream_, 0,
                            {{"serve.qdepth", 0},
                             {"serve.generated", 0},
                             {"serve.completed", 0}});
        obs_->counterSample(obsStream_, out.endCycle,
                            {{"serve.qdepth", 0},
                             {"serve.generated", generated_},
                             {"serve.completed", completed_}});
        // One final sample per worker thread: tfm-stat folds these
        // into its per-worker breakdown table.
        // The sink keeps name pointers (trace_event.hh: "must be
        // string literals or otherwise outlive the sink"), and the
        // bench-level sink writes the trace from a static destructor
        // — so the serve.w<i>.* names are interned in a deliberately
        // leaked pool that no destruction order can invalidate.
        const auto interned = [](std::uint32_t w, const char *metric) {
            static auto *pool = new std::set<std::string>();
            return pool
                ->insert("serve.w" + std::to_string(w) + "." + metric)
                .first->c_str();
        };
        for (std::uint32_t w = 0; w < cfg.workers; w++) {
            const WorkerReport &wr = out.workers[w];
            obs_->counterSample(
                obsStream_, out.endCycle,
                {{interned(w, "completions"), wr.completions},
                 {interned(w, "busy_cycles"), wr.busyCycles},
                 {interned(w, "end_cycle"), wr.endCycle},
                 {interned(w, "guard_fast"), wr.guardFast},
                 {interned(w, "guard_slow"), wr.guardSlow}});
        }
    }
    return out;
}

void
ServeReport::exportStats(StatSet &set) const
{
    const auto one = [&set](const TenantReport &r,
                            const std::string &prefix) {
        set.add(prefix + "arrivals", r.arrivals);
        set.add(prefix + "completions", r.completions);
        set.add(prefix + "goodput", r.goodput());
        set.add(prefix + "slo_violations", r.sloViolations);
        set.add(prefix + "queue_depth_max", r.maxQueueDepth);
        r.queueDelay.exportSloStats(set, (prefix + "queue_delay").c_str());
        r.serviceTime.exportSloStats(set, (prefix + "service").c_str());
        r.sojourn.exportSloStats(set, (prefix + "sojourn").c_str());
    };
    one(aggregate, "serve.");
    set.add("serve.end_cycle", endCycle);
    set.add("serve.last_arrival_cycle", lastArrivalCycle);
    for (const TenantReport &r : tenants)
        one(r, "serve." + r.name + ".");
    for (std::size_t w = 0; w < workers.size(); w++) {
        const std::string prefix =
            "serve.w" + std::to_string(w) + ".";
        set.add(prefix + "completions", workers[w].completions);
        set.add(prefix + "busy_cycles", workers[w].busyCycles);
        set.add(prefix + "end_cycle", workers[w].endCycle);
        set.add(prefix + "guard_fast", workers[w].guardFast);
        set.add(prefix + "guard_slow", workers[w].guardSlow);
    }
}

double
meanServiceCycles(const TenantConfig &tenant, const CostParams &costs,
                  std::uint64_t seed, std::uint32_t requests)
{
    TFM_ASSERT(requests > 0, "calibration needs at least one request");
    Scheduler::Tenant probe(tenant, costs, seed, 0,
                            1.0 /* rate unused: no arrivals started */);
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < requests; i++)
        total += probe.serve(probe.keySampler->next());
    return static_cast<double>(total) / static_cast<double>(requests);
}

const char *
tenantWorkloadName(TenantWorkloadKind kind)
{
    switch (kind) {
      case TenantWorkloadKind::Memcached:
        return "memcached";
      case TenantWorkloadKind::Hashmap:
        return "hashmap";
      case TenantWorkloadKind::Analytics:
        return "analytics";
    }
    return "?";
}

} // namespace tfm
