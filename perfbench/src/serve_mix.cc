/**
 * @file
 * serve-mix: deterministic open-loop Poisson serving of bench_serving's
 * three-tenant mix (memcached / hashmap / analytics, shares 2/1/1) on
 * two simulated workers. Latency is sojourn from each request's
 * scheduled arrival cycle, reported at offered load 0.9 over eight
 * pooled runs; the load grid finds the highest load whose p99 sojourn
 * meets the SLO. The only workload with queueing.
 */

#include <algorithm>

#include "serve/scheduler.hh"
#include "sim/rng.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

constexpr std::uint32_t kWorkers = 2;
constexpr std::uint64_t kRequests = 100000; ///< per grid load point
constexpr double kReportLoad = 0.9;
/// Runs pooled at the reported load (see serveMixRep).
constexpr int kReportRuns = 8;
/// bench_serving's 200-request calibration is repeated this many
/// times, on throwaway backends of seeds drawn from the run's seed, and
/// averaged: a single estimate moves the effective load, and with it
/// the tail at 0.9, with the seed.
constexpr int kCalibrations = 8;
/// Offered load as a multiple of calibrated capacity; includes 0.9.
constexpr double kLoadGrid[] = {0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
                                1.1, 1.2, 1.3, 1.4, 1.5, 1.6};

/** bench_serving's mix: one hot KV tenant, two colder ones. */
std::vector<tfm::TenantConfig>
tenantMix()
{
    tfm::TenantConfig kv;
    kv.workload = tfm::TenantWorkloadKind::Memcached;
    kv.numKeys = 20000;
    kv.share = 2.0;
    kv.farHeapBytes = 16ull << 20;
    kv.localMemBytes = 512ull << 10;

    tfm::TenantConfig probe;
    probe.workload = tfm::TenantWorkloadKind::Hashmap;
    probe.numKeys = 8000;
    probe.share = 1.0;
    probe.farHeapBytes = 8ull << 20;
    probe.localMemBytes = 256ull << 10;

    tfm::TenantConfig scan;
    scan.workload = tfm::TenantWorkloadKind::Analytics;
    scan.numKeys = 16000;
    scan.share = 1.0;
    scan.farHeapBytes = 8ull << 20;
    scan.localMemBytes = 256ull << 10;

    return {kv, probe, scan};
}

} // anonymous namespace

RepResult
serveMixRep(std::uint64_t seed, SpanRecorder *spans)
{
    RepResult rep;
    const tfm::CostParams costs;
    const std::vector<tfm::TenantConfig> mix = tenantMix();

    // Calibrate as bench_serving does, averaged over kCalibrations
    // seeds: unloaded mean service per tenant, share-weighted, sets
    // capacity and the SLO.
    double mean_service = 0.0;
    std::uint64_t chain = seed;
    const std::int64_t t0 = nowNs();
    {
        SpanScope span(spans, "serve.calibrate");
        double share_sum = 0.0;
        for (const tfm::TenantConfig &t : mix)
            share_sum += t.share;
        for (int i = 0; i < kCalibrations; i++) {
            const std::uint64_t calibration_seed =
                i == 0 ? seed : tfm::splitmix64(chain);
            for (const tfm::TenantConfig &t : mix)
                mean_service +=
                    tfm::meanServiceCycles(t, costs, calibration_seed) *
                    t.share / share_sum / kCalibrations;
        }
    }
    rep.setupSeconds = secondsBetween(t0, nowNs());
    const double capacity = static_cast<double>(kWorkers) / mean_service;
    const auto slo = static_cast<std::uint64_t>(20.0 * mean_service);

    double max_load = 0.0;
    for (const double load : kLoadGrid) {
        // The reported load is served kReportRuns times, on arrival and
        // key streams of seeds drawn from the run's seed, and the runs
        // are pooled: one run's tail moves with the seed.
        const int runs = load == kReportLoad ? kReportRuns : 1;
        tfm::TenantReport all;
        std::uint64_t busy = 0;
        std::uint64_t worker_cycles = 0;
        for (int r = 0; r < runs; r++) {
            tfm::ServeConfig sc;
            sc.tenants = mix;
            sc.arrivals.kind = tfm::ArrivalKind::Poisson;
            sc.arrivals.ratePerCycle = load * capacity;
            sc.workers = kWorkers;
            sc.totalRequests = kRequests;
            sc.sloCycles = slo;
            sc.seed = r == 0 ? seed : tfm::splitmix64(chain);

            const std::int64_t t1 = nowNs();
            std::unique_ptr<tfm::Scheduler> sched;
            {
                SpanScope span(spans, "serve.setup");
                sched = std::make_unique<tfm::Scheduler>(sc, costs);
            }
            const std::int64_t t2 = nowNs();
            tfm::ServeReport report;
            {
                SpanScope span(spans, "serve.run");
                report = sched->run();
            }
            const std::int64_t t3 = nowNs();
            rep.setupSeconds += secondsBetween(t1, t2);
            rep.wallSeconds += secondsBetween(t2, t3);

            for (const tfm::TenantReport &tenant : report.tenants) {
                rep.attempted += tenant.arrivals;
                if (tenant.completions != tenant.arrivals) {
                    rep.failed += tenant.arrivals - tenant.completions;
                    rep.failures.push_back(tenant.name + " lost requests");
                }
            }
            const tfm::TenantReport &run = report.aggregate;
            all.sloViolations += run.sloViolations;
            all.maxQueueDepth = std::max(all.maxQueueDepth, run.maxQueueDepth);
            all.queueDelay.merge(run.queueDelay);
            all.serviceTime.merge(run.serviceTime);
            all.sojourn.merge(run.sojourn);
            for (const tfm::WorkerReport &w : report.workers)
                busy += w.busyCycles;
            worker_cycles += kWorkers * report.endCycle;
        }
        if (all.sojourn.percentile(99) <= slo)
            max_load = load;
        if (load != kReportLoad)
            continue;

        rep.sim = {
            {"sim_cycles", static_cast<double>(busy)},
            {"sim_p50_cycles",
             static_cast<double>(all.sojourn.percentile(50))},
            {"sim_p99_cycles",
             static_cast<double>(all.sojourn.percentile(99))},
        };
        rep.counts = {
            {"serve.queue_delay_p99_cycles",
             static_cast<double>(all.queueDelay.percentile(99))},
            {"serve.service_p99_cycles",
             static_cast<double>(all.serviceTime.percentile(99))},
            {"serve.max_queue_depth",
             static_cast<double>(all.maxQueueDepth)},
            {"serve.worker_busy_frac",
             worker_cycles == 0 ? 0.0
                                : static_cast<double>(busy) /
                                      static_cast<double>(worker_cycles)},
            {"serve.slo_violations", static_cast<double>(all.sloViolations)},
        };
    }
    rep.counts.emplace_back("serve_max_load", max_load);
    return rep;
}

} // namespace perfbench
