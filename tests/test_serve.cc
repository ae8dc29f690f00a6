/**
 * @file
 * Tests for the traffic-serving subsystem: arrival-process statistics,
 * scheduler queueing-delay accounting under overload, tenant isolation
 * under round-robin dispatch, drain-to-empty termination, determinism,
 * and the serve.* stat export.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/histogram.hh"
#include "serve/arrival.hh"
#include "serve/scheduler.hh"
#include "sim/cost_params.hh"
#include "sim/stats.hh"

namespace tfm
{
namespace
{

/** Sample mean and variance of @p n exact gaps from @p process. */
void
gapMoments(ArrivalProcess &process, int n, double *mean_out,
           double *var_out)
{
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; i++) {
        const double gap = process.nextGapExact();
        sum += gap;
        sum_sq += gap * gap;
    }
    const double mean = sum / n;
    *mean_out = mean;
    *var_out = sum_sq / n - mean * mean;
}

/**
 * Poisson arrivals: exponential inter-arrival gaps with mean 1/rate and
 * variance 1/rate^2. 200K samples put the sampling error well under
 * the 5% tolerance, and the seed is fixed, so this never flakes.
 */
TEST(Arrival, PoissonGapMeanAndVariance)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Poisson;
    cfg.ratePerCycle = 1e-3;
    ArrivalProcess process(cfg, 77);

    double mean = 0.0, var = 0.0;
    gapMoments(process, 200000, &mean, &var);
    EXPECT_NEAR(mean, 1000.0, 0.05 * 1000.0);
    EXPECT_NEAR(var, 1e6, 0.05 * 1e6);
}

/**
 * MMPP shares the long-run mean rate with Poisson at equal config (the
 * calm/burst rates are derived to make that true) but is
 * over-dispersed: gap variance strictly above the exponential's.
 */
TEST(Arrival, MmppMatchesMeanRateButOverdisperses)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Mmpp;
    cfg.ratePerCycle = 1e-3;
    cfg.burstMultiplier = 8.0;
    cfg.calmDwellCycles = 50000.0;
    cfg.burstDwellCycles = 10000.0;
    ArrivalProcess process(cfg, 78);

    double mean = 0.0, var = 0.0;
    gapMoments(process, 200000, &mean, &var);
    EXPECT_NEAR(mean, 1000.0, 0.08 * 1000.0);
    EXPECT_GT(var, 1.3 * mean * mean);
}

TEST(Arrival, QuantizedGapsAreAtLeastOneCycle)
{
    ArrivalConfig cfg;
    cfg.ratePerCycle = 10.0; // gaps ~0.1 cycle: all would round to 0
    ArrivalProcess process(cfg, 79);
    for (int i = 0; i < 1000; i++)
        EXPECT_GE(process.nextGapCycles(), 1u);
}

TEST(Arrival, ClientIdsCoverThePopulation)
{
    ArrivalConfig cfg;
    cfg.clients = 1000000;
    ArrivalProcess process(cfg, 80);
    std::uint64_t max_seen = 0;
    for (int i = 0; i < 10000; i++) {
        const std::uint64_t c = process.nextClient();
        EXPECT_LT(c, cfg.clients);
        max_seen = std::max(max_seen, c);
    }
    // Uniform over a million ids: the max of 10K draws lands in the
    // top percentile with overwhelming probability.
    EXPECT_GT(max_seen, cfg.clients / 2);
}

/** Small, fast tenant config for scheduler tests. */
TenantConfig
smallTenant(TenantWorkloadKind kind)
{
    TenantConfig t;
    t.workload = kind;
    t.numKeys = 512;
    t.farHeapBytes = 4ull << 20;
    t.localMemBytes = 128ull << 10;
    return t;
}

ServeConfig
baseConfig(double rate_per_cycle, std::uint64_t requests)
{
    ServeConfig sc;
    sc.tenants = {smallTenant(TenantWorkloadKind::Memcached),
                  smallTenant(TenantWorkloadKind::Hashmap)};
    sc.arrivals.ratePerCycle = rate_per_cycle;
    sc.workers = 1;
    sc.totalRequests = requests;
    sc.seed = 99;
    return sc;
}

/**
 * Overload (offered >> capacity): every request completes, queueing
 * delay dwarfs service time, and the sojourn bookkeeping is exact —
 * sum(sojourn) == sum(queue delay) + sum(service) because each
 * request's sojourn is their sum by construction.
 */
TEST(Scheduler, OverloadAccountsQueueingSeparately)
{
    const CostParams costs;
    ServeConfig sc = baseConfig(0.0, 400);
    // Calibrate capacity, then offer 5x it.
    const double mean_service =
        meanServiceCycles(sc.tenants[0], costs, sc.seed, 100);
    sc.arrivals.ratePerCycle = 5.0 / mean_service;

    Scheduler sched(sc, costs);
    const ServeReport report = sched.run();
    const TenantReport &agg = report.aggregate;

    EXPECT_EQ(agg.arrivals, 400u);
    EXPECT_EQ(agg.completions, 400u);
    EXPECT_EQ(agg.sojourn.sum(),
              agg.queueDelay.sum() + agg.serviceTime.sum());
    // 5x overload: mean queue delay must dominate mean service.
    EXPECT_GT(agg.queueDelay.mean(), 3.0 * agg.serviceTime.mean());
    // The queue must actually have built up.
    EXPECT_GT(agg.maxQueueDepth, 20u);
}

/**
 * Tenant isolation: a 20x-hotter tenant saturates the worker, but
 * round-robin dispatch bounds the cold tenant's queueing delay to a
 * handful of service times — the hot tenant's backlog cannot starve
 * it. The hot tenant, by contrast, sees delays orders of magnitude
 * above a single service time.
 */
TEST(Scheduler, HotTenantCannotStarveColdTenant)
{
    const CostParams costs;
    ServeConfig sc = baseConfig(0.0, 1500);
    sc.tenants[0].share = 20.0; // hot
    sc.tenants[1].share = 1.0;  // cold
    const double mean_service =
        meanServiceCycles(sc.tenants[0], costs, sc.seed, 100);
    sc.arrivals.ratePerCycle = 1.5 / mean_service; // 1.5x capacity

    Scheduler sched(sc, costs);
    const ServeReport report = sched.run();
    ASSERT_EQ(report.tenants.size(), 2u);
    const TenantReport &hot = report.tenants[0];
    const TenantReport &cold = report.tenants[1];

    ASSERT_GT(hot.arrivals, 10 * cold.arrivals);
    // The cold tenant's rare requests wait at most ~its queue position
    // times one round of the rotation; the hot tenant's backlog piles
    // up behind its own share of the turns.
    EXPECT_GT(hot.queueDelay.mean(), 5.0 * cold.queueDelay.mean());
    // Cold-tenant p99 stays within a small multiple of the service
    // cost; with no isolation (FIFO over the merged queue) it would
    // match the hot tenant's collapse instead.
    EXPECT_LT(static_cast<double>(cold.queueDelay.percentile(99)),
              0.25 * static_cast<double>(hot.queueDelay.percentile(99)));
    EXPECT_EQ(hot.completions, hot.arrivals);
    EXPECT_EQ(cold.completions, cold.arrivals);
}

/** Drain-to-empty: the run ends only when every arrival completed. */
TEST(Scheduler, DrainsToEmpty)
{
    const CostParams costs;
    ServeConfig sc = baseConfig(1e-5, 300);
    Scheduler sched(sc, costs);
    const ServeReport report = sched.run();

    EXPECT_EQ(report.aggregate.arrivals, 300u);
    EXPECT_EQ(report.aggregate.completions, 300u);
    std::uint64_t tenant_completions = 0;
    for (const TenantReport &t : report.tenants) {
        EXPECT_EQ(t.arrivals, t.completions);
        tenant_completions += t.completions;
    }
    EXPECT_EQ(tenant_completions, 300u);
    EXPECT_GE(report.endCycle, report.lastArrivalCycle);
}

TEST(Scheduler, DeterministicForSameSeed)
{
    const CostParams costs;
    const auto run = [&costs]() {
        ServeConfig sc = baseConfig(2e-5, 250);
        sc.tenants.push_back(
            smallTenant(TenantWorkloadKind::Analytics));
        Scheduler sched(sc, costs);
        return sched.run();
    };
    const ServeReport a = run();
    const ServeReport b = run();
    EXPECT_EQ(a.endCycle, b.endCycle);
    EXPECT_EQ(a.lastArrivalCycle, b.lastArrivalCycle);
    EXPECT_EQ(a.aggregate.sojourn.sum(), b.aggregate.sojourn.sum());
    EXPECT_EQ(a.aggregate.queueDelay.sum(),
              b.aggregate.queueDelay.sum());
    for (std::size_t i = 0; i < a.tenants.size(); i++) {
        EXPECT_EQ(a.tenants[i].serviceTime.sum(),
                  b.tenants[i].serviceTime.sum());
        EXPECT_EQ(a.tenants[i].maxQueueDepth,
                  b.tenants[i].maxQueueDepth);
    }
}

TEST(Scheduler, SloViolationsGateGoodput)
{
    const CostParams costs;
    ServeConfig sc = baseConfig(0.0, 400);
    const double mean_service =
        meanServiceCycles(sc.tenants[0], costs, sc.seed, 100);
    sc.arrivals.ratePerCycle = 3.0 / mean_service; // overload
    sc.sloCycles = static_cast<std::uint64_t>(2.0 * mean_service);

    Scheduler sched(sc, costs);
    const ServeReport report = sched.run();
    const TenantReport &agg = report.aggregate;
    // Overloaded with a tight SLO: some but not all requests violate,
    // and goodput is exactly completions minus violations.
    EXPECT_GT(agg.sloViolations, 0u);
    EXPECT_LT(agg.sloViolations, agg.completions);
    EXPECT_EQ(agg.goodput(), agg.completions - agg.sloViolations);
}

/**
 * The aggregate is built at drain time from the tenant reports: its
 * counts are the tenant-wise sums and its latency histograms the merge
 * of the tenants', on a 3-tenant, 2-worker run with queueing and SLO
 * violations in it.
 */
TEST(Scheduler, AggregateIsTheMergeOfTenants)
{
    const CostParams costs;
    ServeConfig sc = baseConfig(0.0, 1200);
    sc.tenants.push_back(smallTenant(TenantWorkloadKind::Analytics));
    sc.workers = 2;
    const double mean_service =
        meanServiceCycles(sc.tenants[0], costs, sc.seed, 100);
    sc.arrivals.ratePerCycle = 2.5 / mean_service; // overload
    sc.sloCycles = static_cast<std::uint64_t>(4.0 * mean_service);

    Scheduler sched(sc, costs);
    const ServeReport report = sched.run();
    ASSERT_EQ(report.tenants.size(), 3u);

    std::uint64_t arrivals = 0, completions = 0, violations = 0;
    Histogram delay, service, sojourn;
    for (const TenantReport &t : report.tenants) {
        EXPECT_GT(t.completions, 0u) << t.name;
        arrivals += t.arrivals;
        completions += t.completions;
        violations += t.sloViolations;
        delay.merge(t.queueDelay);
        service.merge(t.serviceTime);
        sojourn.merge(t.sojourn);
    }
    const TenantReport &agg = report.aggregate;
    EXPECT_EQ(agg.arrivals, arrivals);
    EXPECT_EQ(agg.completions, completions);
    EXPECT_EQ(agg.sloViolations, violations);
    EXPECT_EQ(completions, 1200u);
    EXPECT_GT(violations, 0u);

    const auto same = [](const Histogram &got, const Histogram &want,
                         const char *what) {
        EXPECT_EQ(got.count(), want.count()) << what;
        EXPECT_EQ(got.sum(), want.sum()) << what;
        EXPECT_EQ(got.min(), want.min()) << what;
        EXPECT_EQ(got.max(), want.max()) << what;
        for (const double p : {50.0, 99.0, 99.9})
            EXPECT_EQ(got.percentile(p), want.percentile(p))
                << what << " p" << p;
    };
    same(agg.queueDelay, delay, "queue delay");
    same(agg.serviceTime, service, "service");
    same(agg.sojourn, sojourn, "sojourn");
}

TEST(ServeReport, ExportsServeStats)
{
    const CostParams costs;
    ServeConfig sc = baseConfig(2e-5, 100);
    Scheduler sched(sc, costs);
    const ServeReport report = sched.run();

    StatSet set;
    report.exportStats(set);
    EXPECT_EQ(set.get("serve.arrivals"), 100u);
    EXPECT_EQ(set.get("serve.completions"), 100u);
    EXPECT_NE(set.find("serve.sojourn.p999"), nullptr);
    EXPECT_NE(set.find("serve.queue_delay.p99"), nullptr);
    EXPECT_NE(set.find("serve.service.p50"), nullptr);
    EXPECT_NE(set.find("serve.end_cycle"), nullptr);
    // Per-tenant blocks use the derived "tenant<i>-<workload>" names.
    EXPECT_NE(set.find("serve.tenant0-memcached.completions"), nullptr);
    EXPECT_NE(set.find("serve.tenant1-hashmap.sojourn.p99"), nullptr);
}

TEST(Histogram, SloExportCarriesTailPercentiles)
{
    Histogram h;
    for (int i = 1; i <= 1000; i++)
        h.record(i);
    StatSet set;
    h.exportSloStats(set, "x");
    EXPECT_EQ(set.get("x.count"), 1000u);
    EXPECT_GE(set.get("x.p999"), set.get("x.p99"));
    EXPECT_GE(set.get("x.p99"), set.get("x.p50"));
    EXPECT_NE(set.find("x.mean"), nullptr);
}

} // anonymous namespace
} // namespace tfm
