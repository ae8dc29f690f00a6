/**
 * @file
 * Observability-layer tests: histogram bucket/percentile math, epoch
 * time-series alignment, trace emission -> parse round trips, the
 * process-wide default sink, and end-to-end traces recorded by the real
 * runtimes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <utility>

#include "aifmlib/aifm_runtime.hh"
#include "fastswap/fastswap_runtime.hh"
#include "obs/obs.hh"
#include "obs/trace_reader.hh"
#include "runtime/far_mem_runtime.hh"
#include "sim/stats.hh"
#include "tfm/tfm_runtime.hh"

namespace tfm
{
namespace
{

// ---------------------------------------------------------------- Histogram

TEST(Histogram, BucketBoundaries)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0);
    EXPECT_EQ(Histogram::bucketOf(1), 1);
    for (int k = 2; k < Histogram::numBuckets; k++) {
        // Every bucket's own bounds map back to it, and the value one
        // below the lower bound lands in the previous bucket.
        EXPECT_EQ(Histogram::bucketOf(Histogram::bucketLo(k)), k);
        EXPECT_EQ(Histogram::bucketOf(Histogram::bucketHi(k)), k);
        EXPECT_EQ(Histogram::bucketOf(Histogram::bucketLo(k) - 1), k - 1);
    }
    EXPECT_EQ(Histogram::bucketLo(1), 1u);
    EXPECT_EQ(Histogram::bucketHi(1), 1u);
    EXPECT_EQ(Histogram::bucketLo(5), 16u);
    EXPECT_EQ(Histogram::bucketHi(5), 31u);
}

TEST(Histogram, SingleValueDistributionIsExact)
{
    Histogram h;
    for (int i = 0; i < 100; i++)
        h.record(7);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.min(), 7u);
    EXPECT_EQ(h.max(), 7u);
    EXPECT_DOUBLE_EQ(h.mean(), 7.0);
    // Min/max clamping makes every percentile exact here even though 7
    // shares bucket 3 with 4..7.
    EXPECT_EQ(h.percentile(1), 7u);
    EXPECT_EQ(h.percentile(50), 7u);
    EXPECT_EQ(h.percentile(99), 7u);
    EXPECT_EQ(h.percentile(100), 7u);
}

TEST(Histogram, PercentilesOfUniformRange)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 100; v++)
        h.record(v);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.percentile(100), 100u);
    EXPECT_EQ(h.percentile(1), 1u);
    // Rank 50 lands in bucket [32, 63]; interpolation stays inside it.
    EXPECT_GE(h.percentile(50), 32u);
    EXPECT_LE(h.percentile(50), 63u);
    // p99 (rank 99) lands in the [64, 100] sub-range of bucket 7.
    EXPECT_GE(h.percentile(99), 64u);
    EXPECT_LE(h.percentile(99), 100u);
    // Percentiles never decrease as p grows.
    std::uint64_t prev = 0;
    for (double p = 5; p <= 100; p += 5) {
        const std::uint64_t q = h.percentile(p);
        EXPECT_GE(q, prev);
        prev = q;
    }
}

TEST(Histogram, EmptyHistogramIsAllZero)
{
    const Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, ExportStatsPublishesPercentiles)
{
    Histogram h;
    h.record(10);
    h.record(20);
    StatSet set;
    h.exportStats(set, "obs.test");
    ASSERT_NE(set.find("obs.test.count"), nullptr);
    EXPECT_EQ(*set.find("obs.test.count"), 2u);
    ASSERT_NE(set.find("obs.test.p50"), nullptr);
    ASSERT_NE(set.find("obs.test.p99"), nullptr);
    ASSERT_NE(set.find("obs.test.max"), nullptr);
    EXPECT_EQ(*set.find("obs.test.max"), 20u);
}

// -------------------------------------------------------------- Time series

TEST(TimeSeries, EpochAlignmentAndSparseness)
{
    TimeSeriesSampler s(100);
    EXPECT_TRUE(s.enabled());
    // First snapshot is due immediately for any stream.
    EXPECT_TRUE(s.due(0, 5));
    s.record(0, 5, "depth", 42);
    s.advance(0, 5);
    // Inside the same epoch: not due again.
    EXPECT_FALSE(s.due(0, 99));
    EXPECT_TRUE(s.due(0, 100));
    // A jump across several epochs produces one aligned row, not
    // backfill for the skipped epochs.
    s.record(0, 357, "depth", 43);
    s.advance(0, 357);
    EXPECT_FALSE(s.due(0, 399));
    EXPECT_TRUE(s.due(0, 400));
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s.all()[0].epochStart, 0u);
    EXPECT_EQ(s.all()[0].at, 5u);
    EXPECT_EQ(s.all()[1].epochStart, 300u);
    EXPECT_EQ(s.all()[1].at, 357u);
    // Streams are independent.
    EXPECT_TRUE(s.due(7, 0));
}

TEST(TimeSeries, DisabledSamplerIsNeverDue)
{
    TimeSeriesSampler s(0);
    EXPECT_FALSE(s.enabled());
    EXPECT_FALSE(s.due(0, 12345));
}

TEST(TimeSeries, ObservabilityCounterSampleMirrorsToTrace)
{
    ObsConfig cfg;
    cfg.trace = true;
    cfg.epochCycles = 1000;
    Observability obs(cfg);
    const std::uint32_t stream = obs.registerStream("test");
    ASSERT_TRUE(obs.seriesDue(stream, 50));
    obs.counterSample(stream, 50, {{"depth", 3}, {"bytes", 4096}});
    EXPECT_FALSE(obs.seriesDue(stream, 999));
    EXPECT_TRUE(obs.seriesDue(stream, 1000));
    EXPECT_EQ(obs.series().size(), 2u);
    // Each metric also became a 'C' trace event.
    std::size_t counters = 0;
    for (const TraceEvent &e : obs.trace().all()) {
        if (e.ph == 'C')
            counters++;
    }
    EXPECT_EQ(counters, 2u);
}

// ------------------------------------------------------- Trace round trips

TEST(TraceEvent, EmitParseRoundTrip)
{
    ObsConfig cfg;
    cfg.trace = true;
    Observability obs(cfg);
    const std::uint32_t s = obs.registerStream("unit");
    TraceSink &sink = obs.trace();
    sink.complete(s, TrackNetIn, "net.fetch", "net", 100, 50);
    sink.arg("bytes", 4096);
    sink.arg("payloads", 2);
    sink.begin(s, TrackApp, "demand-fetch", "runtime", 200);
    sink.instant(s, TrackApp, "evict", "runtime", 210);
    sink.arg("obj", 9);
    sink.end(s, TrackApp, "demand-fetch", "runtime", 250);
    sink.counter(s, "frames_used", 300, 17);

    std::ostringstream os;
    obs.writeTrace(os);
    ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(parseTrace(os.str(), parsed, error)) << error;
    EXPECT_EQ(parsed.dropped, 0u);

    // registerStream() labels the stream with 'M' metadata records;
    // keep only the timed events for the shape assertions.
    std::vector<ParsedEvent> timed;
    for (const ParsedEvent &e : parsed.events) {
        if (e.ph != 'M')
            timed.push_back(e);
    }
    ASSERT_EQ(timed.size(), 5u);

    const ParsedEvent &fetch = timed[0];
    EXPECT_EQ(fetch.ph, 'X');
    EXPECT_EQ(fetch.name, "net.fetch");
    EXPECT_EQ(fetch.ts, 100u);
    EXPECT_EQ(fetch.dur, 50u);
    EXPECT_EQ(fetch.args.at("bytes"), 4096u);
    EXPECT_EQ(fetch.args.at("payloads"), 2u);
    EXPECT_EQ(timed[1].ph, 'B');
    EXPECT_EQ(timed[2].ph, 'i');
    EXPECT_EQ(timed[2].args.at("obj"), 9u);
    EXPECT_EQ(timed[3].ph, 'E');
    EXPECT_EQ(timed[4].ph, 'C');
    EXPECT_EQ(timed[4].args.at("value"), 17u);

    // Timestamps non-decreasing per (pid, tid) in buffer order — the
    // invariant Perfetto needs for span nesting.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> last;
    for (const ParsedEvent &e : timed) {
        const auto track = std::make_pair(e.pid, e.tid);
        const auto it = last.find(track);
        if (it != last.end()) {
            EXPECT_GE(e.ts, it->second) << e.name;
        }
        last[track] = e.ts;
    }
}

TEST(TraceEvent, BoundedSinkCountsDrops)
{
    TraceSink sink(2);
    sink.instant(0, 0, "a", "t", 1);
    sink.instant(0, 0, "b", "t", 2);
    sink.instant(0, 0, "c", "t", 3); // over capacity
    sink.arg("x", 1);                // must not corrupt event "b"
    EXPECT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink.dropped(), 1u);
    EXPECT_EQ(sink.all()[1].argName[0], nullptr);
}

TEST(TraceEvent, DisabledSinkRecordsNothing)
{
    ObsConfig cfg;
    cfg.trace = false;
    Observability obs(cfg);
    EXPECT_FALSE(obs.trace().enabled());
    obs.trace().instant(0, 0, "x", "t", 1);
    EXPECT_EQ(obs.trace().size(), 0u);
    // Histograms still work without a trace buffer.
    obs.fetchLatency.record(10);
    EXPECT_EQ(obs.fetchLatency.count(), 1u);
}

TEST(TraceEvent, JsonStringsAreEscaped)
{
    TraceSink sink(4);
    sink.instant(0, 0, "quote\"back\\slash", "t", 1);
    std::ostringstream os;
    sink.write(os);
    ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(parseTrace(os.str(), parsed, error)) << error;
    ASSERT_EQ(parsed.events.size(), 1u);
    EXPECT_EQ(parsed.events[0].name, "quote\"back\\slash");
}

// ----------------------------------------------------------- Default sink

TEST(DefaultSink, InstallAndClear)
{
    EXPECT_EQ(obs::defaultSink(), nullptr);
    Observability sink;
    obs::setDefaultSink(&sink);
    EXPECT_EQ(obs::defaultSink(), &sink);
    // A runtime constructed with no explicit sink picks up the default.
    RuntimeConfig cfg;
    cfg.farHeapBytes = 1 << 20;
    cfg.localMemBytes = 256 << 10;
    FarMemRuntime rt(cfg, CostParams{});
    EXPECT_EQ(rt.obs(), &sink);
    obs::setDefaultSink(nullptr);
    EXPECT_EQ(obs::defaultSink(), nullptr);
    FarMemRuntime bare(cfg, CostParams{});
    EXPECT_EQ(bare.obs(), nullptr);
}

// --------------------------------------------------- End-to-end (runtimes)

TEST(RuntimeTrace, FarMemDemandMissesProduceSpans)
{
    Observability obs;
    RuntimeConfig cfg;
    cfg.farHeapBytes = 1 << 20;
    cfg.localMemBytes = 64 << 10;
    cfg.obs = &obs;
    FarMemRuntime rt(cfg, CostParams{});
    const std::uint64_t base = rt.allocate(512 << 10);
    // Stream through enough objects to force demand misses, prefetch
    // issue, evictions, and writeback flushes.
    for (std::uint64_t off = 0; off < (512u << 10); off += 4096) {
        std::uint64_t value = off;
        std::memcpy(rt.localize(base + off, true), &value, sizeof(value));
    }
    rt.flushWritebacks();

    EXPECT_GT(obs.demandFetch.count(), 0u);
    EXPECT_GT(obs.fetchLatency.count(), 0u);
    EXPECT_GT(obs.fetchLatency.percentile(50), 0u);
    EXPECT_GT(obs.interMissDist.count(), 0u);
    EXPECT_GT(obs.wbResidency.count(), 0u);

    std::ostringstream os;
    obs.writeTrace(os);
    ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(parseTrace(os.str(), parsed, error)) << error;

    std::map<std::string, std::size_t> byName;
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> last;
    for (const ParsedEvent &e : parsed.events) {
        byName[e.name]++;
        const auto track = std::make_pair(e.pid, e.tid);
        const auto it = last.find(track);
        if (it != last.end()) {
            ASSERT_GE(e.ts, it->second)
                << e.name << " at ts " << e.ts;
        }
        last[track] = e.ts;
    }
    EXPECT_GT(byName["demand-fetch"], 0u);
    EXPECT_GT(byName["net.fetch"], 0u);
    EXPECT_GT(byName["evict"], 0u);
    EXPECT_GT(byName["remote.fetch"], 0u);
    EXPECT_GT(byName["net.writeback"], 0u);

    // The stats export carries the histogram summaries.
    StatSet set;
    rt.exportStats(set);
    ASSERT_NE(set.find("obs.fetch_latency.p50"), nullptr);
    EXPECT_GT(*set.find("obs.fetch_latency.p50"), 0u);
}

TEST(RuntimeTrace, TfmGuardSlowPathsAreTraced)
{
    Observability obs;
    RuntimeConfig cfg;
    cfg.farHeapBytes = 1 << 20;
    cfg.localMemBytes = 64 << 10;
    cfg.obs = &obs;
    TfmRuntime tfm(cfg, CostParams{});
    const std::uint64_t arr = tfm.tfmMalloc(256 << 10);
    for (std::uint64_t off = 0; off < (256u << 10); off += 4096)
        tfm.store<std::uint64_t>(arr + off, off);

    std::size_t slow = 0;
    for (const TraceEvent &e : obs.trace().all()) {
        if (std::string(e.cat) == "guard")
            slow++;
    }
    EXPECT_GT(slow, 0u);
    EXPECT_GT(tfm.guardStats().slowRemoteWrites, 0u);
}

TEST(RuntimeTrace, FastswapFaultsProduceSpans)
{
    Observability obs;
    RuntimeConfig cfg;
    cfg.farHeapBytes = 1 << 20;
    cfg.localMemBytes = 64 << 10;
    cfg.obs = &obs;
    FastswapRuntime fs(cfg, CostParams{});
    const std::uint64_t heap = fs.allocate(512 << 10);
    for (std::uint64_t off = 0; off < (512u << 10); off += 4096)
        fs.plane().store<std::uint64_t>(heap + off, off);

    EXPECT_GT(obs.faultLatency.count(), 0u);
    EXPECT_GT(obs.faultLatency.percentile(99), 0u);

    std::map<std::string, std::size_t> byName;
    for (const TraceEvent &e : obs.trace().all())
        byName[e.name]++;
    EXPECT_GT(byName["major-fault"], 0u);
    EXPECT_GT(byName["readahead"], 0u);
    EXPECT_GT(byName["minor-fault"], 0u);
    EXPECT_GT(byName["reclaim"], 0u);
}

TEST(RuntimeTrace, StreamsGetDistinctPids)
{
    Observability obs;
    RuntimeConfig cfg;
    cfg.farHeapBytes = 1 << 20;
    cfg.localMemBytes = 64 << 10;
    cfg.obs = &obs;
    TfmRuntime a(cfg, CostParams{});
    AifmRuntime b(cfg, CostParams{});
    EXPECT_NE(a.runtime().obsStream(), b.runtime().obsStream());
}

// ----------------------------------------------------------- Guard paths

TEST(GuardPathNames, EveryPathHasAName)
{
    const GuardPath paths[] = {
        GuardPath::SlowLocalRead,   GuardPath::SlowLocalWrite,
        GuardPath::SlowRemoteRead,  GuardPath::SlowRemoteWrite,
        GuardPath::LocalityLocal,   GuardPath::LocalityRemote,
        GuardPath::Revalidate,
    };
    std::map<std::string, int> seen;
    for (const GuardPath p : paths)
        seen[guardPathName(p)]++;
    // Seven traced paths, seven distinct non-placeholder names.
    EXPECT_EQ(seen.size(), 7u);
    EXPECT_EQ(seen.count("?"), 0u);
    EXPECT_EQ(seen["slow-local-read"], 1);
    EXPECT_EQ(seen["slow-local-write"], 1);
    EXPECT_EQ(seen["slow-remote-read"], 1);
    EXPECT_EQ(seen["slow-remote-write"], 1);
    EXPECT_EQ(seen["locality-local"], 1);
    EXPECT_EQ(seen["locality-remote"], 1);
    EXPECT_EQ(seen["revalidate"], 1);
}

} // anonymous namespace
} // namespace tfm
