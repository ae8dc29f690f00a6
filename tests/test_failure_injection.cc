/**
 * @file
 * Failure-injection and stress tests: resource exhaustion must fail
 * loudly (never corrupt), misuse must be caught, and the guard instants
 * on the observability trace must tell the truth about what happened.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "net/network_model.hh"
#include "obs/obs.hh"
#include "obs/trace_reader.hh"
#include "remote/remote_node.hh"
#include "sim/cost_params.hh"
#include "sim/cycle_clock.hh"
#include "sim/rng.hh"
#include "tfm/chunk.hh"
#include "tfm/tfm_runtime.hh"

namespace tfm
{
namespace
{

RuntimeConfig
tinyConfig(std::uint64_t frames = 4, std::uint32_t object_size = 4096)
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 1 << 20;
    cfg.localMemBytes = frames * object_size;
    cfg.objectSizeBytes = object_size;
    cfg.prefetchEnabled = false;
    return cfg;
}

TEST(FailureInjection, FarHeapExhaustionPanics)
{
    TfmRuntime rt(tinyConfig(), CostParams{});
    rt.tfmMalloc(512 << 10);
    EXPECT_DEATH(rt.tfmMalloc(1 << 20), "far heap exhausted");
}

TEST(FailureInjection, DoubleFreeIsCaught)
{
    TfmRuntime rt(tinyConfig(), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(128);
    rt.tfmFree(addr);
    EXPECT_DEATH(rt.tfmFree(addr), "unknown far pointer");
}

TEST(FailureInjection, FreeOfWildPointerIsCaught)
{
    TfmRuntime rt(tinyConfig(), CostParams{});
    rt.tfmMalloc(128);
    EXPECT_DEATH(rt.tfmFree(tfmEncode(77777)), "unknown far pointer");
}

TEST(FailureInjection, AllFramesPinnedPanicsOnNextMiss)
{
    // Pin every frame through chunk cursors, then demand another
    // object: the runtime must refuse loudly.
    TfmRuntime rt(tinyConfig(2), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(16 * 4096);
    std::int64_t value;
    ChunkCursorRaw first(rt, addr, sizeof(value), false);
    first.read(&value); // pins object 0
    ChunkCursorRaw second(rt, addr + 4096, sizeof(value), false);
    second.read(&value); // pins object 1 — both frames now pinned
    EXPECT_DEATH(rt.load<std::int64_t>(addr + 2 * 4096),
                 "every frame is pinned");
}

TEST(FailureInjection, UnpinWithoutPinIsCaught)
{
    TfmRuntime rt(tinyConfig(), CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(4096);
    rt.load<std::int64_t>(addr);
    EXPECT_DEATH(rt.runtime().unpinObject(0), "unpinning an unpinned");
}

TEST(FailureInjection, OutOfTableObjectAccessIsCaught)
{
    TfmRuntime rt(tinyConfig(), CostParams{});
    // An address past the far heap maps to no state-table entry.
    EXPECT_DEATH(rt.load<std::int64_t>(tfmEncode(8 << 20)),
                 "out of table range");
}

/** The "guard" instants of @p obs's exported trace, in order. */
std::vector<ParsedEvent>
guardInstants(const Observability &obs)
{
    std::ostringstream os;
    obs.writeTrace(os);
    ParsedTrace parsed;
    std::string error;
    EXPECT_TRUE(parseTrace(os.str(), parsed, error)) << error;
    std::vector<ParsedEvent> out;
    for (const ParsedEvent &e : parsed.events) {
        if (e.cat == "guard")
            out.push_back(e);
    }
    return out;
}

TEST(GuardTraceTest, RecordsPathsInOrder)
{
    Observability obs;
    RuntimeConfig cfg = tinyConfig();
    cfg.obs = &obs;
    TfmRuntime rt(cfg, CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(4096);
    rt.load<std::int64_t>(addr);  // slow remote read
    rt.load<std::int64_t>(addr);  // fast read: not traced
    rt.store<std::int64_t>(addr, 5); // fast write: not traced
    std::uint64_t host_value = 1;
    rt.load<std::uint64_t>(reinterpret_cast<std::uint64_t>(&host_value));
    EXPECT_TRUE(rt.revalidate(addr, rt.runtime().evictionEpoch()));
    rt.runtime().evacuateAll();
    rt.store<std::int64_t>(addr, 6); // slow remote write

    const std::vector<ParsedEvent> events = guardInstants(obs);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].name, "slow-remote-read");
    EXPECT_EQ(events[1].name, "revalidate");
    EXPECT_EQ(events[2].name, "slow-remote-write");
    for (std::size_t i = 0; i < events.size(); i++) {
        EXPECT_EQ(events[i].ph, 'i');
        ASSERT_EQ(events[i].args.count("addr"), 1u) << events[i].name;
        EXPECT_EQ(events[i].args.at("addr"), addr);
        if (i > 0) {
            EXPECT_GE(events[i].ts, events[i - 1].ts);
        }
    }
}

TEST(GuardTraceTest, LocalityPathsAreTraced)
{
    Observability obs;
    RuntimeConfig cfg = tinyConfig(8, 256);
    cfg.obs = &obs;
    TfmRuntime rt(cfg, CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(1024);
    {
        ChunkCursorRaw cursor(rt, addr, sizeof(std::int32_t), false);
        std::int32_t value;
        for (int i = 0; i < 256; i++)
            cursor.read(&value);
    }
    const std::vector<ParsedEvent> events = guardInstants(obs);
    ASSERT_EQ(events.size(), 4u); // 1024 B / 256 B objects
    for (std::size_t i = 0; i < events.size(); i++) {
        EXPECT_EQ(events[i].name, "locality-remote");
        // Each locality guard names the first element of its object.
        ASSERT_EQ(events[i].args.count("addr"), 1u);
        EXPECT_EQ(events[i].args.at("addr"), addr + i * 256);
        if (i > 0) {
            EXPECT_GE(events[i].ts, events[i - 1].ts);
        }
    }
}

TEST(StressTest, MallocFreeChurnUnderPressure)
{
    // Allocation churn with live data verification, at 8 frames.
    TfmRuntime rt(tinyConfig(8, 256), CostParams{});
    Rng rng(21);
    struct Live
    {
        std::uint64_t addr;
        std::uint64_t stamp;
        std::uint32_t words;
    };
    std::vector<Live> live;
    for (int step = 0; step < 2000; step++) {
        if (!live.empty() && rng.below(2) == 0) {
            const std::size_t index = rng.below(live.size());
            const Live item = live[index];
            for (std::uint32_t w = 0; w < item.words; w++) {
                ASSERT_EQ(rt.load<std::uint64_t>(item.addr + w * 8),
                          item.stamp + w);
            }
            rt.tfmFree(item.addr);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(index));
        } else if (live.size() < 64) {
            Live item;
            item.words = 1 + static_cast<std::uint32_t>(rng.below(32));
            item.addr = rt.tfmMalloc(item.words * 8);
            item.stamp = rng();
            for (std::uint32_t w = 0; w < item.words; w++)
                rt.store<std::uint64_t>(item.addr + w * 8,
                                        item.stamp + w);
            live.push_back(item);
        }
    }
}

TEST(FailureInjection, RemoteSegmentStraddlingCapacityNamesOffset)
{
    // A segment that starts in bounds but runs past the end of the
    // backing store must die loudly and name the offending offset, not
    // silently truncate or scribble past the store.
    CycleClock clock;
    const CostParams costs;
    NetworkModel net(clock, costs);
    RemoteNode node(1024);
    std::vector<std::byte> frame(128);
    std::vector<RemoteFetchSeg> segs{{960, frame.data(), 128}};
    std::vector<std::uint64_t> arrivals(segs.size());
    EXPECT_DEATH(node.fetchBatchAsync(net, segs, arrivals), "offset 960");
    EXPECT_DEATH(node.fetch(net, 960, frame.data(), 128),
                 "offset 960 len 128 capacity 1024");
}

} // namespace
} // namespace tfm
