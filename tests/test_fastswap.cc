/**
 * @file
 * Unit tests for the Fastswap kernel-swap baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "fastswap/fastswap_runtime.hh"
#include "obs/flight_recorder.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "stream_harness.hh"
#include "tfm/tfm_runtime.hh"
#include "workloads/backend_config.hh"

namespace tfm
{
namespace
{

RuntimeConfig
smallConfig(std::uint64_t frames = 16, bool readahead = false)
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 4 << 20;
    cfg.localMemBytes = frames * 4096;
    cfg.pagedReadaheadPages = readahead ? 8 : 0;
    return cfg;
}

TEST(Fastswap, FirstTouchIsAMajorFault)
{
    FastswapRuntime fs(smallConfig(), CostParams{});
    const std::uint64_t heap = fs.allocate(64 * 4096);
    fs.plane().load<std::uint64_t>(heap);
    EXPECT_EQ(fs.plane().stats().majorFaults, 1u);
    EXPECT_EQ(fs.plane().stats().minorFaults, 0u);
}

TEST(Fastswap, ResidentAccessIsFree)
{
    FastswapRuntime fs(smallConfig(), CostParams{});
    const std::uint64_t heap = fs.allocate(4096);
    fs.plane().load<std::uint64_t>(heap);
    const std::uint64_t before = fs.clock().now();
    // Hardware-mapped page: no software cost at all.
    fs.plane().load<std::uint64_t>(heap + 8);
    EXPECT_EQ(fs.clock().now(), before);
}

TEST(Fastswap, MajorFaultCostMatchesTable2)
{
    const CostParams c;
    FastswapRuntime fs(smallConfig(), c);
    const std::uint64_t heap = fs.allocate(4096);
    const std::uint64_t before = fs.clock().now();
    fs.plane().load<std::uint64_t>(heap);
    const std::uint64_t cost = fs.clock().now() - before;
    // Paper: ~34 K cycles for a remote read fault. Allow 25% slack for
    // the network model's integer rounding.
    EXPECT_GT(cost, 25000u);
    EXPECT_LT(cost, 45000u);
}

TEST(Fastswap, StoreRoundTripsThroughSwap)
{
    FastswapRuntime fs(smallConfig(2), CostParams{});
    const std::uint64_t heap = fs.allocate(16 * 4096);
    fs.plane().store<std::uint64_t>(heap, 31337);
    // Evict page 0 by touching many others.
    for (int i = 1; i < 8; i++)
        fs.plane().load<std::uint64_t>(heap + i * 4096);
    EXPECT_GT(fs.plane().stats().pageouts, 0u);
    EXPECT_EQ(fs.plane().load<std::uint64_t>(heap), 31337u);
}

TEST(Fastswap, WholePagesAreTransferred)
{
    FastswapRuntime fs(smallConfig(), CostParams{});
    const std::uint64_t heap = fs.allocate(4096);
    fs.plane().load<std::uint8_t>(heap); // one byte touched...
    // ...but a full architected page crosses the network (I/O
    // amplification, Fig. 13).
    EXPECT_EQ(fs.netStats().bytesFetched, 4096u);
}

TEST(Fastswap, ReadaheadTurnsMajorIntoMinorFaults)
{
    FastswapRuntime fs(smallConfig(16, true), CostParams{});
    const std::uint64_t heap = fs.allocate(16 * 4096);
    for (int i = 0; i < 8; i++)
        fs.plane().load<std::uint64_t>(heap + i * 4096);
    EXPECT_LT(fs.plane().stats().majorFaults, 8u);
    EXPECT_GT(fs.plane().stats().minorFaults, 0u);
    EXPECT_GT(fs.plane().stats().readaheads, 0u);
}

TEST(Fastswap, MinorFaultCheaperThanMajor)
{
    const CostParams c;
    FastswapRuntime fs(smallConfig(16, true), c);
    const std::uint64_t heap = fs.allocate(16 * 4096);
    fs.plane().load<std::uint64_t>(heap); // major + readahead of page 1

    const std::uint64_t before = fs.clock().now();
    fs.plane().load<std::uint64_t>(heap + 4096); // minor (readahead landed)
    const std::uint64_t minor_cost = fs.clock().now() - before;
    // Minor faults may wait for the in-flight readahead, but the
    // software cost is the 1.3 K local fault price.
    EXPECT_GE(minor_cost, c.pageFaultLocalCycles);
    EXPECT_EQ(fs.plane().stats().minorFaults, 1u);
}

TEST(Fastswap, ReclaimChargesAndCounts)
{
    FastswapRuntime fs(smallConfig(2), CostParams{});
    const std::uint64_t heap = fs.allocate(16 * 4096);
    for (int i = 0; i < 8; i++)
        fs.plane().load<std::uint64_t>(heap + i * 4096);
    EXPECT_GE(fs.plane().stats().reclaims, 6u);
}

TEST(Fastswap, RawInitDoesNotCharge)
{
    FastswapRuntime fs(smallConfig(), CostParams{});
    const std::uint64_t heap = fs.allocate(4096);
    const std::uint64_t before = fs.clock().now();
    const std::uint64_t value = 5;
    fs.rawWrite(heap, &value, sizeof(value));
    EXPECT_EQ(fs.clock().now(), before);
    EXPECT_EQ(fs.plane().load<std::uint64_t>(heap), 5u);
}

TEST(Fastswap, EvacuateAllMakesEverythingRemote)
{
    FastswapRuntime fs(smallConfig(), CostParams{});
    const std::uint64_t heap = fs.allocate(8 * 4096);
    fs.plane().store<std::uint64_t>(heap, 9);
    fs.plane().evacuate();
    const std::uint64_t faults = fs.plane().stats().majorFaults;
    EXPECT_EQ(fs.plane().load<std::uint64_t>(heap), 9u);
    EXPECT_EQ(fs.plane().stats().majorFaults, faults + 1);
}

TEST(Fastswap, ReadBytesSpanningPagesFaultsPerPage)
{
    FastswapRuntime fs(smallConfig(), CostParams{});
    const std::uint64_t heap = fs.allocate(2 * 4096);
    std::uint8_t buffer[64];
    fs.plane().read(heap + 4096 - 32, buffer, sizeof(buffer));
    EXPECT_EQ(fs.plane().stats().majorFaults, 2u);
}

TEST(Fastswap, ExportStats)
{
    FastswapRuntime fs(smallConfig(), CostParams{});
    const std::uint64_t heap = fs.allocate(4096);
    fs.plane().load<std::uint64_t>(heap);
    StatSet set;
    fs.exportStats(set);
    EXPECT_EQ(set.get("fastswap.major_faults"), 1u);
    EXPECT_EQ(set.get("net.bytes_fetched"), 4096u);
}

/**
 * FastswapRuntime and the hybrid arbiter's paged sites share one paging
 * model, so one seeded page trace (sequential runs, random jumps,
 * page-straddling accesses, a budget far below the touched set) must
 * fault, reclaim and charge identically on both.
 */
TEST(Fastswap, AgreesWithTheHybridPagedPlane)
{
    const RuntimeConfig cfg = smallConfig(12, /*readahead=*/true);
    FastswapRuntime fs(cfg, CostParams{});
    TfmRuntime tfm(cfg, CostParams{});
    constexpr std::uint64_t kPages = 64;
    const std::uint64_t fsHeap = fs.allocate(kPages * 4096);
    const std::uint64_t pgHeap = tfm.pagedMalloc(kPages * 4096);
    ASSERT_EQ(fsHeap, tfmOffsetOf(pgHeap));
    const std::uint64_t fsStart = fs.clock().now();
    const std::uint64_t tfmStart = tfm.clock().now();

    Rng rng(20240417);
    std::uint64_t page = 0;
    std::uint8_t fsBuf[96];
    std::uint8_t pgBuf[96];
    for (int step = 0; step < 20000; step++) {
        page = rng.below(10) < 7 ? (page + 1) % kPages : rng.below(kPages);
        const std::uint64_t at = page * 4096 + rng.below(4096);
        const std::size_t len = std::min<std::uint64_t>(
            1 + rng.below(sizeof(fsBuf)), kPages * 4096 - at);
        if (rng.below(10) < 3) {
            std::memset(fsBuf, step & 0xff, len);
            fs.plane().write(fsHeap + at, fsBuf, len);
            tfm.pagedWrite(pgHeap + at, fsBuf, len);
        } else {
            fs.plane().read(fsHeap + at, fsBuf, len);
            tfm.pagedRead(pgHeap + at, pgBuf, len);
            ASSERT_EQ(std::memcmp(fsBuf, pgBuf, len), 0) << "step " << step;
        }
    }

    const PagedStats &a = fs.plane().stats();
    const PagedStats &b = tfm.pagedPlane()->stats();
    EXPECT_EQ(a.majorFaults, b.majorFaults);
    EXPECT_EQ(a.minorFaults, b.minorFaults);
    EXPECT_EQ(a.reclaims, b.reclaims);
    EXPECT_EQ(a.pageouts, b.pageouts);
    EXPECT_EQ(a.readaheads, b.readaheads);
    EXPECT_EQ(fs.clock().now() - fsStart, tfm.clock().now() - tfmStart);
    // The trace reaches every fault and reclaim path.
    EXPECT_GT(a.minorFaults, 0u);
    EXPECT_GT(a.pageouts, 0u);
    EXPECT_GT(a.reclaims, a.pageouts);
}

/**
 * A cluster stripe smaller than a page (a paged site next to 64 B
 * TrackFM objects): the page still crosses whole, as one operation per
 * stripe, so no operation straddles a shard.
 */
TEST(PagedPlane, SplitsPageTransfersAtClusterStripes)
{
    RuntimeConfig cfg = smallConfig();
    cfg.objectSizeBytes = 64;
    cfg.cluster.shardCount = 4;
    cfg.pagedLocalMemBytes = 4096; // one resident page
    TfmRuntime tfm(cfg, CostParams{});
    const std::uint64_t heap = tfm.pagedMalloc(2 * 4096);
    const std::uint64_t value = 7;
    tfm.pagedWrite(heap, &value, sizeof(value));
    std::uint64_t got = 0;
    tfm.pagedRead(heap + 4096, &got, sizeof(got)); // evicts dirty page 0
    tfm.pagedRead(heap, &got, sizeof(got));
    EXPECT_EQ(got, value);

    const PagedStats &stats = tfm.pagedPlane()->stats();
    EXPECT_EQ(stats.majorFaults, 3u);
    EXPECT_EQ(stats.pageouts, 1u);
    const NetStats net = tfm.runtime().backend().netStats();
    EXPECT_EQ(net.bytesFetched, 3u * 4096);
    EXPECT_EQ(net.fetchMessages, 3u * 4096 / 64);
    EXPECT_EQ(net.bytesWrittenBack, 4096u);
    EXPECT_EQ(net.writebackMessages, 4096u / 64);
}

/**
 * The same small objects on the default 1-shard tier: no shard boundary
 * runs through a page, so every fault, readahead and page-out moves the
 * page as one operation. The pinned clock and NetStats (every field)
 * are what the single remote server charged for this trace before the
 * tier was always a cluster.
 */
TEST(PagedPlane, SmallObjectsKeepWholePageTransfersOnOneShard)
{
    RuntimeConfig cfg = smallConfig(4, /*readahead=*/true);
    cfg.objectSizeBytes = 64;
    TfmRuntime tfm(cfg, CostParams{});
    ASSERT_EQ(tfm.runtime().backend().shardCount(), 1u);
    constexpr std::uint64_t kPages = 24;
    const std::uint64_t heap = tfm.pagedMalloc(kPages * 4096);
    const std::uint64_t start = tfm.clock().now();
    std::uint64_t sum = 0;
    for (std::uint64_t pass = 0; pass < 2; pass++) {
        for (std::uint64_t page = 0; page < kPages; page += 1 + pass) {
            std::uint64_t v = page * 3 + pass;
            tfm.pagedWrite(heap + page * 4096 + 8 * pass, &v, sizeof(v));
            tfm.pagedRead(heap + page * 4096, &v, sizeof(v));
            sum += v;
        }
    }
    EXPECT_EQ(sum, 1224u);

    const PagedStats &stats = tfm.pagedPlane()->stats();
    EXPECT_EQ(stats.majorFaults, 33u);
    EXPECT_EQ(stats.minorFaults, 3u);
    EXPECT_EQ(stats.readaheads, 3u);
    EXPECT_EQ(stats.pageouts, 32u);
    const NetStats net = tfm.runtime().backend().netStats();
    EXPECT_EQ(net.bytesFetched, 36u * 4096);
    EXPECT_EQ(net.bytesWrittenBack, 32u * 4096);
    EXPECT_EQ(net.fetchMessages, 36u);
    EXPECT_EQ(net.writebackMessages, 32u);
    EXPECT_EQ(net.fetchPayloads, 36u);
    EXPECT_EQ(net.writebackPayloads, 32u);
    EXPECT_EQ(net.fetchBatches, 0u);
    EXPECT_EQ(net.writebackBatches, 0u);
    EXPECT_EQ(net.maxFetchBatch, 1u);
    EXPECT_EQ(net.maxWritebackBatch, 1u);
    EXPECT_EQ(tfm.clock().now() - start, 1627116u);
}

/**
 * The reference CLOCK order: resident pages in a vector, the hand an
 * index into it, and a reclaimed page erased in place. ClockRing must
 * visit pages exactly as this does.
 */
struct VectorClock
{
    std::vector<std::uint32_t> ring;
    std::size_t hand = 0;

    std::uint32_t
    handPage()
    {
        if (hand >= ring.size())
            hand = 0;
        return ring[hand];
    }
    void
    eraseHand()
    {
        handPage();
        ring.erase(ring.begin() + static_cast<std::ptrdiff_t>(hand));
    }
};

std::vector<std::uint32_t>
ringOrder(const ClockRing &ring)
{
    std::vector<std::uint32_t> ids;
    ring.forEach([&ids](std::uint32_t id) { ids.push_back(id); });
    return ids;
}

/**
 * A seeded mix of every ring operation against the vector order,
 * including the two cases a linked ring gets wrong most easily: the
 * hand wrapping at the newest page, and a page appended while the hand
 * is past the end (it must be the next one shown).
 */
TEST(ClockRing, VisitsPagesInVectorOrder)
{
    constexpr std::uint32_t kIds = 24;
    ClockRing ring(kIds);
    VectorClock ref;
    std::vector<bool> inRing(kIds, false);
    Rng rng(7);
    int wraps = 0, pastEndAppends = 0;
    for (int step = 0; step < 20000; step++) {
        const std::uint64_t op = rng.below(100);
        if (ref.ring.empty() || (op < 35 && ref.ring.size() < kIds)) {
            std::uint32_t id = static_cast<std::uint32_t>(rng.below(kIds));
            while (inRing[id])
                id = (id + 1) % kIds;
            inRing[id] = true;
            if (!ref.ring.empty() && ref.hand == ref.ring.size())
                pastEndAppends++;
            ring.pushBack(id);
            ref.ring.push_back(id);
        } else if (op < 65) {
            if (ref.hand >= ref.ring.size())
                wraps++;
            ASSERT_EQ(ring.hand(), ref.handPage()) << "step " << step;
            ring.advance();
            ref.hand++;
        } else if (op < 99) {
            inRing[ref.handPage()] = false;
            ring.eraseHand();
            ref.eraseHand();
        } else {
            ring.clear();
            ref.ring.clear();
            ref.hand = 0;
            inRing.assign(kIds, false);
        }
        ASSERT_EQ(ring.size(), ref.ring.size()) << "step " << step;
        ASSERT_EQ(ringOrder(ring), ref.ring) << "step " << step;
        if (!ref.ring.empty() && rng.below(4) == 0) {
            ASSERT_EQ(ring.hand(), ref.handPage()) << "step " << step;
        }
    }
    EXPECT_GT(wraps, 100);
    EXPECT_GT(pastEndAppends, 100);
}

/**
 * PagedPlane's residency rules over a VectorClock: major faults with
 * readahead, minor faults on in-flight pages, CLOCK reclaim, and
 * evacuation. It records every victim in order.
 */
struct PagedModel
{
    struct Page
    {
        bool resident = false;
        bool dirty = false;
        bool inflight = false;
        bool refbit = false;
    };

    PagedModel(std::uint64_t pages, std::uint64_t budget,
               std::uint32_t readahead)
        : table(pages), budget(budget), readahead(readahead)
    {}

    void
    touch(std::uint64_t offset, std::size_t len, bool for_write)
    {
        const std::uint64_t last = (offset + std::max<std::size_t>(len, 1) -
                                    1) / PagedPlane::pageSize;
        for (std::uint64_t p = offset / PagedPlane::pageSize; p <= last;
             p++) {
            Page &pg = table[p];
            if (!pg.resident) {
                majorFault(p, for_write);
                continue;
            }
            pg.refbit = true;
            pg.inflight = false;
            if (for_write)
                pg.dirty = true;
        }
    }

    void
    majorFault(std::uint64_t p, bool for_write)
    {
        while (clock.ring.size() >= budget)
            reclaim();
        table[p] = Page{true, for_write, false, true};
        append(p);
        for (std::uint32_t k = 1; k <= readahead; k++) {
            const std::uint64_t t = p + k;
            if (t >= table.size() || clock.ring.size() >= budget)
                break;
            if (table[t].resident)
                continue;
            table[t] = Page{true, false, true, false};
            append(t);
        }
    }

    void
    append(std::uint64_t p)
    {
        if (!clock.ring.empty() && clock.hand == clock.ring.size())
            pastEndAppends++;
        clock.ring.push_back(static_cast<std::uint32_t>(p));
    }

    void
    reclaim()
    {
        for (std::size_t scanned = 0; scanned < 2 * clock.ring.size();
             scanned++) {
            Page &pg = table[clock.handPage()];
            if (pg.inflight || pg.refbit) {
                pg.refbit = pg.inflight && pg.refbit;
                clock.hand++;
                continue;
            }
            victim(clock.handPage());
            clock.eraseHand();
            return;
        }
        TFM_PANIC("model CLOCK sweep found no victim in two laps");
    }

    void
    victim(std::uint32_t p)
    {
        victims.push_back(p);
        dirtyVictims.push_back(table[p].dirty ? 1 : 0);
        table[p] = Page{};
    }

    void
    evacuate()
    {
        for (const std::uint32_t p : clock.ring)
            table[p] = Page{};
        clock.ring.clear();
        clock.hand = 0;
    }

    std::vector<Page> table;
    std::uint64_t budget;
    std::uint32_t readahead;
    VectorClock clock;
    std::vector<std::uint64_t> victims;
    std::vector<std::uint64_t> dirtyVictims;
    int pastEndAppends = 0;
};

/**
 * The plane's reclaim order, read back from the trace's "reclaim"
 * instants, equals PagedModel's over a seeded mix of reads, writes,
 * re-touches and one evacuation, with readahead on. The trace must hold
 * one instant per counted reclaim.
 *
 * A readahead window wider than the budget can leave one mapped page
 * among in-flight ones. Each fault then reclaims that page, the newest
 * in the ring, and appends its own page while the hand is past the end:
 * the mix below reaches that case through its hot set and jumps.
 */
TEST(PagedPlane, ReclaimOrderMatchesTheVectorClock)
{
    Observability obs;
    RuntimeConfig cfg = smallConfig(6, /*readahead=*/true);
    cfg.obs = &obs;
    FastswapRuntime fs(cfg, CostParams{});
    PagedModel model(cfg.farHeapBytes / PagedPlane::pageSize, 6,
                     cfg.pagedReadaheadPages);
    constexpr std::uint64_t kPages = 96;
    const std::uint64_t heap = fs.allocate(kPages * 4096);

    Rng rng(20240612);
    std::uint64_t page = 0;
    std::uint8_t buf[64]{};
    for (int step = 0; step < 30000; step++) {
        if (step == 15000) {
            fs.plane().evacuate();
            model.evacuate();
        }
        const std::uint64_t pick = rng.below(100);
        if (pick < 60)
            page = rng.below(8);        // the hot set
        else if (pick < 70)
            page = (page + 1) % kPages; // sequential, into readahead
        else if (pick < 95)
            page = rng.below(kPages);   // a jump: a fresh fault
        // else: re-touch the page just touched
        const std::uint64_t at = heap + page * 4096 + rng.below(4096 - 64);
        const std::size_t len = 1 + rng.below(sizeof(buf));
        const bool write = rng.below(10) < 3;
        if (write)
            fs.plane().write(at, buf, len);
        else
            fs.plane().read(at, buf, len);
        model.touch(at, len, write);
    }

    std::vector<std::uint64_t> reclaimed;
    std::vector<std::uint64_t> dirty;
    for (const TraceEvent &e : obs.trace().all()) {
        if (std::strcmp(e.name, "reclaim") == 0) {
            reclaimed.push_back(e.argValue[0]);
            dirty.push_back(e.argValue[1]);
        }
    }
    ASSERT_EQ(obs.trace().dropped(), 0u);
    EXPECT_EQ(reclaimed.size(), fs.plane().stats().reclaims);
    EXPECT_EQ(reclaimed, model.victims);
    EXPECT_EQ(dirty, model.dirtyVictims);
    EXPECT_EQ(fs.plane().stats().pageouts,
              static_cast<std::uint64_t>(std::count(
                  model.dirtyVictims.begin(), model.dirtyVictims.end(), 1)));
    EXPECT_GT(model.victims.size(), 1000u);
    EXPECT_GT(model.pastEndAppends, 10);
}

/**
 * A charge-only page-out writes no replica, which is safe only because
 * every replica already holds the page's bytes. A Fastswap run with
 * dirty page-outs on two shards with two copies each must end with the
 * replicas byte-identical and the heap equal to a single node's.
 */
TEST(Fastswap, ReplicasStayIdenticalUnderChargeOnlyPageOuts)
{
    const auto run = [](FastswapRuntime &fs) {
        const std::uint64_t heap = fs.allocate(96 * 4096);
        Rng rng(31);
        for (int step = 0; step < 4000; step++) {
            const std::uint64_t at = heap + rng.below(96 * 4096 - 8);
            if (rng.below(2) == 0)
                fs.plane().store<std::uint64_t>(at, rng());
            else
                fs.plane().load<std::uint64_t>(at);
        }
    };
    const RuntimeConfig single = smallConfig(8);
    RuntimeConfig replicated = single;
    replicated.cluster.shardCount = 2;
    replicated.cluster.replicationFactor = 2;
    FastswapRuntime ref(single, CostParams{});
    FastswapRuntime fs(replicated, CostParams{});
    run(ref);
    run(fs);
    EXPECT_GT(fs.plane().stats().pageouts, 100u);
    EXPECT_EQ(fs.plane().stats().pageouts, ref.plane().stats().pageouts);

    RemoteBackend &backend = fs.runtime().backend();
    ASSERT_EQ(backend.shardCount(), 2u);
    std::vector<std::byte> a(single.farHeapBytes);
    std::vector<std::byte> b(single.farHeapBytes);
    backend.node(0).rawRead(0, a.data(), a.size());
    backend.node(1).rawRead(0, b.data(), b.size());
    EXPECT_TRUE(a == b);
    EXPECT_EQ(fs.runtime().heapChecksum(), ref.runtime().heapChecksum());
}

/** Fastswap with a four-page budget under three staggered streams. */
BackendConfig
fourPageFastswap()
{
    BackendConfig cfg;
    cfg.kind = SystemKind::Fastswap;
    cfg.farHeapBytes = 1 << 20;
    cfg.localMemBytes = 4 * 4096;
    return cfg;
}

/**
 * A stream's page window skips only accesses the plane would charge
 * nothing for, so copy and triad through windows must match the same
 * accesses made one at a time: the same clock, faults, reclaims,
 * pageouts, link bytes and heap bytes. With four resident pages and
 * three staggered streams, faults keep reclaiming pages other streams
 * hold windows on, mid-page.
 */
TEST(Fastswap, StreamWindowsMatchSingleAccesses)
{
    const StatSet stats = expectSameCopyAndTriad(
        fourPageFastswap(), Drive::Stream, Drive::Single);
    EXPECT_GT(stats.get("fastswap.reclaims"), 3 * 20u);
    EXPECT_GT(stats.get("fastswap.pageouts"), 20u);
}

/**
 * The STREAM kernels move the rest of a window in one run. Once another
 * stream's fault moves the plane's map, no window may run until an
 * access refills it; a run that skipped a fault single accesses take
 * would drift in clock, faults or heap bytes.
 */
TEST(Fastswap, StreamRunsMatchSingleAccesses)
{
    const StatSet stats = expectSameCopyAndTriad(
        fourPageFastswap(), Drive::Runs, Drive::Single);
    EXPECT_GT(stats.get("fastswap.reclaims"), 3 * 20u);
    EXPECT_GT(stats.get("fastswap.pageouts"), 20u);
}

/**
 * One stream that reads the first half of every page and writes the
 * second half, in runs or one element at a time. Its window fills on a
 * clean page, so the first write of each page must leave the run and
 * dirty the page, as a single write does.
 */
std::unique_ptr<MemBackend>
readThenWrite(bool runs, std::array<std::uint64_t, 3> &at)
{
    auto backend = makeBackend(fourPageFastswap(), CostParams{});
    at = staggeredArrays(
        [&backend](std::uint64_t bytes) { return backend->alloc(bytes); });
    backend->dropCaches();
    auto s = backend->stream(at[0], 4, kStreamElems, StreamMode::Read);
    std::int32_t buf[512]{};
    for (std::uint64_t i = 0; i < kStreamElems;) {
        const bool write = i % 1024 >= 512;
        const std::uint64_t left = 512 - i % 512;
        const std::uint64_t k =
            runs ? std::max<std::uint64_t>(1, s->run(left, write)) : 1;
        for (std::uint64_t j = 0; j < k; j++)
            buf[j] = static_cast<std::int32_t>(i + j);
        if (write)
            k == 1 ? s->write(buf) : s->writeRun(buf, k);
        else
            k == 1 ? s->read(buf) : s->readRun(buf, k);
        i += k;
    }
    return backend;
}

TEST(Fastswap, WriteRunNeedsADirtyPage)
{
    std::array<std::uint64_t, 3> at{};
    std::array<std::uint64_t, 3> atRef{};
    const auto runs = readThenWrite(true, at);
    const auto single = readThenWrite(false, atRef);
    ASSERT_EQ(at, atRef);
    expectSameBackendRun(*runs, *single, at);
    EXPECT_GT(runs->stats().get("fastswap.pageouts"), 10u);
}

/**
 * Copy through the plane's page windows (windowed) or through its
 * read/write, charging seqAccessCycles per element
 * either way, with one evacuation halfway.
 */
void
runtimeCopy(FastswapRuntime &fs, bool windowed)
{
    const auto at = staggeredArrays(
        [&fs](std::uint64_t bytes) { return fs.allocate(bytes); });
    for (std::uint64_t i = 0; i < kStreamElems; i++) {
        const auto value = static_cast<std::int32_t>(i * 7);
        fs.rawWrite(at[0] + 4 * i, &value, 4);
    }
    fs.plane().evacuate();
    HostWindow src;
    HostWindow dst;
    const std::uint64_t seq = fs.costs().seqAccessCycles;
    for (std::uint64_t i = 0; i < kStreamElems; i++) {
        // Mid-stream, every page goes remote under both windows: the
        // map epoch's bump must send the next access back through the
        // fault path.
        if (i == kStreamElems / 2)
            fs.plane().evacuate();
        std::int32_t value = 0;
        fs.clock().advance(seq);
        if (windowed)
            fs.plane().readVia(src, at[0] + 4 * i, &value, 4);
        else
            fs.plane().read(at[0] + 4 * i, &value, 4);
        fs.clock().advance(seq);
        if (windowed)
            fs.plane().writeVia(dst, at[1] + 4 * i, &value, 4);
        else
            fs.plane().write(at[1] + 4 * i, &value, 4);
    }
}

void
expectSameRun(FastswapRuntime &a, FastswapRuntime &b)
{
    EXPECT_EQ(a.clock().now(), b.clock().now());
    EXPECT_EQ(a.plane().stats().majorFaults, b.plane().stats().majorFaults);
    EXPECT_EQ(a.plane().stats().minorFaults, b.plane().stats().minorFaults);
    EXPECT_EQ(a.plane().stats().reclaims, b.plane().stats().reclaims);
    EXPECT_EQ(a.plane().stats().pageouts, b.plane().stats().pageouts);
    EXPECT_EQ(a.plane().stats().readaheads, b.plane().stats().readaheads);
    const NetStats na = a.netStats();
    const NetStats nb = b.netStats();
    EXPECT_EQ(na.bytesFetched, nb.bytesFetched);
    EXPECT_EQ(na.bytesWrittenBack, nb.bytesWrittenBack);
    EXPECT_EQ(na.fetchMessages, nb.fetchMessages);
    EXPECT_EQ(na.writebackMessages, nb.writebackMessages);
    EXPECT_EQ(na.fetchPayloads, nb.fetchPayloads);
    EXPECT_EQ(na.writebackPayloads, nb.writebackPayloads);
    EXPECT_EQ(a.runtime().heapChecksum(), b.runtime().heapChecksum());
}

TEST(Fastswap, RuntimeWindowsMatchSingleAccesses)
{
    // Readahead on: windows also fill after minor faults.
    const RuntimeConfig cfg = smallConfig(5, /*readahead=*/true);
    FastswapRuntime windowed(cfg, CostParams{});
    FastswapRuntime single(cfg, CostParams{});
    runtimeCopy(windowed, true);
    runtimeCopy(single, false);
    expectSameRun(windowed, single);
    EXPECT_GT(windowed.plane().stats().minorFaults, 0u);
    EXPECT_GT(windowed.plane().stats().pageouts, 0u);
}

/**
 * On a 2-shard k=1 tier each page is one stripe on one shard, so a page
 * window is that shard's store; a range across two pages spans two
 * shards and gets none. The windowed run matches the element-wise one.
 */
TEST(Fastswap, ClusterTierWindowsMatchElementWise)
{
    RuntimeConfig cfg = smallConfig(5);
    cfg.cluster.shardCount = 2;
    FastswapRuntime windowed(cfg, CostParams{});
    FastswapRuntime single(cfg, CostParams{});
    RemoteBackend &tier = windowed.runtime().backend();
    EXPECT_EQ(tier.rawSpan(4096, 4096), tier.node(1).span(4096, 4096));
    EXPECT_EQ(tier.rawSpan(0, 8192), nullptr);
    runtimeCopy(windowed, true);
    runtimeCopy(single, false);
    expectSameRun(windowed, single);
    EXPECT_GT(windowed.plane().stats().reclaims, 0u);
}

/** Runs the same faulting read/write mix on a recorder-attached runtime. */
void
faultingMix(FastswapRuntime &fs)
{
    const std::uint64_t heap = fs.allocate(96 * 4096);
    for (std::uint64_t i = 0; i < 96; i++)
        fs.rawWrite(heap + i * 4096, &i, sizeof(i));
    for (std::uint64_t pass = 0; pass < 3; pass++) {
        for (std::uint64_t i = 0; i < 96; i += 1 + pass) {
            const std::uint64_t v =
                fs.plane().load<std::uint64_t>(heap + i * 4096);
            fs.plane().store<std::uint64_t>(heap + i * 4096 + 8, v + pass);
        }
    }
    // Stream-driven: two page windows walking the heap in step, one
    // reading and one writing half the heap further on.
    HostWindow src;
    HostWindow dst;
    for (std::uint64_t at = 0; at < 48 * 4096; at += 8) {
        std::uint64_t v = 0;
        fs.plane().readVia(src, heap + at, &v, sizeof(v));
        v = v * 3 + at;
        fs.plane().writeVia(dst, heap + 48 * 4096 + at, &v, sizeof(v));
    }
}

TEST(Fastswap, RecordedRunReplaysBitExact)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "tfm_fastswap_replay.tfr")
            .string();
    std::uint64_t cycles = 0;
    std::uint64_t heap = 0;
    StatSet recorded;
    std::string error;
    {
        FlightRecorder recorder;
        RuntimeConfig cfg = smallConfig(8, /*readahead=*/true);
        cfg.recorder = &recorder;
        FastswapRuntime fs(cfg, CostParams{});
        faultingMix(fs);
        cycles = fs.clock().now();
        heap = fs.runtime().heapChecksum();
        fs.exportStats(recorded);
        EXPECT_GT(recorder.size(), 0u);
        ASSERT_TRUE(recorder.save(path, error)) << error;
    }
    auto replayer = FlightRecorder::loadForReplay(path, error);
    ASSERT_NE(replayer, nullptr) << error;
    RuntimeConfig cfg = smallConfig(8, /*readahead=*/true);
    cfg.recorder = replayer.get();
    FastswapRuntime fs(cfg, CostParams{});
    faultingMix(fs);
    EXPECT_NO_THROW(replayer->finishReplay());
    EXPECT_EQ(fs.clock().now(), cycles);
    EXPECT_EQ(fs.runtime().heapChecksum(), heap);
    StatSet replayed;
    fs.exportStats(replayed);
    for (const char *name :
         {"fastswap.major_faults", "fastswap.minor_faults",
          "fastswap.pageouts", "net.bytes_fetched",
          "net.bytes_written_back"}) {
        EXPECT_EQ(replayed.get(name), recorded.get(name)) << name;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace tfm
