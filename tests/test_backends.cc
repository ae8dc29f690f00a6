/**
 * @file
 * Integration tests for the MemBackend layer across all four systems,
 * plus the STREAM workload's correctness on each.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "sim/rng.hh"
#include "stream_harness.hh"
#include "workloads/backend_config.hh"
#include "workloads/stream.hh"

namespace tfm
{
namespace
{

BackendConfig
smallConfig(SystemKind kind)
{
    BackendConfig cfg;
    cfg.kind = kind;
    cfg.farHeapBytes = 8 << 20;
    cfg.localMemBytes = 1 << 20;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = true;
    return cfg;
}

class AllBackends : public ::testing::TestWithParam<SystemKind>
{
};

INSTANTIATE_TEST_SUITE_P(
    Systems, AllBackends,
    ::testing::Values(SystemKind::Local, SystemKind::TrackFm,
                      SystemKind::Fastswap, SystemKind::Aifm),
    [](const ::testing::TestParamInfo<SystemKind> &info) {
        return systemName(info.param);
    });

TEST_P(AllBackends, ReadWriteRoundTrip)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t addr = backend->alloc(64 * 1024);
    backend->writeT<std::uint64_t>(addr + 128, 0xabcdefull,
                                   AccessHint::Random);
    EXPECT_EQ(backend->readT<std::uint64_t>(addr + 128, AccessHint::Random),
              0xabcdefull);
}

TEST_P(AllBackends, InitIsUnmetered)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t addr = backend->alloc(4096);
    const std::uint64_t before = backend->cycles();
    backend->initT<std::uint64_t>(addr, 42);
    EXPECT_EQ(backend->cycles(), before);
    EXPECT_EQ(backend->peekT<std::uint64_t>(addr), 42u);
}

TEST_P(AllBackends, AllocZeroTakesTheBlockOfAllocFour)
{
    // A serving hashmap tenant allocates its empty trace with alloc(0)
    // where it once stored one key with alloc(4): the block, the next
    // block and the clock must not tell the two apart.
    auto four = makeBackend(smallConfig(GetParam()), CostParams{});
    auto zero = makeBackend(smallConfig(GetParam()), CostParams{});
    EXPECT_EQ(four->alloc(256 << 10), zero->alloc(256 << 10));
    EXPECT_EQ(four->alloc(4), zero->alloc(0));
    EXPECT_EQ(four->alloc(24), zero->alloc(24));
    EXPECT_EQ(four->alloc(4096), zero->alloc(4096));
    EXPECT_EQ(four->cycles(), zero->cycles());
}

TEST_P(AllBackends, InitWriterStagesExactRuns)
{
    // Two interleaved regions whose runs are not multiples of the
    // buffer: 3,075 4-byte words (a 12-byte tail past three full
    // runs) and 1,001 12-byte records (341 to a run, so runs stop
    // 4 bytes short of the buffer).
    struct Rec
    {
        std::uint32_t a, b, c;
    };
    constexpr std::uint64_t kWords = 3075;
    constexpr std::uint64_t kRecs = 1001;
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t words = backend->alloc(kWords * 4);
    const std::uint64_t recs = backend->alloc(kRecs * sizeof(Rec));
    const std::uint64_t before = backend->cycles();
    {
        InitWriter w(*backend), r(*backend);
        for (std::uint64_t i = 0; i < kWords; i++) {
            w.put(words + i * 4, static_cast<std::uint32_t>(i * 7 + 1));
            if (i < kRecs) {
                const auto v = static_cast<std::uint32_t>(i);
                r.put(recs + i * sizeof(Rec), Rec{v, v + 1, v + 2});
            }
        }
    } // both tails flush on destruction
    EXPECT_EQ(backend->cycles(), before);
    for (std::uint64_t i = 0; i < kWords; i++) {
        ASSERT_EQ(backend->peekT<std::uint32_t>(words + i * 4), i * 7 + 1)
            << "word " << i;
    }
    for (std::uint64_t i = 0; i < kRecs; i++) {
        const Rec got = backend->peekT<Rec>(recs + i * sizeof(Rec));
        ASSERT_EQ(got.a, i) << "record " << i;
        ASSERT_EQ(got.c, i + 2) << "record " << i;
    }
}

TEST_P(AllBackends, InitWriterFlushesBeforeReadBack)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t a = backend->alloc(8192);
    InitWriter w(*backend);
    w.put<std::uint64_t>(a, 11);
    w.put<std::uint64_t>(a + 8, 12);
    // Staged, not yet written: a read-back needs the flush first.
    EXPECT_EQ(backend->peekT<std::uint64_t>(a + 8), 0u);
    w.flush();
    EXPECT_EQ(backend->peekT<std::uint64_t>(a + 8), 12u);
    // A put that does not continue the run flushes it.
    w.put<std::uint64_t>(a + 4096, 13);
    w.put<std::uint64_t>(a + 64, 14);
    EXPECT_EQ(backend->peekT<std::uint64_t>(a + 4096), 13u);
    w.flush();
    EXPECT_EQ(backend->peekT<std::uint64_t>(a + 64), 14u);
    EXPECT_EQ(backend->peekT<std::uint64_t>(a), 11u);
}

TEST_P(AllBackends, StreamWritesThenReads)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t n = 10000;
    const std::uint64_t addr = backend->alloc(n * 8);
    {
        auto out = backend->stream(addr, 8, n, StreamMode::Write);
        for (std::uint64_t i = 0; i < n; i++) {
            const std::int64_t v = static_cast<std::int64_t>(i) * 3;
            out->write(&v);
        }
    }
    backend->dropCaches();
    {
        auto in = backend->stream(addr, 8, n, StreamMode::Read);
        for (std::uint64_t i = 0; i < n; i++) {
            std::int64_t v;
            in->read(&v);
            ASSERT_EQ(v, static_cast<std::int64_t>(i) * 3);
        }
    }
}

TEST_P(AllBackends, CyclesAdvanceWithWork)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t addr = backend->alloc(4096);
    const std::uint64_t before = backend->cycles();
    backend->readT<std::uint64_t>(addr, AccessHint::Random);
    EXPECT_GT(backend->cycles(), before);
}

TEST_P(AllBackends, ComputeChargesExactly)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t before = backend->cycles();
    backend->compute(12345);
    EXPECT_EQ(backend->cycles() - before, 12345u);
}

TEST_P(AllBackends, SnapshotDeltasAreWindowed)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t addr = backend->alloc(4096);
    backend->readT<std::uint64_t>(addr, AccessHint::Random);
    const BackendSnapshot a = backend->snapshot();
    backend->readT<std::uint64_t>(addr, AccessHint::Random);
    const BackendSnapshot b = backend->snapshot();
    const BackendSnapshot d = deltaSince(a, b);
    EXPECT_GT(d.cycles, 0u);
    EXPECT_LE(d.cycles, b.cycles);
}

TEST(BackendCosts, FarBackendsChargeMoreThanLocal)
{
    const std::uint64_t n = 20000;
    std::uint64_t local_cycles = 0;
    for (const SystemKind kind :
         {SystemKind::Local, SystemKind::TrackFm, SystemKind::Fastswap,
          SystemKind::Aifm}) {
        auto cfg = smallConfig(kind);
        cfg.localMemBytes = 256 << 10; // pressure: 1/8 of heap... approx
        auto backend = makeBackend(cfg, CostParams{});
        StreamWorkload stream(*backend, n);
        const StreamResult r = stream.runSum();
        EXPECT_EQ(r.checksum, stream.expectedSum())
            << systemName(kind) << " computed a wrong sum";
        if (kind == SystemKind::Local)
            local_cycles = r.delta.cycles;
        else
            EXPECT_GT(r.delta.cycles, local_cycles) << systemName(kind);
    }
    EXPECT_GT(local_cycles, 0u);
}

TEST(BackendCosts, TrackFmTransfersLessThanFastswapOnSmallObjects)
{
    // Random 8-byte reads over a heap: Fastswap moves 4 KB per miss,
    // TrackFM with 256 B objects moves 16x less (Fig. 13's mechanism).
    const std::uint64_t heap = 4 << 20;
    auto tfm_cfg = smallConfig(SystemKind::TrackFm);
    tfm_cfg.objectSizeBytes = 256;
    tfm_cfg.localMemBytes = 256 << 10;
    tfm_cfg.prefetchEnabled = false;
    auto fsw_cfg = smallConfig(SystemKind::Fastswap);
    fsw_cfg.localMemBytes = 256 << 10;
    fsw_cfg.prefetchEnabled = false;

    auto run = [&](MemBackend &backend) {
        const std::uint64_t addr = backend.alloc(heap / 2);
        Rng rng(5);
        for (int i = 0; i < 20000; i++) {
            const std::uint64_t at = (rng.below(heap / 2 / 8)) * 8;
            backend.readT<std::uint64_t>(addr + at, AccessHint::Random);
        }
        return backend.snapshot().bytesFetched;
    };

    auto tfm_backend = makeBackend(tfm_cfg, CostParams{});
    auto fsw_backend = makeBackend(fsw_cfg, CostParams{});
    const std::uint64_t tfm_bytes = run(*tfm_backend);
    const std::uint64_t fsw_bytes = run(*fsw_backend);
    EXPECT_LT(tfm_bytes * 4, fsw_bytes);
}

TEST(StreamWorkload, CopyVerifiesOnAllBackends)
{
    for (const SystemKind kind :
         {SystemKind::Local, SystemKind::TrackFm, SystemKind::Fastswap,
          SystemKind::Aifm}) {
        auto backend = makeBackend(smallConfig(kind), CostParams{});
        StreamWorkload stream(*backend, 50000);
        stream.runCopy();
        EXPECT_TRUE(stream.verifyCopy()) << systemName(kind);
    }
}

TEST(StreamWorkload, TriadRuns)
{
    auto backend = makeBackend(smallConfig(SystemKind::TrackFm),
                               CostParams{});
    StreamWorkload stream(*backend, 20000, 3);
    const StreamResult r = stream.runTriad();
    EXPECT_GT(r.delta.cycles, 0u);
    EXPECT_GT(r.bytesTouched, 0u);
}

TEST(StreamWorkload, ChunkingReducesGuardsOnTrackFm)
{
    auto naive_cfg = smallConfig(SystemKind::TrackFm);
    naive_cfg.chunkPolicy = ChunkPolicy::None;
    auto chunk_cfg = smallConfig(SystemKind::TrackFm);
    chunk_cfg.chunkPolicy = ChunkPolicy::All;

    const std::uint64_t n = 100000;
    auto naive_backend = makeBackend(naive_cfg, CostParams{});
    auto chunk_backend = makeBackend(chunk_cfg, CostParams{});
    StreamWorkload naive(*naive_backend, n);
    StreamWorkload chunked(*chunk_backend, n);

    const StreamResult rn = naive.runSum();
    const StreamResult rc = chunked.runSum();
    EXPECT_EQ(rn.checksum, rc.checksum);
    // Naive: one guard per element. Chunked: none (boundary checks and
    // locality guards instead).
    EXPECT_GE(rn.delta.guardEvents, n);
    EXPECT_LT(rc.delta.guardEvents, n / 100);
    // And chunking is faster at this density (1024 > break-even 730).
    EXPECT_LT(rc.delta.cycles, rn.delta.cycles);
}

TEST(StreamWorkload, PrefetchSpeedsUpColdSweep)
{
    auto on_cfg = smallConfig(SystemKind::TrackFm);
    on_cfg.localMemBytes = 512 << 10; // heavy pressure: 1/3 of data
    auto off_cfg = on_cfg;
    off_cfg.prefetchEnabled = false;

    const std::uint64_t n = 100000; // 800 KB per array
    auto on_backend = makeBackend(on_cfg, CostParams{});
    auto off_backend = makeBackend(off_cfg, CostParams{});
    StreamWorkload with_prefetch(*on_backend, n);
    StreamWorkload without_prefetch(*off_backend, n);

    const StreamResult r_on = with_prefetch.runSum();
    const StreamResult r_off = without_prefetch.runSum();
    EXPECT_EQ(r_on.checksum, r_off.checksum);
    EXPECT_LT(r_on.delta.cycles, r_off.delta.cycles);
}

/**
 * A stream's run is what its window still covers: local memory without
 * bound, the rest of a chunked cursor's pinned object, the rest of a
 * Fastswap page once mapped (and, for writes, dirty), and nothing for
 * guard-per-element or AIFM streams.
 */
TEST(StreamRuns, WindowsReportWhatTheyCover)
{
    struct Case
    {
        SystemKind kind;
        ChunkPolicy chunking;
        std::uint64_t beforeRead;
        std::uint64_t afterRead;
        std::uint64_t writeAfterRead;
    } cases[] = {
        {SystemKind::Local, ChunkPolicy::All, 4096, 4096, 4096},
        {SystemKind::TrackFm, ChunkPolicy::All, 1024, 1023, 1023},
        {SystemKind::TrackFm, ChunkPolicy::None, 0, 0, 0},
        {SystemKind::Fastswap, ChunkPolicy::All, 0, 1023, 0},
        {SystemKind::Aifm, ChunkPolicy::All, 0, 0, 0},
    };
    for (const Case &c : cases) {
        BackendConfig cfg = smallConfig(c.kind);
        cfg.chunkPolicy = c.chunking;
        auto backend = makeBackend(cfg, CostParams{});
        const std::uint64_t addr = backend->alloc(2 * 4096);
        backend->dropCaches();
        auto s = backend->stream(addr, 4, 2048, StreamMode::Read);
        const char *name = systemName(c.kind);
        EXPECT_EQ(s->run(4096, false), c.beforeRead) << name;
        std::int32_t value = 0;
        s->read(&value);
        EXPECT_EQ(s->run(4096, false), c.afterRead) << name;
        EXPECT_EQ(s->run(4096, true), c.writeAfterRead) << name;
        EXPECT_EQ(s->run(7, false), std::min<std::uint64_t>(7, c.afterRead))
            << name;
    }
    // A Fastswap write run needs the page dirty: the first write fills
    // a writable window.
    auto backend = makeBackend(smallConfig(SystemKind::Fastswap),
                               CostParams{});
    const std::uint64_t addr = backend->alloc(2 * 4096);
    backend->dropCaches();
    auto s = backend->stream(addr, 4, 2048, StreamMode::Write);
    const std::int32_t value = 1;
    s->write(&value);
    EXPECT_EQ(s->run(4096, true), 1023u);
}

/**
 * TrackFM's chunked streams run the pinned object's remaining elements
 * at once, charging each its base cost and boundary check, so runs must
 * match the same streams driven one element at a time: with eight
 * frames, prefetching, and three staggered streams, refills, evictions
 * and prefetch arrivals all land at the same element and clock.
 */
TEST(StreamRuns, TrackFmChunkedMatchesElementWise)
{
    BackendConfig cfg = smallConfig(SystemKind::TrackFm);
    cfg.localMemBytes = 8 * 4096;
    cfg.chunkPolicy = ChunkPolicy::All;
    cfg.prefetchDepth = 4;
    const StatSet stats =
        expectSameCopyAndTriad(cfg, Drive::Runs, Drive::Stream);
    EXPECT_EQ(stats.get("guard.boundary_checks"), 5 * kStreamElems);
    EXPECT_GT(stats.get("runtime.evictions"), 3 * 20u);
}

/** Local streams run without bound and charge the same per element. */
TEST(StreamRuns, LocalMatchesSingleAccesses)
{
    expectSameCopyAndTriad(smallConfig(SystemKind::Local), Drive::Runs,
                           Drive::Single);
}

TEST(BackendFactory, NamesAreStable)
{
    EXPECT_STREQ(systemName(SystemKind::Local), "Local");
    EXPECT_STREQ(systemName(SystemKind::TrackFm), "TrackFM");
    EXPECT_STREQ(systemName(SystemKind::Fastswap), "Fastswap");
    EXPECT_STREQ(systemName(SystemKind::Aifm), "AIFM");
}

} // namespace
} // namespace tfm
