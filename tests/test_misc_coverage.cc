/**
 * @file
 * Miscellaneous coverage: corners of the substrate APIs that the main
 * suites exercise only incidentally.
 */

#include <gtest/gtest.h>

#include "fastswap/fastswap_runtime.hh"
#include "net/network_model.hh"
#include "sim/usr_dist.hh"
#include "tfm/chunk.hh"
#include "workloads/backend_config.hh"
#include "workloads/stream.hh"

namespace tfm
{
namespace
{

TEST(NetworkModelMisc, OutboundLinkSerializesWritebacks)
{
    CycleClock clock;
    CostParams costs;
    costs.netBytesPerCycle = 1.0;
    NetworkModel net(clock, costs);
    net.writebackBatch(1000, 1);
    const std::uint64_t first_free = net.outboundFreeAt();
    net.writebackBatch(1000, 1);
    EXPECT_GE(net.outboundFreeAt(), first_free + 1000);
    EXPECT_EQ(net.stats().writebackMessages, 2u);
}

TEST(NetworkModelMisc, ZeroByteFetchStillPaysLatency)
{
    CycleClock clock;
    const CostParams costs;
    NetworkModel net(clock, costs);
    net.fetchSync(0);
    EXPECT_GE(clock.now(), costs.netLatencyCycles);
}

TEST(UsrDistMisc, DeterministicForSameSeed)
{
    UsrSizeDist a(9), b(9);
    for (int i = 0; i < 100; i++) {
        const KvSize sa = a.next();
        const KvSize sb = b.next();
        EXPECT_EQ(sa.keyBytes, sb.keyBytes);
        EXPECT_EQ(sa.valueBytes, sb.valueBytes);
    }
}

TEST(FastswapMisc, EvacuateAllFlushesReadaheadState)
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 1 << 20;
    cfg.localMemBytes = 64 << 10;
    cfg.pagedReadaheadPages = 8;
    FastswapRuntime fs(cfg, CostParams{});
    const std::uint64_t heap = fs.allocate(512 << 10);
    fs.plane().store<std::uint64_t>(heap, 99); // major fault + readahead
    fs.plane().evacuate();
    // Inflight readahead pages were dropped cleanly; data survives.
    EXPECT_EQ(fs.plane().load<std::uint64_t>(heap), 99u);
}

TEST(ChunkCursorMisc, ElementSizeMustDivideObjectSize)
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 1 << 20;
    cfg.localMemBytes = 64 << 10;
    cfg.objectSizeBytes = 64;
    TfmRuntime rt(cfg, CostParams{});
    const std::uint64_t addr = rt.tfmMalloc(256);
    EXPECT_DEATH(ChunkCursorRaw(rt, addr, 24, false),
                 "divide the object size");
}

TEST(BackendMisc, DeallocWorksOnEveryBackend)
{
    for (const SystemKind kind : {SystemKind::Local, SystemKind::TrackFm,
                                  SystemKind::Fastswap, SystemKind::Aifm}) {
        BackendConfig cfg;
        cfg.kind = kind;
        cfg.farHeapBytes = 1 << 20;
        cfg.localMemBytes = 256 << 10;
        auto backend = makeBackend(cfg, CostParams{});
        const std::uint64_t a = backend->alloc(1024);
        backend->dealloc(a);
        const std::uint64_t b = backend->alloc(1024);
        EXPECT_EQ(a, b) << systemName(kind) << " did not recycle";
    }
}

TEST(BackendMisc, GuardEventsAreTrackFmOnly)
{
    for (const SystemKind kind : {SystemKind::Local, SystemKind::Fastswap,
                                  SystemKind::Aifm}) {
        BackendConfig cfg;
        cfg.kind = kind;
        cfg.farHeapBytes = 1 << 20;
        cfg.localMemBytes = 64 << 10;
        auto backend = makeBackend(cfg, CostParams{});
        const std::uint64_t addr = backend->alloc(4096);
        backend->readT<std::uint64_t>(addr, AccessHint::Random);
        EXPECT_EQ(backend->snapshot().guardEvents, 0u) << systemName(kind);
    }
}

TEST(StreamWorkloadMisc, TriadValuesVerify)
{
    BackendConfig cfg;
    cfg.kind = SystemKind::Local;
    cfg.farHeapBytes = 4 << 20;
    cfg.localMemBytes = 4 << 20;
    auto backend = makeBackend(cfg, CostParams{});
    StreamWorkload stream(*backend, 1000, 3);
    stream.runCopy(); // b = a
    const StreamResult triad = stream.runTriad(1, 3);
    // c[last] = a[999] + 3 * b[999] = 4 * (999 % 1000 - 500).
    EXPECT_EQ(triad.checksum, 4 * (999 - 500));
}

TEST(StreamWorkloadMisc, FourByteElementsExpectedSumMatches)
{
    BackendConfig cfg;
    cfg.kind = SystemKind::TrackFm;
    cfg.farHeapBytes = 4 << 20;
    cfg.localMemBytes = 1 << 20;
    auto backend = makeBackend(cfg, CostParams{});
    StreamWorkload stream(*backend, 30000, 2, 4);
    EXPECT_EQ(stream.runSum().checksum, stream.expectedSum());
    EXPECT_EQ(stream.elementBytes(), 4u);
    EXPECT_EQ(stream.workingSetBytes(), 2u * 30000 * 4);
}

TEST(RegionAllocatorMisc, ZeroByteRequestYieldsDistinctBlocks)
{
    RegionAllocator alloc(1 << 20, 4096);
    const std::uint64_t a = alloc.allocate(0);
    const std::uint64_t b = alloc.allocate(0);
    EXPECT_NE(a, b);
    EXPECT_GE(alloc.sizeOf(a), 1u);
}

TEST(CycleClockMisc, SecondsConversionRoundTrips)
{
    // 1 ms at 2.4 GHz.
    EXPECT_DOUBLE_EQ(CycleClock::toSeconds(2'400'000, 2.4), 1e-3);
}

} // namespace
} // namespace tfm
