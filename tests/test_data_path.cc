/**
 * @file
 * Pins the deterministic data path: one seeded TfmRuntime trace that
 * runs guarded reads and writes (inline-cache, fast and slow paths),
 * dirty evictions into the writeback buffer, resurrection from it,
 * joins of in-flight prefetches, and localityGuard pins. The final
 * clock, every RuntimeStats, GuardStats and NetStats field, and the
 * heap checksum must equal the values pinned below, at one and four
 * cache shards and with the writeback buffer on (8) and off (1). Any
 * refactor of localize / take-frame / evict / writeback that moves one
 * cycle or one counter fails here with the field named.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tfm/tfm_runtime.hh"

namespace tfm
{
namespace
{

/** splitmix64: the trace's only randomness. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

using Cells = std::vector<std::pair<std::string, std::uint64_t>>;

/** Run the seeded trace and return every pinned cell. */
Cells
runTrace(std::uint32_t shards, std::uint32_t wb_batch)
{
    RuntimeConfig rc;
    rc.farHeapBytes = 1ull << 20;
    rc.localMemBytes = 16ull << 10; // 256 frames of 64 B
    rc.objectSizeBytes = 64;
    rc.prefetchEnabled = true;
    rc.prefetchDepth = 4;
    rc.writebackBatchMax = wb_batch;
    rc.cacheShards = shards;
    TfmRuntime rt(rc, CostParams{});

    constexpr std::uint64_t kObjs = 2048; // 8x the local frames
    const std::uint64_t base = rt.tfmCalloc(kObjs, 64);
    for (std::uint64_t i = 0; i < kObjs; i++) {
        const std::uint64_t v = mix64(i);
        rt.rawWrite(base + i * 64, &v, sizeof(v));
    }

    std::uint64_t rng = 0x7e57;
    const auto next = [&] { return rng = mix64(rng); };
    // A hot set a little larger than local memory keeps dirty objects
    // coming back while their payload is still parked.
    const auto pick = [&] {
        const std::uint64_t r = next();
        return (r & 3) ? (r >> 8) % 320 : (r >> 8) % kObjs;
    };
    std::uint64_t sum = 0;
    for (int step = 0; step < 6000; step++) {
        const std::uint64_t r = next();
        const std::uint64_t obj = pick();
        const std::uint64_t addr = base + obj * 64 + (r >> 32) % 7 * 8;
        switch (r % 8) {
        case 0:
        case 1:
        case 2: // guarded read; now and then of a host (untagged) word
            sum += rt.load<std::uint64_t>(addr);
            if ((r & 0xf00) == 0) {
                sum += rt.load<std::uint64_t>(
                    reinterpret_cast<std::uint64_t>(&rng));
            }
            break;
        case 3:
        case 4: // guarded write
            rt.store<std::uint64_t>(addr, sum + r);
            break;
        case 5: { // unit-stride scan: trains the prefetcher, then joins
                  // its in-flight fetches
            const std::uint64_t start = (r >> 16) % (kObjs - 16);
            for (std::uint64_t k = 0; k < 12; k++)
                sum += rt.load<std::uint64_t>(base + (start + k) * 64);
            break;
        }
        case 6: { // loop chunk: locality guards pin one object at a time
            const std::uint64_t start = (r >> 16) % (kObjs - 8);
            HostWindow window;
            for (std::uint64_t k = 0; k < 4; k++) {
                const std::uint64_t a = base + (start + k) * 64;
                std::byte *p = rt.localityGuard(a, window, k & 1);
                sum += static_cast<std::uint64_t>(p[0]);
                rt.boundaryCheck();
            }
            rt.endChunk(window);
            break;
        }
        default: { // straddling access, a hoisted guard's epoch check,
                   // then a compiler prefetch
            const std::uint64_t armed = rt.runtime().evictionEpoch();
            std::uint64_t pair[2] = {sum, r};
            rt.writeGuarded(addr + 48, pair, sizeof(pair));
            rt.readGuarded(addr + 40, pair, sizeof(pair));
            sum += pair[0] ^ pair[1];
            sum += rt.revalidate(addr, armed) ? 1 : 0;
            rt.prefetchAhead(addr, 1, 2);
            break;
        }
        }
    }

    const RuntimeStats s = rt.runtime().mergedStats();
    const GuardStats g = rt.mergedGuardStats();
    const NetStats n = rt.runtime().backend().netStats();
    return {
        {"clock", rt.clock().now()},
        {"sum", sum},
        {"heap_checksum", rt.runtime().heapChecksum()},
        {"pending_writebacks", rt.runtime().pendingWritebacks()},
        {"eviction_epoch", rt.runtime().evictionEpoch()},
        {"rt.demandFetches", s.demandFetches},
        {"rt.prefetchIssued", s.prefetchIssued},
        {"rt.prefetchHits", s.prefetchHits},
        {"rt.prefetchLateHits", s.prefetchLateHits},
        {"rt.evictions", s.evictions},
        {"rt.dirtyWritebacks", s.dirtyWritebacks},
        {"rt.localizeCalls", s.localizeCalls},
        {"rt.prefetchBatches", s.prefetchBatches},
        {"rt.inflightJoins", s.inflightJoins},
        {"rt.writebackFlushes", s.writebackFlushes},
        {"rt.writebackBufferHits", s.writebackBufferHits},
        {"g.fastReads", g.fastReads},
        {"g.fastWrites", g.fastWrites},
        {"g.cacheHitReads", g.cacheHitReads},
        {"g.cacheHitWrites", g.cacheHitWrites},
        {"g.slowLocalReads", g.slowLocalReads},
        {"g.slowLocalWrites", g.slowLocalWrites},
        {"g.slowRemoteReads", g.slowRemoteReads},
        {"g.slowRemoteWrites", g.slowRemoteWrites},
        {"g.custodyRejects", g.custodyRejects},
        {"g.boundaryChecks", g.boundaryChecks},
        {"g.localityGuards", g.localityGuards},
        {"g.localityRemotes", g.localityRemotes},
        {"g.prefetchCalls", g.prefetchCalls},
        {"g.revalidations", g.revalidations},
        {"g.revalidationHits", g.revalidationHits},
        {"g.revalidationMisses", g.revalidationMisses},
        {"net.bytesFetched", n.bytesFetched},
        {"net.bytesWrittenBack", n.bytesWrittenBack},
        {"net.fetchMessages", n.fetchMessages},
        {"net.writebackMessages", n.writebackMessages},
        {"net.fetchPayloads", n.fetchPayloads},
        {"net.writebackPayloads", n.writebackPayloads},
        {"net.fetchBatches", n.fetchBatches},
        {"net.writebackBatches", n.writebackBatches},
        {"net.maxFetchBatch", n.maxFetchBatch},
        {"net.maxWritebackBatch", n.maxWritebackBatch},
    };
}

struct Pinned
{
    const char *name;
    std::uint64_t s1wb8, s1wb1, s4wb8, s4wb1;
};

// clang-format off
const Pinned kPinned[] = {
    {"clock", 389058719ull, 390758729ull, 389386656ull, 391077261ull},
    {"sum", 170467495643391055ull, 170467495643391055ull, 116564900161719311ull, 116564900161719311ull},
    {"heap_checksum", 11783423475774687415ull, 11783423475774687415ull, 1117625491648165676ull, 1117625491648165676ull},
    {"pending_writebacks", 3ull, 0ull, 0ull, 0ull},
    {"eviction_epoch", 18068ull, 18070ull, 18040ull, 18036ull},
    {"rt.demandFetches", 10050ull, 10056ull, 10069ull, 10079ull},
    {"rt.prefetchIssued", 8256ull, 8270ull, 8213ull, 8213ull},
    {"rt.prefetchHits", 4839ull, 4850ull, 4826ull, 4823ull},
    {"rt.prefetchLateHits", 1891ull, 1893ull, 1879ull, 1878ull},
    {"rt.evictions", 18068ull, 18070ull, 18040ull, 18036ull},
    {"rt.dirtyWritebacks", 3648ull, 3636ull, 3647ull, 3643ull},
    {"rt.localizeCalls", 15192ull, 15191ull, 15190ull, 15185ull},
    {"rt.prefetchBatches", 2026ull, 2028ull, 2020ull, 2018ull},
    {"rt.inflightJoins", 4839ull, 4850ull, 4826ull, 4823ull},
    {"rt.writebackFlushes", 1029ull, 0ull, 1135ull, 0ull},
    {"rt.writebackBufferHits", 18ull, 0ull, 14ull, 0ull},
    {"g.fastReads", 1988ull, 1989ull, 1990ull, 1995ull},
    {"g.fastWrites", 401ull, 401ull, 401ull, 401ull},
    {"g.cacheHitReads", 552ull, 552ull, 552ull, 552ull},
    {"g.cacheHitWrites", 1ull, 1ull, 1ull, 1ull},
    {"g.slowLocalReads", 4106ull, 4105ull, 4095ull, 4083ull},
    {"g.slowLocalWrites", 78ull, 73ull, 80ull, 75ull},
    {"g.slowRemoteReads", 6085ull, 6085ull, 6094ull, 6101ull},
    {"g.slowRemoteWrites", 1879ull, 1884ull, 1877ull, 1882ull},
    {"g.custodyRejects", 127ull, 127ull, 127ull, 127ull},
    {"g.boundaryChecks", 3044ull, 3044ull, 3044ull, 3044ull},
    {"g.localityGuards", 3044ull, 3044ull, 3044ull, 3044ull},
    {"g.localityRemotes", 2086ull, 2087ull, 2098ull, 2096ull},
    {"g.prefetchCalls", 766ull, 766ull, 766ull, 766ull},
    {"g.revalidations", 766ull, 766ull, 766ull, 766ull},
    {"g.revalidationHits", 157ull, 157ull, 155ull, 155ull},
    {"g.revalidationMisses", 609ull, 609ull, 611ull, 611ull},
    {"net.bytesFetched", 1171584ull, 1172864ull, 1170048ull, 1170688ull},
    {"net.bytesWrittenBack", 232128ull, 232704ull, 232512ull, 233152ull},
    {"net.fetchMessages", 12632ull, 12639ull, 12643ull, 12654ull},
    {"net.writebackMessages", 1029ull, 3636ull, 1135ull, 3643ull},
    {"net.fetchPayloads", 18306ull, 18326ull, 18282ull, 18292ull},
    {"net.writebackPayloads", 3627ull, 3636ull, 3633ull, 3643ull},
    {"net.fetchBatches", 2026ull, 2028ull, 2020ull, 2018ull},
    {"net.writebackBatches", 879ull, 0ull, 1000ull, 0ull},
    {"net.maxFetchBatch", 4ull, 4ull, 4ull, 4ull},
    {"net.maxWritebackBatch", 8ull, 1ull, 8ull, 1ull},
};
// clang-format on

TEST(DataPath, SeededTraceMatchesPinnedCells)
{
    struct Config
    {
        std::uint32_t shards, wb;
        std::uint64_t Pinned::*column;
    };
    const Config configs[] = {{1, 8, &Pinned::s1wb8},
                              {1, 1, &Pinned::s1wb1},
                              {4, 8, &Pinned::s4wb8},
                              {4, 1, &Pinned::s4wb1}};
    for (const Config &c : configs) {
        const Cells got = runTrace(c.shards, c.wb);
        ASSERT_EQ(got.size(), std::size(kPinned));
        for (std::size_t i = 0; i < got.size(); i++) {
            ASSERT_EQ(got[i].first, kPinned[i].name);
            EXPECT_EQ(got[i].second, kPinned[i].*c.column)
                << got[i].first << " at shards=" << c.shards
                << " writebackBatchMax=" << c.wb;
        }
    }
}

/** The trace exercises every mechanism it claims to pin. */
TEST(DataPath, SeededTraceCoversEveryMechanism)
{
    const Cells got = runTrace(1, 8);
    const auto cell = [&](const std::string &name) {
        for (const auto &[key, value] : got) {
            if (key == name)
                return value;
        }
        ADD_FAILURE() << "no cell " << name;
        return std::uint64_t{0};
    };
    EXPECT_GT(cell("rt.dirtyWritebacks"), 0u);
    EXPECT_GT(cell("rt.writebackBufferHits"), 0u);
    EXPECT_GT(cell("rt.inflightJoins"), 0u);
    EXPECT_GT(cell("g.localityGuards"), 0u);
    EXPECT_GT(cell("g.cacheHitReads"), 0u);
    EXPECT_GT(cell("g.cacheHitWrites"), 0u);
    EXPECT_GT(cell("g.slowRemoteWrites"), 0u);
    EXPECT_GT(cell("g.slowLocalReads"), 0u);
}

} // namespace
} // namespace tfm
