/**
 * @file
 * Unit tests for the network model and the remote memory node.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "net/network_model.hh"
#include "remote/remote_node.hh"
#include "sim/cost_params.hh"
#include "sim/cycle_clock.hh"

namespace tfm
{
namespace
{

CostParams
simpleCosts()
{
    CostParams c;
    c.netLatencyCycles = 1000;
    c.netBytesPerCycle = 1.0;
    c.perMessageCpuCycles = 10;
    c.prefetchIssueCycles = 5;
    return c;
}

/** One async fetch message carrying one payload of @p bytes. */
std::uint64_t
fetchOne(NetworkModel &net, std::uint64_t bytes)
{
    std::uint64_t arrival = 0;
    return net.fetchBatchAsync({&bytes, 1}, {&arrival, 1});
}

TEST(NetworkModel, SyncFetchChargesLatencyPlusTransfer)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    net.fetchSync(500);
    // 10 (cpu) -> request departs at 10; arrival = 10 + 1000 + 500.
    EXPECT_EQ(clock.now(), 10u + 1000u + 500u);
    EXPECT_EQ(net.stats().bytesFetched, 500u);
    EXPECT_EQ(net.stats().fetchMessages, 1u);
}

TEST(NetworkModel, BandwidthSerializesBackToBackTransfers)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    // Two async fetches issued immediately: the second serializes after
    // the first on the inbound link.
    const std::uint64_t a1 = fetchOne(net, 1000);
    const std::uint64_t a2 = fetchOne(net, 1000);
    EXPECT_GT(a2, a1);
    EXPECT_GE(a2 - a1, 1000u); // at least one transfer time apart
}

TEST(NetworkModel, AsyncFetchOnlyChargesIssueCost)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    fetchOne(net, 4096);
    EXPECT_EQ(clock.now(), c.prefetchIssueCycles);
}

TEST(NetworkModel, WaitUntilBlocksToArrival)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    const std::uint64_t arrival = fetchOne(net, 100);
    net.waitUntil(arrival);
    EXPECT_EQ(clock.now(), arrival);
    // Waiting again is free.
    net.waitUntil(arrival);
    EXPECT_EQ(clock.now(), arrival);
}

TEST(NetworkModel, WritebackCountsBytesWithoutBlocking)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    net.writebackBatch(4096, 1);
    EXPECT_EQ(clock.now(), c.perMessageCpuCycles);
    EXPECT_EQ(net.stats().bytesWrittenBack, 4096u);
    EXPECT_EQ(net.stats().totalBytes(), 4096u);
}

TEST(NetworkModel, ResetStatsClearsCounters)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    net.fetchSync(10);
    net.resetStats();
    EXPECT_EQ(net.stats().bytesFetched, 0u);
    EXPECT_EQ(net.stats().fetchMessages, 0u);
}

TEST(NetworkModel, BatchFetchChargesOneMessageForManyPayloads)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    const std::vector<std::uint64_t> sizes(4, 500);
    std::vector<std::uint64_t> arrivals(4);
    const std::uint64_t last = net.fetchBatchAsync(sizes, arrivals);
    // One issue charge plus three scatter-gather entries; the 2000
    // batched bytes serialize behind a single latency.
    const std::uint64_t issue =
        c.prefetchIssueCycles + 3 * c.perPayloadCpuCycles;
    EXPECT_EQ(clock.now(), issue);
    EXPECT_EQ(last, issue + 1000u + 2000u);
    EXPECT_EQ(net.stats().fetchMessages, 1u);
    EXPECT_EQ(net.stats().fetchPayloads, 4u);
    EXPECT_EQ(net.stats().fetchBatches, 1u);
    EXPECT_EQ(net.stats().maxFetchBatch, 4u);
    EXPECT_EQ(net.stats().bytesFetched, 2000u);
    EXPECT_DOUBLE_EQ(net.stats().fetchCoalescing(), 4.0);
}

TEST(NetworkModel, BatchWritebackChargesOneMessage)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    net.writebackBatch(2 * 4096, 2);
    EXPECT_EQ(clock.now(), c.perMessageCpuCycles + c.perPayloadCpuCycles);
    EXPECT_EQ(net.stats().writebackMessages, 1u);
    EXPECT_EQ(net.stats().writebackPayloads, 2u);
    EXPECT_EQ(net.stats().writebackBatches, 1u);
    EXPECT_EQ(net.stats().bytesWrittenBack, 2u * 4096u);
}

TEST(NetworkModel, SingletonBatchMatchesUnbatchedCharges)
{
    const CostParams c = simpleCosts();
    CycleClock clock;
    NetworkModel net(clock, c);
    // A one-payload message pays the issue charge and no scatter-gather
    // entry, and it does not count as a coalesced batch.
    EXPECT_EQ(fetchOne(net, 500), c.prefetchIssueCycles + 1000u + 500u);
    EXPECT_EQ(clock.now(), c.prefetchIssueCycles);
    EXPECT_EQ(net.stats().fetchMessages, 1u);
    EXPECT_EQ(net.stats().fetchPayloads, 1u);
    EXPECT_EQ(net.stats().fetchBatches, 0u);
    EXPECT_EQ(net.stats().maxFetchBatch, 1u);
    net.writebackBatch(500, 1);
    EXPECT_EQ(clock.now(), c.prefetchIssueCycles + c.perMessageCpuCycles);
    EXPECT_EQ(net.stats().writebackMessages, 1u);
    EXPECT_EQ(net.stats().writebackBatches, 0u);
}

TEST(NetworkModel, BatchedMessagesAreCheaperAtEqualBytes)
{
    // Calibrated costs: the scatter-gather entry (40) is far cheaper
    // than a full message issue, so coalescing saves issue-side CPU.
    const CostParams c;
    CycleClock clock_a;
    NetworkModel net_a(clock_a, c);
    for (int i = 0; i < 8; i++)
        fetchOne(net_a, 1000);
    CycleClock clock_b;
    NetworkModel net_b(clock_b, c);
    const std::vector<std::uint64_t> sizes(8, 1000);
    std::vector<std::uint64_t> arrivals(8);
    net_b.fetchBatchAsync(sizes, arrivals);
    EXPECT_EQ(net_a.stats().bytesFetched, net_b.stats().bytesFetched);
    EXPECT_LT(clock_b.now(), clock_a.now());
    EXPECT_EQ(net_a.stats().fetchMessages, 8u);
    EXPECT_EQ(net_b.stats().fetchMessages, 1u);
}

TEST(NetworkModel, SegmentedBatchStreamsPayloadsInOrder)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    const std::vector<std::uint64_t> sizes = {100, 200, 300};
    std::vector<std::uint64_t> arrivals(3);
    const std::uint64_t last = net.fetchBatchAsync(sizes, arrivals);
    // Payloads arrive in order, each after its own serialization; the
    // whole train still rides one message and one latency.
    EXPECT_EQ(arrivals[1] - arrivals[0], 200u);
    EXPECT_EQ(arrivals[2] - arrivals[1], 300u);
    EXPECT_EQ(arrivals[2], last);
    EXPECT_GE(arrivals[0], c.netLatencyCycles + 100u);
    EXPECT_EQ(net.stats().fetchMessages, 1u);
    EXPECT_EQ(net.stats().fetchPayloads, 3u);
    EXPECT_EQ(net.stats().bytesFetched, 600u);
}

TEST(RemoteNode, BatchFetchCopiesScatteredSegments)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    RemoteNode node(1 << 16);

    std::vector<std::byte> a(64, std::byte{0x11});
    std::vector<std::byte> b(128, std::byte{0x22});
    std::vector<std::byte> d(32, std::byte{0x33});
    node.rawWrite(0, a.data(), a.size());
    node.rawWrite(4096, b.data(), b.size());
    node.rawWrite(9000, d.data(), d.size());

    std::vector<std::byte> out_a(64), out_b(128), out_d(32);
    const std::vector<RemoteFetchSeg> segs = {
        {0, out_a.data(), out_a.size()},
        {4096, out_b.data(), out_b.size()},
        {9000, out_d.data(), out_d.size()}};
    std::vector<std::uint64_t> arrivals(segs.size());
    const std::uint64_t arrival = node.fetchBatchAsync(net, segs, arrivals);
    net.waitUntil(arrival);
    EXPECT_EQ(std::memcmp(a.data(), out_a.data(), a.size()), 0);
    EXPECT_EQ(std::memcmp(b.data(), out_b.data(), b.size()), 0);
    EXPECT_EQ(std::memcmp(d.data(), out_d.data(), d.size()), 0);
    EXPECT_EQ(node.stats().fetchRequests, 1u);
    EXPECT_EQ(node.stats().fetchPayloads, 3u);
    EXPECT_EQ(net.stats().fetchMessages, 1u);
    EXPECT_EQ(net.stats().bytesFetched, 64u + 128u + 32u);
}

TEST(RemoteNode, BatchWritebackPersistsAllSegments)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    RemoteNode node(1 << 16);

    std::vector<std::byte> a(64, std::byte{0xAA});
    std::vector<std::byte> b(64, std::byte{0xBB});
    const std::vector<RemoteWriteSeg> segs = {{256, a.data(), a.size()},
                                              {8192, b.data(), b.size()}};
    node.writebackBatch(net, segs);

    std::vector<std::byte> out(64);
    node.rawRead(256, out.data(), out.size());
    EXPECT_EQ(std::memcmp(a.data(), out.data(), 64), 0);
    node.rawRead(8192, out.data(), out.size());
    EXPECT_EQ(std::memcmp(b.data(), out.data(), 64), 0);
    EXPECT_EQ(node.stats().writebackRequests, 1u);
    EXPECT_EQ(node.stats().writebackPayloads, 2u);
    EXPECT_EQ(net.stats().writebackMessages, 1u);
}

TEST(RemoteNode, FetchReturnsWrittenData)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    RemoteNode node(1 << 16);

    std::vector<std::byte> payload(256);
    for (int i = 0; i < 256; i++)
        payload[i] = static_cast<std::byte>(i);
    node.rawWrite(1024, payload.data(), payload.size());

    std::vector<std::byte> out(256);
    node.fetch(net, 1024, out.data(), out.size());
    EXPECT_EQ(std::memcmp(payload.data(), out.data(), 256), 0);
    EXPECT_EQ(node.stats().fetchRequests, 1u);
    EXPECT_GT(clock.now(), 0u);
}

TEST(RemoteNode, WritebackPersists)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    RemoteNode node(1 << 16);

    std::vector<std::byte> payload(64, std::byte{0xAB});
    const RemoteWriteSeg seg{512, payload.data(), payload.size()};
    node.writebackBatch(net, {&seg, 1});

    std::vector<std::byte> out(64);
    node.rawRead(512, out.data(), out.size());
    EXPECT_EQ(std::memcmp(payload.data(), out.data(), 64), 0);
    EXPECT_EQ(node.stats().writebackRequests, 1u);
}

TEST(RemoteNode, AsyncFetchReportsArrival)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    RemoteNode node(1 << 16);

    std::vector<std::byte> out(128);
    const RemoteFetchSeg seg{0, out.data(), out.size()};
    std::uint64_t arrival = 0;
    EXPECT_EQ(node.fetchBatchAsync(net, {&seg, 1}, {&arrival, 1}), arrival);
    EXPECT_GT(arrival, clock.now());
}

/**
 * The store is a lazily zero-filled mapping that the cluster and replay
 * backends move around: untouched bytes read zero, and a move carries
 * the written bytes and the capacity with it.
 */
TEST(RemoteNode, StoreStartsZeroAndSurvivesMoves)
{
    RemoteNode node(8 << 20);
    std::vector<std::byte> out(4096, std::byte{0xFF});
    node.rawRead((8 << 20) - 4096, out.data(), out.size());
    EXPECT_EQ(out, std::vector<std::byte>(4096, std::byte{0}));

    const std::vector<std::byte> payload(64, std::byte{0x5A});
    node.rawWrite(4 << 20, payload.data(), payload.size());

    RemoteNode moved(std::move(node));
    const std::byte *const host = moved.span(0, 1);
    {
        RemoteNode assigned(1024);
        assigned = std::move(moved);
        EXPECT_EQ(assigned.capacity(), 8u << 20);
        std::vector<std::byte> back(64);
        assigned.rawRead(4 << 20, back.data(), back.size());
        EXPECT_EQ(back, payload);
    }
    // The touched set moved with the mapping: the next store of its
    // size takes it back and reads zero where the payload was.
    RemoteNode fresh(8 << 20);
    EXPECT_EQ(fresh.span(0, 1), host);
    std::vector<std::byte> again(64, std::byte{0xFF});
    fresh.rawRead(4 << 20, again.data(), again.size());
    EXPECT_EQ(again, std::vector<std::byte>(64, std::byte{0}));
}

/**
 * Write through every path that stores bytes (rawWrite, one- and
 * two-segment writebackBatch and a span) at scattered offsets, the last, partial
 * chunk included, on a store of @p capacity.
 */
void
writeEveryPath(RemoteNode &node, std::uint64_t capacity)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    const std::vector<std::byte> a(100, std::byte{0xA1});
    const std::vector<std::byte> b(5000, std::byte{0xB2});
    const std::vector<std::byte> d(64, std::byte{0xD4});
    node.rawWrite(3, a.data(), a.size());
    const RemoteWriteSeg one{(1 << 20) - 2500, b.data(), b.size()};
    node.writebackBatch(net, {&one, 1}); // 2 chunks
    const std::vector<RemoteWriteSeg> two = {
        {(2 << 20) + 12345, d.data(), d.size()},
        {capacity - 64, d.data(), d.size()}};
    node.writebackBatch(net, two);
    std::memset(node.span(3 << 20, 4096), 0xE5, 4096);
    std::memset(node.span(capacity - 70000, 10), 0xF6, 10);
}

bool
allZero(const RemoteNode &node)
{
    std::vector<std::byte> all(node.capacity(), std::byte{0xFF});
    node.rawRead(0, all.data(), all.size());
    for (const std::byte v : all) {
        if (v != std::byte{0})
            return false;
    }
    return true;
}

TEST(RemoteNode, RecycledStoreReadsZero)
{
    // Not a multiple of the 64 KB chunk, so the last chunk is partial;
    // a size no other test uses, so the recycled mapping is this one.
    const std::uint64_t capacity = (4 << 20) + 3 * 4096;
    const std::byte *host = nullptr;
    {
        RemoteNode node(capacity);
        host = node.span(0, 1);
        writeEveryPath(node, capacity);
        EXPECT_FALSE(allZero(node));
    }
    {
        RemoteNode node(capacity);
        ASSERT_EQ(node.span(0, 1), host) << "store was not recycled";
        EXPECT_TRUE(allZero(node));
        writeEveryPath(node, capacity);
        RemoteNode moved(std::move(node));
    }
    RemoteNode node(capacity);
    ASSERT_EQ(node.span(0, 1), host) << "moved store was not recycled";
    EXPECT_TRUE(allZero(node));
}

TEST(RemoteNodeDeath, OutOfRangeAccessPanics)
{
    CycleClock clock;
    const CostParams c = simpleCosts();
    NetworkModel net(clock, c);
    RemoteNode node(1024);
    std::vector<std::byte> buffer(64);
    EXPECT_DEATH(node.rawWrite(1000, buffer.data(), 64), "range");
}

} // namespace
} // namespace tfm
