#include "replay.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tfm
{

namespace
{

/// Batch headers check only the segment count; arrivals/completions
/// are outcomes, re-injected by the recorder during replay.
constexpr int kCheckBatchHeader = 1;
/// Per-segment and blocking-fetch events check {offset, len}.
constexpr int kCheckOffsetLen = 2;

} // anonymous namespace

void
RecordingBackend::fetch(std::uint64_t offset, std::byte *dst,
                        std::size_t len)
{
    const std::uint64_t start = clock_.now();
    inner_->fetch(offset, dst, len);
    rec_.note(instance_, FrCat::Backend, FrKind::BackendFetch, start,
              offset, len, clock_.now());
}

std::uint64_t
RecordingBackend::fetchBatchAsync(std::span<const RemoteFetchSeg> segs,
                                  std::span<std::uint64_t> arrivals)
{
    const std::uint64_t start = clock_.now();
    const std::uint64_t last = inner_->fetchBatchAsync(segs, arrivals);
    rec_.note(instance_, FrCat::Backend, FrKind::BackendFetchBatch, start,
              segs.size(), last, clock_.now());
    for (std::size_t i = 0; i < segs.size(); i++) {
        rec_.note(instance_, FrCat::Backend, FrKind::BackendFetchSeg,
                  start, segs[i].offset, segs[i].len, arrivals[i]);
    }
    return last;
}

void
RecordingBackend::writebackBatch(std::span<const RemoteWriteSeg> segs)
{
    const std::uint64_t start = clock_.now();
    inner_->writebackBatch(segs);
    rec_.note(instance_, FrCat::Backend, FrKind::BackendWritebackBatch,
              start, segs.size(), clock_.now());
    for (const RemoteWriteSeg &seg : segs) {
        rec_.note(instance_, FrCat::Backend, FrKind::BackendWritebackSeg,
                  start, seg.offset, seg.len);
    }
}

ReplayBackend::ReplayBackend(CycleClock &clock, const CostParams &costs,
                             std::uint64_t capacityBytes,
                             FlightRecorder &recorder,
                             std::uint16_t instance)
    : clock_(clock), costs_(costs), net_(clock, costs_),
      node_(capacityBytes), rec_(recorder), instance_(instance)
{}

void
ReplayBackend::fetch(std::uint64_t offset, std::byte *dst, std::size_t len)
{
    std::uint64_t args[4] = {offset, len, 0, 0};
    rec_.record(instance_, FrCat::Backend, FrKind::BackendFetch,
                clock_.now(), args, kCheckOffsetLen);
    if (dst)
        node_.rawRead(offset, dst, len);
    clock_.advanceTo(args[2]);
}

std::uint64_t
ReplayBackend::fetchBatchAsync(std::span<const RemoteFetchSeg> segs,
                               std::span<std::uint64_t> arrivals)
{
    TFM_ASSERT(arrivals.size() == segs.size(),
               "one arrival slot per segment");
    const std::uint64_t start = clock_.now();
    std::uint64_t header[4] = {segs.size(), 0, 0, 0};
    rec_.record(instance_, FrCat::Backend, FrKind::BackendFetchBatch,
                start, header, kCheckBatchHeader);
    for (std::size_t i = 0; i < segs.size(); i++) {
        const RemoteFetchSeg &seg = segs[i];
        std::uint64_t args[4] = {seg.offset, seg.len, 0, 0};
        rec_.record(instance_, FrCat::Backend, FrKind::BackendFetchSeg,
                    start, args, kCheckOffsetLen);
        if (seg.dst)
            node_.rawRead(seg.offset, seg.dst, seg.len);
        arrivals[i] = args[2];
    }
    clock_.advanceTo(header[2]);
    return header[1];
}

void
ReplayBackend::writebackBatch(std::span<const RemoteWriteSeg> segs)
{
    const std::uint64_t start = clock_.now();
    std::uint64_t header[4] = {segs.size(), 0, 0, 0};
    rec_.record(instance_, FrCat::Backend, FrKind::BackendWritebackBatch,
                start, header, kCheckBatchHeader);
    for (const RemoteWriteSeg &seg : segs) {
        std::uint64_t args[4] = {seg.offset, seg.len, 0, 0};
        rec_.record(instance_, FrCat::Backend,
                    FrKind::BackendWritebackSeg, start, args,
                    kCheckOffsetLen);
        if (seg.src)
            node_.rawWrite(seg.offset, seg.src, seg.len);
    }
    clock_.advanceTo(header[1]);
}

ClusterStats
RecordingBackend::clusterStats() const
{
    const ClusterStats stats = inner_->clusterStats();
    rec_.note(instance_, FrCat::Backend, FrKind::BackendClusterStats,
              clock_.now(), stats.degradedReads, stats.reReplicatedBytes,
              stats.shardFailures, stats.degradedWrites);
    return stats;
}

NetStats
ReplayBackend::netStatsFiltered(std::int64_t shard) const
{
    // Reconstructed from the recorded net stream up to the consumed
    // frontier: net events precede the consumed backend event of the
    // operation that sent them, so the log prefix below the frontier
    // is exactly the traffic the recording run had put on the wire at
    // the same point — a mid-run query (snapshot/delta measurement)
    // reports the same numbers it did while recording. Not resettable
    // mid-run (resetStats() on the dummy link is a no-op for these
    // numbers).
    NetStats stats;
    const std::vector<FrEvent> &events = rec_.replayLog();
    const std::size_t frontier = static_cast<std::size_t>(
        std::min<std::uint64_t>(rec_.consumedFrontier(), events.size()));
    const std::uint16_t wanted = static_cast<std::uint16_t>(
        instance_ * frCatSlots +
        static_cast<std::uint16_t>(FrCat::Net));
    for (std::size_t i = 0; i < frontier; i++) {
        const FrEvent &e = events[i];
        if (e.stream != wanted)
            continue;
        if (shard >= 0 &&
            e.arg[3] != static_cast<std::uint64_t>(shard))
            continue;
        if (e.kind == static_cast<std::uint16_t>(FrKind::NetFetch)) {
            stats.bytesFetched += e.arg[0];
            stats.fetchMessages++;
            stats.fetchPayloads += e.arg[1];
            if (e.arg[1] >= 2)
                stats.fetchBatches++;
            stats.maxFetchBatch =
                std::max(stats.maxFetchBatch, e.arg[1]);
        } else if (e.kind ==
                   static_cast<std::uint16_t>(FrKind::NetWriteback)) {
            stats.bytesWrittenBack += e.arg[0];
            stats.writebackMessages++;
            stats.writebackPayloads += e.arg[1];
            if (e.arg[1] >= 2)
                stats.writebackBatches++;
            stats.maxWritebackBatch =
                std::max(stats.maxWritebackBatch, e.arg[1]);
        }
    }
    return stats;
}

NetStats
ReplayBackend::netStats() const
{
    return netStatsFiltered(-1);
}

NetStats
ReplayBackend::shardNetStats(std::uint32_t shard) const
{
    return netStatsFiltered(static_cast<std::int64_t>(shard));
}

std::uint32_t
ReplayBackend::shardCount() const
{
    const std::uint16_t wanted = static_cast<std::uint16_t>(
        instance_ * frCatSlots +
        static_cast<std::uint16_t>(FrCat::Net));
    std::uint64_t top = 0;
    for (const FrEvent &e : rec_.replayLog()) {
        if (e.stream == wanted)
            top = std::max(top, e.arg[3]);
    }
    return static_cast<std::uint32_t>(top + 1);
}

ClusterStats
ReplayBackend::clusterStats() const
{
    std::uint64_t args[4] = {0, 0, 0, 0};
    rec_.record(instance_, FrCat::Backend, FrKind::BackendClusterStats,
                clock_.now(), args, 0);
    ClusterStats stats;
    stats.degradedReads = args[0];
    stats.reReplicatedBytes = args[1];
    stats.shardFailures = args[2];
    stats.degradedWrites = args[3];
    return stats;
}

} // namespace tfm
