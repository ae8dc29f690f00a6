#include "network_model.hh"

#include <algorithm>
#include <cmath>

#include "obs/flight_recorder.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"

namespace tfm
{

NetStats &
NetStats::operator+=(const NetStats &other)
{
    bytesFetched += other.bytesFetched;
    bytesWrittenBack += other.bytesWrittenBack;
    fetchMessages += other.fetchMessages;
    writebackMessages += other.writebackMessages;
    fetchPayloads += other.fetchPayloads;
    writebackPayloads += other.writebackPayloads;
    fetchBatches += other.fetchBatches;
    writebackBatches += other.writebackBatches;
    maxFetchBatch = std::max(maxFetchBatch, other.maxFetchBatch);
    maxWritebackBatch = std::max(maxWritebackBatch, other.maxWritebackBatch);
    return *this;
}

std::uint64_t
NetworkModel::transferCycles(std::uint64_t bytes) const
{
    return static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(bytes) / _costs.netBytesPerCycle));
}

void
NetworkModel::accountFetch(std::uint64_t bytes, std::uint32_t payloads)
{
    _stats.bytesFetched += bytes;
    _stats.fetchMessages++;
    _stats.fetchPayloads += payloads;
    if (payloads >= 2)
        _stats.fetchBatches++;
    _stats.maxFetchBatch = std::max<std::uint64_t>(_stats.maxFetchBatch,
                                                   payloads);
}

void
NetworkModel::observeFetch(std::uint64_t issue, std::uint64_t arrival,
                           std::uint64_t bytes, std::uint32_t payloads)
{
    if (rec_) {
        rec_->note(recInstance_, FrCat::Net, FrKind::NetFetch, issue,
                   bytes, payloads, arrival, recShard_);
    }
    if (!obs_)
        return;
    obs_->fetchLatency.record(arrival - issue);
    obs_->fetchBatch.record(payloads);
    TraceSink &sink = obs_->trace();
    if (sink.enabled()) {
        sink.complete(obsStream_, TrackNetIn + obsTrackBase_, "net.fetch",
                      "net", issue, arrival - issue);
        sink.arg("bytes", bytes);
        sink.arg("payloads", payloads);
    }
}

void
NetworkModel::fetchSync(std::uint64_t bytes)
{
    const std::uint64_t issue = _clock.now();
    _clock.advance(_costs.perMessageCpuCycles);
    // The request leaves now; payload serialization begins once the
    // request reaches the remote node and the inbound link is free.
    inFreeAt = std::max(_clock.now() + _costs.netLatencyCycles, inFreeAt) +
               transferCycles(bytes);
    const std::uint64_t arrival = inFreeAt;
    _clock.advanceTo(arrival);
    accountFetch(bytes, 1);
    observeFetch(issue, arrival, bytes, 1);
}

std::uint64_t
NetworkModel::fetchSyncAt(std::uint64_t issue, std::uint64_t bytes)
{
    const std::uint64_t done = issue + _costs.perMessageCpuCycles +
                               _costs.netLatencyCycles +
                               transferCycles(bytes);
    if (done > inFreeAt)
        inFreeAt = done;
    accountFetch(bytes, 1);
    return done;
}

std::uint64_t
NetworkModel::fetchBatchAsync(std::span<const std::uint64_t> payloadBytes,
                              std::span<std::uint64_t> arrivals)
{
    TFM_ASSERT(!payloadBytes.empty(), "empty fetch batch");
    TFM_ASSERT(arrivals.size() == payloadBytes.size(),
               "one arrival slot per payload");
    const auto payloads = static_cast<std::uint32_t>(payloadBytes.size());
    const std::uint64_t issue = _clock.now();
    _clock.advance(_costs.prefetchIssueCycles +
                   _costs.perPayloadCpuCycles * (payloads - 1));
    std::uint64_t total = 0;
    std::uint64_t at =
        std::max(_clock.now() + _costs.netLatencyCycles, inFreeAt);
    for (std::size_t i = 0; i < payloadBytes.size(); i++) {
        const std::uint64_t bytes = payloadBytes[i];
        total += bytes;
        at += transferCycles(bytes);
        arrivals[i] = at;
    }
    inFreeAt = at;
    accountFetch(total, payloads);
    observeFetch(issue, at, total, payloads);
    return at;
}

void
NetworkModel::writebackBatch(std::uint64_t bytes, std::uint32_t payloads)
{
    TFM_ASSERT(payloads > 0, "empty writeback batch");
    const std::uint64_t issue = _clock.now();
    _clock.advance(_costs.perMessageCpuCycles +
                   _costs.perPayloadCpuCycles * (payloads - 1));
    const std::uint64_t start = std::max(_clock.now(), outFreeAt);
    outFreeAt = start + transferCycles(bytes);
    _stats.bytesWrittenBack += bytes;
    _stats.writebackMessages++;
    _stats.writebackPayloads += payloads;
    if (payloads >= 2)
        _stats.writebackBatches++;
    _stats.maxWritebackBatch =
        std::max<std::uint64_t>(_stats.maxWritebackBatch, payloads);
    if (rec_) {
        rec_->note(recInstance_, FrCat::Net, FrKind::NetWriteback, issue,
                   bytes, payloads, outFreeAt, recShard_);
    }
    if (obs_) {
        obs_->writebackLatency.record(outFreeAt - issue);
        obs_->writebackBatch.record(payloads);
        TraceSink &sink = obs_->trace();
        if (sink.enabled()) {
            sink.complete(obsStream_, TrackNetOut + obsTrackBase_,
                          "net.writeback", "net", issue, outFreeAt - issue);
            sink.arg("bytes", bytes);
            sink.arg("payloads", payloads);
        }
    }
}

} // namespace tfm
