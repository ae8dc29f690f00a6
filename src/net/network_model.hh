/**
 * @file
 * Simulated network link between the compute node and the remote memory
 * node.
 *
 * Models the paper's 25 Gb/s NIC with the TCP (Shenango) backend used by
 * AIFM/TrackFM and the RDMA backend used by Fastswap: a fixed round-trip
 * latency plus bandwidth-limited serialization of payload bytes on a
 * single full-duplex link. All transfers are tracked per direction so the
 * I/O-amplification figures (13 and 16c) can be regenerated.
 */

#ifndef TRACKFM_NET_NETWORK_MODEL_HH
#define TRACKFM_NET_NETWORK_MODEL_HH

#include <cstdint>
#include <span>

#include "sim/cost_params.hh"
#include "sim/cycle_clock.hh"

namespace tfm
{

class FlightRecorder;
class Observability;

/** Statistics accumulated by the link. */
struct NetStats
{
    std::uint64_t bytesFetched = 0;     ///< remote -> local payload bytes
    std::uint64_t bytesWrittenBack = 0; ///< local -> remote payload bytes
    std::uint64_t fetchMessages = 0;
    std::uint64_t writebackMessages = 0;
    /// Total object payloads carried by fetch messages (>= fetchMessages;
    /// the ratio is the coalescing factor for the Fig. 13 pipeline).
    std::uint64_t fetchPayloads = 0;
    std::uint64_t writebackPayloads = 0;
    /// Messages that actually coalesced two or more payloads.
    std::uint64_t fetchBatches = 0;
    std::uint64_t writebackBatches = 0;
    /// Largest batch seen in each direction.
    std::uint64_t maxFetchBatch = 0;
    std::uint64_t maxWritebackBatch = 0;

    std::uint64_t totalBytes() const { return bytesFetched + bytesWrittenBack; }
    std::uint64_t totalMessages() const
    {
        return fetchMessages + writebackMessages;
    }

    /** Mean payloads per fetch message (1.0 when nothing coalesces). */
    double
    fetchCoalescing() const
    {
        return fetchMessages == 0
                   ? 1.0
                   : static_cast<double>(fetchPayloads) /
                         static_cast<double>(fetchMessages);
    }

    /** Mean payloads per writeback message (outbound mirror). */
    double
    writebackCoalescing() const
    {
        return writebackMessages == 0
                   ? 1.0
                   : static_cast<double>(writebackPayloads) /
                         static_cast<double>(writebackMessages);
    }

    /** Element-wise sum (aggregating per-shard links). */
    NetStats &operator+=(const NetStats &other);
};

/**
 * A full-duplex point-to-point link with latency and bandwidth.
 *
 * The inbound (fetch) and outbound (writeback) directions serialize
 * independently. Synchronous fetches block the caller (advance the clock
 * to the arrival time); asynchronous operations only reserve link time.
 */
class NetworkModel
{
  public:
    NetworkModel(CycleClock &clock, const CostParams &costs)
        : _clock(clock), _costs(costs)
    {}

    /**
     * Fetch @p bytes synchronously; the clock advances to the completion
     * time (request latency + serialized transfer) and the local CPU is
     * charged the per-message software cost.
     */
    void fetchSync(std::uint64_t bytes);

    /**
     * Issue one asynchronous fetch message carrying one payload per
     * entry of @p payloadBytes (a prefetch, or a coalesced window). A
     * single issue-side CPU + latency charge covers the whole message;
     * each payload beyond the first adds only the scatter-gather entry
     * cost. The caller is charged only the issue-side CPU cost.
     *
     * Payloads stream back back-to-back, so payload i arrives after the
     * request latency plus the cumulative serialization of payloads
     * 0..i, not at the end of the whole message.
     *
     * @param payloadBytes per-payload byte counts, in transfer order.
     * @param arrivals out-param, sized like @p payloadBytes (it may be
     *                 the same span); arrivals[i] is the absolute cycle
     *                 at which payload i has fully arrived.
     * @return arrival of the last payload (== arrivals.back()).
     */
    std::uint64_t fetchBatchAsync(std::span<const std::uint64_t> payloadBytes,
                                  std::span<std::uint64_t> arrivals);

    /**
     * Block until an asynchronous fetch issued earlier has arrived.
     * Charges only the residual wait (zero when already arrived).
     */
    void waitUntil(std::uint64_t arrivalCycle) { _clock.advanceTo(arrivalCycle); }

    /**
     * Concurrent-mode demand fetch issued at @p issue on a worker's
     * private timeline (DESIGN.md §4k). Per-core flows overlap the
     * request latency — each worker pays CPU + round trip + its own
     * payload serialization on its own clock — so the shared frontier
     * never drags a behind-schedule worker's completion into another
     * core's future (the pathology of time-sharing the device clock
     * through fetchSync: every fetch would snap to the global
     * frontier, serializing all latencies). Cross-core bandwidth
     * contention is deliberately not modeled — at object sizes the
     * transfer is two orders of magnitude below the round trip. The
     * frontier still advances monotonically for the deterministic
     * paths' no-un-reserve invariant, and the fetch is counted in
     * NetStats. Does not touch the shared clock.
     *
     * @return completion cycle on the issuing worker's timeline.
     */
    std::uint64_t fetchSyncAt(std::uint64_t issue, std::uint64_t bytes);

    /**
     * Write @p payloads objects totalling @p bytes back in one outbound
     * message (evacuation, page-out). Reserves outbound link time and
     * counts bytes; the caller pays one per-message CPU charge plus the
     * per-payload scatter-gather cost of each payload beyond the first.
     */
    void writebackBatch(std::uint64_t bytes, std::uint32_t payloads);

    const NetStats &stats() const { return _stats; }
    void resetStats() { _stats = NetStats{}; }

    /** The shared simulated clock (for devices behind the link). */
    std::uint64_t now() const { return _clock.now(); }

    /** Earliest cycle at which the inbound link is free (for tests). */
    std::uint64_t inboundFreeAt() const { return inFreeAt; }
    /** Earliest cycle at which the outbound link is free (for tests). */
    std::uint64_t outboundFreeAt() const { return outFreeAt; }

    /** @name Observability
     *  Attach the owning runtime's sink; the link then emits one span
     *  per message (issue -> arrival) on its in/out tracks and feeds
     *  the latency/batch-size histograms. Never charges cycles.
     *  @p trackBase shifts the in/out/remote track ids so each shard of
     *  a cluster renders as its own set of tracks (0 for the link of a
     *  1-shard tier, obs::shardTrackBase(i) for shard i of a larger one).
     * @{ */
    void
    attachObs(Observability *sink, std::uint32_t stream,
              std::uint32_t trackBase = 0)
    {
        obs_ = sink;
        obsStream_ = stream;
        obsTrackBase_ = trackBase;
    }
    Observability *obs() const { return obs_; }
    std::uint32_t obsStream() const { return obsStream_; }
    std::uint32_t obsTrackBase() const { return obsTrackBase_; }
    /** @} */

    /** @name Flight recorder
     *  When attached, the link logs one context event per message
     *  ({bytes, payloads, arrival, shard}) onto @p instance's net
     *  stream; @p shard labels which cluster link this is (0 on a
     *  1-shard tier). Never charges cycles.
     * @{ */
    void
    attachRecorder(FlightRecorder *recorder, std::uint16_t instance,
                   std::uint32_t shard)
    {
        rec_ = recorder;
        recInstance_ = instance;
        recShard_ = shard;
    }
    /** @} */

  private:
    /// Cycles needed to push @p bytes through the link at line rate.
    std::uint64_t transferCycles(std::uint64_t bytes) const;
    /// Record one inbound message carrying @p payloads objects.
    void accountFetch(std::uint64_t bytes, std::uint32_t payloads);
    /// Observe one inbound message span (no-op when unattached).
    void observeFetch(std::uint64_t issue, std::uint64_t arrival,
                      std::uint64_t bytes, std::uint32_t payloads);

    CycleClock &_clock;
    const CostParams &_costs;
    NetStats _stats;
    std::uint64_t inFreeAt = 0;
    std::uint64_t outFreeAt = 0;
    Observability *obs_ = nullptr;
    std::uint32_t obsStream_ = 0;
    std::uint32_t obsTrackBase_ = 0;
    FlightRecorder *rec_ = nullptr;
    std::uint16_t recInstance_ = 0;
    std::uint32_t recShard_ = 0;
};

} // namespace tfm

#endif // TRACKFM_NET_NETWORK_MODEL_HH
