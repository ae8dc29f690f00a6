/**
 * @file
 * The replay driver: backend decorators pairing with flight_recorder.hh.
 *
 * RecordingBackend wraps the real remote tier (the sharded cluster,
 * one shard by default) and logs every operation's inputs and outcome —
 * completion cycles and per-segment arrival cycles — onto the backend
 * stream.
 *
 * ReplayBackend *replaces* the remote tier: it owns a flat data store
 * (so payload bytes are served exactly as a real backend would serve
 * them) but takes every timing decision from the recorded stream,
 * verifying the replayed run's requests against the log as it goes.
 * Together with the evacuator and prefetcher decision feeds in
 * FarMemRuntime, this makes a replayed run bit-exact: the clock
 * advances to the recorded completion cycles instead of being
 * re-derived from link state, so even a changed network model cannot
 * silently alter a replay — it diverges loudly instead.
 *
 * ReplayBackend exports no `cluster.*` stats. Neither does the 1-shard
 * tier, so a default run prints the same `--stats` keys recorded and
 * replayed; only a multi-shard recording adds its cluster keys.
 *
 * Both classes live in src/obs with the recorder, but are compiled
 * into the cluster library (they implement RemoteBackend, which obs
 * cannot depend on).
 */

#ifndef TRACKFM_OBS_REPLAY_HH
#define TRACKFM_OBS_REPLAY_HH

#include <memory>

#include "cluster/remote_backend.hh"
#include "obs/flight_recorder.hh"
#include "sim/cost_params.hh"

namespace tfm
{

/**
 * Record-mode decorator: forwards every operation to the wrapped
 * backend, then logs {inputs, completion cycle, arrivals} onto this
 * instance's backend stream. The event's cycle field is the operation's
 * *start* cycle — the same cycle at which replay verification runs.
 */
class RecordingBackend final : public RemoteBackend
{
  public:
    RecordingBackend(std::unique_ptr<RemoteBackend> inner,
                     CycleClock &clock, FlightRecorder &recorder,
                     std::uint16_t instance)
        : inner_(std::move(inner)), clock_(clock), rec_(recorder),
          instance_(instance)
    {}

    void fetch(std::uint64_t offset, std::byte *dst,
               std::size_t len) override;
    std::uint64_t fetchBatchAsync(std::span<const RemoteFetchSeg> segs,
                                  std::span<std::uint64_t> arrivals) override;
    void writebackBatch(std::span<const RemoteWriteSeg> segs) override;

    void
    rawWrite(std::uint64_t offset, const std::byte *src,
             std::size_t len) override
    {
        inner_->rawWrite(offset, src, len);
    }

    void
    rawRead(std::uint64_t offset, std::byte *dst,
            std::size_t len) const override
    {
        inner_->rawRead(offset, dst, len);
    }

    std::byte *
    rawSpan(std::uint64_t offset, std::size_t len) override
    {
        return inner_->rawSpan(offset, len);
    }

    NetStats netStats() const override { return inner_->netStats(); }
    NetStats shardNetStats(std::uint32_t shard) const override
    {
        return inner_->shardNetStats(shard);
    }
    /** Forwards, and logs the answer so a replayed query re-injects it. */
    ClusterStats clusterStats() const override;
    std::uint32_t shardCount() const override
    {
        return inner_->shardCount();
    }
    NetworkModel &link(std::uint32_t shard) override
    {
        return inner_->link(shard);
    }
    RemoteNode &node(std::uint32_t shard) override
    {
        return inner_->node(shard);
    }

    void
    attachObs(Observability *sink, std::uint32_t stream) override
    {
        inner_->attachObs(sink, stream);
    }

    void exportStats(StatSet &set) const override
    {
        inner_->exportStats(set);
    }

  private:
    std::unique_ptr<RemoteBackend> inner_;
    CycleClock &clock_;
    FlightRecorder &rec_;
    std::uint16_t instance_;
};

/**
 * Replay-mode backend: a flat store fed by the recorded backend
 * stream. Data moves for real (fetches copy out of the store,
 * writebacks copy in; a charge-only call copies nothing, as in the
 * recorded run), timing is re-injected from the log, and every
 * request is verified against the recording. Link-level statistics are
 * reconstructed from the recorded net stream, so end-of-run bandwidth
 * tables still report the original run's traffic.
 */
class ReplayBackend final : public RemoteBackend
{
  public:
    ReplayBackend(CycleClock &clock, const CostParams &costs,
                  std::uint64_t capacityBytes, FlightRecorder &recorder,
                  std::uint16_t instance);

    void fetch(std::uint64_t offset, std::byte *dst,
               std::size_t len) override;
    std::uint64_t fetchBatchAsync(std::span<const RemoteFetchSeg> segs,
                                  std::span<std::uint64_t> arrivals) override;
    void writebackBatch(std::span<const RemoteWriteSeg> segs) override;

    void
    rawWrite(std::uint64_t offset, const std::byte *src,
             std::size_t len) override
    {
        node_.rawWrite(offset, src, len);
    }

    void
    rawRead(std::uint64_t offset, std::byte *dst,
            std::size_t len) const override
    {
        node_.rawRead(offset, dst, len);
    }

    std::byte *
    rawSpan(std::uint64_t offset, std::size_t len) override
    {
        return node_.span(offset, len);
    }

    /** Aggregated from the recorded net stream (context events). */
    NetStats netStats() const override;
    /** Reconstructed per-shard from the net events' shard argument. */
    NetStats shardNetStats(std::uint32_t shard) const override;
    /** Re-injected from the recorded snapshot (a consumed event). */
    ClusterStats clusterStats() const override;

    /** Reconstructed: 1 + the highest shard the net stream mentions. */
    std::uint32_t shardCount() const override;
    NetworkModel &link(std::uint32_t) override { return net_; }
    RemoteNode &node(std::uint32_t) override { return node_; }

    void attachObs(Observability *, std::uint32_t) override {}

  private:
    /** netStats() restricted to one shard (@p shard < 0: all shards). */
    NetStats netStatsFiltered(std::int64_t shard) const;

    CycleClock &clock_;
    CostParams costs_; ///< the dummy link needs a stable reference
    NetworkModel net_; ///< interface-only; never charged during replay
    RemoteNode node_;
    FlightRecorder &rec_;
    std::uint16_t instance_;
};

} // namespace tfm

#endif // TRACKFM_OBS_REPLAY_HH
