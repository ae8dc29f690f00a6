#include "remote_backend.hh"

#include "cluster/sharded_cluster.hh"
#include "obs/replay.hh"

namespace tfm
{

void
RemoteBackend::exportStats(StatSet &) const
{
}

std::unique_ptr<RemoteBackend>
makeRemoteBackend(CycleClock &clock, const CostParams &costs,
                  std::uint64_t capacityBytes, std::uint32_t objectSizeBytes,
                  const ClusterConfig &config, FlightRecorder *recorder,
                  std::uint16_t instance)
{
    auto cluster = std::make_unique<ShardedCluster>(
        clock, costs, capacityBytes, objectSizeBytes, config);
    if (!recorder)
        return cluster;
    cluster->attachRecorder(recorder, instance);
    // The links log the context streams; the decorator logs the op
    // stream itself.
    return std::make_unique<RecordingBackend>(std::move(cluster), clock,
                                              *recorder, instance);
}

} // namespace tfm
