#include "sharded_cluster.hh"

#include <algorithm>
#include <cstdio>

#include "obs/flight_recorder.hh"
#include "obs/obs.hh"
#include "sim/cycle_clock.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace tfm
{

ShardedCluster::ShardedCluster(CycleClock &clock, const CostParams &costs,
                               std::uint64_t capacityBytes,
                               std::uint32_t objectSizeBytes,
                               const ClusterConfig &config)
    : clock_(clock),
      capacity_(capacityBytes),
      repl_(config.replicationFactor),
      placement_(config.placement)
{
    TFM_ASSERT(config.shardCount >= 1 && config.shardCount <= maxShards,
               "cluster shard count out of range");
    TFM_ASSERT(repl_ >= 1 && repl_ <= maxReplicas &&
                   repl_ <= config.shardCount,
               "replication factor out of range");
    TFM_ASSERT(objectSizeBytes > 0, "cluster needs the object size");
    stripeBytes_ = config.stripeBytes ? config.stripeBytes
                                      : objectSizeBytes;
    TFM_ASSERT(stripeBytes_ % objectSizeBytes == 0,
               "stripe size must be a multiple of the object size");

    CostParams shard_costs = costs;
    if (config.shardBytesPerCycle > 0.0)
        shard_costs.netBytesPerCycle = config.shardBytesPerCycle;
    shards_.reserve(config.shardCount);
    for (std::uint32_t i = 0; i < config.shardCount; i++) {
        shards_.push_back(
            std::make_unique<Shard>(clock, shard_costs, capacityBytes));
    }

    pending_ = config.failures.events;
    for (const ShardFailure &f : pending_) {
        TFM_ASSERT(f.shard < config.shardCount,
                   "failure plan names a shard outside the cluster");
    }
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const ShardFailure &a, const ShardFailure &b) {
                         return a.cycle < b.cycle;
                     });
    updateSoleNode();
}

std::uint64_t
ShardedCluster::stripeOf(std::uint64_t offset) const
{
    return offset / stripeBytes_;
}

std::uint32_t
ShardedCluster::trackBase(std::uint32_t shard) const
{
    return shardCount() > 1 ? obs::shardTrackBase(shard) : 0;
}

ShardedCluster::ReplicaSet
ShardedCluster::liveReplicas(std::uint64_t stripe) const
{
    const std::uint32_t n = shardCount();
    ReplicaSet set;
    std::uint32_t s = primaryShard(placement_, stripe, n);
    for (std::uint32_t step = 0; step < n && set.count < repl_; step++) {
        if (shards_[s]->alive)
            set.shard[set.count++] = s;
        if (++s == n)
            s = 0;
    }
    return set;
}

inline std::uint64_t
ShardedCluster::segmentStripe(std::uint64_t offset, std::size_t len) const
{
    const std::uint64_t stripe = stripeOf(offset);
    const std::uint64_t end = offset + len;
    if (end > (stripe + 1) * stripeBytes_) {
        TFM_ASSERT(runEnd(offset, end, liveReplicas(stripe)) == end,
                   "segment straddles a shard boundary");
    }
    return stripe;
}

inline std::uint32_t
ShardedCluster::readShard(std::uint64_t offset, std::size_t len)
{
    const std::uint64_t stripe = segmentStripe(offset, len);
    if (anyLost(offset, offset + len))
        TFM_PANIC("read of a stripe lost with its last replica");
    // Read-one: the primary while it lives, else the next live replica.
    const std::uint32_t primary =
        primaryShard(placement_, stripe, shardCount());
    if (shards_[primary]->alive)
        return primary;
    const ReplicaSet set = liveReplicas(stripe);
    TFM_ASSERT(set.count > 0,
               "shard failure left no live replica for stripe");
    cstats_.degradedReads++;
    return set.shard[0];
}

inline void
ShardedCluster::pollFailures()
{
    while (nextFailure_ < pending_.size() &&
           clock_.now() >= pending_[nextFailure_].cycle) {
        onShardDeath(pending_[nextFailure_].shard);
        nextFailure_++;
    }
}

void
ShardedCluster::onShardDeath(std::uint32_t dead)
{
    Shard &ds = *shards_[dead];
    if (!ds.alive)
        return;
    cstats_.shardFailures++;
    TFM_WARN("cluster: shard %u link died at cycle %llu; failing over",
             dead, static_cast<unsigned long long>(clock_.now()));
    if (obs_ && obs_->trace().enabled()) {
        obs_->trace().instant(obsStream_,
                              TrackRemote + trackBase(dead),
                              "shard-fail", "cluster", clock_.now());
        obs_->trace().arg("shard", dead);
    }
    if (rec_) {
        rec_->note(recInstance_, FrCat::Cluster, FrKind::ClusterShardFail,
                   clock_.now(), dead);
    }

    // Replica sets before and after the death: `dead` still counts as
    // alive for the "before" view so we can tell which stripes lost a
    // copy and who their ring-successor replacement is.
    const auto aliveBefore = [&](std::uint32_t s) {
        return s == dead ? true : shards_[s]->alive;
    };
    ds.alive = false;
    const auto aliveNow = [&](std::uint32_t s) {
        return shards_[s]->alive;
    };
    const auto n = static_cast<std::uint32_t>(shards_.size());
    const auto collect = [&](std::uint64_t stripe, const auto &alive) {
        const std::uint32_t primary = primaryShard(placement_, stripe, n);
        ReplicaSet set;
        for (std::uint32_t step = 0; step < n && set.count < repl_;
             step++) {
            const std::uint32_t s = (primary + step) % n;
            if (alive(s))
                set.shard[set.count++] = s;
        }
        return set;
    };

    // Eager re-replication: copy every stripe the dead shard held from
    // a surviving replica onto the newcomer its replica set gained.
    // The copies are bulk background transfers (one logical
    // src->host->dst stream per shard pair); they are accounted in
    // ClusterStats rather than the demand-path NetStats, like
    // evacuateAll's measurement-window-exempt flush.
    const std::uint64_t numStripes =
        (capacity_ + stripeBytes_ - 1) / stripeBytes_;
    if (lost_.empty())
        lost_.assign(numStripes, false);
    std::vector<std::byte> buf(stripeBytes_);
    std::uint64_t movedStripes = 0, movedBytes = 0, lostStripes = 0;
    bool pairTouched = false;
    for (std::uint64_t stripe = 0; stripe < numStripes; stripe++) {
        const ReplicaSet before = collect(stripe, aliveBefore);
        if (!before.contains(dead))
            continue;
        const ReplicaSet after = collect(stripe, aliveNow);
        std::int64_t src = -1;
        for (std::uint32_t i = 0; i < after.count; i++) {
            if (before.contains(after.shard[i])) {
                src = after.shard[i];
                break;
            }
        }
        if (src < 0) {
            // The dead shard held the only copy (k == 1): the data is
            // gone. Remember that so a later read fails loudly instead
            // of returning the newcomer's zero-filled store.
            lost_[stripe] = true;
            lostStripes++;
            continue;
        }
        const std::uint64_t at = stripe * stripeBytes_;
        const std::uint64_t len =
            std::min<std::uint64_t>(stripeBytes_, capacity_ - at);
        for (std::uint32_t i = 0; i < after.count; i++) {
            const std::uint32_t m = after.shard[i];
            if (before.contains(m))
                continue;
            shards_[static_cast<std::size_t>(src)]->node.rawRead(
                at, buf.data(), len);
            shards_[m]->node.rawWrite(at, buf.data(), len);
            movedStripes++;
            movedBytes += len;
            pairTouched = true;
        }
    }
    cstats_.reReplicatedStripes += movedStripes;
    cstats_.reReplicatedBytes += movedBytes;
    if (pairTouched) {
        // One orchestration charge for kicking off the recovery stream;
        // the bulk bytes themselves flow at background priority.
        clock_.advance(shards_[dead]->costs.perMessageCpuCycles);
    }
    if (lostStripes > 0) {
        TFM_WARN("cluster: %llu stripes lost their last replica "
                 "(replication factor 1)",
                 static_cast<unsigned long long>(lostStripes));
    }
    updateSoleNode();
    if (obs_ && obs_->trace().enabled() && movedStripes > 0) {
        obs_->trace().instant(obsStream_, TrackApp, "re-replicate",
                              "cluster", clock_.now());
        obs_->trace().arg("stripes", movedStripes);
        obs_->trace().arg("bytes", movedBytes);
    }
    if (rec_) {
        rec_->note(recInstance_, FrCat::Cluster,
                   FrKind::ClusterReReplicate, clock_.now(), movedStripes,
                   movedBytes, lostStripes);
    }
}

void
ShardedCluster::fetch(std::uint64_t offset, std::byte *dst,
                      std::size_t len)
{
    pollFailures();
    Shard &s = *shards_[readShard(offset, len)];
    s.node.fetch(s.net, offset, dst, len);
}

std::uint64_t
ShardedCluster::fetchBatchAsync(std::span<const RemoteFetchSeg> segs,
                                std::span<std::uint64_t> arrivals)
{
    pollFailures();
    TFM_ASSERT(!segs.empty(), "empty cluster fetch batch");
    TFM_ASSERT(arrivals.size() == segs.size(),
               "one arrival slot per segment");

    // Route every segment once (checks and counters). When one shard
    // serves them all, the caller's list is that shard's message.
    std::uint32_t first = 0;
    bool one_shard = true;
    for (std::size_t i = 0; i < segs.size(); i++) {
        const std::uint32_t s = readShard(segs[i].offset, segs[i].len);
        if (i == 0)
            first = s;
        one_shard = one_shard && s == first;
    }
    if (one_shard) {
        Shard &shard = *shards_[first];
        return shard.node.fetchBatchAsync(shard.net, segs, arrivals);
    }

    // Split the host-side batch by serving shard, keeping each group a
    // single coalesced message on that shard's link.
    struct Group
    {
        std::vector<RemoteFetchSeg> segs;
        std::vector<std::size_t> index;
    };
    // Every segment is in a live stripe with a live replica (checked
    // above), so its first live replica is its serving shard.
    std::vector<Group> groups(shards_.size());
    for (std::size_t i = 0; i < segs.size(); i++) {
        const std::uint32_t s =
            liveReplicas(stripeOf(segs[i].offset)).shard[0];
        groups[s].segs.push_back(segs[i]);
        groups[s].index.push_back(i);
    }

    std::vector<std::uint64_t> shard_arrivals;
    std::uint64_t last = 0;
    for (std::size_t s = 0; s < groups.size(); s++) {
        Group &g = groups[s];
        if (g.segs.empty())
            continue;
        Shard &shard = *shards_[s];
        shard_arrivals.resize(g.segs.size());
        last = std::max(last, shard.node.fetchBatchAsync(
                                  shard.net, g.segs, shard_arrivals));
        for (std::size_t i = 0; i < g.index.size(); i++)
            arrivals[g.index[i]] = shard_arrivals[i];
    }
    cstats_.splitFetchBatches++;
    return last;
}

ShardedCluster::ReplicaSet
ShardedCluster::writeReplicas(const RemoteWriteSeg &seg)
{
    const std::uint64_t stripe = segmentStripe(seg.offset, seg.len);
    // A charge-only write carries no bytes to re-home a lost stripe with.
    if (!seg.src && anyLost(seg.offset, seg.offset + seg.len))
        TFM_PANIC("charge-only write of a stripe lost with its last replica");
    const ReplicaSet set = liveReplicas(stripe);
    TFM_ASSERT(set.count > 0,
               "shard failure left no live replica for stripe");
    if (set.count < repl_)
        cstats_.degradedWrites++;
    if (seg.src)
        markWritten(seg.offset, seg.offset + seg.len);
    return set;
}

void
ShardedCluster::writebackBatch(std::span<const RemoteWriteSeg> segs)
{
    pollFailures();
    TFM_ASSERT(!segs.empty(), "empty cluster writeback batch");
    // Route every segment once (checks, counters, lost marks). One
    // payload, or payloads that all live on the same single shard: the
    // caller's list is the message, to each live replica, primary first.
    const ReplicaSet first = writeReplicas(segs[0]);
    bool one_shard = first.count == 1;
    for (std::size_t i = 1; i < segs.size(); i++) {
        const ReplicaSet set = writeReplicas(segs[i]);
        one_shard =
            one_shard && set.count == 1 && set.shard[0] == first.shard[0];
    }
    if (segs.size() == 1 || one_shard) {
        for (std::uint32_t i = 0; i < first.count; i++) {
            Shard &shard = *shards_[first.shard[i]];
            shard.node.writebackBatch(shard.net, segs);
        }
        return;
    }
    // The payloads span two or more shards: one message per shard.
    std::vector<std::vector<RemoteWriteSeg>> groups(shards_.size());
    for (const RemoteWriteSeg &seg : segs) {
        const ReplicaSet set = liveReplicas(stripeOf(seg.offset));
        for (std::uint32_t i = 0; i < set.count; i++)
            groups[set.shard[i]].push_back(seg);
    }
    for (std::size_t s = 0; s < groups.size(); s++) {
        if (groups[s].empty())
            continue;
        Shard &shard = *shards_[s];
        shard.node.writebackBatch(shard.net, groups[s]);
    }
    cstats_.splitWritebackBatches++;
}

void
ShardedCluster::markWritten(std::uint64_t offset, std::uint64_t end)
{
    // A write that covers a whole lost stripe makes it readable again.
    // Only a stripe lost with its last replica needs the check.
    if (lost_.empty())
        return;
    for (std::uint64_t s = stripeOf(offset); s * stripeBytes_ < end; s++) {
        const std::uint64_t start = s * stripeBytes_;
        const std::uint64_t stop =
            std::min<std::uint64_t>(start + stripeBytes_, capacity_);
        if (lost(s) && offset <= start && end >= stop)
            lost_[s] = false;
    }
}

std::uint64_t
ShardedCluster::runEnd(std::uint64_t at, std::uint64_t end,
                       const ReplicaSet &set) const
{
    std::uint64_t next = stripeOf(at) + 1;
    while (next * stripeBytes_ < end && liveReplicas(next) == set)
        next++;
    return std::min(end, next * stripeBytes_);
}

void
ShardedCluster::updateSoleNode()
{
    RemoteNode *node = nullptr;
    std::uint32_t live = 0;
    for (const auto &shard : shards_) {
        if (shard->alive) {
            node = &shard->node;
            live++;
        }
    }
    const bool none_lost =
        std::find(lost_.begin(), lost_.end(), true) == lost_.end();
    soleNode_ = live == 1 && none_lost ? node : nullptr;
}

bool
ShardedCluster::anyLost(std::uint64_t offset, std::uint64_t end) const
{
    if (lost_.empty())
        return false;
    for (std::uint64_t s = stripeOf(offset); s * stripeBytes_ < end; s++) {
        if (lost(s))
            return true;
    }
    return false;
}

void
ShardedCluster::rawWrite(std::uint64_t offset, const std::byte *src,
                         std::size_t len)
{
    if (soleNode_) {
        soleNode_->rawWrite(offset, src, len);
        return;
    }
    const std::uint64_t end = offset + len;
    for (std::uint64_t at = offset; at < end;) {
        const ReplicaSet set = liveReplicas(stripeOf(at));
        const std::uint64_t run_end = runEnd(at, end, set);
        TFM_ASSERT(set.count > 0,
                   "shard failure left no live replica for stripe");
        for (std::uint32_t i = 0; i < set.count; i++) {
            shards_[set.shard[i]]->node.rawWrite(at, src + (at - offset),
                                                 run_end - at);
        }
        markWritten(at, run_end);
        at = run_end;
    }
}

void
ShardedCluster::rawRead(std::uint64_t offset, std::byte *dst,
                        std::size_t len) const
{
    if (soleNode_) {
        soleNode_->rawRead(offset, dst, len);
        return;
    }
    const std::uint64_t end = offset + len;
    for (std::uint64_t at = offset; at < end;) {
        const ReplicaSet set = liveReplicas(stripeOf(at));
        const std::uint64_t run_end = runEnd(at, end, set);
        if (anyLost(at, run_end))
            TFM_PANIC("read of a stripe lost with its last replica");
        TFM_ASSERT(set.count > 0,
                   "shard failure left no live replica for stripe");
        shards_[set.shard[0]]->node.rawRead(at, dst + (at - offset),
                                            run_end - at);
        at = run_end;
    }
}

std::byte *
ShardedCluster::rawSpan(std::uint64_t offset, std::size_t len)
{
    // In place only where one store holds the only copy and keeps it:
    // one copy, one live shard for the whole range, no lost stripe and
    // no failure still to come.
    if (repl_ != 1 || nextFailure_ < pending_.size())
        return nullptr;
    if (soleNode_)
        return soleNode_->span(offset, len);
    const std::uint64_t end = offset + std::max<std::size_t>(len, 1);
    const ReplicaSet set = liveReplicas(stripeOf(offset));
    if (set.count == 0 || runEnd(offset, end, set) < end ||
        anyLost(offset, end)) {
        return nullptr;
    }
    return shards_[set.shard[0]]->node.span(offset, len);
}

NetStats
ShardedCluster::netStats() const
{
    NetStats total;
    for (const auto &shard : shards_)
        total += shard->net.stats();
    return total;
}

RemoteStats
ShardedCluster::remoteStats() const
{
    RemoteStats total;
    for (const auto &shard : shards_)
        total += shard->node.stats();
    return total;
}

NetworkModel &
ShardedCluster::link(std::uint32_t shard)
{
    TFM_ASSERT(shard < shards_.size(), "shard index out of range");
    return shards_[shard]->net;
}

RemoteNode &
ShardedCluster::node(std::uint32_t shard)
{
    TFM_ASSERT(shard < shards_.size(), "shard index out of range");
    return shards_[shard]->node;
}

bool
ShardedCluster::shardAlive(std::uint32_t shard) const
{
    TFM_ASSERT(shard < shards_.size(), "shard index out of range");
    return shards_[shard]->alive;
}

NetStats
ShardedCluster::shardNetStats(std::uint32_t shard) const
{
    TFM_ASSERT(shard < shards_.size(), "shard index out of range");
    return shards_[shard]->net.stats();
}

const RemoteStats &
ShardedCluster::shardRemoteStats(std::uint32_t shard) const
{
    TFM_ASSERT(shard < shards_.size(), "shard index out of range");
    return shards_[shard]->node.stats();
}

std::uint32_t
ShardedCluster::primaryShardOf(std::uint64_t offset) const
{
    return primaryShard(placement_, stripeOf(offset), shardCount());
}

ShardedCluster::ReplicaSet
ShardedCluster::replicasOf(std::uint64_t offset) const
{
    return liveReplicas(stripeOf(offset));
}

void
ShardedCluster::attachObs(Observability *sink, std::uint32_t stream)
{
    obs_ = sink;
    obsStream_ = stream;
    for (std::uint32_t i = 0; i < shardCount(); i++) {
        shards_[i]->net.attachObs(sink, stream, trackBase(i));
        if (sink && shardCount() > 1)
            sink->registerShardTracks(stream, i);
    }
}

void
ShardedCluster::attachRecorder(FlightRecorder *recorder,
                               std::uint16_t instance)
{
    rec_ = recorder;
    recInstance_ = instance;
    for (std::size_t i = 0; i < shards_.size(); i++) {
        shards_[i]->net.attachRecorder(recorder, instance,
                                       static_cast<std::uint32_t>(i));
    }
}

void
ShardedCluster::exportStats(StatSet &set) const
{
    // A 1-shard tier is the single remote server: like its trace tracks,
    // its stats are the single link's alone.
    if (shardCount() == 1)
        return;
    set.add("cluster.shards", shards_.size());
    set.add("cluster.replication", repl_);
    set.add("cluster.stripe_bytes", stripeBytes_);
    set.add("cluster.shard_failures", cstats_.shardFailures);
    set.add("cluster.degraded_reads", cstats_.degradedReads);
    set.add("cluster.degraded_writes", cstats_.degradedWrites);
    set.add("cluster.re_replicated_stripes", cstats_.reReplicatedStripes);
    set.add("cluster.re_replicated_bytes", cstats_.reReplicatedBytes);
    set.add("cluster.split_fetch_batches", cstats_.splitFetchBatches);
    set.add("cluster.split_writeback_batches",
            cstats_.splitWritebackBatches);
    for (std::size_t i = 0; i < shards_.size(); i++) {
        char name[64];
        const NetStats &net = shards_[i]->net.stats();
        std::snprintf(name, sizeof(name), "cluster.shard%zu.alive", i);
        set.add(name, shards_[i]->alive ? 1 : 0);
        std::snprintf(name, sizeof(name),
                      "cluster.shard%zu.bytes_fetched", i);
        set.add(name, net.bytesFetched);
        std::snprintf(name, sizeof(name),
                      "cluster.shard%zu.bytes_written_back", i);
        set.add(name, net.bytesWrittenBack);
        std::snprintf(name, sizeof(name),
                      "cluster.shard%zu.fetch_messages", i);
        set.add(name, net.fetchMessages);
        std::snprintf(name, sizeof(name),
                      "cluster.shard%zu.writeback_messages", i);
        set.add(name, net.writebackMessages);
    }
}

} // namespace tfm
