#include "far_mem_runtime.hh"

#include <algorithm>
#include <cstring>
#include <thread>

#include "obs/obs.hh"
#include "obs/replay.hh"
#include "sim/logging.hh"

namespace tfm
{

RuntimeStats &
RuntimeStats::operator+=(const RuntimeStats &other)
{
    demandFetches += other.demandFetches;
    prefetchIssued += other.prefetchIssued;
    prefetchHits += other.prefetchHits;
    prefetchLateHits += other.prefetchLateHits;
    evictions += other.evictions;
    dirtyWritebacks += other.dirtyWritebacks;
    localizeCalls += other.localizeCalls;
    prefetchBatches += other.prefetchBatches;
    inflightJoins += other.inflightJoins;
    writebackFlushes += other.writebackFlushes;
    writebackBufferHits += other.writebackBufferHits;
    return *this;
}

thread_local FarMemRuntime::WorkerContext *FarMemRuntime::tlsWorker_ =
    nullptr;

FarMemRuntime::FarMemRuntime(const RuntimeConfig &config,
                             const CostParams &cost_params)
    : cfg(config),
      _costs(cost_params),
      ost(config.farHeapBytes, config.objectSizeBytes),
      cache(config.localMemBytes, config.objectSizeBytes,
            config.cacheShards ? config.cacheShards : 1),
      alloc_(config.farHeapBytes, config.objectSizeBytes),
      prefetcher(config.prefetchDepth)
{
    rec_ = cfg.recorder ? cfg.recorder : obs::defaultRecorder();
    if (cfg.concurrent) {
        TFM_ASSERT(!rec_, "record/replay needs the deterministic "
                          "single-stream runtime (concurrent=false)");
        TFM_ASSERT(!cfg.cluster.wantsCluster(),
                   "the concurrent runtime drives the single-node "
                   "remote tier (fetchMt charges one link)");
        // The MT data plane is demand-only: speculation would need
        // cross-shard frame traffic under a single shard lock.
        cfg.prefetchEnabled = false;
    }
    if (rec_)
        recInstance_ = rec_->registerInstance();
    if (rec_ && rec_->replaying()) {
        // The recorded stream stands in for the whole remote tier.
        backend_ = std::make_unique<ReplayBackend>(
            _clock, _costs, cfg.farHeapBytes, *rec_, recInstance_);
    } else {
        backend_ = makeRemoteBackend(_clock, _costs, cfg.farHeapBytes,
                                     cfg.objectSizeBytes, cfg.cluster);
        if (rec_) {
            // Context streams (link messages, shard deaths) hook the
            // inner backend; the decorator logs the op stream itself.
            backend_->attachRecorder(rec_, recInstance_);
            backend_ = std::make_unique<RecordingBackend>(
                std::move(backend_), _clock, *rec_, recInstance_);
        }
    }
    obs_ = cfg.obs ? cfg.obs : obs::defaultSink();
    if (obs_) {
        obsStream_ = obs_->registerStream(
            cfg.obsLabel.empty() ? cfg.obsKind : cfg.obsLabel.c_str());
        backend_->attachObs(obs_, obsStream_);
    }
}

CycleClock &
FarMemRuntime::clock()
{
    WorkerContext *w = boundWorker();
    return w ? w->clock : _clock;
}

const CycleClock &
FarMemRuntime::clock() const
{
    const WorkerContext *w = boundWorker();
    return w ? w->clock : _clock;
}

const RuntimeStats &
FarMemRuntime::stats() const
{
    const WorkerContext *w = boundWorker();
    return w ? w->stats : _stats;
}

RuntimeStats
FarMemRuntime::mergedStats() const
{
    RuntimeStats total = _stats;
    for (const auto &ctx : workers_)
        total += ctx->stats;
    return total;
}

FarMemRuntime::WorkerContext *
FarMemRuntime::registerWorker()
{
    TFM_ASSERT(cfg.concurrent,
               "registerWorker() on a deterministic runtime");
    auto ctx = std::make_unique<WorkerContext>();
    ctx->owner = this;
    ctx->index = static_cast<std::uint32_t>(workers_.size());
    // Workers inherit the setup-time clock so their timeline never lags
    // the device clock's link reservations (which cannot rewind).
    ctx->clock.advanceTo(_clock.now());
    workers_.push_back(std::move(ctx));
    return workers_.back().get();
}

void
FarMemRuntime::bindWorker(WorkerContext *w)
{
    TFM_ASSERT(w && w->owner == this, "binding a foreign worker context");
    tlsWorker_ = w;
}

void
FarMemRuntime::unbindWorker()
{
    tlsWorker_ = nullptr;
}

FarMemRuntime::WorkerContext *
FarMemRuntime::boundWorker() const
{
    WorkerContext *w = tlsWorker_;
    return (w && w->owner == this) ? w : nullptr;
}

std::uint64_t
FarMemRuntime::allocate(std::uint64_t bytes)
{
    clock().advance(_costs.allocCycles);
    if (cfg.concurrent) {
        std::lock_guard<std::mutex> g(allocMu_);
        const std::uint64_t offset = alloc_.allocate(bytes);
        TFM_ASSERT(offset != RegionAllocator::badOffset,
                   "far heap exhausted");
        return offset;
    }
    const std::uint64_t offset = alloc_.allocate(bytes);
    TFM_ASSERT(offset != RegionAllocator::badOffset, "far heap exhausted");
    return offset;
}

void
FarMemRuntime::deallocate(std::uint64_t offset)
{
    clock().advance(_costs.allocCycles);
    if (cfg.concurrent) {
        std::lock_guard<std::mutex> g(allocMu_);
        alloc_.deallocate(offset);
        return;
    }
    alloc_.deallocate(offset);
}

std::uint64_t
FarMemRuntime::sizeOf(std::uint64_t offset) const
{
    return alloc_.sizeOf(offset);
}

std::byte *
FarMemRuntime::tryFast(std::uint64_t offset, bool for_write)
{
    const std::uint64_t obj_id = ost.objectOf(offset);
    ObjectMeta &meta = ost[obj_id];
    if (!meta.safeForFastPath())
        return nullptr;
    cache.frame(meta.frame()).refbit.store(true, std::memory_order_relaxed);
    if (for_write)
        meta.setDirty();
    return cache.frameData(meta.frame()) + ost.offsetInObject(offset);
}

std::byte *
FarMemRuntime::localize(std::uint64_t offset, bool for_write,
                        Localized *outcome)
{
    _stats.localizeCalls++;
    if (obs_ && obs_->seriesDue(obsStream_, _clock.now()))
        obsEpochSample();
    const std::uint64_t obj_id = ost.objectOf(offset);
    ObjectMeta &meta = ost[obj_id];

    if (meta.present()) {
        Frame &f = cache.frame(meta.frame());
        f.refbit.store(true, std::memory_order_relaxed);
        Localized result = Localized::AlreadyLocal;
        if (meta.inflight()) {
            // An in-flight (possibly batched) fetch already covers this
            // object: join it instead of issuing a duplicate demand
            // fetch, waiting out only the residual latency.
            const bool late = f.arrivalCycle > _clock.now();
            if (obs_) {
                obs_->prefetchWait.record(
                    late ? f.arrivalCycle - _clock.now() : 0);
            }
            _clock.advanceTo(f.arrivalCycle);
            meta.clearInflight();
            _stats.prefetchHits++;
            _stats.inflightJoins++;
            if (late)
                _stats.prefetchLateHits++;
            result = Localized::PrefetchWait;
        }
        if (for_write)
            meta.setDirty();
        if (outcome)
            *outcome = result;
        return cache.frameData(meta.frame()) + ost.offsetInObject(offset);
    }

    // Demand miss. takeFrame() first: its eviction may park further
    // entries in (or flush) the writeback buffer.
    const std::uint64_t missStart = _clock.now();
    const std::uint64_t frame_idx = takeFrame(obj_id);
    std::byte *data = cache.frameData(frame_idx);
    Frame &f = cache.frame(frame_idx);
    f.objId = obj_id;
    f.arrivalCycle = 0;

    const std::ptrdiff_t wb = findPendingWriteback(obj_id);
    if (wb >= 0) {
        // The object was evicted dirty but its payload is still parked
        // in the writeback buffer: resurrect it locally without any
        // network traffic. The remote copy is stale, so it stays dirty.
        std::memcpy(data, wbBuf[static_cast<std::size_t>(wb)].data.data(),
                    ost.objectSize());
        wbBuf.erase(wbBuf.begin() + wb);
        parkedCount_--;
        _clock.advance(_costs.evacuateObjectCycles);
        meta.makeLocal(frame_idx);
        meta.setDirty();
        _stats.writebackBufferHits++;
        if (obs_ && obs_->trace().enabled()) {
            obs_->trace().instant(obsStream_, TrackApp, "wb-resurrect",
                                  "runtime", _clock.now());
            obs_->trace().arg("obj", obj_id);
        }
        if (outcome)
            *outcome = Localized::AlreadyLocal;
        return data + ost.offsetInObject(offset);
    }

    // Blocking fetch from the remote node. A begin/end span (rather
    // than a completed one) keeps the app track timestamp-ordered: the
    // lookahead issued by onDemandMiss() emits instants inside it.
    if (obs_ && obs_->trace().enabled()) {
        obs_->trace().begin(obsStream_, TrackApp, "demand-fetch",
                            "runtime", _clock.now());
        obs_->trace().arg("obj", obj_id);
    }
    backend_->fetch(obj_id << ost.objectShift(), data, ost.objectSize());
    _clock.advance(_costs.remoteFetchSwCycles);
    meta.makeLocal(frame_idx);
    if (for_write)
        meta.setDirty();
    _stats.demandFetches++;
    onDemandMiss(obj_id);
    if (obs_) {
        obs_->demandFetch.record(_clock.now() - missStart);
        if (lastMissObj != ~0ull) {
            obs_->interMissDist.record(obj_id > lastMissObj
                                           ? obj_id - lastMissObj
                                           : lastMissObj - obj_id);
        }
        lastMissObj = obj_id;
        if (obs_->trace().enabled()) {
            obs_->trace().end(obsStream_, TrackApp, "demand-fetch",
                              "runtime", _clock.now());
        }
    }
    if (outcome)
        *outcome = Localized::RemoteFetch;
    return data + ost.offsetInObject(offset);
}

std::uint64_t
FarMemRuntime::takeFrame(std::uint64_t obj_id)
{
    const std::uint32_t shard = cache.shardOf(obj_id);
    std::uint64_t frame_idx = cache.allocFrameIn(shard);
    if (frame_idx != FrameCache::noFrame)
        return frame_idx;
    std::uint64_t victim = cache.pickVictimIn(shard);
    TFM_ASSERT(victim != FrameCache::noFrame,
               "local memory exhausted: every frame is pinned");
    victim = evacDecision(victim);
    evictFrame(victim);
    frame_idx = cache.allocFrameIn(shard);
    TFM_ASSERT(frame_idx != FrameCache::noFrame, "eviction freed no frame");
    return frame_idx;
}

void
FarMemRuntime::evictFrame(std::uint64_t frame_idx)
{
    Frame &f = cache.frame(frame_idx);
    ObjectMeta &meta = ost[f.objId];
    TFM_ASSERT(meta.present() && meta.frame() == frame_idx,
               "state table / frame cache mismatch on eviction");
    _clock.advance(_costs.evacuateObjectCycles);
    if (obs_ && obs_->trace().enabled()) {
        obs_->trace().instant(obsStream_, TrackApp, "evict", "runtime",
                              _clock.now());
        obs_->trace().arg("obj", f.objId);
        obs_->trace().arg("dirty", meta.dirty() ? 1 : 0);
    }
    if (meta.dirty()) {
        _stats.dirtyWritebacks++;
        if (cfg.batchingEnabled && cfg.writebackBatchMax > 1) {
            // Park the payload in the coalescing buffer; the frame is
            // reused immediately, so the bytes must be copied out.
            if (wbBuf.empty())
                wbOldestCycle = _clock.now();
            PendingWriteback pending;
            pending.objId = f.objId;
            pending.parkCycle = _clock.now();
            pending.data.assign(cache.frameData(frame_idx),
                                cache.frameData(frame_idx) +
                                    ost.objectSize());
            wbBuf.push_back(std::move(pending));
            parkedCount_++;
        } else {
            backend_->writeback(f.objId << ost.objectShift(),
                                cache.frameData(frame_idx),
                                ost.objectSize());
        }
    }
    meta.makeRemote();
    cache.releaseFrame(frame_idx);
    _stats.evictions++;
    _evictionEpoch++;
    maybeFlushWritebacks();
}

std::uint64_t
FarMemRuntime::evacDecision(std::uint64_t victim)
{
    if (!rec_)
        return victim;
    const Frame &f = cache.frame(victim);
    const ObjectMeta &meta = ost[f.objId];
    std::uint64_t args[4] = {victim, f.objId, meta.dirty() ? 1u : 0u,
                             _evictionEpoch.load()};
    rec_->record(recInstance_, FrCat::Evac, FrKind::EvacVictim, _clock.now(),
                 args, 4);
    return args[0];
}

std::ptrdiff_t
FarMemRuntime::findPendingWriteback(std::uint64_t obj_id) const
{
    for (std::size_t i = 0; i < wbBuf.size(); i++) {
        if (wbBuf[i].objId == obj_id)
            return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
}

void
FarMemRuntime::flushWritebacks()
{
    if (wbBuf.empty())
        return;
    if (obs_) {
        const std::uint64_t now = _clock.now();
        for (const PendingWriteback &pending : wbBuf)
            obs_->wbResidency.record(now - pending.parkCycle);
        if (obs_->trace().enabled()) {
            obs_->trace().instant(obsStream_, TrackApp, "wb-flush",
                                  "runtime", now);
            obs_->trace().arg("entries", wbBuf.size());
        }
    }
    std::vector<RemoteWriteSeg> segs;
    segs.reserve(wbBuf.size());
    for (const PendingWriteback &pending : wbBuf) {
        segs.push_back({pending.objId << ost.objectShift(),
                        pending.data.data(), ost.objectSize()});
    }
    backend_->writebackBatch(segs);
    parkedCount_ -= wbBuf.size();
    wbBuf.clear();
    _stats.writebackFlushes++;
}

void
FarMemRuntime::maybeFlushWritebacks()
{
    if (wbBuf.empty())
        return;
    if (wbBuf.size() >= cfg.writebackBatchMax ||
        _clock.now() - wbOldestCycle >= cfg.writebackFlushCycles) {
        flushWritebacks();
    }
}

void
FarMemRuntime::onDemandMiss(std::uint64_t obj_id)
{
    if (!cfg.prefetchEnabled)
        return;
    std::int64_t stride = prefetcher.onDemandMiss(obj_id);
    if (rec_) {
        // Prefetcher decision feed: every demand miss records (and
        // replay verifies) the issue decision, stride 0 included.
        std::uint64_t args[4] = {obj_id,
                                 static_cast<std::uint64_t>(stride),
                                 prefetcher.depth(), 0};
        rec_->record(recInstance_, FrCat::Prefetch,
                     FrKind::PrefetchDecision, _clock.now(), args, 4);
        stride = static_cast<std::int64_t>(args[1]);
    }
    if (stride != 0)
        prefetchObjects(obj_id, stride, prefetcher.depth());
}

void
FarMemRuntime::prefetchObjects(std::uint64_t obj_id, std::int64_t stride,
                               std::uint32_t count)
{
    // Never speculate past the allocated region: fetching unallocated
    // objects only pollutes the local tier.
    const std::uint64_t frontier_obj =
        (alloc_.frontier() + ost.objectSize() - 1) >> ost.objectShift();

    const std::uint32_t batch_max =
        (cfg.batchingEnabled && cfg.fetchBatchMax > 1) ? cfg.fetchBatchMax
                                                       : 1;
    // Segments of the batch being assembled, and the frames they land
    // in. Collected frames are transiently pinned so mid-collection
    // evictions (for later targets) can never steal them before their
    // payload arrives.
    std::vector<RemoteFetchSeg> segs;
    std::vector<std::uint64_t> seg_frames;

    const auto issueBatch = [&] {
        if (segs.empty())
            return;
        if (obs_ && obs_->trace().enabled()) {
            obs_->trace().instant(obsStream_, TrackApp, "prefetch-issue",
                                  "runtime", _clock.now());
            obs_->trace().arg("count", segs.size());
        }
        // Per-segment arrivals: the batch's payloads stream back in
        // order, so the first objects of the window are consumable
        // before the tail has serialized.
        std::vector<std::uint64_t> arrivals;
        backend_->fetchBatchAsync(segs, &arrivals);
        for (std::size_t i = 0; i < seg_frames.size(); i++) {
            Frame &f = cache.frame(seg_frames[i]);
            f.arrivalCycle = arrivals[i];
            f.pins--;
        }
        _stats.prefetchIssued += segs.size();
        if (segs.size() >= 2)
            _stats.prefetchBatches++;
        segs.clear();
        seg_frames.clear();
    };

    for (std::uint32_t k = 1; k <= count; k++) {
        const std::int64_t target =
            static_cast<std::int64_t>(obj_id) + stride * k;
        if (target < 0 ||
            static_cast<std::uint64_t>(target) >= ost.numObjects() ||
            static_cast<std::uint64_t>(target) >= frontier_obj) {
            break;
        }
        const std::uint64_t tid = static_cast<std::uint64_t>(target);
        ObjectMeta &meta = ost[tid];
        if (meta.present())
            continue;
        // Pending-writeback objects are resurrected from the buffer on
        // demand; fetching the (stale) remote copy would be wrong.
        if (findPendingWriteback(tid) >= 0)
            continue;
        const std::uint32_t shard = cache.shardOf(tid);
        std::uint64_t frame_idx = cache.allocFrameIn(shard);
        if (frame_idx == FrameCache::noFrame) {
            const std::uint64_t victim = cache.pickVictimIn(shard);
            if (victim == FrameCache::noFrame)
                break; // everything pinned; skip prefetching
            evictFrame(evacDecision(victim));
            frame_idx = cache.allocFrameIn(shard);
            if (frame_idx == FrameCache::noFrame)
                break;
        }
        meta.makeLocal(frame_idx);
        meta.setInflight();
        Frame &f = cache.frame(frame_idx);
        f.objId = tid;
        f.arrivalCycle = ~0ull; // patched when the batch is issued
        f.pins++;
        segs.push_back({tid << ost.objectShift(),
                        cache.frameData(frame_idx), ost.objectSize()});
        seg_frames.push_back(frame_idx);
        if (segs.size() >= batch_max)
            issueBatch();
    }
    issueBatch();
}

void
FarMemRuntime::pinObject(std::uint64_t obj_id)
{
    ObjectMeta &meta = ost[obj_id];
    TFM_ASSERT(meta.present(), "pinning a remote object");
    Frame &f = cache.frame(meta.frame());
    f.pins++;
    meta.setPinned();
}

void
FarMemRuntime::unpinObject(std::uint64_t obj_id)
{
    ObjectMeta &meta = ost[obj_id];
    TFM_ASSERT(meta.present() && meta.pinned(), "unpinning an unpinned object");
    Frame &f = cache.frame(meta.frame());
    TFM_ASSERT(f.pins > 0, "pin count underflow");
    if (--f.pins == 0)
        meta.clearPinned();
}

void
FarMemRuntime::rawWrite(std::uint64_t offset, const void *src,
                        std::size_t len)
{
    const auto *bytes = static_cast<const std::byte *>(src);
    std::size_t done = 0;
    while (done < len) {
        const std::uint64_t at = offset + done;
        const std::uint64_t obj_id = ost.objectOf(at);
        const std::uint64_t in_obj = ost.offsetInObject(at);
        const std::size_t chunk = std::min<std::size_t>(
            len - done, ost.objectSize() - in_obj);
        backend_->rawWrite(at, bytes + done, chunk);
        const ObjectMeta &meta = ost[obj_id];
        if (meta.present()) {
            std::memcpy(cache.frameData(meta.frame()) + in_obj,
                        bytes + done, chunk);
        } else if (const std::ptrdiff_t wb = findPendingWriteback(obj_id);
                   wb >= 0) {
            // Keep the parked copy coherent, or the eventual flush
            // would overwrite this raw write with stale bytes.
            std::memcpy(wbBuf[static_cast<std::size_t>(wb)].data.data() +
                            in_obj,
                        bytes + done, chunk);
        }
        done += chunk;
    }
}

void
FarMemRuntime::rawRead(std::uint64_t offset, void *dst, std::size_t len)
{
    auto *bytes = static_cast<std::byte *>(dst);
    std::size_t done = 0;
    while (done < len) {
        const std::uint64_t at = offset + done;
        const std::uint64_t obj_id = ost.objectOf(at);
        const std::uint64_t in_obj = ost.offsetInObject(at);
        const std::size_t chunk = std::min<std::size_t>(
            len - done, ost.objectSize() - in_obj);
        const ObjectMeta &meta = ost[obj_id];
        if (meta.present()) {
            std::memcpy(bytes + done,
                        cache.frameData(meta.frame()) + in_obj, chunk);
        } else if (const std::ptrdiff_t wb = findPendingWriteback(obj_id);
                   wb >= 0) {
            // A parked dirty copy is newer than the remote one.
            std::memcpy(bytes + done,
                        wbBuf[static_cast<std::size_t>(wb)].data.data() +
                            in_obj,
                        chunk);
        } else {
            backend_->rawRead(at, bytes + done, chunk);
        }
        done += chunk;
    }
}

void
FarMemRuntime::evacuateAll()
{
    // Drain the coalescing buffers first: these objects are already
    // remote in the state table, but their newest bytes are still
    // local. Flushed without measurement-window charges, like the
    // frame sweep below.
    drainWorkerWritebacks();
    for (const PendingWriteback &pending : wbBuf) {
        backend_->rawWrite(pending.objId << ost.objectShift(),
                           pending.data.data(), ost.objectSize());
    }
    parkedCount_ -= wbBuf.size();
    wbBuf.clear();
    for (std::uint64_t i = 0; i < cache.numFrames(); i++) {
        Frame &f = cache.frame(i);
        if (!f.used)
            continue;
        TFM_ASSERT(f.pins == 0, "evacuateAll with pinned frames");
        // Flush payload without charging measurement-window costs.
        ObjectMeta &meta = ost[f.objId];
        if (meta.dirty()) {
            backend_->rawWrite(f.objId << ost.objectShift(),
                               cache.frameData(i), ost.objectSize());
        }
        meta.makeRemote();
        cache.releaseFrame(i);
    }
    // Limbo frames are already unmapped; with no workers running (the
    // caller's contract) every reader is quiescent, so reclaim them all.
    for (std::uint32_t s = 0; s < cache.numShards(); s++)
        cache.reclaimFrames(s, quiescentEpoch);
    prefetcher.reset();
    _evictionEpoch++;
}

std::uint64_t
FarMemRuntime::minActiveEpoch() const
{
    std::uint64_t min = quiescentEpoch;
    for (const auto &ctx : workers_)
        min = std::min(min, ctx->epochSlot.load());
    return min;
}

bool
FarMemRuntime::tryFastReadMt(WorkerContext &w, std::uint64_t offset,
                             void *dst, std::size_t len, MtFill *fill)
{
    const std::uint64_t obj_id = ost.objectOf(offset);
    epochEnter(w);
    // Exactly one snapshot of the state word: decoding safety and the
    // frame index from separate loads could straddle an eviction.
    const std::uint64_t raw = ost[obj_id].raw();
    const bool hit = ObjectMeta::rawSafe(raw);
    if (hit) {
        const std::uint64_t frame_idx = ObjectMeta::rawFrame(raw);
        std::byte *base = cache.frameData(frame_idx);
        // The epoch section covers the copy: even if the frame is
        // retired mid-memcpy its payload cannot be reused until this
        // worker quiesces (the bytes read may be stale only if the app
        // itself races a writer on this object, which is an app race).
        std::memcpy(dst, base + ost.offsetInObject(offset), len);
        cache.frame(frame_idx).refbit.store(true,
                                            std::memory_order_relaxed);
        if (fill) {
            fill->valid = true;
            fill->objId = obj_id;
            // The epoch observed at entry: conservative (an eviction
            // since entry invalidates the fill on its first lookup).
            fill->epoch = w.epochSlot.load(std::memory_order_relaxed);
            fill->frameBase = base;
            fill->meta = &ost[obj_id];
            fill->frame = &cache.frame(frame_idx);
        }
    }
    epochExit(w);
    return hit;
}

bool
FarMemRuntime::tryCachedReadMt(WorkerContext &w, const MtFill &fill,
                               std::uint64_t offset, void *dst,
                               std::size_t len)
{
    if (!fill.valid || !cfg.guardCacheEnabled ||
        ost.objectOf(offset) != fill.objId)
        return false;
    epochEnter(w);
    // An unchanged epoch proves no frame anywhere was unmapped since
    // the fill, so the cached translation is live; the raw() snapshot
    // additionally respects a concurrent unmap that has not bumped the
    // epoch yet (its payload is still intact — EBR holds it — so a hit
    // racing the unmap still copies the right bytes).
    const bool hit = fill.epoch == _evictionEpoch.load() &&
                     ObjectMeta::rawSafe(fill.meta->raw());
    if (hit) {
        std::memcpy(dst, fill.frameBase + ost.offsetInObject(offset),
                    len);
        fill.frame->refbit.store(true, std::memory_order_relaxed);
    }
    epochExit(w);
    return hit;
}

void
FarMemRuntime::localizeReadMt(WorkerContext &w, std::uint64_t offset,
                              void *dst, std::size_t len, MtFill *fill,
                              Localized *outcome)
{
    const std::uint64_t obj_id = ost.objectOf(offset);
    const std::uint32_t shard = cache.shardOf(obj_id);
    std::lock_guard<std::mutex> g(cache.shardMutex(shard));
    w.stats.localizeCalls++;
    ObjectMeta &meta = ost[obj_id];
    Localized result = Localized::AlreadyLocal;
    std::uint64_t frame_idx;
    if (meta.present()) {
        // Lost the race to another worker's localize (or the fast path
        // missed on a transient in-flight bit): the object is here.
        frame_idx = meta.frame();
        Frame &f = cache.frame(frame_idx);
        f.refbit.store(true, std::memory_order_relaxed);
        if (meta.inflight()) {
            // Setup-time prefetch leftovers only; the MT data plane is
            // demand-only.
            w.clock.advanceTo(f.arrivalCycle);
            meta.clearInflight();
            w.stats.prefetchHits++;
            w.stats.inflightJoins++;
            result = Localized::PrefetchWait;
        }
    } else {
        frame_idx = takeFrameMt(w, shard);
        std::byte *data = cache.frameData(frame_idx);
        Frame &f = cache.frame(frame_idx);
        f.objId = obj_id;
        f.arrivalCycle = 0;
        if (parkedCount_.load() > 0 &&
            stealParkedWriteback(obj_id, data)) {
            // Evicted dirty and still parked in a writeback buffer:
            // resurrect locally; the stale remote copy stays dirty.
            w.clock.advance(_costs.evacuateObjectCycles);
            meta.makeLocal(frame_idx);
            meta.setDirty();
            w.stats.writebackBufferHits++;
        } else {
            fetchMt(w, obj_id, data);
            w.clock.advance(_costs.remoteFetchSwCycles);
            // Publish only after the payload is in place: a lock-free
            // reader that sees present must see the bytes (seq_cst
            // store orders after the fill).
            meta.makeLocal(frame_idx);
            w.stats.demandFetches++;
            result = Localized::RemoteFetch;
        }
    }
    // Copy out under the shard lock: the frame cannot be unmapped while
    // its stripe is held.
    std::memcpy(dst,
                cache.frameData(frame_idx) + ost.offsetInObject(offset),
                len);
    if (fill) {
        fill->valid = true;
        fill->objId = obj_id;
        fill->epoch = _evictionEpoch.load();
        fill->frameBase = cache.frameData(frame_idx);
        fill->meta = &meta;
        fill->frame = &cache.frame(frame_idx);
    }
    if (outcome)
        *outcome = result;
}

void
FarMemRuntime::localizeWriteMt(WorkerContext &w, std::uint64_t offset,
                               const void *src, std::size_t len,
                               bool *was_present, Localized *outcome)
{
    const std::uint64_t obj_id = ost.objectOf(offset);
    const std::uint32_t shard = cache.shardOf(obj_id);
    std::lock_guard<std::mutex> g(cache.shardMutex(shard));
    ObjectMeta &meta = ost[obj_id];
    const bool present = meta.present();
    Localized result = Localized::AlreadyLocal;
    std::uint64_t frame_idx;
    if (present) {
        frame_idx = meta.frame();
        Frame &f = cache.frame(frame_idx);
        f.refbit.store(true, std::memory_order_relaxed);
        if (meta.inflight()) {
            w.clock.advanceTo(f.arrivalCycle);
            meta.clearInflight();
            w.stats.prefetchHits++;
            w.stats.inflightJoins++;
        }
    } else {
        w.stats.localizeCalls++;
        frame_idx = takeFrameMt(w, shard);
        std::byte *data = cache.frameData(frame_idx);
        Frame &f = cache.frame(frame_idx);
        f.objId = obj_id;
        f.arrivalCycle = 0;
        if (parkedCount_.load() > 0 &&
            stealParkedWriteback(obj_id, data)) {
            w.clock.advance(_costs.evacuateObjectCycles);
            w.stats.writebackBufferHits++;
        } else {
            fetchMt(w, obj_id, data);
            w.clock.advance(_costs.remoteFetchSwCycles);
            w.stats.demandFetches++;
            result = Localized::RemoteFetch;
        }
        meta.makeLocal(frame_idx);
    }
    meta.setDirty();
    // In-place update under the shard lock; there is no lock-free
    // write path, so two writers to one object always serialize here.
    std::memcpy(cache.frameData(frame_idx) + ost.offsetInObject(offset),
                src, len);
    if (was_present)
        *was_present = present;
    if (outcome)
        *outcome = result;
}

std::uint64_t
FarMemRuntime::takeFrameMt(WorkerContext &w, std::uint32_t shard)
{
    for (std::uint64_t spin = 0;; spin++) {
        std::uint64_t frame_idx = cache.allocFrameIn(shard);
        if (frame_idx != FrameCache::noFrame)
            return frame_idx;
        if (cache.limboFrames(shard) > 0 &&
            cache.reclaimFrames(shard, minActiveEpoch()) > 0) {
            continue;
        }
        const std::uint64_t victim = cache.pickVictimIn(shard);
        if (victim != FrameCache::noFrame) {
            evictFrameMt(w, shard, victim);
            continue; // the victim reclaims once readers quiesce
        }
        // Every frame is pinned or parked behind an active reader.
        // Epoch sections never block on locks (the §4k deadlock-freedom
        // rule), so yielding lets the laggard finish and quiesce.
        TFM_ASSERT(spin < (1ull << 24),
                   "frame shard wedged: pins or readers never drain");
        std::this_thread::yield();
    }
}

void
FarMemRuntime::evictFrameMt(WorkerContext &w, std::uint32_t shard,
                            std::uint64_t frame_idx)
{
    Frame &f = cache.frame(frame_idx);
    ObjectMeta &meta = ost[f.objId];
    TFM_ASSERT(meta.present() && meta.frame() == frame_idx,
               "state table / frame cache mismatch on eviction");
    w.clock.advance(_costs.evacuateObjectCycles);
    if (meta.dirty()) {
        w.stats.dirtyWritebacks++;
        std::lock_guard<std::mutex> bg(w.wbMu);
        if (w.wbBuf.empty())
            w.wbOldestCycle = w.clock.now();
        PendingWriteback pending;
        pending.objId = f.objId;
        pending.parkCycle = w.clock.now();
        pending.data.assign(cache.frameData(frame_idx),
                            cache.frameData(frame_idx) +
                                ost.objectSize());
        w.wbBuf.push_back(std::move(pending));
        parkedCount_++;
    }
    // Unmap, then stamp, then retire. A reader whose epoch slot is >=
    // the stamp provably entered its section after the unmap (seq_cst
    // total order), re-read the state word, and missed — so a frame is
    // reclaimed only when min(active slots) >= its stamp.
    meta.makeRemote();
    const std::uint64_t stamp = ++_evictionEpoch;
    cache.retireFrame(shard, frame_idx, stamp);
    w.stats.evictions++;
    maybeFlushWorkerWritebacks(w);
}

void
FarMemRuntime::fetchMt(WorkerContext &w, std::uint64_t obj_id,
                       std::byte *data)
{
    std::lock_guard<std::mutex> g(netMu_);
    // Concurrent demand fetch (DESIGN.md §4k): the payload copy and
    // link stats happen under netMu_, but the cycle charge rides the
    // worker's own timeline via fetchSyncAt — per-core fetches overlap
    // the request latency instead of serializing behind the shared
    // device clock's busy frontier.
    const std::uint64_t off = obj_id << ost.objectShift();
    backend_->rawRead(off, data, ost.objectSize());
    const std::uint64_t done =
        backend_->link(0).fetchSyncAt(w.clock.now(), ost.objectSize());
    w.clock.advanceTo(done);
}

bool
FarMemRuntime::stealParkedWriteback(std::uint64_t obj_id, std::byte *dst)
{
    for (const auto &ctx : workers_) {
        std::lock_guard<std::mutex> g(ctx->wbMu);
        for (std::size_t i = 0; i < ctx->wbBuf.size(); i++) {
            if (ctx->wbBuf[i].objId != obj_id)
                continue;
            std::memcpy(dst, ctx->wbBuf[i].data.data(),
                        ost.objectSize());
            ctx->wbBuf.erase(ctx->wbBuf.begin() +
                             static_cast<std::ptrdiff_t>(i));
            parkedCount_--;
            return true;
        }
    }
    // The main-thread buffer can hold setup-time leftovers; workers
    // never add to it, but they may steal from it (mainWbMu_ keeps two
    // stealers apart — the main thread itself is idle while workers
    // run).
    std::lock_guard<std::mutex> g(mainWbMu_);
    const std::ptrdiff_t wb = findPendingWriteback(obj_id);
    if (wb < 0)
        return false;
    std::memcpy(dst, wbBuf[static_cast<std::size_t>(wb)].data.data(),
                ost.objectSize());
    wbBuf.erase(wbBuf.begin() + wb);
    parkedCount_--;
    return true;
}

void
FarMemRuntime::flushWorkerWritebacks(WorkerContext &w)
{
    std::lock_guard<std::mutex> bg(w.wbMu);
    if (w.wbBuf.empty())
        return;
    std::vector<RemoteWriteSeg> segs;
    segs.reserve(w.wbBuf.size());
    for (const PendingWriteback &pending : w.wbBuf) {
        segs.push_back({pending.objId << ost.objectShift(),
                        pending.data.data(), ost.objectSize()});
    }
    {
        std::lock_guard<std::mutex> ng(netMu_);
        _clock.jumpTo(w.clock.now());
        backend_->writebackBatch(segs);
        w.clock.jumpTo(_clock.now());
    }
    parkedCount_ -= w.wbBuf.size();
    w.wbBuf.clear();
    w.stats.writebackFlushes++;
}

void
FarMemRuntime::maybeFlushWorkerWritebacks(WorkerContext &w)
{
    const std::uint64_t flush_at =
        cfg.batchingEnabled ? cfg.writebackBatchMax : 1;
    bool flush = false;
    {
        std::lock_guard<std::mutex> g(w.wbMu);
        flush = !w.wbBuf.empty() &&
                (w.wbBuf.size() >= flush_at ||
                 w.clock.now() - w.wbOldestCycle >=
                     cfg.writebackFlushCycles);
    }
    if (flush)
        flushWorkerWritebacks(w);
}

void
FarMemRuntime::drainWorkerWritebacks()
{
    for (const auto &ctx : workers_) {
        std::lock_guard<std::mutex> g(ctx->wbMu);
        for (const PendingWriteback &pending : ctx->wbBuf) {
            backend_->rawWrite(pending.objId << ost.objectShift(),
                               pending.data.data(), ost.objectSize());
        }
        parkedCount_ -= ctx->wbBuf.size();
        ctx->wbBuf.clear();
    }
}

void
FarMemRuntime::exportStats(StatSet &set) const
{
    const RuntimeStats merged = mergedStats();
    set.add("runtime.demand_fetches", merged.demandFetches);
    set.add("runtime.prefetch_issued", merged.prefetchIssued);
    set.add("runtime.prefetch_hits", merged.prefetchHits);
    set.add("runtime.prefetch_late_hits", merged.prefetchLateHits);
    set.add("runtime.evictions", merged.evictions);
    set.add("runtime.dirty_writebacks", merged.dirtyWritebacks);
    set.add("runtime.localize_calls", merged.localizeCalls);
    set.add("runtime.prefetch_batches", merged.prefetchBatches);
    set.add("runtime.inflight_joins", merged.inflightJoins);
    set.add("runtime.writeback_flushes", merged.writebackFlushes);
    set.add("runtime.writeback_buffer_hits", merged.writebackBufferHits);
    const NetStats net = backend_->netStats();
    set.add("net.bytes_fetched", net.bytesFetched);
    set.add("net.bytes_written_back", net.bytesWrittenBack);
    set.add("net.fetch_messages", net.fetchMessages);
    set.add("net.writeback_messages", net.writebackMessages);
    set.add("net.fetch_payloads", net.fetchPayloads);
    set.add("net.writeback_payloads", net.writebackPayloads);
    set.add("net.fetch_batches", net.fetchBatches);
    set.add("net.writeback_batches", net.writebackBatches);
    backend_->exportStats(set);
    set.add("alloc.allocations", alloc_.stats().allocations);
    set.add("alloc.frees", alloc_.stats().frees);
    set.add("prefetcher.armed_misses", prefetcher.stats().armedMisses);
    set.add("prefetcher.tracker_allocs", prefetcher.stats().trackerAllocs);
    set.add("prefetcher.tracker_evictions",
            prefetcher.stats().trackerEvictions);
    set.add("clock.cycles", _clock.now());
    if (rec_)
        rec_->exportStats(set);
    if (obs_)
        obs_->exportStats(set);
}

std::uint64_t
FarMemRuntime::heapChecksum()
{
    // Same FNV-1a constants as the recorder's log checksum.
    std::uint64_t h = 1469598103934665603ull;
    std::vector<std::byte> buf(64 * 1024);
    std::uint64_t at = 0;
    while (at < cfg.farHeapBytes) {
        const std::size_t chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(buf.size(), cfg.farHeapBytes - at));
        rawRead(at, buf.data(), chunk);
        for (std::size_t i = 0; i < chunk; ++i) {
            h ^= static_cast<std::uint64_t>(buf[i]);
            h *= 1099511628211ull;
        }
        at += chunk;
    }
    return h;
}

void
FarMemRuntime::obsEpochSample()
{
    obs_->counterSample(
        obsStream_, _clock.now(),
        {{"frames_used", cache.usedFrames()},
         {"wb_pending", wbBuf.size()},
         {"net_bytes", backend_->netStats().totalBytes()}});
}

} // namespace tfm
