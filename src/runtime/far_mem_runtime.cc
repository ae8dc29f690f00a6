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
    main_.owner = this;
    const std::uint32_t batch_max = std::max(cfg.fetchBatchMax, 1u);
    prefetchSegs_.reserve(batch_max);
    prefetchFrames_.reserve(batch_max);
    prefetchArrivals_.resize(batch_max);
    CycleClock &clock = main_.clock;
    rec_ = cfg.recorder ? cfg.recorder : obs::defaultRecorder();
    if (rec_)
        recInstance_ = rec_->registerInstance();
    if (rec_ && rec_->replaying()) {
        // The recorded stream stands in for the whole remote tier.
        backend_ = std::make_unique<ReplayBackend>(
            clock, _costs, cfg.farHeapBytes, *rec_, recInstance_);
    } else {
        backend_ = makeRemoteBackend(clock, _costs, cfg.farHeapBytes,
                                     cfg.objectSizeBytes, cfg.cluster, rec_,
                                     recInstance_);
    }
    // The store base for localize()'s miss hint, taken once through a
    // zero-length span (which marks no chunk), and only on a tier that
    // can hand out spans at all: one shard and no failure plan. rawSpan
    // still returns nullptr on a replicated tier.
    if (cfg.cluster.shardCount == 1 && cfg.cluster.failures.empty())
        remoteBase_ = backend_->rawSpan(0, 0);
    obs_ = cfg.obs ? cfg.obs : obs::defaultSink();
    if (obs_) {
        obsStream_ = obs_->registerStream(
            cfg.obsLabel.empty() ? cfg.obsKind : cfg.obsLabel.c_str());
        backend_->attachObs(obs_, obsStream_);
    }
}

RuntimeStats
FarMemRuntime::mergedStats() const
{
    RuntimeStats total = main_.stats;
    for (const auto &ctx : workers_)
        total += ctx->stats;
    return total;
}

FarMemRuntime::WorkerContext *
FarMemRuntime::registerWorker()
{
    TFM_ASSERT(!rec_, "record/replay needs a runtime with no workers");
    TFM_ASSERT(cfg.cluster.shardCount == 1 && cfg.cluster.failures.empty(),
               "workers drive a 1-shard remote tier with no failure plan "
               "(a worker's demand fetch charges one link)");
    // Speculation would need cross-shard frame traffic under a single
    // shard lock, so a shared runtime is demand-only.
    TFM_ASSERT(!cfg.prefetchEnabled,
               "workers need the stride prefetcher off");
    auto ctx = std::make_unique<WorkerContext>();
    ctx->owner = this;
    // Workers inherit the setup-time clock so their timeline never lags
    // the device clock's link reservations (which cannot rewind).
    ctx->clock.advanceTo(main_.clock.now());
    workers_.push_back(std::move(ctx));
    shared_ = true;
    return workers_.back().get();
}

void
FarMemRuntime::bindWorker(WorkerContext *w)
{
    TFM_ASSERT(w && w->owner == this && w != &main_,
               "binding a foreign worker context");
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
    std::unique_lock<std::mutex> g = lockIfShared(allocMu_);
    const std::uint64_t offset = alloc_.allocate(bytes);
    TFM_ASSERT(offset != RegionAllocator::badOffset, "far heap exhausted");
    return offset;
}

void
FarMemRuntime::deallocate(std::uint64_t offset)
{
    clock().advance(_costs.allocCycles);
    std::unique_lock<std::mutex> g = lockIfShared(allocMu_);
    alloc_.deallocate(offset);
}

std::uint64_t
FarMemRuntime::sizeOf(std::uint64_t offset) const
{
    return alloc_.sizeOf(offset);
}

std::byte *
FarMemRuntime::localize(WorkerContext &c, std::uint64_t offset,
                        bool for_write, Localized *outcome)
{
    // Trace, histogram and time-series emission is main-context only.
    Observability *obs = &c == &main_ ? obs_ : nullptr;
    c.stats.localizeCalls++;
    if (obs && obs->seriesDue(obsStream_, c.clock.now()))
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
            const bool late = f.arrivalCycle > c.clock.now();
            if (obs) {
                obs->prefetchWait.record(
                    late ? f.arrivalCycle - c.clock.now() : 0);
            }
            c.clock.advanceTo(f.arrivalCycle);
            meta.clearInflight(shared_);
            c.stats.prefetchHits++;
            c.stats.inflightJoins++;
            if (late)
                c.stats.prefetchLateHits++;
            result = Localized::PrefetchWait;
        }
        if (for_write)
            meta.setDirty(shared_);
        if (outcome)
            *outcome = result;
        return cache.frameData(meta.frame()) + ost.offsetInObject(offset);
    }

    // Demand miss. Ask the host for the remote copy's first line before
    // choosing a victim, so that cache miss overlaps the eviction's
    // instead of following it. A prefetch has no side effect: the store
    // is neither marked, counted nor recorded.
    if (remoteBase_ && &c == &main_)
        __builtin_prefetch(remoteBase_ + (obj_id << ost.objectShift()));
    // takeFrame() first: its eviction may park further entries in (or
    // flush) a writeback buffer.
    const std::uint64_t missStart = c.clock.now();
    const std::uint64_t frame_idx = takeFrame(c, cache.shardOf(obj_id));
    std::byte *data = cache.frameData(frame_idx);
    Frame &f = cache.frame(frame_idx);
    f.objId = obj_id;
    f.arrivalCycle = 0;

    if (withParked(obj_id, /*take=*/true,
                   [&](std::vector<std::byte> &parked) {
                       std::memcpy(data, parked.data(), ost.objectSize());
                   })) {
        // The object was evicted dirty but its payload is still parked
        // in a writeback buffer: resurrect it locally without any
        // network traffic. The remote copy is stale, so it stays dirty.
        c.clock.advance(_costs.evacuateObjectCycles);
        meta.makeLocal(frame_idx, shared_);
        meta.setDirty(shared_);
        c.stats.writebackBufferHits++;
        if (obs && obs->trace().enabled()) {
            obs->trace().instant(obsStream_, TrackApp, "wb-resurrect",
                                 "runtime", c.clock.now());
            obs->trace().arg("obj", obj_id);
        }
        if (outcome)
            *outcome = Localized::AlreadyLocal;
        return data + ost.offsetInObject(offset);
    }

    // Blocking fetch from the remote node. A begin/end span (rather
    // than a completed one) keeps the app track timestamp-ordered: the
    // lookahead issued by onDemandMiss() emits instants inside it.
    if (obs && obs->trace().enabled()) {
        obs->trace().begin(obsStream_, TrackApp, "demand-fetch", "runtime",
                           c.clock.now());
        obs->trace().arg("obj", obj_id);
    }
    fetch(c, obj_id, data);
    c.clock.advance(_costs.remoteFetchSwCycles);
    // Publish only after the payload is in place: a lock-free reader
    // that sees present must see the bytes (seq_cst store when shared).
    meta.makeLocal(frame_idx, shared_);
    if (for_write)
        meta.setDirty(shared_);
    c.stats.demandFetches++;
    onDemandMiss(obj_id);
    if (obs) {
        obs->demandFetch.record(c.clock.now() - missStart);
        if (lastMissObj != ~0ull) {
            obs->interMissDist.record(obj_id > lastMissObj
                                          ? obj_id - lastMissObj
                                          : lastMissObj - obj_id);
        }
        lastMissObj = obj_id;
        if (obs->trace().enabled()) {
            obs->trace().end(obsStream_, TrackApp, "demand-fetch",
                             "runtime", c.clock.now());
        }
    }
    if (outcome)
        *outcome = Localized::RemoteFetch;
    return data + ost.offsetInObject(offset);
}

void
FarMemRuntime::fetch(WorkerContext &c, std::uint64_t obj_id,
                     std::byte *data)
{
    const std::uint64_t off = obj_id << ost.objectShift();
    if (&c == &main_) {
        std::unique_lock<std::mutex> g = lockIfShared(netMu_);
        backend_->fetch(off, data, ost.objectSize());
        return;
    }
    // A worker's demand fetch (DESIGN.md §4k): the payload copy and
    // link stats happen under netMu_, but the cycle charge rides the
    // worker's own timeline via fetchSyncAt — per-core fetches overlap
    // the request latency instead of serializing behind the shared
    // device clock's busy frontier.
    std::lock_guard<std::mutex> g(netMu_);
    backend_->rawRead(off, data, ost.objectSize());
    c.clock.advanceTo(
        backend_->link(0).fetchSyncAt(c.clock.now(), ost.objectSize()));
}

template <typename Op>
void
FarMemRuntime::onBackend(WorkerContext &c, Op &&op)
{
    std::unique_lock<std::mutex> g = lockIfShared(netMu_);
    if (&c == &main_) {
        op();
        return;
    }
    main_.clock.jumpTo(c.clock.now());
    op();
    c.clock.jumpTo(main_.clock.now());
}

std::uint64_t
FarMemRuntime::takeFrame(WorkerContext &c, std::uint32_t shard)
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
            evictFrame(c, shard, evacDecision(victim));
            continue;
        }
        // Every frame is pinned or parked behind an active reader.
        // Epoch sections never block on locks (the §4k deadlock-freedom
        // rule), so yielding lets the laggard finish and quiesce.
        TFM_ASSERT(shared_, "local memory exhausted: every frame is pinned");
        TFM_ASSERT(spin < (1ull << 24),
                   "frame shard wedged: pins or readers never drain");
        std::this_thread::yield();
    }
}

void
FarMemRuntime::evictFrame(WorkerContext &c, std::uint32_t shard,
                          std::uint64_t frame_idx)
{
    Frame &f = cache.frame(frame_idx);
    ObjectMeta &meta = ost[f.objId];
    TFM_ASSERT(meta.present() && meta.frame() == frame_idx,
               "state table / frame cache mismatch on eviction");
    c.clock.advance(_costs.evacuateObjectCycles);
    Observability *obs = &c == &main_ ? obs_ : nullptr;
    if (obs && obs->trace().enabled()) {
        obs->trace().instant(obsStream_, TrackApp, "evict", "runtime",
                             c.clock.now());
        obs->trace().arg("obj", f.objId);
        obs->trace().arg("dirty", meta.dirty() ? 1 : 0);
    }
    if (meta.dirty()) {
        c.stats.dirtyWritebacks++;
        std::byte *data = cache.frameData(frame_idx);
        if (cfg.writebackBatchMax > 1) {
            // Park the payload in the coalescing buffer; the frame is
            // reused once retired, so the bytes must be copied out.
            std::unique_lock<std::mutex> g = lockIfShared(c.wbMu);
            if (c.wbBuf.empty())
                c.wbOldestCycle = c.clock.now();
            PendingWriteback pending;
            pending.objId = f.objId;
            pending.parkCycle = c.clock.now();
            pending.data.assign(data, data + ost.objectSize());
            c.wbBuf.push_back(std::move(pending));
            atomicAdd(parkedCount_, 1, shared_);
        } else {
            const RemoteWriteSeg seg{f.objId << ost.objectShift(), data,
                                     ost.objectSize()};
            onBackend(c, [&] { backend_->writebackBatch({&seg, 1}); });
        }
    }
    // Unmap, then stamp, then retire. A reader whose epoch slot is >=
    // the stamp provably entered its section after the unmap (seq_cst
    // total order), re-read the state word, and missed — so a frame is
    // reclaimed only when min(active slots) >= its stamp.
    meta.makeRemote(shared_);
    retireFrame(shard, frame_idx, atomicAdd(_evictionEpoch, 1, shared_));
    c.stats.evictions++;
    maybeFlushWritebacks(c);
}

void
FarMemRuntime::retireFrame(std::uint32_t shard, std::uint64_t frame_idx,
                           std::uint64_t stamp)
{
    cache.retireFrame(shard, frame_idx, stamp);
    if (!shared_)
        cache.reclaimFrames(shard, quiescentEpoch);
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
    rec_->record(recInstance_, FrCat::Evac, FrKind::EvacVictim,
                 main_.clock.now(), args, 4);
    return args[0];
}

template <typename Fn>
bool
FarMemRuntime::withParked(std::uint64_t obj_id, bool take, Fn &&fn)
{
    if (parkedCount_.load() == 0)
        return false;
    const auto search = [&](WorkerContext &ctx) {
        std::unique_lock<std::mutex> g = lockIfShared(ctx.wbMu);
        for (std::size_t i = 0; i < ctx.wbBuf.size(); i++) {
            if (ctx.wbBuf[i].objId != obj_id)
                continue;
            fn(ctx.wbBuf[i].data);
            if (take) {
                ctx.wbBuf.erase(ctx.wbBuf.begin() +
                                static_cast<std::ptrdiff_t>(i));
                atomicSub(parkedCount_, 1, shared_);
            }
            return true;
        }
        return false;
    };
    if (search(main_))
        return true;
    for (const auto &ctx : workers_) {
        if (search(*ctx))
            return true;
    }
    return false;
}

void
FarMemRuntime::flushWritebacks()
{
    WorkerContext &c = context();
    std::unique_lock<std::mutex> g = lockIfShared(c.wbMu);
    flushLocked(c);
}

void
FarMemRuntime::flushLocked(WorkerContext &c)
{
    if (c.wbBuf.empty())
        return;
    if (obs_ && &c == &main_) {
        const std::uint64_t now = c.clock.now();
        for (const PendingWriteback &pending : c.wbBuf)
            obs_->wbResidency.record(now - pending.parkCycle);
        if (obs_->trace().enabled()) {
            obs_->trace().instant(obsStream_, TrackApp, "wb-flush",
                                  "runtime", now);
            obs_->trace().arg("entries", c.wbBuf.size());
        }
    }
    std::vector<RemoteWriteSeg> &segs = c.wbSegs;
    segs.clear();
    for (const PendingWriteback &pending : c.wbBuf) {
        segs.push_back({pending.objId << ost.objectShift(),
                        pending.data.data(), ost.objectSize()});
    }
    onBackend(c, [&] { backend_->writebackBatch(segs); });
    atomicSub(parkedCount_, c.wbBuf.size(), shared_);
    c.wbBuf.clear();
    c.stats.writebackFlushes++;
}

void
FarMemRuntime::maybeFlushWritebacks(WorkerContext &c)
{
    std::unique_lock<std::mutex> g = lockIfShared(c.wbMu);
    if (!c.wbBuf.empty() &&
        (c.wbBuf.size() >= cfg.writebackBatchMax ||
         c.clock.now() - c.wbOldestCycle >= cfg.writebackFlushCycles)) {
        flushLocked(c);
    }
}

void
FarMemRuntime::drainWritebacks()
{
    const auto drain = [&](WorkerContext &ctx) {
        std::unique_lock<std::mutex> g = lockIfShared(ctx.wbMu);
        for (const PendingWriteback &pending : ctx.wbBuf) {
            backend_->rawWrite(pending.objId << ost.objectShift(),
                               pending.data.data(), ost.objectSize());
        }
        atomicSub(parkedCount_, ctx.wbBuf.size(), shared_);
        ctx.wbBuf.clear();
    };
    drain(main_);
    for (const auto &ctx : workers_)
        drain(*ctx);
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
                     FrKind::PrefetchDecision, main_.clock.now(), args, 4);
        stride = static_cast<std::int64_t>(args[1]);
    }
    if (stride != 0)
        prefetchObjects(obj_id, stride, prefetcher.depth());
}

void
FarMemRuntime::prefetchObjects(std::uint64_t obj_id, std::int64_t stride,
                               std::uint32_t count)
{
    CycleClock &clock = main_.clock;
    // Never speculate past the allocated region: fetching unallocated
    // objects only pollutes the local tier.
    const std::uint64_t frontier_obj =
        (alloc_.frontier() + ost.objectSize() - 1) >> ost.objectShift();

    const std::uint32_t batch_max = std::max(cfg.fetchBatchMax, 1u);
    // Segments of the batch being assembled, and the frames they land
    // in. Collected frames are transiently pinned so mid-collection
    // evictions (for later targets) can never steal them before their
    // payload arrives.
    std::vector<RemoteFetchSeg> &segs = prefetchSegs_;
    std::vector<std::uint64_t> &seg_frames = prefetchFrames_;

    const auto issueBatch = [&] {
        if (segs.empty())
            return;
        if (obs_ && obs_->trace().enabled()) {
            obs_->trace().instant(obsStream_, TrackApp, "prefetch-issue",
                                  "runtime", clock.now());
            obs_->trace().arg("count", segs.size());
        }
        // Per-segment arrivals: the batch's payloads stream back in
        // order, so the first objects of the window are consumable
        // before the tail has serialized.
        const std::span<std::uint64_t> arrivals =
            std::span(prefetchArrivals_).first(segs.size());
        backend_->fetchBatchAsync(segs, arrivals);
        for (std::size_t i = 0; i < seg_frames.size(); i++) {
            Frame &f = cache.frame(seg_frames[i]);
            f.arrivalCycle = arrivals[i];
            atomicSub(f.pins, 1, shared_);
        }
        main_.stats.prefetchIssued += segs.size();
        if (segs.size() >= 2)
            main_.stats.prefetchBatches++;
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
        if (withParked(tid, /*take=*/false, [](std::vector<std::byte> &) {}))
            continue;
        const std::uint32_t shard = cache.shardOf(tid);
        std::uint64_t frame_idx = cache.allocFrameIn(shard);
        if (frame_idx == FrameCache::noFrame) {
            const std::uint64_t victim = cache.pickVictimIn(shard);
            if (victim == FrameCache::noFrame)
                break; // everything pinned; skip prefetching
            evictFrame(main_, shard, evacDecision(victim));
            frame_idx = cache.allocFrameIn(shard);
            if (frame_idx == FrameCache::noFrame)
                break;
        }
        meta.makeLocal(frame_idx, shared_);
        meta.setInflight(shared_);
        Frame &f = cache.frame(frame_idx);
        f.objId = tid;
        f.arrivalCycle = ~0ull; // patched when the batch is issued
        atomicAdd(f.pins, 1, shared_);
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
    atomicAdd(f.pins, 1, shared_);
    meta.setPinned(shared_);
}

void
FarMemRuntime::unpinObject(std::uint64_t obj_id)
{
    ObjectMeta &meta = ost[obj_id];
    TFM_ASSERT(meta.present() && meta.pinned(), "unpinning an unpinned object");
    Frame &f = cache.frame(meta.frame());
    TFM_ASSERT(f.pins > 0, "pin count underflow");
    if (atomicSub(f.pins, 1, shared_) == 0)
        meta.clearPinned(shared_);
}

void
FarMemRuntime::rawWrite(std::uint64_t offset, const void *src,
                        std::size_t len)
{
    const auto *bytes = static_cast<const std::byte *>(src);
    backend_->rawWrite(offset, bytes, len);
    // The remote tier now holds the bytes; local copies follow them.
    std::size_t done = 0;
    while (done < len) {
        const std::uint64_t at = offset + done;
        const std::uint64_t obj_id = ost.objectOf(at);
        const std::uint64_t in_obj = ost.offsetInObject(at);
        const std::size_t chunk = std::min<std::size_t>(
            len - done, ost.objectSize() - in_obj);
        const ObjectMeta &meta = ost[obj_id];
        if (meta.present()) {
            std::memcpy(cache.frameData(meta.frame()) + in_obj,
                        bytes + done, chunk);
        } else {
            // Keep a parked copy coherent, or the eventual flush would
            // overwrite this raw write with stale bytes.
            withParked(obj_id, /*take=*/false,
                       [&](std::vector<std::byte> &parked) {
                           std::memcpy(parked.data() + in_obj,
                                       bytes + done, chunk);
                       });
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
        } else if (!withParked(obj_id, /*take=*/false,
                               [&](std::vector<std::byte> &parked) {
                                   // Newer than the remote copy.
                                   std::memcpy(bytes + done,
                                               parked.data() + in_obj,
                                               chunk);
                               })) {
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
    drainWritebacks();
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
        meta.makeRemote(shared_);
        retireFrame(cache.shardOfFrame(i), i, _evictionEpoch.load() + 1);
    }
    // With no workers running (the caller's contract) every reader is
    // quiescent, so whatever waits in limbo is reclaimed too.
    for (std::uint32_t s = 0; s < cache.numShards(); s++)
        cache.reclaimFrames(s, quiescentEpoch);
    prefetcher.reset();
    atomicAdd(_evictionEpoch, 1, shared_);
}

std::uint64_t
FarMemRuntime::minActiveEpoch() const
{
    std::uint64_t min = main_.epochSlot.load();
    for (const auto &ctx : workers_)
        min = std::min(min, ctx->epochSlot.load());
    return min;
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
    set.add("clock.cycles", main_.clock.now());
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
        obsStream_, main_.clock.now(),
        {{"frames_used", cache.usedFrames()},
         {"wb_pending", main_.wbBuf.size()},
         {"net_bytes", backend_->netStats().totalBytes()}});
}

} // namespace tfm
