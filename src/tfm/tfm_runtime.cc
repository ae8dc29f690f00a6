#include "tfm_runtime.hh"

#include <algorithm>
#include <vector>

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace tfm
{

TfmRuntime::TfmRuntime(const RuntimeConfig &config,
                       const CostParams &cost_params)
    : rt(tagged(config), cost_params)
{
    main_.rt = &rt.mainContext();
    main_.owner = this;
}

const char *
guardPathName(GuardPath path)
{
    switch (path) {
      case GuardPath::SlowLocalRead:
        return "slow-local-read";
      case GuardPath::SlowLocalWrite:
        return "slow-local-write";
      case GuardPath::SlowRemoteRead:
        return "slow-remote-read";
      case GuardPath::SlowRemoteWrite:
        return "slow-remote-write";
      case GuardPath::LocalityLocal:
        return "locality-local";
      case GuardPath::LocalityRemote:
        return "locality-remote";
      case GuardPath::Revalidate:
        return "revalidate";
    }
    return "?";
}

void
TfmRuntime::traceGuard(const Worker &w, std::uint64_t addr, GuardPath path)
{
    if (&w != &main_)
        return;
    Observability *obs = rt.obs();
    if (obs && obs->trace().enabled()) {
        obs->trace().instant(rt.obsStream(), TrackApp, guardPathName(path),
                             "guard", main_.rt->clock.now());
        obs->trace().arg("addr", addr);
    }
}

void
TfmRuntime::cacheFill(GuardCache &c, std::uint64_t offset, std::byte *ptr,
                      std::uint64_t epoch)
{
    if (!rt.config().guardCacheEnabled)
        return;
    ObjectMeta &meta = rt.stateTable()[rt.stateTable().objectOf(offset)];
    c.window = rt.objectWindow(offset, ptr, epoch, /*writable=*/true);
    c.meta = &meta;
    c.frame = &rt.frameCache().frame(meta.frame());
}

std::byte *
TfmRuntime::guard(Worker &w, std::uint64_t addr, bool for_write,
                  std::byte *buf, std::size_t len)
{
    FarMemRuntime::WorkerContext &c = *w.rt;
    const CostParams &k = costs();
    const auto finish = [&](std::byte *data) {
        if (buf)
            std::memcpy(for_write ? data : buf, for_write ? buf : data, len);
        return data;
    };
    if (!tfmIsTagged(addr)) {
        // Custody check fails: this is not a TrackFM pointer; perform
        // the original access directly (~4 instructions).
        c.clock.advance(k.custodyRejectCycles);
        w.gstats.custodyRejects++;
        return finish(reinterpret_cast<std::byte *>(addr));
    }

    const std::uint64_t offset = tfmOffsetOf(addr);
    FarMemRuntime::AccessScope scope(rt, c, rt.stateTable().objectOf(offset),
                                     for_write);
    if (std::byte *cached = cacheLookup(w.cache, offset, for_write)) {
        // Same object as the previous guard: skip the state-table
        // lookup and charge only the inline-cache hit.
        cacheHit(w, for_write);
        return finish(cached);
    }
    // Read before the state word: a fill is then never newer than the
    // translation it caches, even with a racing eviction.
    const std::uint64_t epoch = rt.evictionEpoch();
    if (std::byte *fast = rt.tryFast(offset, for_write)) {
        c.clock.advance(for_write ? k.fastPathWriteCycles
                                  : k.fastPathReadCycles);
        (for_write ? w.gstats.fastWrites : w.gstats.fastReads)++;
        cacheFill(w.cache, offset, fast, epoch);
        return finish(fast);
    }

    // Slow path: runtime call, which may block on a remote fetch.
    scope.lock();
    c.clock.advance(for_write ? k.slowPathWriteCycles : k.slowPathReadCycles);
    FarMemRuntime::Localized outcome;
    std::byte *data = rt.localize(c, offset, for_write, &outcome);
    const bool remote = outcome == FarMemRuntime::Localized::RemoteFetch;
    if (for_write) {
        (remote ? w.gstats.slowRemoteWrites : w.gstats.slowLocalWrites)++;
        traceGuard(w, addr, remote ? GuardPath::SlowRemoteWrite
                                   : GuardPath::SlowLocalWrite);
    } else {
        (remote ? w.gstats.slowRemoteReads : w.gstats.slowLocalReads)++;
        traceGuard(w, addr, remote ? GuardPath::SlowRemoteRead
                                   : GuardPath::SlowLocalRead);
    }
    // Under the shard lock when shared: the object cannot be evicted
    // between localize and this epoch read.
    cacheFill(w.cache, offset, data, rt.evictionEpoch());
    return finish(data);
}

void
TfmRuntime::guardRange(std::uint64_t addr, std::byte *buf, std::size_t len,
                       bool for_write)
{
    Worker &w = worker();
    if (!tfmIsTagged(addr)) {
        guard(w, addr, for_write, buf, len);
        return;
    }
    const auto &table = rt.stateTable();
    std::size_t done = 0;
    while (done < len) {
        const std::uint64_t at = addr + done;
        const std::uint64_t in_obj = table.offsetInObject(tfmOffsetOf(at));
        const std::size_t piece = std::min<std::size_t>(
            len - done, table.objectSize() - in_obj);
        guard(w, at, for_write, buf + done, piece);
        done += piece;
    }
}

thread_local TfmRuntime::Worker *TfmRuntime::tlsWorker_ = nullptr;

TfmRuntime::Worker *
TfmRuntime::registerWorker()
{
    auto w = std::make_unique<Worker>();
    w->owner = this;
    w->rt = rt.registerWorker();
    workers_.push_back(std::move(w));
    return workers_.back().get();
}

void
TfmRuntime::bindWorker(Worker *w)
{
    TFM_ASSERT(w && w->owner == this && w != &main_,
               "binding a foreign tfm worker");
    tlsWorker_ = w;
    rt.bindWorker(w->rt);
}

void
TfmRuntime::unbindWorker()
{
    tlsWorker_ = nullptr;
    rt.unbindWorker();
}

TfmRuntime::Worker *
TfmRuntime::boundWorker() const
{
    Worker *w = tlsWorker_;
    return (w && w->owner == this) ? w : nullptr;
}

GuardStats
TfmRuntime::mergedGuardStats() const
{
    GuardStats total = main_.gstats;
    for (const auto &w : workers_)
        total += w->gstats;
    return total;
}

std::byte *
TfmRuntime::localityGuard(std::uint64_t addr, HostWindow &window,
                          bool for_write)
{
    Worker &w = mainWorker();
    const std::uint64_t offset = tfmOffsetOf(addr);
    w.rt->clock.advance(costs().localityGuardCycles);
    w.gstats.localityGuards++;
    FarMemRuntime::Localized outcome;
    std::byte *data = rt.localize(*w.rt, offset, for_write, &outcome);
    if (outcome == FarMemRuntime::Localized::RemoteFetch) {
        w.gstats.localityRemotes++;
        traceGuard(w, addr, GuardPath::LocalityRemote);
    } else {
        traceGuard(w, addr, GuardPath::LocalityLocal);
    }
    rt.pinWindow(window, offset, data, for_write);
    return data;
}

std::uint64_t
TfmRuntime::tfmRealloc(std::uint64_t addr, std::size_t bytes)
{
    if (addr == 0)
        return tfmMalloc(bytes);
    const std::uint64_t old_offset = tfmOffsetOf(addr);
    const std::uint64_t old_size = rt.sizeOf(old_offset);
    const std::uint64_t fresh = tfmMalloc(bytes);
    const std::size_t copy =
        static_cast<std::size_t>(std::min<std::uint64_t>(old_size, bytes));
    if (copy > 0) {
        std::vector<std::byte> tmp(copy);
        rt.rawRead(old_offset, tmp.data(), copy);
        rt.rawWrite(tfmOffsetOf(fresh), tmp.data(), copy);
        // Charge the copy as streaming traffic through the CPU.
        rt.clock().advance(copy / 16 + 1);
    }
    rt.deallocate(old_offset);
    return fresh;
}

std::uint64_t
TfmRuntime::zeroFill(std::uint64_t addr, std::size_t bytes)
{
    const std::vector<std::byte> zeros(bytes, std::byte{0});
    rt.rawWrite(tfmOffsetOf(addr), zeros.data(), bytes);
    rt.clock().advance(bytes / 16 + 1);
    return addr;
}

void
TfmRuntime::exportStats(StatSet &set) const
{
    mergedGuardStats().exportStats(set);
    rt.exportStats(set);
    if (paged_)
        paged_->exportStats(set);
}

} // namespace tfm
