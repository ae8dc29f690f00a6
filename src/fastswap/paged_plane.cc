#include "paged_plane.hh"

#include <algorithm>

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace tfm
{

ClockRing::ClockRing(std::size_t ids) : links_(ids)
{
    TFM_ASSERT(ids < nil, "CLOCK ring ids must fit 32 bits");
}

void
ClockRing::pushBack(std::uint32_t id)
{
    links_[id] = Link{tail_, nil};
    if (tail_ == nil)
        head_ = id;
    else
        links_[tail_].next = id;
    tail_ = id;
    if (hand_ == nil)
        hand_ = id;
    size_++;
}

std::uint32_t
ClockRing::hand()
{
    TFM_ASSERT(size_ > 0, "CLOCK hand on an empty ring");
    if (hand_ == nil)
        hand_ = head_;
    return hand_;
}

void
ClockRing::unlink(std::uint32_t id)
{
    const Link link = links_[id];
    if (link.prev == nil)
        head_ = link.next;
    else
        links_[link.prev].next = link.next;
    if (link.next == nil)
        tail_ = link.prev;
    else
        links_[link.next].prev = link.prev;
    size_--;
}

void
ClockRing::eraseHand()
{
    const std::uint32_t id = hand();
    hand_ = links_[id].next;
    unlink(id);
}

void
ClockRing::clear()
{
    head_ = tail_ = hand_ = nil;
    size_ = 0;
}

PagedPlane::PagedPlane(FarMemRuntime &rt)
    : rt_(rt),
      table_((rt.config().farHeapBytes + pageSize - 1) / pageSize),
      resident_(table_.size())
{
    const RuntimeConfig &cfg = rt.config();
    const std::uint64_t localBytes = cfg.pagedLocalMemBytes
                                         ? cfg.pagedLocalMemBytes
                                         : cfg.localMemBytes;
    frameBudget_ = std::max<std::uint64_t>(1, localBytes / pageSize);
    // Split a page only where a shard boundary may run through it: at
    // the stripe on a multi-shard tier, nowhere on one shard. The
    // config, not the backend, says which: a replay reads the same one.
    if (cfg.cluster.shardCount > 1) {
        segmentBytes_ = cfg.cluster.stripeBytes ? cfg.cluster.stripeBytes
                                                : cfg.objectSizeBytes;
    }
}

template <typename Op>
void
PagedPlane::forEachSegment(std::uint64_t pageId, Op op)
{
    const std::uint64_t begin = pageId * pageSize;
    const std::uint64_t end = std::min<std::uint64_t>(
        begin + pageSize, rt_.config().farHeapBytes);
    for (std::uint64_t at = begin; at < end;) {
        const std::uint64_t next = std::min<std::uint64_t>(
            end, (at / segmentBytes_ + 1) * segmentBytes_);
        op(at, next - at);
        at = next;
    }
}

void
PagedPlane::pageOut(std::uint64_t pageId)
{
    // The far heap already holds the page's bytes (writes go through
    // rawWrite or a window onto it), so only the transfer is new.
    RemoteBackend &backend = rt_.backend();
    forEachSegment(pageId, [&backend](std::uint64_t at, std::size_t len) {
        const RemoteWriteSeg seg{at, nullptr, len};
        backend.writebackBatch({&seg, 1});
    });
}

void
PagedPlane::touch(std::uint64_t offset, std::size_t len, bool for_write)
{
    if (len == 0)
        len = 1;
    const std::uint64_t first = offset / pageSize;
    const std::uint64_t last = (offset + len - 1) / pageSize;
    TFM_ASSERT(last < table_.size(), "paged access beyond the far heap");
    for (std::uint64_t pageId = first; pageId <= last; pageId++) {
        Page &pg = table_[pageId];
        if (!pg.resident) {
            majorFault(pageId, for_write);
            continue;
        }
        pg.refbit = true;
        if (pg.inflight) {
            // Swap-cache hit: readahead landed the page but no fault has
            // mapped it yet -> minor fault (PTE fixup + residual wait).
            rt_.clock().advance(rt_.costs().pageFaultLocalCycles);
            rt_.clock().advanceTo(pg.arrival);
            pg.inflight = false;
            _stats.minorFaults++;
            Observability *obs = rt_.obs();
            if (obs && obs->trace().enabled()) {
                obs->trace().instant(rt_.obsStream(), TrackApp,
                                     "minor-fault", "fault",
                                     rt_.clock().now());
                obs->trace().arg("page", pageId);
            }
        }
        if (for_write)
            pg.dirty = true;
    }
}

void
PagedPlane::fillWindow(HostWindow &window, std::uint64_t offset,
                       std::size_t len)
{
    // The store is the newest copy of every byte only because no object
    // is ever localized or parked for writeback (prefetcher off, no
    // guards).
    TFM_ASSERT(rt_.stats().localizeCalls == 0 && rt_.pendingWritebacks() == 0,
               "a Fastswap page window needs the far-heap store to hold "
               "the newest bytes");
    const std::uint64_t pageId = (offset + (len ? len - 1 : 0)) / pageSize;
    const std::uint64_t begin = pageId * pageSize;
    const std::uint64_t end = std::min<std::uint64_t>(
        begin + pageSize, rt_.config().farHeapBytes);
    const Page &pg = table_[pageId];
    window.host = pg.resident && !pg.inflight && pg.refbit
                      ? rt_.backend().rawSpan(begin, end - begin)
                      : nullptr;
    window.begin = begin;
    window.end = window.host ? end : begin;
    window.epoch = mapEpoch_;
    window.writable = pg.dirty;
}

void
PagedPlane::majorFault(std::uint64_t pageId, bool for_write)
{
    Observability *obs = rt_.obs();
    const std::uint64_t faultStart = rt_.clock().now();
    if (obs && obs->trace().enabled()) {
        obs->trace().begin(rt_.obsStream(), TrackApp, "major-fault",
                           "fault", faultStart);
        obs->trace().arg("page", pageId);
    }

    while (resident_.size() >= frameBudget_)
        reclaimOne();

    rt_.clock().advance(rt_.costs().pageFaultLocalCycles +
                        rt_.costs().pageFaultRemoteSwCycles);
    RemoteBackend &backend = rt_.backend();
    forEachSegment(pageId, [&backend](std::uint64_t at, std::size_t len) {
        backend.fetch(at, nullptr, len);
    });
    Page &pg = table_[pageId];
    pg.resident = true;
    pg.dirty = for_write;
    pg.refbit = true;
    resident_.pushBack(static_cast<std::uint32_t>(pageId));
    _stats.majorFaults++;

    readahead(pageId);

    if (obs) {
        obs->faultLatency.record(rt_.clock().now() - faultStart);
        if (obs->trace().enabled()) {
            obs->trace().end(rt_.obsStream(), TrackApp, "major-fault",
                             "fault", rt_.clock().now());
        }
        obsCounters();
    }
}

void
PagedPlane::reclaimOne()
{
    TFM_ASSERT(!resident_.empty(), "paged reclaim with no resident pages");
    mapEpoch_++;
    // CLOCK sweep: clear reference bits until an unreferenced mapped page
    // comes around. In-flight pages are skipped (their fetch is already
    // paid for); if everything is referenced the sweep degrades to FIFO
    // after one lap, like the kernel's active/inactive approximation.
    // Two laps always find a victim: reclaims run only from major
    // faults, and the page the previous fault mapped is still mapped.
    for (std::size_t scanned = 0; scanned < 2 * resident_.size(); scanned++) {
        const std::uint32_t pageId = resident_.hand();
        Page &pg = table_[pageId];
        if (pg.inflight || pg.refbit) {
            pg.refbit = pg.inflight && pg.refbit;
            resident_.advance();
            continue;
        }
        evict(pageId);
        resident_.eraseHand();
        return;
    }
    TFM_PANIC("CLOCK reclaim found only in-flight pages: the page the "
              "last major fault mapped must still be mapped");
}

void
PagedPlane::evict(std::uint64_t pageId)
{
    Page &pg = table_[pageId];
    rt_.clock().advance(rt_.costs().pageReclaimCycles);
    if (pg.dirty) {
        pageOut(pageId);
        _stats.pageouts++;
    }
    Observability *obs = rt_.obs();
    if (obs && obs->trace().enabled()) {
        obs->trace().instant(rt_.obsStream(), TrackApp, "reclaim", "fault",
                             rt_.clock().now());
        obs->trace().arg("page", pageId);
        obs->trace().arg("dirty", pg.dirty ? 1 : 0);
    }
    pg = Page{};
    _stats.reclaims++;
}

void
PagedPlane::readahead(std::uint64_t pageId)
{
    for (std::uint32_t k = 1; k <= rt_.config().pagedReadaheadPages; k++) {
        const std::uint64_t target = pageId + k;
        if (target >= table_.size())
            break;
        if (resident_.size() >= frameBudget_) {
            // Don't reclaim on behalf of speculation; stop the window.
            break;
        }
        Page &pg = table_[target];
        if (pg.resident)
            continue;
        pg.resident = true;
        pg.inflight = true;
        RemoteBackend &backend = rt_.backend();
        forEachSegment(target, [&backend, &pg](std::uint64_t at,
                                               std::size_t len) {
            const RemoteFetchSeg seg{at, nullptr, len};
            std::uint64_t arrival = 0;
            pg.arrival = std::max(pg.arrival,
                                  backend.fetchBatchAsync({&seg, 1},
                                                          {&arrival, 1}));
        });
        resident_.pushBack(static_cast<std::uint32_t>(target));
        _stats.readaheads++;
        Observability *obs = rt_.obs();
        if (obs && obs->trace().enabled()) {
            obs->trace().instant(rt_.obsStream(), TrackApp, "readahead",
                                 "fault", rt_.clock().now());
            obs->trace().arg("page", target);
        }
    }
}

void
PagedPlane::evacuate()
{
    mapEpoch_++;
    resident_.forEach([this](std::uint32_t pageId) {
        table_[pageId] = Page{};
    });
    resident_.clear();
}

void
PagedPlane::obsCounters()
{
    Observability *obs = rt_.obs();
    if (!obs || !obs->trace().enabled())
        return;
    const std::uint64_t now = rt_.clock().now();
    obs->trace().counter(rt_.obsStream(), "paged.major_faults", now,
                         _stats.majorFaults);
    obs->trace().counter(rt_.obsStream(), "paged.minor_faults", now,
                         _stats.minorFaults);
    obs->trace().counter(rt_.obsStream(), "paged.reclaims", now,
                         _stats.reclaims);
    obs->trace().counter(rt_.obsStream(), "paged.resident_pages", now,
                         resident_.size());
}

void
PagedPlane::exportStats(StatSet &set) const
{
    set.add("paged.minor_faults", _stats.minorFaults);
    set.add("paged.major_faults", _stats.majorFaults);
    set.add("paged.pageouts", _stats.pageouts);
    set.add("paged.reclaims", _stats.reclaims);
    set.add("paged.readaheads", _stats.readaheads);
    set.add("paged.resident_pages", resident_.size());
}

} // namespace tfm
