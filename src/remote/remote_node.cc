#include "remote_node.hh"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <mutex>

#include <sys/mman.h>

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace tfm
{

namespace
{

/**
 * Mark one served request on the remote-node track of the link's trace
 * stream. @p at is when the request is known complete on the caller's
 * clock; the remote side has no clock of its own.
 */
void
observeServe(const NetworkModel &net, const char *name, std::uint64_t at,
             std::uint64_t payloads)
{
    Observability *obs = net.obs();
    if (!obs || !obs->trace().enabled())
        return;
    obs->trace().instant(net.obsStream(), TrackRemote + net.obsTrackBase(),
                         name, "remote", at);
    obs->trace().arg("payloads", payloads);
}

/// Parked mappings wait for a store of their size; at most this many,
/// holding at most kMaxParkedBytes of touched chunks in all, so parking
/// keeps a bounded amount of host memory resident.
constexpr std::size_t kMaxParked = 8;
constexpr std::uint64_t kMaxParkedBytes = 64ull << 20;

/** A dropped store's mapping, waiting for a store of its size. */
struct ParkedMapping
{
    std::byte *bytes = nullptr;
    std::uint64_t len = 0;
    std::unique_ptr<std::atomic<std::uint64_t>[]> touched;
    std::uint64_t touchedBytes = 0;
};

/** The process-wide parked list, oldest first (never destroyed, so a
 *  store dropped during static destruction can still park). */
struct MappingPool
{
    MappingPool() { parked.reserve(kMaxParked); }

    std::mutex mu;
    std::vector<ParkedMapping> parked; ///< guarded by mu; never regrows
    std::uint64_t touchedBytes = 0;    ///< sum over parked
};

MappingPool &
mappingPool()
{
    static MappingPool *pool = new MappingPool;
    return *pool;
}

} // anonymous namespace

std::uint64_t
RemoteNode::ZeroFilledBytes::words(std::uint64_t size)
{
    const std::uint64_t chunks = ((size - 1) >> kChunkShift) + 1;
    return (chunks + 63) / 64;
}

RemoteNode::ZeroFilledBytes::ZeroFilledBytes(std::uint64_t size) : len(size)
{
    if (size == 0)
        return;
    {
        MappingPool &pool = mappingPool();
        std::lock_guard<std::mutex> g(pool.mu);
        for (auto it = pool.parked.rbegin(); it != pool.parked.rend();
             ++it) {
            if (it->len != size)
                continue;
            bytes = it->bytes;
            touched = std::move(it->touched);
            pool.touchedBytes -= it->touchedBytes;
            pool.parked.erase(std::next(it).base());
            break;
        }
    }
    if (bytes != nullptr) {
        // Zero what earlier owners wrote; every other chunk still holds
        // the kernel's zero pages. The bits stay set: those chunks stay
        // resident, and the next owner's writes land in them again.
        for (std::uint64_t w = 0; w < words(size); w++) {
            std::uint64_t bits = touched[w].load(std::memory_order_relaxed);
            while (bits != 0) {
                const std::uint64_t at =
                    (w * 64 + static_cast<std::uint64_t>(
                                  std::countr_zero(bits)))
                    << kChunkShift;
                bits &= bits - 1;
                std::memset(bytes + at, 0,
                            std::min<std::uint64_t>(
                                std::uint64_t{1} << kChunkShift, len - at));
            }
        }
        return;
    }
    void *p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
        char msg[128];
        std::snprintf(msg, sizeof(msg),
                      "cannot map %llu bytes of remote store: %s",
                      static_cast<unsigned long long>(size),
                      std::strerror(errno));
        TFM_PANIC(msg);
    }
    bytes = static_cast<std::byte *>(p);
    touched = std::make_unique<std::atomic<std::uint64_t>[]>(words(size));
}

std::uint64_t
RemoteNode::ZeroFilledBytes::touchedChunks() const
{
    std::uint64_t chunks = 0;
    if (!touched)
        return chunks;
    for (std::uint64_t w = 0; w < words(len); w++)
        chunks += std::popcount(touched[w].load(std::memory_order_relaxed));
    return chunks;
}

RemoteNode::ZeroFilledBytes::~ZeroFilledBytes()
{
    if (bytes == nullptr)
        return;
    const std::uint64_t touched_bytes = touchedChunks() << kChunkShift;
    if (touched_bytes > kMaxParkedBytes) {
        munmap(bytes, len);
        return;
    }
    MappingPool &pool = mappingPool();
    std::lock_guard<std::mutex> g(pool.mu);
    while (pool.parked.size() == kMaxParked ||
           pool.touchedBytes + touched_bytes > kMaxParkedBytes) {
        // The oldest make room.
        const ParkedMapping &oldest = pool.parked.front();
        munmap(oldest.bytes, oldest.len);
        pool.touchedBytes -= oldest.touchedBytes;
        pool.parked.erase(pool.parked.begin());
    }
    pool.touchedBytes += touched_bytes;
    pool.parked.push_back({bytes, len, std::move(touched), touched_bytes});
}

void
RemoteNode::checkRange(std::uint64_t offset, std::size_t len) const
{
    // Overflow-safe: a segment list is built offset-by-offset, so a bad
    // entry must name itself — multi-object messages would otherwise
    // die without saying which of their segments straddled the end.
    if (offset <= store.size() && len <= store.size() - offset)
        return;
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "remote access out of backing-store range: offset %llu "
                  "len %zu capacity %zu",
                  static_cast<unsigned long long>(offset), len,
                  store.size());
    TFM_PANIC(msg);
}

void
RemoteNode::fetch(NetworkModel &net, std::uint64_t offset, std::byte *dst,
                  std::size_t len)
{
    checkRange(offset, len);
    net.fetchSync(len);
    if (dst)
        std::memcpy(dst, store.data() + offset, len);
    _stats.fetchRequests++;
    _stats.fetchPayloads++;
    observeServe(net, "remote.fetch", net.now(), 1);
}

std::uint64_t
RemoteNode::fetchBatchAsync(NetworkModel &net,
                            std::span<const RemoteFetchSeg> segs,
                            std::span<std::uint64_t> arrivals)
{
    TFM_ASSERT(!segs.empty(), "empty remote fetch batch");
    TFM_ASSERT(arrivals.size() == segs.size(),
               "one arrival slot per segment");
    // The arrival slots carry the payload sizes in; the link overwrites
    // each with its arrival.
    for (std::size_t i = 0; i < segs.size(); i++) {
        checkRange(segs[i].offset, segs[i].len);
        arrivals[i] = segs[i].len;
    }
    const std::uint64_t arrival = net.fetchBatchAsync(arrivals, arrivals);
    for (const RemoteFetchSeg &seg : segs) {
        if (seg.dst)
            std::memcpy(seg.dst, store.data() + seg.offset, seg.len);
    }
    _stats.fetchRequests++;
    _stats.fetchPayloads += segs.size();
    observeServe(net, "remote.fetch", net.now(), segs.size());
    return arrival;
}

void
RemoteNode::writebackBatch(NetworkModel &net,
                           std::span<const RemoteWriteSeg> segs)
{
    TFM_ASSERT(!segs.empty(), "empty remote writeback batch");
    std::uint64_t total = 0;
    for (const RemoteWriteSeg &seg : segs) {
        checkRange(seg.offset, seg.len);
        total += seg.len;
    }
    net.writebackBatch(total, static_cast<std::uint32_t>(segs.size()));
    for (const RemoteWriteSeg &seg : segs) {
        if (!seg.src)
            continue;
        store.touch(seg.offset, seg.len);
        std::memcpy(store.data() + seg.offset, seg.src, seg.len);
    }
    _stats.writebackRequests++;
    _stats.writebackPayloads += segs.size();
    observeServe(net, "remote.writeback", net.now(), segs.size());
}

void
RemoteNode::rawWrite(std::uint64_t offset, const std::byte *src,
                     std::size_t len)
{
    checkRange(offset, len);
    store.touch(offset, len);
    std::memcpy(store.data() + offset, src, len);
}

void
RemoteNode::rawRead(std::uint64_t offset, std::byte *dst,
                    std::size_t len) const
{
    checkRange(offset, len);
    std::memcpy(dst, store.data() + offset, len);
}

} // namespace tfm
