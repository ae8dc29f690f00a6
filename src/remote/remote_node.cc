#include "remote_node.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

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

} // anonymous namespace

RemoteNode::ZeroFilledBytes::ZeroFilledBytes(std::uint64_t size) : len(size)
{
    if (size == 0)
        return;
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
}

RemoteNode::ZeroFilledBytes::~ZeroFilledBytes()
{
    if (bytes != nullptr)
        munmap(bytes, len);
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
RemoteNode::fetchAsync(NetworkModel &net, std::uint64_t offset,
                       std::byte *dst, std::size_t len)
{
    checkRange(offset, len);
    const std::uint64_t arrival = net.fetchAsync(len);
    if (dst)
        std::memcpy(dst, store.data() + offset, len);
    _stats.fetchRequests++;
    _stats.fetchPayloads++;
    observeServe(net, "remote.fetch", net.now(), 1);
    return arrival;
}

std::uint64_t
RemoteNode::fetchBatchAsync(NetworkModel &net,
                            const std::vector<RemoteFetchSeg> &segs,
                            std::vector<std::uint64_t> *arrivals)
{
    TFM_ASSERT(!segs.empty(), "empty remote fetch batch");
    std::uint64_t arrival;
    if (arrivals) {
        std::vector<std::uint64_t> sizes;
        sizes.reserve(segs.size());
        for (const RemoteFetchSeg &seg : segs) {
            checkRange(seg.offset, seg.len);
            sizes.push_back(seg.len);
        }
        arrival = net.fetchBatchAsyncSegmented(sizes, *arrivals);
    } else {
        std::uint64_t total = 0;
        for (const RemoteFetchSeg &seg : segs) {
            checkRange(seg.offset, seg.len);
            total += seg.len;
        }
        arrival = net.fetchBatchAsync(
            total, static_cast<std::uint32_t>(segs.size()));
    }
    for (const RemoteFetchSeg &seg : segs)
        std::memcpy(seg.dst, store.data() + seg.offset, seg.len);
    _stats.fetchRequests++;
    _stats.fetchPayloads += segs.size();
    observeServe(net, "remote.fetch", net.now(), segs.size());
    return arrival;
}

void
RemoteNode::writeback(NetworkModel &net, std::uint64_t offset,
                      const std::byte *src, std::size_t len)
{
    checkRange(offset, len);
    net.writebackAsync(len);
    if (src)
        std::memcpy(store.data() + offset, src, len);
    _stats.writebackRequests++;
    _stats.writebackPayloads++;
    observeServe(net, "remote.writeback", net.now(), 1);
}

void
RemoteNode::writebackBatch(NetworkModel &net,
                           const std::vector<RemoteWriteSeg> &segs)
{
    TFM_ASSERT(!segs.empty(), "empty remote writeback batch");
    std::uint64_t total = 0;
    for (const RemoteWriteSeg &seg : segs) {
        checkRange(seg.offset, seg.len);
        total += seg.len;
    }
    net.writebackBatch(total, static_cast<std::uint32_t>(segs.size()));
    for (const RemoteWriteSeg &seg : segs)
        std::memcpy(store.data() + seg.offset, seg.src, seg.len);
    _stats.writebackRequests++;
    _stats.writebackPayloads += segs.size();
    observeServe(net, "remote.writeback", net.now(), segs.size());
}

void
RemoteNode::rawWrite(std::uint64_t offset, const std::byte *src,
                     std::size_t len)
{
    checkRange(offset, len);
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
