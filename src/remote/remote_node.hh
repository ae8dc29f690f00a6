/**
 * @file
 * The remote memory node: a byte-addressed backing store for the far
 * heap, reached only through the NetworkModel.
 *
 * In the paper this is a second CloudLab server running the AIFM remote
 * agent (or, for Fastswap, a remote swap target). Here it is an
 * in-process store; the separation is enforced by charging every access
 * through the network and by keeping request counters, so code paths are
 * identical to the two-machine setup up to the transport.
 */

#ifndef TRACKFM_REMOTE_REMOTE_NODE_HH
#define TRACKFM_REMOTE_REMOTE_NODE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/network_model.hh"

namespace tfm
{

/** Request counters on the remote side. */
struct RemoteStats
{
    std::uint64_t fetchRequests = 0;     ///< inbound messages served
    std::uint64_t writebackRequests = 0; ///< outbound messages absorbed
    std::uint64_t fetchPayloads = 0;     ///< objects shipped (>= requests)
    std::uint64_t writebackPayloads = 0; ///< objects absorbed

    /** Element-wise sum (aggregating per-shard nodes). */
    RemoteStats &
    operator+=(const RemoteStats &other)
    {
        fetchRequests += other.fetchRequests;
        writebackRequests += other.writebackRequests;
        fetchPayloads += other.fetchPayloads;
        writebackPayloads += other.writebackPayloads;
        return *this;
    }
};

/** One payload of a fetch message. */
struct RemoteFetchSeg
{
    std::uint64_t offset = 0; ///< far-heap byte offset
    /// Local frame the payload lands in; null for a charge-only payload
    /// (charged, counted and recorded, no byte copied).
    std::byte *dst = nullptr;
    std::size_t len = 0;
};

/** One payload of a writeback message. */
struct RemoteWriteSeg
{
    std::uint64_t offset = 0;
    /// Bytes to store; null for a charge-only payload (the far heap
    /// already holds them, so every store keeps its bytes).
    const std::byte *src = nullptr;
    std::size_t len = 0;
};

/**
 * Flat backing store for the far heap.
 *
 * Addresses are offsets in [0, capacity). Reads (fetch) copy from the
 * store into a local frame; writes (writeback) copy a local frame into
 * the store. Network accounting is the caller's job via the helpers that
 * take the NetworkModel, keeping the store itself transport-agnostic.
 *
 * The store starts all zero, lazily: it is an anonymous private
 * mapping, so the kernel supplies zero pages on first touch and a far
 * heap costs host memory only for the pages a run writes. A destroyed
 * store parks its mapping for the next store of the same size (a few
 * stay parked process-wide), which zeroes only the 64 KB chunks an
 * earlier owner wrote, so a process that builds many far heaps in turn
 * faults their pages in once.
 */
class RemoteNode
{
  public:
    explicit RemoteNode(std::uint64_t capacityBytes)
        : store(capacityBytes)
    {}

    std::uint64_t capacity() const { return store.size(); }

    /**
     * Synchronously fetch @p len bytes at @p offset into @p dst, paying
     * the full network round trip. A null @p dst charges and counts the
     * transfer but copies nothing (RemoteBackend::fetch).
     */
    void fetch(NetworkModel &net, std::uint64_t offset, std::byte *dst,
               std::size_t len);

    /**
     * Asynchronously fetch every segment of @p segs as ONE network
     * message (a prefetch, or a coalesced window). Data is copied
     * immediately (the store is in-process), but @p arrivals, sized
     * like @p segs, gets the cycle at which each segment may be marked
     * present: the response streams its payloads back in order, so
     * earlier segments are usable before the message completes. A
     * segment with a null dst copies nothing, as in fetch().
     *
     * @return absolute cycle at which the whole message has arrived.
     */
    std::uint64_t fetchBatchAsync(NetworkModel &net,
                                  std::span<const RemoteFetchSeg> segs,
                                  std::span<std::uint64_t> arrivals);

    /**
     * Absorb every segment of @p segs as ONE writeback message
     * (evacuation, page-out). A segment with a null @p src charges and
     * counts its transfer but leaves the store as it is.
     */
    void writebackBatch(NetworkModel &net,
                        std::span<const RemoteWriteSeg> segs);

    /**
     * Populate the store directly, bypassing the network. Used only for
     * workload initialization, which the paper's figures exclude from
     * their measurement windows.
     */
    void rawWrite(std::uint64_t offset, const std::byte *src,
                  std::size_t len);

    /** Direct read for verification in tests (no accounting). */
    void rawRead(std::uint64_t offset, std::byte *dst, std::size_t len) const;

    /**
     * Host address of the @p len stored bytes at @p offset, read and
     * written in place with no accounting (RemoteBackend::rawSpan).
     * Bounds-checked like rawRead.
     */
    std::byte *
    span(std::uint64_t offset, std::size_t len)
    {
        checkRange(offset, len);
        store.touch(offset, len);
        return store.data() + offset;
    }

    const RemoteStats &stats() const { return _stats; }

    /** 64 KB chunks of the store that any write path has marked (the
     *  set a recycled mapping must zero). Only ever grows. */
    std::uint64_t touchedChunks() const { return store.touchedChunks(); }

  private:
    /**
     * Owner of one zero-filled anonymous mapping and of the set of its
     * 64 KB chunks that any write path of any owner touched. On drop
     * the mapping is parked in a process-wide list bounded in mappings
     * and in touched bytes (remote_node.cc); a new store of exactly the
     * same size takes the newest such mapping and zeroes only its
     * touched chunks, so it reads zero wherever no owner wrote, as a
     * fresh mapping does, and faults none of those chunks in again.
     */
    class ZeroFilledBytes
    {
      public:
        static constexpr std::uint64_t kChunkShift = 16; ///< 64 KB

        explicit ZeroFilledBytes(std::uint64_t size);
        ~ZeroFilledBytes();

        ZeroFilledBytes(ZeroFilledBytes &&other) noexcept
            : bytes(std::exchange(other.bytes, nullptr)),
              len(std::exchange(other.len, 0)),
              touched(std::move(other.touched))
        {}
        ZeroFilledBytes &
        operator=(ZeroFilledBytes &&other) noexcept
        {
            std::swap(bytes, other.bytes);
            std::swap(len, other.len);
            std::swap(touched, other.touched);
            return *this;
        }
        ZeroFilledBytes(const ZeroFilledBytes &) = delete;
        ZeroFilledBytes &operator=(const ZeroFilledBytes &) = delete;

        std::byte *data() const { return bytes; }
        std::uint64_t size() const { return len; }

        /**
         * Mark the chunks of [offset, offset + n) as written. Safe from
         * concurrent writers; a word is written only when one of its
         * bits is still clear, so a hot chunk costs one relaxed load.
         */
        void
        touch(std::uint64_t offset, std::size_t n)
        {
            if (n == 0)
                return;
            const std::uint64_t last = (offset + n - 1) >> kChunkShift;
            for (std::uint64_t c = offset >> kChunkShift; c <= last; c++) {
                std::atomic<std::uint64_t> &word = touched[c >> 6];
                const std::uint64_t bit = std::uint64_t{1} << (c & 63);
                if ((word.load(std::memory_order_relaxed) & bit) == 0)
                    word.fetch_or(bit, std::memory_order_relaxed);
            }
        }

        /** Chunks marked so far. */
        std::uint64_t touchedChunks() const;

      private:
        /** Words of the touched set of a @p size -byte store. */
        static std::uint64_t words(std::uint64_t size);

        std::byte *bytes = nullptr;
        std::uint64_t len = 0;
        /// One bit per chunk; null for an empty store.
        std::unique_ptr<std::atomic<std::uint64_t>[]> touched;
    };

    void checkRange(std::uint64_t offset, std::size_t len) const;

    ZeroFilledBytes store;
    RemoteStats _stats;
};

} // namespace tfm

#endif // TRACKFM_REMOTE_REMOTE_NODE_HH
