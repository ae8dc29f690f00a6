/**
 * @file
 * Local-memory frame cache: the "hot" tier that holds localized objects.
 *
 * Local memory is divided into object-size frames backed by one arena
 * allocation. Victim selection uses the CLOCK approximation of LRU with
 * pin counts, matching AIFM's hotness-driven evacuation at the fidelity
 * the figures need (hot objects stay, cold objects leave).
 *
 * The cache is lock-striped into N shards (DESIGN.md §4k): frames are
 * partitioned into contiguous shard ranges, objects map to shards by a
 * multiplicative hash of their id, and each shard carries its own
 * mutex, free list, CLOCK hand, and limbo list. With one shard (the
 * default) the sweep order, free-list order, and victim choices are
 * byte-identical to the pre-sharding cache, which the deterministic
 * replay gates rely on.
 */

#ifndef TRACKFM_RUNTIME_FRAME_CACHE_HH
#define TRACKFM_RUNTIME_FRAME_CACHE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace tfm
{

/**
 * Book-keeping for one local frame.
 *
 * pins and refbit are atomic because a shared runtime's guard fast path
 * touches them without the shard lock (refbit marking, transient
 * prefetch pins); every other field is written only under the owning
 * shard's mutex or with no worker registered.
 */
struct Frame
{
    std::uint64_t objId = 0;        ///< object currently resident
    std::uint64_t arrivalCycle = 0; ///< when an async fetch completes
    std::atomic<std::uint32_t> pins{0}; ///< loop-chunk pin count
    bool used = false;              ///< frame holds a live object
    std::atomic<bool> refbit{false}; ///< CLOCK reference bit
};

/**
 * Fixed-capacity frame pool with per-shard CLOCK victim selection.
 *
 * The cache itself never talks to the network; the runtime asks for a
 * victim, performs the writeback, and then reassigns the frame. Every
 * evicted frame goes through the shard's limbo list (retireFrame) and
 * back to the free list once every reader has passed the eviction's
 * epoch (reclaimFrames) — the epoch-based reclamation protocol that
 * makes the lock-free guard fast path safe. With no worker thread the
 * runtime reclaims at once.
 */
class FrameCache
{
  public:
    FrameCache(std::uint64_t local_bytes, std::uint32_t frame_size,
               std::uint32_t shard_count = 1);

    std::uint64_t numFrames() const { return frames.size(); }
    std::uint32_t frameSize() const { return _frameSize; }
    std::uint32_t numShards() const
    {
        return static_cast<std::uint32_t>(shards.size());
    }
    std::uint64_t freeFrames() const;
    std::uint64_t usedFrames() const;

    /** Shard owning @p obj_id's frames (Fibonacci multiplicative hash;
     *  always 0 with a single shard). */
    std::uint32_t
    shardOf(std::uint64_t obj_id) const
    {
        if (shards.size() == 1)
            return 0;
        return static_cast<std::uint32_t>(
            (obj_id * 0x9e3779b97f4a7c15ull) >> shardShift_);
    }

    /** Shard owning frame @p frame_idx (contiguous ranges). */
    std::uint32_t shardOfFrame(std::uint64_t frame_idx) const;

    /** The shard's lock stripe; the runtime holds it across victim
     *  selection, eviction, and frame fill. */
    std::mutex &shardMutex(std::uint32_t shard)
    {
        return shards[shard].mu;
    }

    /** Host pointer to the frame's payload. */
    std::byte *
    frameData(std::uint64_t frame_idx)
    {
        return arena.get() +
               static_cast<std::size_t>(frame_idx) * _frameSize;
    }

    Frame &frame(std::uint64_t frame_idx) { return frames[frame_idx]; }

    /** @name Shard-aware allocation (caller holds the shard mutex when
     *  the runtime is shared)
     * @{ */
    /** Take a free frame from @p shard, or noFrame when it is full. */
    std::uint64_t allocFrameIn(std::uint32_t shard);

    /**
     * Pick an eviction victim with @p shard's CLOCK sweep, skipping
     * pinned frames and clearing reference bits on the way.
     *
     * @return victim frame index, or noFrame when every frame of the
     *         shard is pinned or in limbo.
     */
    std::uint64_t pickVictimIn(std::uint32_t shard);

    /**
     * Park an evicted frame in the shard's limbo list, stamped with the
     * eviction epoch that unmapped it. The frame is invisible to CLOCK
     * (used=false) but its payload must stay intact until reclaimed.
     */
    void retireFrame(std::uint32_t shard, std::uint64_t frame_idx,
                     std::uint64_t epoch_stamp);

    /**
     * Move limbo frames whose stamp is <= @p min_active_epoch (the
     * minimum epoch slot over all active worker threads) back to the
     * free list. Returns the number reclaimed.
     */
    std::uint64_t reclaimFrames(std::uint32_t shard,
                                std::uint64_t min_active_epoch);

    /** Frames currently parked in @p shard's limbo list. */
    std::uint64_t
    limboFrames(std::uint32_t shard) const
    {
        return shards[shard].limbo.size();
    }
    /** @} */

    static constexpr std::uint64_t noFrame = ~0ull;

  private:
    /** One lock stripe: a contiguous frame range with its own CLOCK. */
    struct Shard
    {
        std::mutex mu;
        std::uint64_t lo = 0;  ///< first frame index (inclusive)
        std::uint64_t hi = 0;  ///< last frame index (exclusive)
        std::vector<std::uint64_t> freeList;
        std::uint64_t clockHand = 0;
        /** An unmapped frame awaiting quiescence of every reader. */
        struct Retired
        {
            std::uint64_t frameIdx = 0;
            std::uint64_t stamp = 0; ///< eviction epoch at retirement
        };
        std::vector<Retired> limbo;
    };

    std::uint32_t _frameSize;
    std::unique_ptr<std::byte[]> arena;
    std::vector<Frame> frames;
    std::vector<Shard> shards;
    std::uint32_t shardShift_ = 0; ///< 64 - log2(numShards), shards > 1
};

} // namespace tfm

#endif // TRACKFM_RUNTIME_FRAME_CACHE_HH
