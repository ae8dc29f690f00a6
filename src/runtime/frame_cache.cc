#include "frame_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tfm
{

namespace
{

std::uint64_t
frameCount(std::uint64_t local_bytes, std::uint32_t frame_size)
{
    const std::uint64_t count = local_bytes / frame_size;
    TFM_ASSERT(count >= 2, "local memory must hold at least two objects");
    return count;
}

} // anonymous namespace

FrameCache::FrameCache(std::uint64_t local_bytes, std::uint32_t frame_size,
                       std::uint32_t shard_count)
    : _frameSize(frame_size),
      frames(frameCount(local_bytes, frame_size)),
      shards(shard_count)
{
    const std::uint64_t count = frames.size();
    TFM_ASSERT(shard_count >= 1 &&
                   (shard_count & (shard_count - 1)) == 0,
               "frame-cache shard count must be a power of two");
    TFM_ASSERT(count >= 2 * shard_count,
               "each frame-cache shard must hold at least two frames");
    arena = std::make_unique<std::byte[]>(
        static_cast<std::size_t>(count) * frame_size);
    if (shard_count > 1) {
        std::uint32_t log2 = 0;
        while ((1u << log2) < shard_count)
            log2++;
        shardShift_ = 64 - log2;
    }
    // Contiguous ranges; the first (count % shards) shards get one
    // extra frame. Free lists are filled descending so allocation hands
    // out low frame indices first, exactly like the pre-sharding cache.
    const std::uint64_t base = count / shard_count;
    const std::uint64_t extra = count % shard_count;
    std::uint64_t lo = 0;
    for (std::uint32_t s = 0; s < shard_count; s++) {
        Shard &sh = shards[s];
        sh.lo = lo;
        sh.hi = lo + base + (s < extra ? 1 : 0);
        sh.clockHand = sh.lo;
        sh.freeList.reserve(sh.hi - sh.lo);
        for (std::uint64_t i = sh.hi; i-- > sh.lo;)
            sh.freeList.push_back(i);
        lo = sh.hi;
    }
    TFM_ASSERT(lo == count, "shard ranges must cover every frame");
}

std::uint32_t
FrameCache::shardOfFrame(std::uint64_t frame_idx) const
{
    // Shards are few (<= 64) and sorted; a linear scan is off the hot
    // path (evacuation only).
    for (std::uint32_t s = 0; s < shards.size(); s++) {
        if (frame_idx < shards[s].hi)
            return s;
    }
    TFM_ASSERT(false, "frame index beyond every shard range");
    return 0;
}

std::uint64_t
FrameCache::freeFrames() const
{
    std::uint64_t total = 0;
    for (const Shard &sh : shards)
        total += sh.freeList.size();
    return total;
}

std::uint64_t
FrameCache::usedFrames() const
{
    std::uint64_t limbo = 0;
    for (const Shard &sh : shards)
        limbo += sh.limbo.size();
    return frames.size() - freeFrames() - limbo;
}

std::uint64_t
FrameCache::allocFrameIn(std::uint32_t shard)
{
    Shard &sh = shards[shard];
    if (sh.freeList.empty())
        return noFrame;
    const std::uint64_t idx = sh.freeList.back();
    sh.freeList.pop_back();
    Frame &f = frames[idx];
    f.used = true;
    f.refbit.store(true, std::memory_order_relaxed);
    f.pins.store(0, std::memory_order_relaxed);
    f.arrivalCycle = 0;
    return idx;
}

std::uint64_t
FrameCache::pickVictimIn(std::uint32_t shard)
{
    Shard &sh = shards[shard];
    // Two full sweeps: the first clears reference bits, so the second is
    // guaranteed to find an unpinned frame if one exists.
    const std::uint64_t span = sh.hi - sh.lo;
    const std::uint64_t limit = span * 2;
    for (std::uint64_t step = 0; step < limit; step++) {
        Frame &f = frames[sh.clockHand];
        const std::uint64_t idx = sh.clockHand;
        sh.clockHand++;
        if (sh.clockHand == sh.hi)
            sh.clockHand = sh.lo;
        if (!f.used || f.pins.load(std::memory_order_relaxed) > 0)
            continue;
        if (f.refbit.load(std::memory_order_relaxed)) {
            f.refbit.store(false, std::memory_order_relaxed);
            continue;
        }
        return idx;
    }
    return noFrame;
}

void
FrameCache::retireFrame(std::uint32_t shard, std::uint64_t frame_idx,
                        std::uint64_t epoch_stamp)
{
    Shard &sh = shards[shard];
    Frame &f = frames[frame_idx];
    TFM_ASSERT(f.used, "retiring a free frame");
    TFM_ASSERT(f.pins.load(std::memory_order_relaxed) == 0,
               "retiring a pinned frame");
    f.used = false;
    f.refbit.store(false, std::memory_order_relaxed);
    sh.limbo.push_back({frame_idx, epoch_stamp});
}

std::uint64_t
FrameCache::reclaimFrames(std::uint32_t shard,
                          std::uint64_t min_active_epoch)
{
    Shard &sh = shards[shard];
    std::uint64_t reclaimed = 0;
    for (std::size_t i = 0; i < sh.limbo.size();) {
        if (sh.limbo[i].stamp <= min_active_epoch) {
            // Safe: every thread still inside an epoch section entered
            // it after this frame was unmapped, so none can hold a
            // pointer into it (DESIGN.md §4k).
            sh.freeList.push_back(sh.limbo[i].frameIdx);
            sh.limbo[i] = sh.limbo.back();
            sh.limbo.pop_back();
            reclaimed++;
        } else {
            i++;
        }
    }
    return reclaimed;
}

} // namespace tfm
