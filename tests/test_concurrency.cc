/**
 * @file
 * Tests for the concurrent runtime (DESIGN.md §4k): shard-count=1
 * eviction-order equivalence with the seed CLOCK, epoch-based frame
 * reclamation, multi-shard single-thread correctness, a multi-thread
 * pointer-chase stress with eviction churn (run under tsan by
 * tools/check_build.sh), per-worker counter exactness against a
 * sequential replay of the same traces, a reader's epoch section
 * holding retired frames, worker-parked writebacks seen by raw access,
 * the shared-runtime backend view, and the concurrent serving
 * scheduler.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "runtime/far_mem_runtime.hh"
#include "runtime/frame_cache.hh"
#include "serve/scheduler.hh"
#include "sim/cost_params.hh"
#include "sim/zipf.hh"
#include "tfm/tfm_runtime.hh"
#include "workloads/backend_config.hh"

namespace tfm
{
namespace
{

/** splitmix64: deterministic per-index payload patterns. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Evict @p frame the way the runtime does with no worker registered:
 *  retire it and reclaim it at once. */
void
release(FrameCache &cache, std::uint64_t frame)
{
    cache.retireFrame(0, frame, 1);
    cache.reclaimFrames(0, FarMemRuntime::quiescentEpoch);
}

/**
 * The 1-shard cache must reproduce the seed's CLOCK byte for byte: the
 * deterministic replay gates depend on sharding being invisible at
 * shard_count=1. Pin the canonical sweep (clear-and-skip referenced
 * frames, skip pinned frames, second sweep guaranteed to find a
 * victim) and drive two identical caches in lockstep, asserting
 * identical victim sequences (the sweep depends on cache state only).
 */
TEST(FrameCacheClock, SingleShardMatchesSeedOrder)
{
    FrameCache replica(8 * 64, 64, 1);
    FrameCache sharded(8 * 64, 64, 1);
    ASSERT_EQ(replica.numFrames(), 8u);

    for (int i = 0; i < 8; i++) {
        const std::uint64_t a = replica.allocFrameIn(0);
        const std::uint64_t b = sharded.allocFrameIn(0);
        ASSERT_EQ(a, b);
        // Descending free list: allocation hands out 0,1,2,... exactly
        // like the pre-sharding cache.
        ASSERT_EQ(a, static_cast<std::uint64_t>(i));
    }

    // All refbits start set; the first sweep clears them and the second
    // returns the frame under the (wrapped) hand: frame 0.
    std::uint64_t v = replica.pickVictimIn(0);
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(sharded.pickVictimIn(0), v);
    release(replica, v);
    release(sharded, v);
    EXPECT_EQ(replica.allocFrameIn(0), 0u);
    EXPECT_EQ(sharded.allocFrameIn(0), 0u);

    // Hand sits at 1. Re-referenced frames 1 and 2 get cleared and
    // skipped; frame 3 is the victim.
    for (FrameCache *c : {&replica, &sharded}) {
        c->frame(1).refbit.store(true);
        c->frame(2).refbit.store(true);
    }
    v = replica.pickVictimIn(0);
    EXPECT_EQ(v, 3u);
    EXPECT_EQ(sharded.pickVictimIn(0), v);
    release(replica, v);
    release(sharded, v);

    // Hand sits at 4. A pinned frame is skipped without clearing its
    // refbit; frame 5 (refbit already cleared above) is the victim.
    for (FrameCache *c : {&replica, &sharded})
        c->frame(4).pins.store(1);
    v = replica.pickVictimIn(0);
    EXPECT_EQ(v, 5u);
    EXPECT_EQ(sharded.pickVictimIn(0), v);
}

/** Every frame pinned or in limbo: the sweep must give up, not spin. */
TEST(FrameCacheClock, AllPinnedReturnsNoFrame)
{
    FrameCache cache(4 * 64, 64, 1);
    for (int i = 0; i < 4; i++) {
        const std::uint64_t f = cache.allocFrameIn(0);
        cache.frame(f).pins.store(1);
    }
    EXPECT_EQ(cache.pickVictimIn(0), FrameCache::noFrame);
}

/**
 * Epoch-based reclamation at the FrameCache level: a retired frame
 * parks in limbo, stays unavailable while any reader's epoch predates
 * its stamp, and returns to the free list once the minimum active
 * epoch reaches the stamp.
 */
TEST(FrameCacheEbr, RetireParksUntilQuiescence)
{
    FrameCache cache(4 * 64, 64, 1);
    const std::uint64_t f0 = cache.allocFrameIn(0);
    const std::uint64_t f1 = cache.allocFrameIn(0);
    ASSERT_NE(f0, FrameCache::noFrame);
    ASSERT_NE(f1, FrameCache::noFrame);
    EXPECT_EQ(cache.usedFrames(), 2u);

    cache.retireFrame(0, f0, /*epoch_stamp=*/5);
    EXPECT_EQ(cache.limboFrames(0), 1u);
    // Limbo frames are invisible to CLOCK and to the used count.
    EXPECT_EQ(cache.usedFrames(), 1u);

    // A reader entered its epoch section before the eviction: no
    // reclamation.
    EXPECT_EQ(cache.reclaimFrames(0, 4), 0u);
    EXPECT_EQ(cache.limboFrames(0), 1u);

    // Every reader has passed the eviction's epoch: the frame is free
    // again and allocatable.
    EXPECT_EQ(cache.reclaimFrames(0, 5), 1u);
    EXPECT_EQ(cache.limboFrames(0), 0u);
    const std::uint64_t free_before = cache.freeFrames();
    EXPECT_EQ(free_before, cache.numFrames() - 1);
    EXPECT_EQ(cache.allocFrameIn(0), f0);

    // Retire with distinct stamps; a partial quiescence reclaims only
    // the older frame.
    cache.retireFrame(0, f0, 7);
    cache.retireFrame(0, f1, 9);
    EXPECT_EQ(cache.limboFrames(0), 2u);
    EXPECT_EQ(cache.reclaimFrames(0, 8), 1u);
    EXPECT_EQ(cache.limboFrames(0), 1u);
    EXPECT_EQ(cache.reclaimFrames(0, 9), 1u);
    EXPECT_EQ(cache.limboFrames(0), 0u);
}

/** Multi-shard hashing: shardOf is stable, in range, and non-trivial. */
TEST(FrameCacheShards, ObjectHashCoversShards)
{
    FrameCache cache(64 * 64, 64, 4);
    EXPECT_EQ(cache.numShards(), 4u);
    std::vector<std::uint64_t> hits(4, 0);
    for (std::uint64_t id = 0; id < 4096; id++) {
        const std::uint32_t s = cache.shardOf(id);
        ASSERT_LT(s, 4u);
        EXPECT_EQ(cache.shardOf(id), s);
        hits[s]++;
    }
    // Fibonacci hashing spreads sequential ids near-uniformly; no
    // shard should be starved or hold the bulk.
    for (const std::uint64_t h : hits) {
        EXPECT_GT(h, 4096u / 8);
        EXPECT_LT(h, 4096u / 2);
    }
    // Frame ranges partition [0, numFrames).
    for (std::uint64_t f = 0; f < cache.numFrames(); f++)
        ASSERT_LT(cache.shardOfFrame(f), 4u);
}

/**
 * A sharded cache in the plain single-thread runtime: data stays
 * correct through heavy eviction churn even though victims are chosen
 * per shard instead of by one global sweep.
 */
TEST(ShardedRuntime, SingleThreadChurnKeepsDataIntact)
{
    RuntimeConfig rc;
    rc.farHeapBytes = 1ull << 20;
    rc.localMemBytes = 16ull << 10; // 256 frames for 4096 objects
    rc.objectSizeBytes = 64;
    rc.prefetchEnabled = false;
    rc.cacheShards = 4;
    const CostParams costs;
    TfmRuntime rt(rc, costs);

    const std::uint64_t n = 4096;
    const std::uint64_t base = rt.tfmCalloc(n, 8);
    ASSERT_NE(base, 0u);
    for (std::uint64_t i = 0; i < n; i++)
        rt.store<std::uint64_t>(base + i * 8, mix64(i));
    for (std::uint64_t i = 0; i < n; i++)
        EXPECT_EQ(rt.load<std::uint64_t>(base + i * 8), mix64(i));

    const RuntimeStats stats = rt.runtime().mergedStats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_EQ(rt.runtime().frameCache().numShards(), 4u);
    EXPECT_LE(rt.runtime().frameCache().usedFrames(),
              rt.runtime().frameCache().numFrames());
}

/**
 * The MT stress test check_build.sh runs under ThreadSanitizer: four
 * worker threads chase a shared permutation cycle through a cache an
 * order of magnitude smaller than the working set (constant eviction,
 * retirement, and reclamation churn) while each also writes a private
 * slice of a second array through the guarded write path. Every read
 * verifies the node's self-describing checksum, so a reader handed a
 * reused frame — use-after-eviction — fails loudly rather than
 * racily.
 */
TEST(ConcurrentRuntime, PointerChaseSurvivesEvictionChurn)
{
    constexpr std::uint64_t kNodes = 8192;
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kSteps = 8000;
    constexpr std::uint64_t kSlicePer = kNodes / kThreads;

    RuntimeConfig rc;
    rc.farHeapBytes = 4ull << 20;
    rc.localMemBytes = 64ull << 10; // 1024 frames vs 8192-node cycle
    rc.objectSizeBytes = 64;
    rc.prefetchEnabled = false;
    rc.cacheShards = 8;
    const CostParams costs;
    TfmRuntime rt(rc, costs);

    struct Node
    {
        std::uint64_t next;  ///< tagged pointer to the successor
        std::uint64_t idx;
        std::uint64_t check; ///< mix64(idx)
    };
    const std::uint64_t nodes = rt.tfmCalloc(kNodes, 64);
    const std::uint64_t slots = rt.tfmCalloc(kNodes, 8);
    ASSERT_NE(nodes, 0u);
    ASSERT_NE(slots, 0u);

    // One kNodes-cycle over a deterministic shuffle, installed with
    // raw writes (no cycle accounting, main thread only).
    std::vector<std::uint64_t> perm(kNodes);
    for (std::uint64_t i = 0; i < kNodes; i++)
        perm[i] = i;
    std::uint64_t rng = 0x5eed;
    for (std::uint64_t i = kNodes - 1; i > 0; i--) {
        rng = mix64(rng);
        std::swap(perm[i], perm[rng % (i + 1)]);
    }
    for (std::uint64_t k = 0; k < kNodes; k++) {
        const std::uint64_t from = perm[k];
        const std::uint64_t to = perm[(k + 1) % kNodes];
        Node node;
        node.next = nodes + to * 64;
        node.idx = from;
        node.check = mix64(from);
        rt.rawWrite(nodes + from * 64, &node, sizeof(node));
    }

    std::vector<TfmRuntime::Worker *> workers;
    for (unsigned t = 0; t < kThreads; t++)
        workers.push_back(rt.registerWorker());

    std::atomic<std::uint64_t> corrupt{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            rt.bindWorker(workers[t]);
            std::uint64_t cur = nodes + (t * kSlicePer) * 64;
            for (std::uint64_t step = 0; step < kSteps; step++) {
                Node node;
                rt.readGuarded(cur, &node, sizeof(node));
                if (node.idx >= kNodes || node.check != mix64(node.idx))
                    corrupt.fetch_add(1);
                cur = node.next;
                // Interleave guarded writes into this thread's private
                // slice so dirty eviction, writeback parking, and
                // steal-back all run under the read churn.
                const std::uint64_t slot =
                    t * kSlicePer + (step % kSlicePer);
                rt.store<std::uint64_t>(slots + slot * 8,
                                        mix64(slot ^ 0xabcd));
            }
            rt.unbindWorker();
        });
    }
    for (std::thread &th : threads)
        th.join();
    rt.runtime().drainWritebacks();

    EXPECT_EQ(corrupt.load(), 0u);
    // Every written slot holds its final pattern (each slot is written
    // kSteps/kSlicePer times with the same value).
    for (std::uint64_t slot = 0; slot < kNodes; slot++) {
        std::uint64_t got = 0;
        rt.rawRead(slots + slot * 8, &got, sizeof(got));
        EXPECT_EQ(got, mix64(slot ^ 0xabcd)) << "slot " << slot;
    }
    // The cache really was thrashing: evictions and epoch bumps ran
    // throughout.
    const RuntimeStats stats = rt.runtime().mergedStats();
    EXPECT_GT(stats.evictions, kNodes);
    EXPECT_GT(rt.runtime().evictionEpoch(), 0u);
    const GuardStats gs = rt.mergedGuardStats();
    EXPECT_GE(gs.guardTotal(), kThreads * kSteps);
}

/**
 * Per-worker counters are exact, not sampled: with disjoint per-worker
 * object sets and a cache large enough that nothing evicts, every
 * counter is interleaving-invariant, so a concurrent run must produce
 * the very same per-worker RuntimeStats/GuardStats as replaying each
 * worker's trace sequentially on a fresh runtime.
 */
TEST(ConcurrentRuntime, MergedCountersMatchSequentialReplay)
{
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPer = 256;

    RuntimeConfig rc;
    rc.farHeapBytes = 1ull << 20;
    rc.localMemBytes = 256ull << 10; // holds the whole working set
    rc.objectSizeBytes = 64;
    rc.prefetchEnabled = false;
    rc.cacheShards = 4;
    const CostParams costs;

    // Trace for worker t: two guarded reads and one guarded write over
    // each object of its private slice.
    const auto run_trace = [&](TfmRuntime &rt, std::uint64_t base,
                               unsigned t) {
        for (std::uint64_t i = 0; i < kPer; i++) {
            const std::uint64_t addr = base + (t * kPer + i) * 64;
            std::uint64_t v = rt.load<std::uint64_t>(addr);
            v += rt.load<std::uint64_t>(addr + 8);
            rt.store<std::uint64_t>(addr + 16, v + 1);
        }
    };
    const auto setup = [&](TfmRuntime &rt) {
        const std::uint64_t base = rt.tfmCalloc(kThreads * kPer, 64);
        EXPECT_NE(base, 0u);
        for (std::uint64_t o = 0; o < kThreads * kPer; o++) {
            const std::uint64_t v = mix64(o);
            rt.rawWrite(base + o * 64, &v, sizeof(v));
        }
        return base;
    };

    // Concurrent run.
    TfmRuntime conc(rc, costs);
    const std::uint64_t cbase = setup(conc);
    std::vector<TfmRuntime::Worker *> cworkers;
    for (unsigned t = 0; t < kThreads; t++)
        cworkers.push_back(conc.registerWorker());
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            conc.bindWorker(cworkers[t]);
            run_trace(conc, cbase, t);
            conc.unbindWorker();
        });
    }
    for (std::thread &th : threads)
        th.join();
    conc.runtime().drainWritebacks();
    EXPECT_EQ(conc.runtime().mergedStats().evictions, 0u);

    // Sequential replay of the identical traces, one bound worker at a
    // time on the main thread.
    TfmRuntime seq(rc, costs);
    const std::uint64_t sbase = setup(seq);
    std::vector<TfmRuntime::Worker *> sworkers;
    for (unsigned t = 0; t < kThreads; t++)
        sworkers.push_back(seq.registerWorker());
    for (unsigned t = 0; t < kThreads; t++) {
        seq.bindWorker(sworkers[t]);
        run_trace(seq, sbase, t);
        seq.unbindWorker();
    }
    seq.runtime().drainWritebacks();

    for (unsigned t = 0; t < kThreads; t++) {
        const RuntimeStats &c = cworkers[t]->rt->stats;
        const RuntimeStats &s = sworkers[t]->rt->stats;
        EXPECT_EQ(c.localizeCalls, s.localizeCalls) << "worker " << t;
        EXPECT_EQ(c.demandFetches, s.demandFetches) << "worker " << t;
        EXPECT_EQ(c.evictions, s.evictions) << "worker " << t;
        const GuardStats &cg = cworkers[t]->gstats;
        const GuardStats &sg = sworkers[t]->gstats;
        EXPECT_EQ(cg.fastReads, sg.fastReads) << "worker " << t;
        EXPECT_EQ(cg.fastWrites, sg.fastWrites) << "worker " << t;
        EXPECT_EQ(cg.slowTotal(), sg.slowTotal()) << "worker " << t;
        EXPECT_EQ(cg.cacheHitReads, sg.cacheHitReads) << "worker " << t;
    }

    // The merged views agree too (merge plumbing sums every worker).
    const RuntimeStats cm = conc.runtime().mergedStats();
    const RuntimeStats sm = seq.runtime().mergedStats();
    EXPECT_EQ(cm.localizeCalls, sm.localizeCalls);
    EXPECT_EQ(cm.demandFetches, sm.demandFetches);
    EXPECT_EQ(conc.mergedGuardStats().guardTotal(),
              seq.mergedGuardStats().guardTotal());
}

/**
 * A reader inside its epoch section pins every frame retired after it
 * entered: a worker that evicts the reader's object must leave the
 * frame's bytes alone (waiting in takeFrame) until the reader leaves.
 * The main thread plays the reader, holding a read AccessScope over
 * object 0 and a host pointer into its frame, while a worker thread
 * misses on eight other objects through a four-frame cache.
 */
TEST(ConcurrentRuntime, ReaderEpochSectionHoldsRetiredFrames)
{
    RuntimeConfig rc;
    rc.farHeapBytes = 1ull << 20;
    rc.localMemBytes = 4 * 64; // 4 frames
    rc.objectSizeBytes = 64;
    rc.prefetchEnabled = false;
    TfmRuntime rt(rc, CostParams{});
    const std::uint64_t base = rt.tfmCalloc(16, 64);
    for (std::uint64_t o = 0; o < 16; o++) {
        const std::uint64_t v = mix64(o);
        rt.rawWrite(base + o * 64, &v, sizeof(v));
    }
    TfmRuntime::Worker *reader = rt.registerWorker();
    TfmRuntime::Worker *evicter = rt.registerWorker();
    FarMemRuntime &far = rt.runtime();

    rt.bindWorker(reader);
    ASSERT_EQ(rt.load<std::uint64_t>(base), mix64(0));
    std::atomic<bool> done{false};
    std::thread th;
    {
        FarMemRuntime::AccessScope section(far, *reader->rt,
                                           /*obj_id=*/0, false);
        const std::byte *frame = far.tryFast(tfmOffsetOf(base), false);
        ASSERT_NE(frame, nullptr);
        th = std::thread([&] {
            rt.bindWorker(evicter);
            std::uint64_t sum = 0;
            for (std::uint64_t o = 1; o <= 8; o++)
                sum += rt.load<std::uint64_t>(base + o * 64);
            EXPECT_NE(sum, 0u);
            rt.unbindWorker();
            done = true;
        });
        // Long enough for an unblocked worker to finish many times over.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        EXPECT_FALSE(done.load()) << "frames were reclaimed under a reader";
        std::uint64_t seen = 0;
        std::memcpy(&seen, frame, sizeof(seen));
        EXPECT_EQ(seen, mix64(0)) << "the reader's frame was reused";
    }
    th.join();
    rt.unbindWorker();
    EXPECT_TRUE(done.load());
    EXPECT_FALSE(far.isLocal(tfmOffsetOf(base)));
}

/**
 * Dirty objects a worker parks in its writeback buffer are part of the
 * logical heap: rawRead, rawWrite, heapChecksum and pendingWritebacks()
 * must see them before any drain, exactly like the main thread's own
 * parked copies. One worker writes 256 objects through 64 local frames
 * with a 100-entry buffer, so 92 dirty objects stay parked. One raw
 * write then spans remote, parked, and clean and dirty present
 * objects; it must read back the same before and after evacuateAll().
 */
TEST(ConcurrentRuntime, WorkerParkedWritebacksAreVisible)
{
    constexpr std::uint64_t kObjs = 256;
    RuntimeConfig rc;
    rc.farHeapBytes = 1ull << 20;
    rc.localMemBytes = 64 * 64; // 64 frames
    rc.objectSizeBytes = 64;
    rc.prefetchEnabled = false;
    rc.writebackBatchMax = 100;
    rc.writebackFlushCycles = ~0ull; // only the size threshold flushes
    TfmRuntime rt(rc, CostParams{});
    const std::uint64_t base = rt.tfmCalloc(kObjs, 64);

    TfmRuntime::Worker *w = rt.registerWorker();
    std::thread th([&] {
        rt.bindWorker(w);
        for (std::uint64_t i = 0; i < kObjs; i++)
            rt.store<std::uint64_t>(base + i * 64, mix64(i));
        rt.unbindWorker();
    });
    th.join();

    // 192 dirty evictions: one flush of 100, 92 still parked.
    EXPECT_EQ(rt.runtime().mergedStats().dirtyWritebacks, kObjs - 64);
    EXPECT_EQ(rt.runtime().pendingWritebacks(), 92u);
    std::uint64_t stale = 0;
    for (std::uint64_t i = 0; i < kObjs; i++) {
        std::uint64_t got = 0;
        rt.rawRead(base + i * 64, &got, sizeof(got));
        stale += got != mix64(i);
    }
    EXPECT_EQ(stale, 0u);

    // Objects 0..99 were flushed, 100..191 are parked and 192..255 are
    // present and dirty. A main-thread read makes object 99 present and
    // clean (its victim, object 192, parks too), so one raw write from
    // inside object 98 to inside object 193 crosses a remote object, a
    // clean and a dirty present one, and the parked ones.
    EXPECT_EQ(rt.load<std::uint64_t>(base + 99 * 64), mix64(99));
    const std::uint64_t parked = rt.runtime().pendingWritebacks();
    ASSERT_FALSE(rt.runtime().isLocal(tfmOffsetOf(base + 98 * 64)));
    ASSERT_TRUE(rt.runtime().isLocal(tfmOffsetOf(base + 99 * 64)));
    ASSERT_FALSE(rt.runtime().isLocal(tfmOffsetOf(base + 100 * 64)));
    ASSERT_TRUE(rt.runtime().isLocal(tfmOffsetOf(base + 193 * 64)));
    const std::uint64_t span_at = base + 98 * 64 + 8;
    std::vector<std::uint8_t> span(95 * 64 + 8);
    for (std::size_t i = 0; i < span.size(); i++)
        span[i] = static_cast<std::uint8_t>(mix64(i));
    rt.rawWrite(span_at, span.data(), span.size());
    EXPECT_EQ(rt.runtime().pendingWritebacks(), parked);
    std::vector<std::uint8_t> back(span.size());
    rt.rawRead(span_at, back.data(), back.size());
    EXPECT_EQ(back, span);

    // A raw write to one parked object must survive the drain, and
    // draining must not change the heap.
    const std::uint64_t patched = 0xfeedface;
    rt.rawWrite(base + 150 * 64, &patched, sizeof(patched));
    std::memcpy(&span[150 * 64 - 98 * 64 - 8], &patched, sizeof(patched));
    const std::uint64_t parked_sum = rt.runtime().heapChecksum();
    rt.runtime().drainWritebacks();
    EXPECT_EQ(rt.runtime().pendingWritebacks(), 0u);
    EXPECT_EQ(rt.runtime().heapChecksum(), parked_sum);
    std::uint64_t got = 0;
    rt.rawRead(base + 150 * 64, &got, sizeof(got));
    EXPECT_EQ(got, patched);

    // With every object remote, the span reads back from the tier.
    rt.runtime().evacuateAll();
    ASSERT_FALSE(rt.runtime().isLocal(tfmOffsetOf(base + 193 * 64)));
    rt.rawRead(span_at, back.data(), back.size());
    EXPECT_EQ(back, span);
}

/**
 * makeSharedBackend's view is the TrackFM backend with chunking off.
 * Two registered workers read through one view: its snapshot counts
 * both workers' guards, which are the runtime's merged totals.
 */
TEST(SharedBackendView, SnapshotCountsEveryWorkersGuards)
{
    constexpr unsigned kThreads = 2;
    constexpr std::uint64_t kElems = 4096;
    RuntimeConfig rc;
    rc.farHeapBytes = 1ull << 20;
    rc.localMemBytes = 4 * 4096; // 4 frames for 8 objects
    rc.objectSizeBytes = 4096;
    rc.prefetchEnabled = false;
    TfmRuntime rt(rc, CostParams{});
    const std::unique_ptr<MemBackend> view = makeSharedBackend(rt);
    const std::uint64_t base = view->alloc(kElems * 8);
    {
        InitWriter init(*view);
        for (std::uint64_t i = 0; i < kElems; i++)
            init.put(base + i * 8, mix64(i));
    }

    std::vector<TfmRuntime::Worker *> workers;
    for (unsigned t = 0; t < kThreads; t++)
        workers.push_back(rt.registerWorker());
    std::atomic<std::uint64_t> wrong{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            rt.bindWorker(workers[t]);
            for (std::uint64_t i = t; i < kElems; i += kThreads) {
                const std::uint64_t v = view->readT<std::uint64_t>(
                    base + i * 8, AccessHint::Random);
                if (v != mix64(i))
                    wrong.fetch_add(1);
            }
            rt.unbindWorker();
        });
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(wrong.load(), 0u);
    const GuardStats g = rt.mergedGuardStats();
    const BackendSnapshot s = view->snapshot();
    EXPECT_EQ(rt.guardStats().guardTotal(), 0u);
    EXPECT_EQ(s.guardEvents, kElems);
    EXPECT_EQ(s.guardEvents, g.guardTotal());
    EXPECT_EQ(s.farEvents,
              g.slowRemoteReads + g.slowRemoteWrites + g.localityRemotes);
    EXPECT_GE(s.farEvents, 8u);
    EXPECT_EQ(s.bytesFetched, rt.runtime().backend().netStats().bytesFetched);
}

/**
 * A stream on the view charges exactly what per-element guarded reads
 * charge, over a loop long enough (eight whole objects) that the
 * owning TrackFM backend would chunk it.
 */
TEST(SharedBackendView, StreamChargesLikeGuardedReads)
{
    constexpr std::uint64_t kElems = 4096;
    RuntimeConfig rc;
    rc.farHeapBytes = 1ull << 20;
    rc.localMemBytes = 4 * 4096;
    rc.objectSizeBytes = 4096;
    rc.prefetchEnabled = false;
    struct Run
    {
        explicit Run(const RuntimeConfig &config)
            : rt(config, CostParams{}), view(makeSharedBackend(rt))
        {
            base = view->alloc(kElems * 8);
            InitWriter init(*view);
            for (std::uint64_t i = 0; i < kElems; i++)
                init.put(base + i * 8, mix64(i));
        }
        TfmRuntime rt;
        std::unique_ptr<MemBackend> view;
        std::uint64_t base = 0;
        std::uint64_t sum = 0;
    };

    Run streamed(rc);
    Run elementwise(rc);
    TfmRuntime::Worker *sw = streamed.rt.registerWorker();
    TfmRuntime::Worker *ew = elementwise.rt.registerWorker();

    streamed.rt.bindWorker(sw);
    {
        const std::unique_ptr<SeqStream> s = streamed.view->stream(
            streamed.base, 8, kElems, StreamMode::Read);
        for (std::uint64_t i = 0; i < kElems; i++) {
            std::uint64_t v = 0;
            s->read(&v);
            streamed.sum += v;
        }
    }
    const BackendSnapshot a = streamed.view->snapshot();
    streamed.rt.unbindWorker();

    elementwise.rt.bindWorker(ew);
    for (std::uint64_t i = 0; i < kElems; i++) {
        elementwise.sum += elementwise.view->readT<std::uint64_t>(
            elementwise.base + i * 8, AccessHint::Sequential);
    }
    const BackendSnapshot b = elementwise.view->snapshot();
    elementwise.rt.unbindWorker();

    EXPECT_EQ(streamed.sum, elementwise.sum);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.guardEvents, kElems);
    EXPECT_EQ(a.guardEvents, b.guardEvents);
    EXPECT_EQ(a.farEvents, b.farEvents);
    EXPECT_EQ(a.bytesTransferred, b.bytesTransferred);
    EXPECT_EQ(streamed.rt.mergedGuardStats().localityGuards, 0u);
    EXPECT_EQ(streamed.view->stats().all(), elementwise.view->stats().all());
}

/**
 * Concurrent serving smoke: real worker threads over a shared runtime
 * complete every generated arrival, attribute each completion to
 * exactly one worker, and draw the same per-tenant arrival streams as
 * the deterministic event loop (the schedule is pre-generated with the
 * det loop's sampling order).
 */
TEST(ConcurrentScheduler, CompletesEverythingAcrossWorkers)
{
    const CostParams costs;
    ServeConfig sc;
    TenantConfig t;
    t.workload = TenantWorkloadKind::Memcached;
    t.numKeys = 512;
    t.farHeapBytes = 4ull << 20;
    t.localMemBytes = 128ull << 10;
    sc.tenants = {t, t};
    sc.tenants[1].workload = TenantWorkloadKind::Hashmap;
    sc.arrivals.ratePerCycle = 1e-4;
    sc.totalRequests = 400;
    sc.seed = 99;

    sc.workers = 1;
    Scheduler det(sc, costs);
    const ServeReport dr = det.run();

    sc.workers = 2;
    sc.concurrent = true;
    Scheduler sched(sc, costs);
    const ServeReport report = sched.run();

    EXPECT_EQ(report.aggregate.arrivals, 400u);
    EXPECT_EQ(report.aggregate.completions, 400u);
    EXPECT_GT(report.endCycle, 0u);
    ASSERT_EQ(report.workers.size(), 2u);
    std::uint64_t by_worker = 0;
    for (const WorkerReport &w : report.workers) {
        EXPECT_GT(w.completions, 0u);
        by_worker += w.completions;
    }
    EXPECT_EQ(by_worker, 400u);

    // Same seed, same arrival sampling: the per-tenant split matches
    // the deterministic loop exactly.
    ASSERT_EQ(report.tenants.size(), dr.tenants.size());
    for (std::size_t i = 0; i < report.tenants.size(); i++) {
        EXPECT_EQ(report.tenants[i].arrivals, dr.tenants[i].arrivals);
        EXPECT_EQ(report.tenants[i].completions,
                  dr.tenants[i].completions);
    }
}

/**
 * Zipf generators built, drawn from and dropped on four threads at once
 * share the process-wide table cache under its mutex (TSan checks the
 * locking): every draw equals the one a single-thread generator of the
 * same law and seed makes.
 */
TEST(ConcurrentZipf, ThreadsShareTheTableCache)
{
    const std::uint64_t sizes[] = {4000, 9000, 20000};
    std::vector<std::vector<std::uint64_t>> want;
    for (const std::uint64_t n : sizes) {
        ZipfGenerator zipf(n, 1.02, n);
        std::vector<std::uint64_t> draws(200);
        for (std::uint64_t &d : draws)
            d = zipf.next();
        want.push_back(draws);
    }

    std::atomic<std::uint64_t> mismatches{0};
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < 4; t++) {
        threads.emplace_back([&, t] {
            for (std::uint32_t i = 0; i < 30; i++) {
                const std::size_t law = (t + i) % 3;
                ZipfGenerator zipf(sizes[law], 1.02, sizes[law]);
                for (const std::uint64_t d : want[law]) {
                    if (zipf.next() != d)
                        mismatches.fetch_add(1);
                }
                // A law nobody else draws from: built, then dropped.
                ZipfGenerator own(1000 + 64 * t + i, 1.1, i);
                own.next();
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0u);
}

} // anonymous namespace
} // namespace tfm
