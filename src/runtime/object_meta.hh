/**
 * @file
 * Per-object metadata entry, mirroring the AIFM local/remote formats the
 * paper reproduces in Figure 3.
 *
 * Each entry is 8 bytes. TrackFM's object state table (section 3.2) is a
 * flat array of these entries indexed by object ID, which lets the
 * compiler-injected guard derive object state with a single indexed load
 * instead of AIFM's two dependent references.
 *
 * Local format (present=1):  flags | frame index of the localized copy.
 * Remote format (present=0): flags only; the payload lives at
 *                            objId * objectSize in the remote node.
 */

#ifndef TRACKFM_RUNTIME_OBJECT_META_HH
#define TRACKFM_RUNTIME_OBJECT_META_HH

#include <atomic>
#include <cstdint>
#include <type_traits>

namespace tfm
{

/** @name Atomic updates that are seq_cst only when shared
 *
 * With @p shared (a worker is registered, DESIGN.md §4k) each is the
 * seq_cst operation: a locked RMW or xchg on x86. Without, the runtime
 * has one thread, and each is a relaxed load and a relaxed store. A
 * worker thread starts after registerWorker(), so every relaxed write
 * made before happens-before the worker's first access.
 * @{ */
template <typename T>
inline void
atomicStore(std::atomic<T> &a, std::type_identity_t<T> v, bool shared)
{
    if (shared)
        a.store(v);
    else
        a.store(v, std::memory_order_relaxed);
}

/** a += d; returns the new value. */
template <typename T>
inline T
atomicAdd(std::atomic<T> &a, std::type_identity_t<T> d, bool shared)
{
    if (shared)
        return a.fetch_add(d) + d;
    const T v = a.load(std::memory_order_relaxed) + d;
    a.store(v, std::memory_order_relaxed);
    return v;
}

/** a -= d; returns the new value. */
template <typename T>
inline T
atomicSub(std::atomic<T> &a, std::type_identity_t<T> d, bool shared)
{
    if (shared)
        return a.fetch_sub(d) - d;
    const T v = a.load(std::memory_order_relaxed) - d;
    a.store(v, std::memory_order_relaxed);
    return v;
}

template <typename T>
inline void
atomicOr(std::atomic<T> &a, std::type_identity_t<T> m, bool shared)
{
    if (shared)
        a.fetch_or(m);
    else
        a.store(a.load(std::memory_order_relaxed) | m,
                std::memory_order_relaxed);
}

template <typename T>
inline void
atomicAnd(std::atomic<T> &a, std::type_identity_t<T> m, bool shared)
{
    if (shared)
        a.fetch_and(m);
    else
        a.store(a.load(std::memory_order_relaxed) & m,
                std::memory_order_relaxed);
}
/** @} */

/**
 * One 8-byte object state entry.
 *
 * Bit layout (from the top):
 *   63  present      object has a localized copy in the frame cache
 *   62  dirty        localized copy differs from the remote copy
 *   61  inflight     an asynchronous prefetch has been issued but the
 *                    payload may not have arrived yet
 *   60  pinned       a loop-chunk locality guard pinned the object
 *   59..40           free (CLOCK recency lives in Frame::refbit)
 *   39..0            frame index (valid only when present)
 *
 * The fast-path guard's safety test is a single mask: the object is safe
 * for direct access iff present is set and inflight is clear — the same
 * "certain bits cleared" test the paper lowers to one x86 test
 * instruction (Fig. 4b line 6).
 */
class ObjectMeta
{
  public:
    static constexpr std::uint64_t presentBit = 1ull << 63;
    static constexpr std::uint64_t dirtyBit = 1ull << 62;
    static constexpr std::uint64_t inflightBit = 1ull << 61;
    static constexpr std::uint64_t pinnedBit = 1ull << 60;
    static constexpr std::uint64_t frameMask = (1ull << 40) - 1;

    ObjectMeta() : bits(0) {}

    bool present() const { return raw() & presentBit; }
    bool dirty() const { return raw() & dirtyBit; }
    bool inflight() const { return raw() & inflightBit; }
    bool pinned() const { return raw() & pinnedBit; }

    /**
     * The guard fast path's safety predicate: localized and not mid-
     * prefetch. Exactly one branch in the generated guard.
     */
    bool safeForFastPath() const { return rawSafe(raw()); }

    std::uint64_t frame() const { return raw() & frameMask; }

    /** @name Mutators
     * Each takes the runtime's shared() state: seq_cst once a worker is
     * registered, a relaxed load and store before (the atomic helpers
     * above).
     * @{ */
    void
    makeLocal(std::uint64_t frame_idx, bool shared)
    {
        atomicStore(bits, presentBit | (frame_idx & frameMask), shared);
    }

    void makeRemote(bool shared) { atomicStore(bits, 0, shared); }

    /**
     * Skips the read-modify-write when the bit is already set, so
     * repeat stores to a dirty object cost the guard one plain load.
     * Concurrent workers clear the bit (makeLocal, makeRemote) and set
     * it only under the object's shard lock, so the test cannot race a
     * clear.
     */
    void
    setDirty(bool shared)
    {
        if (!(raw() & dirtyBit))
            atomicOr(bits, dirtyBit, shared);
    }
    void clearDirty(bool shared) { atomicAnd(bits, ~dirtyBit, shared); }
    void setInflight(bool shared) { atomicOr(bits, inflightBit, shared); }
    void
    clearInflight(bool shared)
    {
        atomicAnd(bits, ~inflightBit, shared);
    }
    void setPinned(bool shared) { atomicOr(bits, pinnedBit, shared); }
    void clearPinned(bool shared) { atomicAnd(bits, ~pinnedBit, shared); }
    /** @} */

    /**
     * One coherent snapshot of the word. The concurrent guard fast path
     * must load raw() exactly once and decode frame/safety from that
     * single value — two separate loads could straddle an eviction and
     * pair a stale frame index with a fresh safety bit.
     */
    std::uint64_t raw() const { return bits.load(); }

    /** @name Decode helpers for a raw() snapshot
     * @{ */
    static bool
    rawSafe(std::uint64_t raw_bits)
    {
        return (raw_bits & (presentBit | inflightBit)) == presentBit;
    }
    static std::uint64_t rawFrame(std::uint64_t raw_bits)
    {
        return raw_bits & frameMask;
    }
    /** @} */

  private:
    /**
     * raw() is always seq_cst, a plain mov on x86. The mutators are
     * seq_cst only once a worker is registered: the epoch-reclamation
     * proof in DESIGN.md §4k relies on a single total order over meta
     * publications, epoch bumps, and worker epoch-slot stores. Before
     * that the runtime has one thread, and a relaxed load and store
     * (no lock prefix, no xchg) need no order: starting a worker
     * thread orders every earlier write before the worker's accesses.
     */
    std::atomic<std::uint64_t> bits;
};

static_assert(sizeof(ObjectMeta) == 8, "state table entries must be 8 bytes");

} // namespace tfm

#endif // TRACKFM_RUNTIME_OBJECT_META_HH
