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

namespace tfm
{

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

    void
    makeLocal(std::uint64_t frame_idx)
    {
        bits.store(presentBit | (frame_idx & frameMask));
    }

    void makeRemote() { bits.store(0); }

    /**
     * Skips the locked read-modify-write when the bit is already set,
     * so repeat stores to a dirty object cost the guard one plain load.
     * Concurrent workers clear the bit (makeLocal, makeRemote) and set
     * it only under the object's shard lock, so the test cannot race a
     * clear.
     */
    void
    setDirty()
    {
        if (!(raw() & dirtyBit))
            bits.fetch_or(dirtyBit);
    }
    void clearDirty() { bits.fetch_and(~dirtyBit); }
    void setInflight() { bits.fetch_or(inflightBit); }
    void clearInflight() { bits.fetch_and(~inflightBit); }
    void setPinned() { bits.fetch_or(pinnedBit); }
    void clearPinned() { bits.fetch_and(~pinnedBit); }

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
     * seq_cst throughout: the epoch-reclamation proof in DESIGN.md §4k
     * relies on a single total order over meta publications, epoch
     * bumps, and worker epoch-slot stores. On x86 the loads compile to
     * plain movs, so the single-thread fast path is unchanged.
     */
    std::atomic<std::uint64_t> bits;
};

static_assert(sizeof(ObjectMeta) == 8, "state table entries must be 8 bytes");

} // namespace tfm

#endif // TRACKFM_RUNTIME_OBJECT_META_HH
