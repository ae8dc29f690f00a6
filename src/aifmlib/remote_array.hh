/**
 * @file
 * AIFM-style remote array: the data structure from the paper's
 * Listing 1, with a locality-aware iterator.
 */

#ifndef TRACKFM_AIFMLIB_REMOTE_ARRAY_HH
#define TRACKFM_AIFMLIB_REMOTE_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "aifm_runtime.hh"

namespace tfm
{

/**
 * Fixed-size array of T in far memory.
 *
 * Element accessors require a DerefScope, as AIFM's API does. The
 * iterator localizes one object at a time and serves elements from the
 * pinned window — the hand-written equivalent of what TrackFM's loop
 * chunking derives automatically.
 */
template <typename T>
class RemoteArray
{
  public:
    RemoteArray(AifmRuntime &rt, std::size_t count)
        : _rt(rt), _count(count),
          base(rt.runtime().allocate(count * sizeof(T)))
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "far-memory elements must be trivially copyable");
        TFM_ASSERT(rt.runtime().stateTable().objectSize() % sizeof(T) == 0,
                   "element size must divide the object size (pad T)");
    }

    std::size_t size() const { return _count; }

    /** Scoped element read (Listing 1's array.at(scope, i)). */
    T
    at(const DerefScope &scope, std::size_t index) const
    {
        (void)scope;
        T value;
        std::memcpy(&value, _rt.deref(elemOffset(index), false), sizeof(T));
        return value;
    }

    /** Scoped element write. */
    void
    set(const DerefScope &scope, std::size_t index, const T &value)
    {
        (void)scope;
        std::memcpy(_rt.deref(elemOffset(index), true), &value, sizeof(T));
    }

    /** Unmetered initialization. */
    void
    init(std::size_t index, const T &value)
    {
        _rt.runtime().rawWrite(elemOffset(index), &value, sizeof(T));
    }

    /** Unmetered verification read. */
    T
    peek(std::size_t index) const
    {
        T value;
        _rt.runtime().rawRead(elemOffset(index), &value, sizeof(T));
        return value;
    }

    /**
     * Library iterator: sequential scan with object-window reuse.
     *
     * The data-structure developer knows the object size, so in-window
     * element accesses are raw (about one cycle of pointer bump), and
     * the runtime is only called at object boundaries. Demand misses at
     * boundaries train the stride prefetcher.
     */
    class Iterator
    {
      public:
        Iterator(RemoteArray &array, const DerefScope &scope, bool for_write)
            : arr(array), writeMode(for_write)
        {
            (void)scope;
            refill();
        }

        Iterator(const Iterator &) = delete;
        Iterator &operator=(const Iterator &) = delete;

        ~Iterator() { arr._rt.runtime().unpinWindow(window); }

        T
        read()
        {
            T value;
            std::memcpy(&value, window.at(arr.elemOffset(index)), sizeof(T));
            step();
            return value;
        }

        void
        write(const T &value)
        {
            std::memcpy(window.at(arr.elemOffset(index)), &value, sizeof(T));
            step();
        }

      private:
        /** Advance, refilling eagerly at the object's end. */
        void
        step()
        {
            arr._rt.clock().advance(1);
            index++;
            if (!window.bytes(arr.elemOffset(index), writeMode) &&
                index < arr._count)
                refill();
        }

        /**
         * The scope pins the window object so localize() calls for
         * later objects cannot evacuate it underneath the iterator.
         */
        void
        refill()
        {
            const std::uint64_t offset = arr.elemOffset(index);
            arr._rt.runtime().pinWindow(
                window, offset, arr._rt.deref(offset, writeMode), writeMode);
        }

        RemoteArray &arr;
        bool writeMode;
        std::size_t index = 0;
        HostWindow window; ///< the pinned object under the iterator
    };

    Iterator
    begin(const DerefScope &scope, bool for_write = false)
    {
        return Iterator(*this, scope, for_write);
    }

  private:
    std::uint64_t
    elemOffset(std::size_t index) const
    {
        return base + index * sizeof(T);
    }

    AifmRuntime &_rt;
    std::size_t _count;
    std::uint64_t base;

    friend class Iterator;
};

} // namespace tfm

#endif // TRACKFM_AIFMLIB_REMOTE_ARRAY_HH
