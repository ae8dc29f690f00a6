/**
 * @file
 * STREAM copy and triad over three staggered arrays, driven one element
 * at a time or in the kernels' element runs, for the tests that check a
 * stream's window or run against single accesses (test_fastswap,
 * test_backends).
 */

#ifndef TRACKFM_TESTS_STREAM_HARNESS_HH
#define TRACKFM_TESTS_STREAM_HARNESS_HH

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>

#include "workloads/backend_config.hh"
#include "workloads/stream.hh"

namespace tfm
{

/// Elements per stream in the window tests: 20 pages of int32.
constexpr std::uint64_t kStreamElems = 20 * 1024;

/**
 * Three 21-page arrays whose streams start at different offsets within
 * a page, so a fault taken by one stream lands while the others are in
 * the middle of their pages.
 */
template <typename Alloc>
std::array<std::uint64_t, 3>
staggeredArrays(Alloc alloc)
{
    const std::uint64_t stagger[3] = {0, 1364, 2732};
    std::array<std::uint64_t, 3> at{};
    for (int k = 0; k < 3; k++)
        at[k] = alloc(21 * 4096) + stagger[k];
    return at;
}

/** How copyAndTriad moves its elements. */
enum class Drive
{
    Single, ///< one backend read/write per element, Sequential hint
    Stream, ///< one stream read/write per element
    Runs    ///< the STREAM kernels' element runs (streamCopy/streamTriad)
};

/**
 * One STREAM cursor over a backend: its stream(), or one read/write per
 * element with the Sequential hint, which on Local and Fastswap charges
 * the same seqAccessCycles.
 */
class Cursor
{
  public:
    Cursor(MemBackend &backend, std::uint64_t addr, bool streamed,
           StreamMode mode)
        : backend_(backend), at_(addr),
          stream_(streamed ? backend.stream(addr, 4, kStreamElems, mode)
                           : nullptr)
    {}

    std::int32_t
    read()
    {
        std::int32_t value = 0;
        if (stream_)
            stream_->read(&value);
        else
            backend_.read(at_, &value, 4, AccessHint::Sequential);
        at_ += 4;
        return value;
    }

    void
    write(std::int32_t value)
    {
        if (stream_)
            stream_->write(&value);
        else
            backend_.write(at_, &value, 4, AccessHint::Sequential);
        at_ += 4;
    }

  private:
    MemBackend &backend_;
    std::uint64_t at_;
    std::unique_ptr<SeqStream> stream_;
};

/** STREAM copy (b = a), then triad (c = a + 3b), on a fresh backend. */
inline std::unique_ptr<MemBackend>
copyAndTriad(const BackendConfig &cfg, Drive drive,
             std::array<std::uint64_t, 3> &at)
{
    auto backend = makeBackend(cfg, CostParams{});
    at = staggeredArrays(
        [&backend](std::uint64_t bytes) { return backend->alloc(bytes); });
    for (std::uint64_t i = 0; i < kStreamElems; i++) {
        const auto value = static_cast<std::int32_t>(i % 1000) - 500;
        backend->initT<std::int32_t>(at[0] + 4 * i, value);
    }
    backend->dropCaches();
    const auto open = [&](int k, StreamMode mode) {
        return backend->stream(at[k], 4, kStreamElems, mode);
    };
    if (drive == Drive::Runs) {
        {
            auto a = open(0, StreamMode::Read);
            auto b = open(1, StreamMode::Write);
            streamCopy(*a, *b, kStreamElems, 4);
        }
        auto a = open(0, StreamMode::Read);
        auto b = open(1, StreamMode::Read);
        auto c = open(2, StreamMode::Write);
        streamTriad(*backend, *a, *b, *c, kStreamElems, 4, 3);
        return backend;
    }
    const bool streamed = drive == Drive::Stream;
    {
        Cursor a(*backend, at[0], streamed, StreamMode::Read);
        Cursor b(*backend, at[1], streamed, StreamMode::Write);
        for (std::uint64_t i = 0; i < kStreamElems; i++)
            b.write(a.read());
    }
    Cursor a(*backend, at[0], streamed, StreamMode::Read);
    Cursor b(*backend, at[1], streamed, StreamMode::Read);
    Cursor c(*backend, at[2], streamed, StreamMode::Write);
    for (std::uint64_t i = 0; i < kStreamElems; i++) {
        const std::int32_t va = a.read();
        const std::int32_t vb = b.read();
        backend->compute(1);
        c.write(va + 3 * vb);
    }
    return backend;
}

/**
 * Expect two backends to have made the same run: the same clock, link
 * bytes, every exported stat, and the first kStreamElems int32 elements
 * of each array in @p arrays.
 */
inline void
expectSameBackendRun(MemBackend &run, MemBackend &ref,
                     const std::array<std::uint64_t, 3> &arrays)
{
    EXPECT_EQ(run.cycles(), ref.cycles());
    EXPECT_EQ(run.snapshot().bytesTransferred,
              ref.snapshot().bytesTransferred);
    EXPECT_EQ(run.stats().all(), ref.stats().all());
    for (int k = 0; k < 3; k++) {
        for (std::uint64_t i = 0; i < kStreamElems; i++) {
            const std::uint64_t addr = arrays[k] + 4 * i;
            if (run.peekT<std::int32_t>(addr) !=
                ref.peekT<std::int32_t>(addr)) {
                ADD_FAILURE() << "array " << k << " element " << i;
                return;
            }
        }
    }
}

/**
 * Run copyAndTriad on @p cfg driven two ways and expect the same run.
 * Returns the stats of the @p drive run.
 */
inline StatSet
expectSameCopyAndTriad(const BackendConfig &cfg, Drive drive,
                       Drive reference)
{
    std::array<std::uint64_t, 3> at{};
    std::array<std::uint64_t, 3> atRef{};
    const auto run = copyAndTriad(cfg, drive, at);
    const auto ref = copyAndTriad(cfg, reference, atRef);
    EXPECT_EQ(at, atRef);
    expectSameBackendRun(*run, *ref, at);
    return run->stats();
}

} // namespace tfm

#endif // TRACKFM_TESTS_STREAM_HARNESS_HH
