#include "stream.hh"

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "sim/logging.hh"

namespace tfm
{

double
StreamResult::bandwidthMBps(double cpu_ghz) const
{
    if (delta.cycles == 0)
        return 0.0;
    const double seconds =
        static_cast<double>(delta.cycles) / (cpu_ghz * 1e9);
    return static_cast<double>(bytesTouched) / 1e6 / seconds;
}

namespace
{

/// Elements one kernel step moves at most: a 4 KB page of int32.
constexpr std::uint64_t maxRun = 1024;

/// Elements per initWrite/initRead when populating or verifying.
constexpr std::uint64_t initChunk = 16 * 1024;

/** A kernel stream and the direction it moves elements. */
struct Side
{
    SeqStream &stream;
    bool forWrite;
};

/**
 * Elements the next step moves: the shortest run() of @p sides, capped
 * by the @p left elements and the step buffers, and at least 1.
 */
std::uint64_t
stepLength(std::uint64_t left, std::initializer_list<Side> sides)
{
    std::uint64_t k = std::min(left, maxRun);
    for (const Side &side : sides) {
        k = side.stream.run(k, side.forWrite);
        if (k <= 1)
            return 1;
    }
    return k;
}

template <typename T>
void
take(SeqStream &stream, T *dst, std::uint64_t k)
{
    if (k == 1)
        stream.read(dst);
    else
        stream.readRun(dst, k);
}

template <typename T>
void
put(SeqStream &stream, const T *src, std::uint64_t k)
{
    if (k == 1)
        stream.write(src);
    else
        stream.writeRun(src, k);
}

template <typename T>
std::int64_t
sumOf(SeqStream &a, std::uint64_t n)
{
    T va[maxRun]{};
    std::int64_t sum = 0;
    for (std::uint64_t i = 0; i < n;) {
        const std::uint64_t k = stepLength(n - i, {{a, false}});
        take(a, va, k);
        for (std::uint64_t j = 0; j < k; j++)
            sum += va[j];
        i += k;
    }
    return sum;
}

template <typename T>
std::int64_t
copyOf(SeqStream &a, SeqStream &b, std::uint64_t n)
{
    T va[maxRun]{};
    std::int64_t last = 0;
    for (std::uint64_t i = 0; i < n;) {
        const std::uint64_t k = stepLength(n - i, {{a, false}, {b, true}});
        take(a, va, k);
        put(b, va, k);
        last = va[k - 1];
        i += k;
    }
    return last;
}

template <typename T>
std::int64_t
triadOf(MemBackend &backend, SeqStream &a, SeqStream &b, SeqStream &c,
        std::uint64_t n, std::int64_t scale)
{
    T va[maxRun]{};
    T vb[maxRun]{};
    std::int64_t last = 0;
    for (std::uint64_t i = 0; i < n;) {
        const std::uint64_t k =
            stepLength(n - i, {{a, false}, {b, false}, {c, true}});
        take(a, va, k);
        take(b, vb, k);
        backend.compute(k);
        for (std::uint64_t j = 0; j < k; j++) {
            last = va[j] + scale * vb[j];
            va[j] = static_cast<T>(last);
        }
        put(c, va, k);
        i += k;
    }
    return last;
}

/** Store @p value as one @p elem_bytes-wide element at @p at. */
void
encode(std::byte *at, std::int64_t value, std::uint32_t elem_bytes)
{
    if (elem_bytes == 4) {
        const auto narrow = static_cast<std::int32_t>(value);
        std::memcpy(at, &narrow, 4);
    } else {
        std::memcpy(at, &value, 8);
    }
}

} // anonymous namespace

std::int64_t
streamSum(SeqStream &a, std::uint64_t n, std::uint32_t elem_bytes)
{
    return elem_bytes == 4 ? sumOf<std::int32_t>(a, n)
                           : sumOf<std::int64_t>(a, n);
}

std::int64_t
streamCopy(SeqStream &a, SeqStream &b, std::uint64_t n,
           std::uint32_t elem_bytes)
{
    return elem_bytes == 4 ? copyOf<std::int32_t>(a, b, n)
                           : copyOf<std::int64_t>(a, b, n);
}

std::int64_t
streamTriad(MemBackend &backend, SeqStream &a, SeqStream &b, SeqStream &c,
            std::uint64_t n, std::uint32_t elem_bytes, std::int64_t scale)
{
    return elem_bytes == 4
               ? triadOf<std::int32_t>(backend, a, b, c, n, scale)
               : triadOf<std::int64_t>(backend, a, b, c, n, scale);
}

StreamWorkload::StreamWorkload(MemBackend &backend, std::uint64_t elements,
                               int arrays, std::uint32_t element_bytes)
    : b(backend), n(elements), numArrays(arrays), elemBytes(element_bytes)
{
    TFM_ASSERT(arrays == 2 || arrays == 3, "stream uses 2 or 3 arrays");
    TFM_ASSERT(element_bytes == 4 || element_bytes == 8,
               "stream elements are 4 or 8 bytes");
    srcAddr = b.alloc(n * elemBytes);
    dstAddr = b.alloc(n * elemBytes);
    if (arrays == 3)
        thirdAddr = b.alloc(n * elemBytes);
    populate(srcAddr, true);
    populate(dstAddr, false);
    if (arrays == 3)
        populate(thirdAddr, false);
    b.dropCaches();
}

void
StreamWorkload::populate(std::uint64_t base, bool source)
{
    std::vector<std::byte> chunk(std::min(n, initChunk) * elemBytes);
    for (std::uint64_t first = 0; first < n; first += initChunk) {
        const std::uint64_t count = std::min(initChunk, n - first);
        for (std::uint64_t j = 0; j < count; j++) {
            encode(chunk.data() + j * elemBytes,
                   source ? valueAt(first + j) : 0, elemBytes);
        }
        b.initWrite(base + first * elemBytes, chunk.data(),
                    count * elemBytes);
    }
}

std::uint64_t
StreamWorkload::workingSetBytes() const
{
    return static_cast<std::uint64_t>(numArrays) * n * elemBytes;
}

std::int64_t
StreamWorkload::expectedSum() const
{
    // The pattern repeats, so sum one period and the partial tail.
    std::int64_t period = 0;
    std::int64_t tail = 0;
    for (std::uint64_t i = 0; i < patternPeriod; i++) {
        period += valueAt(i);
        if (i < n % patternPeriod)
            tail += valueAt(i);
    }
    return static_cast<std::int64_t>(n / patternPeriod) * period + tail;
}

StreamResult
StreamWorkload::runSum(int passes)
{
    StreamResult result;
    const BackendSnapshot before = b.snapshot();
    std::int64_t sum = 0;
    for (int p = 0; p < passes; p++) {
        auto src = b.stream(srcAddr, elemBytes, n, StreamMode::Read);
        sum += streamSum(*src, n, elemBytes);
    }
    result.delta = deltaSince(before, b.snapshot());
    result.checksum = sum;
    result.bytesTouched =
        static_cast<std::uint64_t>(passes) * n * elemBytes;
    return result;
}

StreamResult
StreamWorkload::runCopy(int passes)
{
    StreamResult result;
    const BackendSnapshot before = b.snapshot();
    std::int64_t last = 0;
    for (int p = 0; p < passes; p++) {
        auto src = b.stream(srcAddr, elemBytes, n, StreamMode::Read);
        auto dst = b.stream(dstAddr, elemBytes, n, StreamMode::Write);
        last = streamCopy(*src, *dst, n, elemBytes);
    }
    result.delta = deltaSince(before, b.snapshot());
    result.checksum = last;
    result.bytesTouched =
        static_cast<std::uint64_t>(passes) * 2 * n * elemBytes;
    return result;
}

StreamResult
StreamWorkload::runTriad(int passes, std::int64_t scale)
{
    TFM_ASSERT(numArrays == 3, "triad needs a third array");
    StreamResult result;
    const BackendSnapshot before = b.snapshot();
    std::int64_t last = 0;
    for (int p = 0; p < passes; p++) {
        auto a = b.stream(srcAddr, elemBytes, n, StreamMode::Read);
        auto bb = b.stream(dstAddr, elemBytes, n, StreamMode::Read);
        auto c = b.stream(thirdAddr, elemBytes, n, StreamMode::Write);
        last = streamTriad(b, *a, *bb, *c, n, elemBytes, scale);
    }
    result.delta = deltaSince(before, b.snapshot());
    result.checksum = last;
    result.bytesTouched =
        static_cast<std::uint64_t>(passes) * 3 * n * elemBytes;
    return result;
}

bool
StreamWorkload::verifyCopy()
{
    std::vector<std::byte> src(std::min(n, initChunk) * elemBytes);
    std::vector<std::byte> dst(src.size());
    for (std::uint64_t first = 0; first < n; first += initChunk) {
        const std::uint64_t bytes = std::min(initChunk, n - first) * elemBytes;
        b.initRead(srcAddr + first * elemBytes, src.data(), bytes);
        b.initRead(dstAddr + first * elemBytes, dst.data(), bytes);
        if (std::memcmp(src.data(), dst.data(), bytes) != 0)
            return false;
    }
    return true;
}

} // namespace tfm
