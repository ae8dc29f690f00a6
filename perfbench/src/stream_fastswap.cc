/**
 * @file
 * stream-fastswap: STREAM sum, copy and triad over the Fastswap page
 * runtime at 25% local memory, with Fig. 12's object and prefetch
 * settings. The only workload on FastswapRuntime: sequential reads
 * beside sequential writes through eviction, writeback and faults.
 */

#include <algorithm>

#include "workloads.hh"
#include "workloads/backend_config.hh"
#include "workloads/stream.hh"

namespace perfbench
{

namespace
{

constexpr std::uint32_t kElementBytes = 4;
constexpr double kLocalFraction = 0.25;

tfm::StreamResult
runKernel(tfm::StreamWorkload &stream, StreamKernel kernel)
{
    switch (kernel) {
      case StreamKernel::Sum:
        return stream.runSum();
      case StreamKernel::Copy:
        return stream.runCopy();
      case StreamKernel::Triad:
        break;
    }
    return stream.runTriad(); // c[i] = a[i] + 3 * b[i]
}

/** STREAM's source pattern (StreamWorkload: a[i] = i % 1000 - 500). */
std::int64_t
sourceAt(std::uint64_t i)
{
    return static_cast<std::int64_t>(i % 1000) - 500;
}

/** Fig. 12's backend (4 KB objects, prefetch depth 16, chunk All). */
tfm::BackendConfig
streamBackendConfig(const StreamParams &params)
{
    tfm::BackendConfig cfg;
    cfg.kind = tfm::SystemKind::Fastswap;
    cfg.farHeapBytes = params.farHeapBytes;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = true;
    cfg.prefetchDepth = 16;
    cfg.chunkPolicy = tfm::ChunkPolicy::All;
    const std::uint64_t working_set =
        static_cast<std::uint64_t>(params.arrays) * params.elements *
        kElementBytes;
    // Never fewer than eight frames, as the figure benches size it.
    cfg.localMemBytes = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(kLocalFraction *
                                   static_cast<double>(working_set)),
        8ull * cfg.objectSizeBytes);
    return cfg;
}

} // anonymous namespace

std::uint64_t
streamKernelCycles(const StreamParams &params, StreamKernel kernel)
{
    auto backend =
        tfm::makeBackend(streamBackendConfig(params), tfm::CostParams{});
    tfm::StreamWorkload stream(*backend, params.elements, params.arrays,
                               kElementBytes);
    return runKernel(stream, kernel).delta.cycles;
}

RepResult
streamFastswapRep(std::uint64_t /*seed: inputs are fixed*/,
                  SpanRecorder *spans)
{
    RepResult rep;
    const StreamParams params;
    std::unique_ptr<tfm::MemBackend> backend;
    std::unique_ptr<tfm::StreamWorkload> stream;
    const std::int64_t t0 = nowNs();
    {
        SpanScope setup(spans, "setup");
        {
            SpanScope span(spans, "workloads.make_backend");
            backend = tfm::makeBackend(streamBackendConfig(params),
                                       tfm::CostParams{});
        }
        SpanScope span(spans, "workloads.populate");
        stream = std::make_unique<tfm::StreamWorkload>(
            *backend, params.elements, params.arrays, kElementBytes);
    }
    rep.setupSeconds = secondsBetween(t0, nowNs());

    std::map<std::string, std::uint64_t> before;
    accumulate(before, backend->stats());
    const struct
    {
        StreamKernel kernel;
        const char *span;
    } kernels[] = {{StreamKernel::Sum, "workloads.sum"},
                   {StreamKernel::Copy, "workloads.copy"},
                   {StreamKernel::Triad, "workloads.triad"}};
    tfm::StreamResult results[3];
    const std::int64_t t1 = nowNs();
    {
        SpanScope measure(spans, "measure");
        for (int k = 0; k < 3; k++) {
            SpanScope span(spans, kernels[k].span);
            results[k] = runKernel(*stream, kernels[k].kernel);
        }
    }
    rep.wallSeconds = secondsBetween(t1, nowNs());
    std::map<std::string, std::uint64_t> after;
    accumulate(after, backend->stats());

    // Triad runs after copy, so b == a and c[i] = 4 * a[i].
    const std::int64_t last_triad = 4 * sourceAt(params.elements - 1);
    const struct
    {
        bool ok;
        const char *what;
    } checks[] = {
        {results[0].checksum == stream->expectedSum(), "sum"},
        {stream->verifyCopy(), "copy"},
        {results[2].checksum == last_triad, "triad"},
    };
    std::vector<double> cycles;
    double total = 0.0;
    for (int k = 0; k < 3; k++) {
        rep.attempted++;
        if (!checks[k].ok) {
            rep.failed++;
            rep.failures.push_back(std::string(checks[k].what) +
                                   " result differs from its closed form");
        }
        cycles.push_back(static_cast<double>(results[k].delta.cycles));
        total += cycles.back();
    }
    rep.sim = {{"sim_cycles", total},
               {"sim_p50_cycles", percentile(cycles, 50)},
               {"sim_p99_cycles", percentile(cycles, 99)}};
    rep.counts = layerCounts(difference(after, before));
    return rep;
}

} // namespace perfbench
