/**
 * @file
 * kv-zipf: native memcached over the TrackFM backend in the paper's
 * Fig. 16 setting (64 B objects, local memory = working set / 12,
 * zipf 1.02), driven by one closed-loop client with a seeded 90/10
 * get/set trace. Guard slow paths, eviction, writeback and the network
 * do the work; the compiler and the interpreter do none.
 *
 * The key count is a quarter of bench_fig16's 1M, with the far heap
 * scaled along: at 1M keys (~380 MB peak RSS) one repetition takes
 * about 1.5 s, so a run holds few of them, and its host time swung the
 * most with the host's load (README.md, Baseline).
 */

#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/usr_dist.hh"
#include "sim/zipf.hh"
#include "workloads.hh"
#include "workloads/backend_config.hh"
#include "workloads/memcached.hh"

namespace perfbench
{

namespace
{

constexpr std::uint64_t kKeys = 250000;
constexpr std::uint64_t kWarmupGets = 300000;
constexpr std::uint64_t kOps = 600000;
constexpr double kSkew = 1.02;

/** One client request, with what it sends or must get back. */
struct Op
{
    std::uint64_t key = 0;
    bool set = false;
    std::uint32_t version = 0; ///< value version set, or a get must see
    std::uint32_t length = 0;  ///< bytes set, or bytes a get must return
    std::uint64_t offset = 0;  ///< of the op's bytes in the value arena
};

/** Byte @p i of version @p version of @p key's value; version 0 is
 *  the pattern MemcachedWorkload populates with. */
std::uint8_t
valueByte(std::uint64_t key, std::uint32_t version, std::uint32_t i)
{
    if (version == 0)
        return static_cast<std::uint8_t>(key * 131 + i);
    const std::uint64_t mix =
        (key + 1) * 0x9e3779b97f4a7c15ull ^ version * 0xbf58476d1ce4e5b9ull;
    return static_cast<std::uint8_t>((mix >> ((i & 7) * 8)) ^ i);
}

/**
 * Draws the 90/10 get/set trace and works out, with a version shadow
 * of the store, what each get must return. Set lengths come from the
 * USR model populate uses, tail of multi-object values included. Each
 * op owns a slice of @p arena: a set's payload, or room for a get's
 * result plus one byte, so a too-long value shows as a length error.
 */
std::vector<Op>
makeTrace(const tfm::MemcachedParams &params, std::uint64_t &chain,
          std::vector<std::uint8_t> &arena)
{
    // Populate draws one size per key, in key order.
    tfm::UsrSizeDist populated(params.seed);
    std::vector<std::uint32_t> length(params.numKeys);
    for (std::uint32_t &bytes : length)
        bytes = populated.next().valueBytes;
    std::vector<std::uint32_t> version(params.numKeys, 0);

    tfm::ZipfGenerator keys(params.numKeys, params.zipfSkew,
                            tfm::splitmix64(chain));
    tfm::Rng rng(tfm::splitmix64(chain));
    tfm::UsrSizeDist sizes(tfm::splitmix64(chain));
    std::uint32_t versions = 0;
    std::uint64_t arena_bytes = 0;
    std::vector<Op> trace(kOps);
    for (Op &op : trace) {
        op.key = keys.next();
        op.set = rng.below(10) == 0;
        if (op.set) {
            version[op.key] = ++versions;
            length[op.key] = sizes.next().valueBytes;
        }
        op.version = version[op.key];
        op.length = length[op.key];
        op.offset = arena_bytes;
        arena_bytes += op.length + (op.set ? 0 : 1);
    }

    arena.assign(arena_bytes, 0);
    for (const Op &op : trace) {
        if (!op.set)
            continue;
        for (std::uint32_t b = 0; b < op.length; b++)
            arena[op.offset + b] = valueByte(op.key, op.version, b);
    }
    return trace;
}

/** Why get @p op, which returned @p len bytes into @p bytes, is wrong;
 *  empty when it returned the value last set. */
std::string
checkGet(const Op &op, int len, const std::uint8_t *bytes)
{
    if (len < 0 || static_cast<std::uint32_t>(len) != op.length)
        return "get returned length " + std::to_string(len) +
               ", expected " + std::to_string(op.length);
    for (std::uint32_t b = 0; b < op.length; b++) {
        if (bytes[b] != valueByte(op.key, op.version, b))
            return "get returned stale or wrong bytes";
    }
    return "";
}

} // anonymous namespace

RepResult
kvZipfRep(std::uint64_t seed, SpanRecorder *spans)
{
    RepResult rep;
    std::uint64_t chain = seed ^ 0x6b762d7a697066ull;

    tfm::BackendConfig cfg;
    cfg.kind = tfm::SystemKind::TrackFm;
    cfg.farHeapBytes = 64 << 20;
    cfg.objectSizeBytes = 64;
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = tfm::ChunkPolicy::CostModel;
    cfg.localMemBytes = kKeys * 96 / 12; // Fig. 16's working-set estimate

    std::unique_ptr<tfm::MemBackend> backend;
    std::unique_ptr<tfm::MemcachedWorkload> store;
    std::vector<Op> trace;
    std::vector<std::uint8_t> arena;
    const std::int64_t t0 = nowNs();
    {
        SpanScope setup(spans, "setup");
        {
            SpanScope span(spans, "workloads.make_backend");
            backend = tfm::makeBackend(cfg, tfm::CostParams{});
        }
        tfm::MemcachedParams params;
        params.numKeys = kKeys;
        params.numGets = kWarmupGets;
        params.zipfSkew = kSkew;
        params.seed = tfm::splitmix64(chain);
        {
            SpanScope span(spans, "workloads.populate");
            store = std::make_unique<tfm::MemcachedWorkload>(*backend,
                                                             params);
        }
        {
            SpanScope span(spans, "workloads.warmup");
            store->run(); // fills the local tier; untimed
        }
        SpanScope span(spans, "workloads.gen_trace");
        trace = makeTrace(params, chain, arena);
    }
    rep.setupSeconds = secondsBetween(t0, nowNs());

    std::vector<double> latency(kOps);
    std::vector<int> returned(kOps, 0);
    std::map<std::string, std::uint64_t> before_stats;
    accumulate(before_stats, backend->stats());
    const std::uint64_t cycles_before = backend->cycles();

    const std::int64_t t1 = nowNs();
    {
        SpanScope measure(spans, "measure");
        for (std::uint64_t i = 0; i < kOps; i++) {
            const Op &op = trace[i];
            std::uint8_t *bytes = arena.data() + op.offset;
            const std::uint64_t start = backend->cycles();
            if (op.set) {
                SpanScope span(spans, "workloads.set");
                store->set(op.key, bytes, op.length);
            } else {
                SpanScope span(spans, "workloads.get");
                returned[i] = store->get(op.key, bytes, op.length + 1);
            }
            latency[i] = static_cast<double>(backend->cycles() - start);
        }
    }
    rep.wallSeconds = secondsBetween(t1, nowNs());

    for (std::uint64_t i = 0; i < kOps; i++) {
        const Op &op = trace[i];
        rep.attempted++;
        if (op.set)
            continue;
        const std::string failure =
            checkGet(op, returned[i], arena.data() + op.offset);
        if (failure.empty())
            continue;
        rep.failed++;
        if (rep.failures.size() < 5)
            rep.failures.push_back("key " + std::to_string(op.key) + ": " +
                                   failure);
    }

    std::map<std::string, std::uint64_t> after_stats;
    accumulate(after_stats, backend->stats());
    rep.sim = {
        {"sim_cycles",
         static_cast<double>(backend->cycles() - cycles_before)},
        {"sim_p50_cycles", percentile(latency, 50)},
        {"sim_p99_cycles", percentile(latency, 99)},
    };
    rep.counts = layerCounts(difference(after_stats, before_stats));
    return rep;
}

} // namespace perfbench
