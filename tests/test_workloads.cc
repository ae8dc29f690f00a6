/**
 * @file
 * Integration tests for the application workloads: identical results on
 * every memory system, plus the qualitative properties each paper
 * figure depends on.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "workloads/backend_config.hh"
#include "workloads/dataframe.hh"
#include "workloads/hashmap.hh"
#include "workloads/kmeans.hh"
#include "workloads/memcached.hh"
#include "workloads/nas.hh"

namespace tfm
{
namespace
{

BackendConfig
baseConfig(SystemKind kind)
{
    BackendConfig cfg;
    cfg.kind = kind;
    cfg.farHeapBytes = 64 << 20;
    cfg.localMemBytes = 4 << 20;
    cfg.objectSizeBytes = 4096;
    return cfg;
}

const SystemKind allSystems[] = {SystemKind::Local, SystemKind::TrackFm,
                                 SystemKind::Fastswap, SystemKind::Aifm};

TEST(HashmapWorkload, AllLookupsHitOnEveryBackend)
{
    HashmapParams params;
    params.numKeys = 20000;
    params.numOps = 50000;
    for (const SystemKind kind : allSystems) {
        auto backend = makeBackend(baseConfig(kind), CostParams{});
        HashmapWorkload workload(*backend, params);
        const HashmapResult r = workload.run();
        EXPECT_EQ(r.hits, params.numOps) << systemName(kind);
        EXPECT_GE(r.probes, r.hits) << systemName(kind);
    }
}

TEST(HashmapWorkload, SmallObjectsReduceDataTransferred)
{
    // Fig. 9/13's mechanism: zipf lookups at 4 B granularity fetch less
    // with small objects.
    HashmapParams params;
    params.numKeys = 50000;
    params.numOps = 50000;
    std::uint64_t bytes_small = 0, bytes_large = 0;
    for (const std::uint32_t objsize : {256u, 4096u}) {
        auto cfg = baseConfig(SystemKind::TrackFm);
        cfg.objectSizeBytes = objsize;
        cfg.localMemBytes = 1 << 20; // heavy pressure
        cfg.prefetchEnabled = false;
        auto backend = makeBackend(cfg, CostParams{});
        HashmapWorkload workload(*backend, params);
        const HashmapResult r = workload.run();
        (objsize == 256 ? bytes_small : bytes_large) =
            r.delta.bytesFetched;
    }
    EXPECT_LT(bytes_small * 2, bytes_large);
}

TEST(KMeansWorkload, ClusterSizesAgreeAcrossBackends)
{
    KMeansParams params;
    params.numPoints = 5000;
    params.iterations = 1;
    std::vector<std::uint64_t> reference;
    for (const SystemKind kind : allSystems) {
        auto backend = makeBackend(baseConfig(kind), CostParams{});
        KMeansWorkload workload(*backend, params);
        const KMeansResult r = workload.run();
        std::uint64_t total = 0;
        for (const auto count : r.clusterSizes)
            total += count;
        EXPECT_EQ(total, params.numPoints) << systemName(kind);
        if (reference.empty())
            reference = r.clusterSizes;
        else
            EXPECT_EQ(r.clusterSizes, reference) << systemName(kind);
    }
}

TEST(KMeansWorkload, ChunkingAllLoopsIsHarmful)
{
    // Fig. 8: indiscriminate chunking of the low-density nested loops
    // slows k-means down; the cost model avoids it.
    KMeansParams params;
    params.numPoints = 5000;
    params.iterations = 1;

    std::uint64_t cycles_by_policy[3] = {};
    const ChunkPolicy policies[] = {ChunkPolicy::None, ChunkPolicy::All,
                                    ChunkPolicy::CostModel};
    for (int i = 0; i < 3; i++) {
        auto cfg = baseConfig(SystemKind::TrackFm);
        cfg.chunkPolicy = policies[i];
        auto backend = makeBackend(cfg, CostParams{});
        KMeansWorkload workload(*backend, params);
        cycles_by_policy[i] = workload.run().delta.cycles;
    }
    // All-loops must be clearly slower than the naive baseline...
    EXPECT_GT(cycles_by_policy[1], cycles_by_policy[0] * 2);
    // ...and the cost model must beat the baseline.
    EXPECT_LT(cycles_by_policy[2], cycles_by_policy[0]);
}

TEST(MemcachedWorkload, GetsHitAndVerifyOnEveryBackend)
{
    MemcachedParams params;
    params.numKeys = 10000;
    params.numGets = 20000;
    for (const SystemKind kind : allSystems) {
        auto cfg = baseConfig(kind);
        cfg.objectSizeBytes = (kind == SystemKind::TrackFm ||
                               kind == SystemKind::Aifm)
                                  ? 64
                                  : 4096;
        auto backend = makeBackend(cfg, CostParams{});
        MemcachedWorkload workload(*backend, params);
        const MemcachedResult r = workload.run();
        EXPECT_EQ(r.hits, params.numGets) << systemName(kind);
        EXPECT_GT(r.valueBytesRead, 0u) << systemName(kind);
    }
}

TEST(MemcachedWorkload, FastswapAmplifiesIoVersusTrackFm)
{
    // Fig. 16c: page-granularity transfers amplify I/O massively for
    // tiny key/value pairs; 64 B objects keep it modest.
    MemcachedParams params;
    params.numKeys = 50000;
    params.numGets = 20000;
    params.zipfSkew = 1.02;

    // Local memory an order of magnitude below the working set: at
    // 64 B granularity the hot items fit, at page granularity every hot
    // item drags 4 KB of cold neighbours along and thrashes.
    auto tfm_cfg = baseConfig(SystemKind::TrackFm);
    tfm_cfg.objectSizeBytes = 64;
    tfm_cfg.localMemBytes = 512 << 10;
    tfm_cfg.prefetchEnabled = false;
    auto fsw_cfg = baseConfig(SystemKind::Fastswap);
    fsw_cfg.localMemBytes = 512 << 10;
    fsw_cfg.prefetchEnabled = false;

    auto tfm_backend = makeBackend(tfm_cfg, CostParams{});
    auto fsw_backend = makeBackend(fsw_cfg, CostParams{});
    MemcachedWorkload tfm_workload(*tfm_backend, params);
    MemcachedWorkload fsw_workload(*fsw_backend, params);
    const MemcachedResult tr = tfm_workload.run();
    const MemcachedResult fr = fsw_workload.run();
    EXPECT_EQ(tr.hits, fr.hits);
    EXPECT_LT(tr.delta.bytesFetched * 4, fr.delta.bytesFetched);
    EXPECT_LT(tr.delta.cycles, fr.delta.cycles);
}

TEST(MemcachedWorkload, SetThenGetRoundTrip)
{
    auto backend = makeBackend(baseConfig(SystemKind::TrackFm),
                               CostParams{});
    MemcachedParams params;
    params.numKeys = 100;
    params.numGets = 10;
    MemcachedWorkload workload(*backend, params);
    const std::uint8_t payload[5] = {9, 8, 7, 6, 5};
    workload.set(1000000, payload, sizeof(payload));
    std::uint8_t out[16];
    const int len = workload.get(1000000, out, sizeof(out));
    ASSERT_EQ(len, 5);
    EXPECT_EQ(std::memcmp(out, payload, 5), 0);
}

TEST(DataframeWorkload, AnswersMatchReferenceOnEveryBackend)
{
    DataframeParams params;
    params.numRows = 20000;
    for (const SystemKind kind : allSystems) {
        auto backend = makeBackend(baseConfig(kind), CostParams{});
        DataframeWorkload workload(*backend, params);
        const DataframeResult r = workload.run();
        const DataframeAnswers &expected = workload.expected();
        EXPECT_EQ(r.answers.tripsWithManyPassengers,
                  expected.tripsWithManyPassengers)
            << systemName(kind);
        EXPECT_EQ(r.answers.longTrips, expected.longTrips)
            << systemName(kind);
        EXPECT_EQ(r.answers.groupAggregate, expected.groupAggregate)
            << systemName(kind);
        for (int h = 0; h < 24; h++) {
            EXPECT_EQ(r.answers.totalFareByHour[h],
                      expected.totalFareByHour[h])
                << systemName(kind) << " hour " << h;
        }
    }
}

TEST(DataframeWorkload, ChunkingAllLoopsHurtsOnRowGroups)
{
    // Fig. 15: the aggregation query's tiny row-group loops make the
    // All policy slower than the cost-model policy.
    DataframeParams params;
    params.numRows = 20000;
    std::uint64_t all_cycles = 0, model_cycles = 0;
    for (const ChunkPolicy policy :
         {ChunkPolicy::All, ChunkPolicy::CostModel}) {
        auto cfg = baseConfig(SystemKind::TrackFm);
        cfg.chunkPolicy = policy;
        auto backend = makeBackend(cfg, CostParams{});
        DataframeWorkload workload(*backend, params);
        const std::uint64_t cycles = workload.run().delta.cycles;
        (policy == ChunkPolicy::All ? all_cycles : model_cycles) = cycles;
    }
    EXPECT_GT(all_cycles, model_cycles);
}

class NasKernels : public ::testing::TestWithParam<const char *>
{
};

INSTANTIATE_TEST_SUITE_P(AllKernels, NasKernels,
                         ::testing::Values("cg", "ft", "is", "mg", "sp"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST_P(NasKernels, ChecksumMatchesLocalBaseline)
{
    NasParams params;
    params.scale = 8;
    double local_checksum = 0;
    for (const SystemKind kind :
         {SystemKind::Local, SystemKind::TrackFm, SystemKind::Fastswap}) {
        auto backend = makeBackend(baseConfig(kind), CostParams{});
        auto kernel = makeNasKernel(GetParam(), *backend, params);
        const NasResult r = kernel->run();
        if (kind == SystemKind::Local)
            local_checksum = r.checksum;
        else
            EXPECT_DOUBLE_EQ(r.checksum, local_checksum)
                << systemName(kind);
    }
}

TEST_P(NasKernels, FarMemoryCostsMoreThanLocal)
{
    NasParams params;
    params.scale = 8;
    auto local_cfg = baseConfig(SystemKind::Local);
    auto tfm_cfg = baseConfig(SystemKind::TrackFm);
    tfm_cfg.localMemBytes = 256 << 10;
    auto local_backend = makeBackend(local_cfg, CostParams{});
    auto tfm_backend = makeBackend(tfm_cfg, CostParams{});
    auto local_kernel = makeNasKernel(GetParam(), *local_backend, params);
    auto tfm_kernel = makeNasKernel(GetParam(), *tfm_backend, params);
    EXPECT_GT(tfm_kernel->run().delta.cycles,
              local_kernel->run().delta.cycles);
}

TEST(NasO1, PreOptimizationCutsGuardsForFtAndSp)
{
    // Fig. 17b: running the O1 pipeline before the TrackFM passes
    // removes redundant loads and their guards.
    for (const char *name : {"ft", "sp"}) {
        NasParams naive;
        naive.scale = 8;
        NasParams optimized = naive;
        optimized.preOptimized = true;

        auto naive_backend = makeBackend(baseConfig(SystemKind::TrackFm),
                                         CostParams{});
        auto opt_backend = makeBackend(baseConfig(SystemKind::TrackFm),
                                       CostParams{});
        auto naive_kernel = makeNasKernel(name, *naive_backend, naive);
        auto opt_kernel = makeNasKernel(name, *opt_backend, optimized);
        const NasResult rn = naive_kernel->run();
        const NasResult ro = opt_kernel->run();
        EXPECT_DOUBLE_EQ(rn.checksum, ro.checksum) << name;
        EXPECT_GT(rn.delta.guardEvents, ro.delta.guardEvents * 2) << name;
        EXPECT_GT(rn.delta.cycles, ro.delta.cycles) << name;
    }
}

TEST(NasFactory, RejectsUnknownKernels)
{
    auto backend = makeBackend(baseConfig(SystemKind::Local), CostParams{});
    EXPECT_EXIT(makeNasKernel("bogus", *backend, NasParams{}),
                ::testing::ExitedWithCode(1), "unknown NAS kernel");
}

/**
 * Forwards every call to a backend and logs each allocation, so a test
 * can hash the far-heap image a workload leaves behind through the
 * backend's own initRead.
 */
class AllocLog : public MemBackend
{
  public:
    explicit AllocLog(MemBackend &backend) : in(backend) {}

    std::uint64_t
    alloc(std::uint64_t bytes) override
    {
        const std::uint64_t addr = in.alloc(bytes);
        blocks.emplace_back(addr, bytes);
        return addr;
    }
    void dealloc(std::uint64_t addr) override { in.dealloc(addr); }

    void
    read(std::uint64_t addr, void *dst, std::size_t len,
         AccessHint hint) override
    {
        in.read(addr, dst, len, hint);
    }
    void
    write(std::uint64_t addr, const void *src, std::size_t len,
          AccessHint hint) override
    {
        in.write(addr, src, len, hint);
    }
    std::unique_ptr<SeqStream>
    stream(std::uint64_t addr, std::uint32_t elem_size, std::uint64_t count,
           StreamMode mode) override
    {
        return in.stream(addr, elem_size, count, mode);
    }
    void compute(std::uint64_t cycles) override { in.compute(cycles); }

    void
    initWrite(std::uint64_t addr, const void *src, std::size_t len) override
    {
        in.initWrite(addr, src, len);
    }
    void
    initRead(std::uint64_t addr, void *dst, std::size_t len) override
    {
        in.initRead(addr, dst, len);
    }
    void dropCaches() override { in.dropCaches(); }

    std::uint64_t cycles() const override { return in.cycles(); }
    BackendSnapshot snapshot() const override { return in.snapshot(); }
    StatSet stats() const override { return in.stats(); }

    /**
     * FNV-1a over the clock and, in allocation order, every block's
     * address, size and bytes.
     */
    std::uint64_t
    imageHash()
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        const auto mix = [&h](const void *p, std::size_t n) {
            const auto *bytes = static_cast<const unsigned char *>(p);
            for (std::size_t i = 0; i < n; i++)
                h = (h ^ bytes[i]) * 0x100000001b3ull;
        };
        const std::uint64_t now = in.cycles();
        mix(&now, sizeof(now));
        std::vector<unsigned char> buf;
        for (const auto &[addr, bytes] : blocks) {
            mix(&addr, sizeof(addr));
            mix(&bytes, sizeof(bytes));
            buf.resize(bytes);
            in.initRead(addr, buf.data(), buf.size());
            mix(buf.data(), buf.size());
        }
        return h;
    }

  private:
    MemBackend &in;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> blocks;
};

/** Build the workload named @p name on @p backend (populate only). */
void
populate(const std::string &name, MemBackend &backend)
{
    if (name == "dataframe") {
        DataframeParams p;
        p.numRows = 3001; // a partial last row group
        DataframeWorkload w(backend, p);
    } else if (name == "kmeans") {
        KMeansParams p;
        p.numPoints = 2001;
        KMeansWorkload w(backend, p);
    } else if (name == "hashmap") {
        HashmapParams p;
        p.numKeys = 3000;
        p.numOps = 5001;
        HashmapWorkload w(backend, p);
    } else if (name == "memcached") {
        MemcachedParams p;
        p.numKeys = 3000;
        MemcachedWorkload w(backend, p);
    } else {
        NasParams p;
        p.scale = 8;
        makeNasKernel(name, backend, p);
    }
}

TEST(PopulateImage, FarHeapMatchesElementWisePopulate)
{
    // Hashes of each workload's far heap right after construction,
    // taken from the element-wise initT populate that staged writes
    // replaced: staging must leave every byte, allocation and cycle
    // where it was.
    struct Pin
    {
        const char *workload;
        std::uint64_t local;
        std::uint64_t trackfm;
    };
    const Pin pins[] = {
        {"dataframe", 15545646956627251773ull,
         7241333282841043437ull},
        {"kmeans", 4673827910386932067ull,
         2114452112749827443ull},
        {"hashmap", 17599219326636711608ull,
         3406408755348834744ull},
        {"memcached", 6906761822144651190ull,
         793853865602745894ull},
        {"cg", 13989138994703873698ull,
         8646545251770395314ull},
        {"ft", 5918824775776495575ull,
         16073004809636178375ull},
        {"is", 15501726833617974245ull,
         15963056584367443093ull},
        {"mg", 9209346324127735502ull,
         129182668674745806ull},
        {"sp", 12302243789737357648ull,
         12096834203642000736ull},
    };
    for (const Pin &pin : pins) {
        for (const SystemKind kind :
             {SystemKind::Local, SystemKind::TrackFm}) {
            auto backend = makeBackend(baseConfig(kind), CostParams{});
            AllocLog log(*backend);
            populate(pin.workload, log);
            const std::uint64_t want =
                kind == SystemKind::Local ? pin.local : pin.trackfm;
            EXPECT_EQ(log.imageHash(), want)
                << pin.workload << " on " << systemName(kind);
        }
    }
}

} // namespace
} // namespace tfm
