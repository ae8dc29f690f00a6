/**
 * @file
 * Flight-recorder tests: binary log round-trips (empty logs, ring
 * wraparound, truncation, schema and checksum validation), record →
 * replay bit-exactness over the differential corpus under both
 * interpreter engines, divergence pinpointing (stream + seq of the
 * first mismatch), replay of a cluster run with an injected shard
 * failure, and the Histogram/StatSet merge primitives that tfm-stat
 * uses to aggregate per-stream spans.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "interp/interpreter.hh"
#include "ir_test_programs.hh"
#include "obs/flight_recorder.hh"
#include "obs/histogram.hh"
#include "runtime/far_mem_runtime.hh"
#include "sim/stats.hh"

namespace tfm
{
namespace
{

/** A per-test temp path, cleaned up on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_((std::filesystem::temp_directory_path() /
                 ("tfm_replay_test_" + name))
                    .string())
    {}
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kEventBytes = 48;

// ---------------------------------------------------------------------
// Binary log round-trips and validation.
// ---------------------------------------------------------------------

TEST(FrLog, EmptyLogRoundTrip)
{
    TempFile file("empty.tfr");
    FrLog log;
    log.version = frSchemaVersion;
    log.wallTime = 12345;
    std::string error;
    ASSERT_TRUE(saveFrLog(file.path(), log, error)) << error;

    FrLog loaded;
    ASSERT_TRUE(loadFrLog(file.path(), loaded, error)) << error;
    EXPECT_EQ(loaded.version, frSchemaVersion);
    EXPECT_EQ(loaded.flags, 0u);
    EXPECT_EQ(loaded.wallTime, 12345u);
    EXPECT_TRUE(loaded.events.empty());
}

TEST(FrLog, EventRoundTripPreservesEverything)
{
    TempFile file("roundtrip.tfr");
    FlightRecorder rec;
    const std::uint16_t inst = rec.registerInstance();
    for (std::uint64_t i = 0; i < 5; i++)
        rec.note(inst, FrCat::Evac, FrKind::EvacVictim, 100 + i, i,
                 i * 2, i % 2, 7);
    std::string error;
    ASSERT_TRUE(rec.save(file.path(), error)) << error;

    FrLog loaded;
    ASSERT_TRUE(loadFrLog(file.path(), loaded, error)) << error;
    ASSERT_EQ(loaded.events.size(), 5u);
    for (std::uint64_t i = 0; i < 5; i++) {
        const FrEvent &e = loaded.events[i];
        EXPECT_EQ(e.seq, i);
        EXPECT_EQ(e.cycle, 100 + i);
        EXPECT_EQ(e.arg[0], i);
        EXPECT_EQ(e.arg[1], i * 2);
        EXPECT_EQ(e.arg[2], i % 2);
        EXPECT_EQ(e.arg[3], 7u);
    }
}

TEST(FrLog, RingWrapsAtExactlyCapacity)
{
    constexpr std::size_t kCap = 4;
    FlightRecorder rec(kCap);
    EXPECT_TRUE(rec.ring());
    const std::uint16_t inst = rec.registerInstance();
    // Record capacity + 3 events: the oldest 3 must fall out.
    for (std::uint64_t i = 0; i < kCap + 3; i++)
        rec.note(inst, FrCat::Evac, FrKind::EvacVictim, i, i);
    EXPECT_EQ(rec.size(), kCap);
    EXPECT_EQ(rec.ringDropped(), 3u);
    const std::vector<FrEvent> kept = rec.snapshot();
    ASSERT_EQ(kept.size(), kCap);
    // The survivors are the *last* kCap events, seq numbers intact.
    for (std::size_t i = 0; i < kCap; i++) {
        EXPECT_EQ(kept[i].seq, 3 + i);
        EXPECT_EQ(kept[i].arg[0], 3 + i);
    }

    // A ring dump declares itself on disk and is rejected for replay
    // (its head is gone, so sequence-exact re-injection is impossible).
    TempFile file("ring.tfr");
    std::string error;
    ASSERT_TRUE(rec.save(file.path(), error)) << error;
    FrLog loaded;
    ASSERT_TRUE(loadFrLog(file.path(), loaded, error)) << error;
    EXPECT_EQ(loaded.flags & 1u, 1u);
    EXPECT_EQ(loaded.ringCapacity, kCap);
    auto replay = FlightRecorder::loadForReplay(file.path(), error);
    EXPECT_EQ(replay, nullptr);
    EXPECT_NE(error.find("ring"), std::string::npos) << error;
}

TEST(FrLog, ExactlyCapacityEventsDropsNothing)
{
    constexpr std::size_t kCap = 4;
    FlightRecorder rec(kCap);
    const std::uint16_t inst = rec.registerInstance();
    for (std::uint64_t i = 0; i < kCap; i++)
        rec.note(inst, FrCat::Evac, FrKind::EvacVictim, i, i);
    EXPECT_EQ(rec.size(), kCap);
    EXPECT_EQ(rec.ringDropped(), 0u);
}

TEST(FrLog, TruncatedFileNamesLastValidEvent)
{
    TempFile file("trunc.tfr");
    FlightRecorder rec;
    const std::uint16_t inst = rec.registerInstance();
    for (std::uint64_t i = 0; i < 3; i++)
        rec.note(inst, FrCat::Evac, FrKind::EvacVictim, i, i);
    std::string error;
    ASSERT_TRUE(rec.save(file.path(), error)) << error;

    // Cut the file mid third event: events 0 and 1 survive intact.
    std::vector<char> bytes = readAll(file.path());
    bytes.resize(kHeaderBytes + 2 * kEventBytes + kEventBytes / 2);
    writeAll(file.path(), bytes);

    FrLog loaded;
    EXPECT_FALSE(loadFrLog(file.path(), loaded, error));
    const std::uint16_t evacStream = static_cast<std::uint16_t>(
        inst * frCatSlots + static_cast<std::uint16_t>(FrCat::Evac));
    EXPECT_NE(error.find("seq 1"), std::string::npos) << error;
    EXPECT_NE(error.find(frStreamName(evacStream)), std::string::npos)
        << error;
}

TEST(FrLog, SchemaVersionMismatchRejected)
{
    TempFile file("schema.tfr");
    FlightRecorder rec;
    const std::uint16_t inst = rec.registerInstance();
    rec.note(inst, FrCat::Evac, FrKind::EvacVictim, 1, 1);
    std::string error;
    ASSERT_TRUE(rec.save(file.path(), error)) << error;

    // The u32 version lives at offset 8; the checksum covers only the
    // event bytes, so this is a pure schema mismatch.
    std::vector<char> bytes = readAll(file.path());
    bytes[8] = static_cast<char>(frSchemaVersion + 1);
    writeAll(file.path(), bytes);

    FrLog loaded;
    EXPECT_FALSE(loadFrLog(file.path(), loaded, error));
    EXPECT_NE(error.find("schema version"), std::string::npos) << error;
}

TEST(FrLog, ChecksumCatchesFlippedEventByte)
{
    TempFile file("cksum.tfr");
    FlightRecorder rec;
    const std::uint16_t inst = rec.registerInstance();
    rec.note(inst, FrCat::Evac, FrKind::EvacVictim, 1, 1);
    std::string error;
    ASSERT_TRUE(rec.save(file.path(), error)) << error;

    // Flip one bit in the event's first argument without re-patching
    // the FNV trailer.
    std::vector<char> bytes = readAll(file.path());
    bytes[kHeaderBytes + 16] ^= 0x40;
    writeAll(file.path(), bytes);

    FrLog loaded;
    EXPECT_FALSE(loadFrLog(file.path(), loaded, error));
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

// ---------------------------------------------------------------------
// Record → replay bit-exactness over the corpus.
// ---------------------------------------------------------------------

/** FNV-1a over the whole far heap (same constants as the runtime's). */
std::uint64_t
frHeapChecksum(FarMemRuntime &rt)
{
    return rt.heapChecksum();
}

/** Everything observable from one interpreter run. */
struct ReplayRecord
{
    RunResult result;
    std::uint64_t cycles = 0;
    std::uint64_t heap = 0;
    GuardStats guards;
};

ReplayRecord
runWithRecorder(const CompiledProgram &program,
                const SystemConfig &config, InterpEngine engine,
                FlightRecorder &rec)
{
    RuntimeConfig rcfg = config.runtime;
    rcfg.recorder = &rec;
    TfmRuntime rt(rcfg, config.costs);
    Interpreter interp(program.ir(), rt);
    interp.engine = engine;
    ReplayRecord record;
    record.result = interp.run("main");
    record.cycles = rt.clock().now();
    record.heap = frHeapChecksum(rt.runtime());
    record.guards = rt.guardStats();
    return record;
}

void
expectBitExact(const ReplayRecord &rec, const ReplayRecord &rep,
               const std::string &label)
{
    EXPECT_EQ(rec.result.trapped, rep.result.trapped) << label;
    EXPECT_EQ(rec.result.trapMessage, rep.result.trapMessage) << label;
    EXPECT_EQ(rec.result.returnValue, rep.result.returnValue) << label;
    EXPECT_EQ(rec.result.output, rep.result.output) << label;
    EXPECT_EQ(rec.cycles, rep.cycles) << label;
    EXPECT_EQ(rec.heap, rep.heap) << label;
    EXPECT_EQ(rec.guards.fastReads, rep.guards.fastReads) << label;
    EXPECT_EQ(rec.guards.slowRemoteReads, rep.guards.slowRemoteReads)
        << label;
    EXPECT_EQ(rec.guards.slowRemoteWrites, rep.guards.slowRemoteWrites)
        << label;
    EXPECT_EQ(rec.guards.revalidations, rep.guards.revalidations)
        << label;
    EXPECT_EQ(rec.guards.revalidationMisses,
              rep.guards.revalidationMisses)
        << label;
    EXPECT_EQ(rec.guards.prefetchCalls, rep.guards.prefetchCalls)
        << label;
}

SystemConfig
replayConfig()
{
    SystemConfig config;
    // Small tiers so the corpus actually evicts and fetches: replay
    // must reproduce remote traffic and evacuations, not just the
    // resident fast path.
    config.runtime.farHeapBytes = 4 << 20;
    config.runtime.localMemBytes = 256 << 10;
    return config;
}

TEST(RecordReplay, CorpusBitExactUnderBothEngines)
{
    for (const testprogs::CorpusProgram &entry : testprogs::kCorpus) {
        TempFile file(std::string("corpus_") + entry.name + ".tfr");
        SystemConfig config = replayConfig();
        System system(config);
        CompileResult compiled = system.compile(entry.source);
        ASSERT_TRUE(compiled.ok()) << entry.name << ": "
                                   << compiled.error;

        FlightRecorder recorder;
        const ReplayRecord recorded =
            runWithRecorder(*compiled.program, config,
                            InterpEngine::Bytecode, recorder);
        if (!recorded.result.trapped) {
            EXPECT_EQ(recorded.result.returnValue, entry.expected)
                << entry.name;
        }
        std::string error;
        ASSERT_TRUE(recorder.save(file.path(), error)) << error;

        // The log records runtime nondeterminism, not engine
        // internals: either engine must replay it bit-exactly.
        for (const InterpEngine engine :
             {InterpEngine::Bytecode, InterpEngine::Reference}) {
            auto replayer =
                FlightRecorder::loadForReplay(file.path(), error);
            ASSERT_NE(replayer, nullptr) << error;
            const ReplayRecord replayed = runWithRecorder(
                *compiled.program, config, engine, *replayer);
            expectBitExact(recorded, replayed, entry.name);
            // finishReplay validates every consumed stream drained;
            // context streams (net, cluster) are never consumed.
            EXPECT_NO_THROW(replayer->finishReplay()) << entry.name;
        }
    }
}

TEST(RecordReplay, TrapTextReplaysBitExact)
{
    // Far-memory traffic (forced evacuations) followed by a trap: the
    // replay must reproduce both the recorded events and the exact
    // trap text.
    const char *const source = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(8)
  store 0, %a
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %v = load i64, %a
  %v2 = add %v, %i
  store %v2, %a
  call void @tfm_evacuate_all()
  %i2 = add %i, 1
  %c = icmp.slt %i2, 10
  condbr %c, loop, exit
exit:
  %z = load i64, %a
  %zero = icmp.slt %z, 0
  %r = sdiv %z, %zero
  ret %r
}
)";
    TempFile file("trap.tfr");
    SystemConfig config = replayConfig();
    System system(config);
    CompileResult compiled = system.compile(source);
    ASSERT_TRUE(compiled.ok()) << compiled.error;

    FlightRecorder recorder;
    const ReplayRecord recorded = runWithRecorder(
        *compiled.program, config, InterpEngine::Bytecode, recorder);
    ASSERT_TRUE(recorded.result.trapped);
    EXPECT_EQ(recorded.result.trapMessage, "division by zero");
    std::string error;
    ASSERT_TRUE(recorder.save(file.path(), error)) << error;

    for (const InterpEngine engine :
         {InterpEngine::Bytecode, InterpEngine::Reference}) {
        auto replayer =
            FlightRecorder::loadForReplay(file.path(), error);
        ASSERT_NE(replayer, nullptr) << error;
        const ReplayRecord replayed = runWithRecorder(
            *compiled.program, config, engine, *replayer);
        expectBitExact(recorded, replayed, "trap");
        EXPECT_NO_THROW(replayer->finishReplay());
    }
}

TEST(RecordReplay, TamperedArgDivergesAtStreamAndSeq)
{
    TempFile file("tamper.tfr");
    SystemConfig config = replayConfig();
    System system(config);
    CompileResult compiled =
        system.compile(testprogs::kCorpus[0].source);
    ASSERT_TRUE(compiled.ok()) << compiled.error;

    FlightRecorder recorder;
    runWithRecorder(*compiled.program, config, InterpEngine::Bytecode,
                    recorder);
    std::string error;
    ASSERT_TRUE(recorder.save(file.path(), error)) << error;

    // Corrupt the second backend-stream event's offset argument (a
    // checked input), re-saving so the trailer stays valid.
    FrLog log;
    ASSERT_TRUE(loadFrLog(file.path(), log, error)) << error;
    const std::uint16_t backendStream = static_cast<std::uint16_t>(
        0 * frCatSlots + static_cast<std::uint16_t>(FrCat::Backend));
    std::size_t hits = 0;
    std::uint32_t tamperedSeq = 0;
    for (FrEvent &e : log.events) {
        if (e.stream != backendStream)
            continue;
        if (++hits == 2) {
            e.arg[0] ^= 0x1000;
            tamperedSeq = e.seq;
            break;
        }
    }
    ASSERT_EQ(hits, 2u) << "corpus run produced <2 backend events";
    ASSERT_TRUE(saveFrLog(file.path(), log, error)) << error;

    auto replayer = FlightRecorder::loadForReplay(file.path(), error);
    ASSERT_NE(replayer, nullptr) << error;
    try {
        runWithRecorder(*compiled.program, config,
                        InterpEngine::Bytecode, *replayer);
        FAIL() << "tampered log replayed without divergence";
    } catch (const ReplayDivergence &d) {
        EXPECT_EQ(d.stream, backendStream);
        EXPECT_EQ(d.seq, tamperedSeq);
        EXPECT_NE(std::string(d.what()).find("first mismatch"),
                  std::string::npos)
            << d.what();
    }
}

TEST(RecordReplay, FinishReplayThrowsOnUnconsumedEvents)
{
    TempFile file("unconsumed.tfr");
    FlightRecorder rec;
    const std::uint16_t inst = rec.registerInstance();
    rec.note(inst, FrCat::Evac, FrKind::EvacVictim, 5, 1, 2, 0, 0);
    std::string error;
    ASSERT_TRUE(rec.save(file.path(), error)) << error;

    auto replayer = FlightRecorder::loadForReplay(file.path(), error);
    ASSERT_NE(replayer, nullptr) << error;
    EXPECT_THROW(replayer->finishReplay(), ReplayDivergence);
}

// ---------------------------------------------------------------------
// Cluster runs: shard failure captured and replayed.
// ---------------------------------------------------------------------

/** A small RMW scan over a sharded backend with a mid-run shard kill. */
std::pair<std::uint64_t, std::uint64_t>
clusterScan(FlightRecorder *rec)
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 4ull << 20;
    cfg.localMemBytes = 256 << 10;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = true;
    cfg.cluster.shardCount = 4;
    cfg.cluster.replicationFactor = 2;
    cfg.cluster.failures.killShard(1, 200000);
    cfg.recorder = rec;

    const CostParams costs;
    FarMemRuntime rt(cfg, costs);
    constexpr std::uint64_t kObjects = 256;
    const std::uint64_t base = rt.allocate(kObjects * 4096);
    for (std::uint64_t i = 0; i < kObjects; i++)
        rt.rawWrite(base + i * 4096, &i, sizeof(i));
    std::uint64_t sum = 0;
    for (std::uint64_t pass = 0; pass < 2; pass++) {
        for (std::uint64_t i = 0; i < kObjects; i++) {
            auto *p = rt.localize(base + i * 4096, true);
            std::uint64_t v = 0;
            std::memcpy(&v, p, sizeof(v));
            sum += v;
            v++;
            std::memcpy(p, &v, sizeof(v));
        }
    }
    rt.flushWritebacks();
    // Exercise the interface stats so the replay path re-injects them.
    const ClusterStats cstats = rt.backend().clusterStats();
    return {sum + cstats.shardFailures * 1000003ull,
            rt.clock().now() ^ rt.heapChecksum()};
}

TEST(RecordReplay, ClusterShardFailureReplaysBitExact)
{
    TempFile file("cluster.tfr");
    FlightRecorder recorder;
    const auto recorded = clusterScan(&recorder);
    EXPECT_GT(recorder.categoryCount(FrCat::Cluster), 0u)
        << "shard kill did not reach the cluster stream";
    std::string error;
    ASSERT_TRUE(recorder.save(file.path(), error)) << error;

    auto replayer = FlightRecorder::loadForReplay(file.path(), error);
    ASSERT_NE(replayer, nullptr) << error;
    const auto replayed = clusterScan(replayer.get());
    EXPECT_EQ(recorded.first, replayed.first);
    EXPECT_EQ(recorded.second, replayed.second);
    EXPECT_NO_THROW(replayer->finishReplay());
}

/** An RMW scan with batching off: every prefetch and every dirty
 *  eviction is a one-segment message. */
std::pair<std::uint64_t, std::uint64_t>
unbatchedScan(FlightRecorder *rec)
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 4ull << 20;
    cfg.localMemBytes = 256 << 10;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = true;
    cfg.fetchBatchMax = 1;
    cfg.writebackBatchMax = 1;
    cfg.recorder = rec;

    const CostParams costs;
    FarMemRuntime rt(cfg, costs);
    constexpr std::uint64_t kObjects = 256;
    const std::uint64_t base = rt.allocate(kObjects * 4096);
    for (std::uint64_t i = 0; i < kObjects; i++)
        rt.rawWrite(base + i * 4096, &i, sizeof(i));
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < kObjects; i++) {
        auto *p = rt.localize(base + i * 4096, true);
        std::uint64_t v = 0;
        std::memcpy(&v, p, sizeof(v));
        sum += v;
        v += 3;
        std::memcpy(p, &v, sizeof(v));
    }
    return {sum, rt.clock().now() ^ rt.heapChecksum()};
}

TEST(RecordReplay, OneSegmentMessagesLogAsBatchesAndReplay)
{
    TempFile file("unbatched.tfr");
    FlightRecorder recorder;
    const auto recorded = unbatchedScan(&recorder);
    // Each async operation logs a one-segment header and its segment;
    // the reserved single-payload kinds 11 and 14 never appear.
    std::uint64_t fetch_headers = 0, write_headers = 0;
    for (const FrEvent &e : recorder.snapshot()) {
        EXPECT_NE(e.kind, 11u);
        EXPECT_NE(e.kind, 14u);
        if (e.kind == static_cast<std::uint16_t>(FrKind::BackendFetchBatch)) {
            EXPECT_EQ(e.arg[0], 1u);
            fetch_headers++;
        }
        if (e.kind ==
            static_cast<std::uint16_t>(FrKind::BackendWritebackBatch)) {
            EXPECT_EQ(e.arg[0], 1u);
            write_headers++;
        }
    }
    EXPECT_GT(fetch_headers, 0u);
    EXPECT_GT(write_headers, 0u);
    std::string error;
    ASSERT_TRUE(recorder.save(file.path(), error)) << error;

    auto replayer = FlightRecorder::loadForReplay(file.path(), error);
    ASSERT_NE(replayer, nullptr) << error;
    const auto replayed = unbatchedScan(replayer.get());
    EXPECT_EQ(recorded.first, replayed.first);
    EXPECT_EQ(recorded.second, replayed.second);
    EXPECT_NO_THROW(replayer->finishReplay());
}

// ---------------------------------------------------------------------
// tfm-stat aggregation primitives.
// ---------------------------------------------------------------------

TEST(HistogramMerge, MergedPercentilesMatchSingleHistogram)
{
    Histogram all, a, b;
    for (std::uint64_t v = 1; v <= 1000; v++) {
        all.record(v);
        (v % 3 == 0 ? a : b).record(v);
    }
    Histogram merged;
    merged.merge(a);
    merged.merge(b);
    EXPECT_EQ(merged.count(), all.count());
    EXPECT_EQ(merged.sum(), all.sum());
    EXPECT_EQ(merged.min(), all.min());
    EXPECT_EQ(merged.max(), all.max());
    for (const double p : {50.0, 90.0, 99.0})
        EXPECT_EQ(merged.percentile(p), all.percentile(p)) << p;
}

TEST(HistogramMerge, MergeIntoEmptyAndWithEmpty)
{
    Histogram a, empty;
    a.record(7);
    a.record(11);
    Histogram dst;
    dst.merge(a);
    dst.merge(empty); // must not disturb min/max
    EXPECT_EQ(dst.count(), 2u);
    EXPECT_EQ(dst.min(), 7u);
    EXPECT_EQ(dst.max(), 11u);
}

TEST(StatSetMerge, SumsByNameAndAppendsUnknown)
{
    StatSet a, b;
    a.add("fetches", 10);
    a.add("evictions", 3);
    b.add("fetches", 5);
    b.add("writebacks", 2);
    a.merge(b);
    EXPECT_EQ(a.get("fetches"), 15u);
    EXPECT_EQ(a.get("evictions"), 3u);
    EXPECT_EQ(a.get("writebacks"), 2u);
    // Appended in other's order, after a's originals.
    ASSERT_EQ(a.all().size(), 3u);
    EXPECT_EQ(a.all()[2].first, "writebacks");
}

} // anonymous namespace
} // namespace tfm
