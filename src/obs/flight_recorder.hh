/**
 * @file
 * Deterministic flight recorder: a compact binary log of every runtime
 * nondeterminism source, recorded at its choke point and re-injectable
 * for bit-exact replay.
 *
 * The simulation is a closed system: network arrival scheduling,
 * frame-cache victim selection, prefetcher issue decisions, and
 * cluster failure/re-replication all flow through a handful of narrow
 * interfaces (NetworkModel, RemoteBackend, the evacuator). Recording
 * those streams therefore captures everything a run did that its
 * inputs do not already pin down; replaying them reproduces the run
 * bit-exactly — same outputs, same cycle counts, same GuardStats, same
 * far-heap checksum, same trap text — and any divergence (a corrupted
 * log, a code or config change) is pinpointed at the first mismatching
 * event rather than surfacing as a mystery diff at the end.
 *
 * Event model. Every event belongs to a *stream*: one (runtime
 * instance, category) pair, where the categories are net, backend,
 * cluster, evac, and prefetch. Events carry a per-stream sequence
 * number, the simulated cycle at which they were recorded, and up to
 * four 64-bit arguments. During replay the *consumed* streams
 * (backend, evac, prefetch) are popped in order and each event is
 * verified against what the replayed run is about to do; the *context*
 * streams (net, cluster) document link traffic and shard deaths for
 * offline inspection (`tfm-stat replay`) and are covered by the log
 * checksum but not re-consumed — the ReplayBackend stands in for the
 * whole remote tier, links included.
 *
 * Modes. Record-full keeps every event; record-ring ("flight
 * recorder") keeps only the last N so a long run can be instrumented
 * with bounded memory and the tail dumped on a trap. Replay loads a
 * saved log and verifies/re-injects.
 *
 * On-disk format (all fields little-endian host layout):
 *   header  (40 B): magic "TFMFREC\0", u32 version, u32 flags
 *                   (bit 0: ring dump), u64 wall-clock timestamp,
 *                   u64 event count, u64 ring capacity
 *   events  (48 B each): u16 stream, u16 kind, u32 seq, u64 cycle,
 *                   u64 arg[4]
 *   trailer (16 B): u64 FNV-1a checksum over the event bytes,
 *                   end magic "TFMFREND"
 * The wall timestamp is the only nondeterministic byte range: two
 * recordings of the same run are byte-identical from offset 24 on.
 */

#ifndef TRACKFM_OBS_FLIGHT_RECORDER_HH
#define TRACKFM_OBS_FLIGHT_RECORDER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace tfm
{

class Observability;
class StatSet;

/** Nondeterminism categories; one stream per (instance, category). */
enum class FrCat : std::uint16_t
{
    Net = 0,      ///< per-message link scheduling (context)
    Backend = 1,  ///< fetch/writeback completions (consumed)
    Cluster = 2,  ///< shard failure / re-replication (context)
    Evac = 3,     ///< frame-cache victim + epoch decisions (consumed)
    Prefetch = 4, ///< prefetcher issue decisions (consumed)
};

/// Streams per registered runtime instance (room for future categories).
constexpr std::uint16_t frCatSlots = 8;

/** Event kinds, namespaced by category. */
enum class FrKind : std::uint16_t
{
    // FrCat::Net — one event per link message.
    NetFetch = 1,     ///< {bytes, payloads, arrival, shard}
    NetWriteback = 2, ///< {bytes, payloads, drained, shard}

    // FrCat::Backend — one event per blocking fetch; every async fetch
    // and writeback is a batch header plus one segment event per
    // payload. 11 and 14 stay reserved: they were the single-payload
    // async fetch and writeback, and no log reuses them.
    BackendFetch = 10,        ///< {offset, len, endCycle}
    BackendFetchBatch = 12,   ///< {segCount, lastArrival, endCycle}
    BackendFetchSeg = 13,     ///< {offset, len, arrival}
    BackendWritebackBatch = 15, ///< {segCount, endCycle}
    BackendWritebackSeg = 16, ///< {offset, len}
    /// {degradedReads, reReplicatedBytes, shardFailures, degradedWrites}
    /// — a clusterStats() query's answer, re-injected on replay.
    BackendClusterStats = 17,

    // FrCat::Cluster — failure-plan outcomes.
    ClusterShardFail = 20,   ///< {shard}
    ClusterReReplicate = 21, ///< {stripesMoved, bytesMoved, stripesLost}

    // FrCat::Evac.
    EvacVictim = 30, ///< {frame, objId, dirty, epoch}

    // FrCat::Prefetch — one event per demand miss.
    PrefetchDecision = 40, ///< {objId, stride (int64), depth}
};

/** One recorded event (fixed 48-byte wire layout). */
struct FrEvent
{
    std::uint16_t stream = 0; ///< instance * frCatSlots + category
    std::uint16_t kind = 0;   ///< FrKind
    std::uint32_t seq = 0;    ///< per-stream sequence number
    std::uint64_t cycle = 0;  ///< simulated cycle at the choke point
    std::uint64_t arg[4] = {0, 0, 0, 0};
};

static_assert(sizeof(FrEvent) == 48, "FrEvent wire layout drifted");

/** A loaded (or to-be-saved) log: header fields plus the events. */
struct FrLog
{
    std::uint32_t version = 0;
    std::uint32_t flags = 0; ///< bit 0: ring-buffer dump (tail only)
    std::uint64_t wallTime = 0;
    std::uint64_t ringCapacity = 0;
    std::vector<FrEvent> events;
};

/// Current on-disk schema version.
constexpr std::uint32_t frSchemaVersion = 1;

/** Human-readable stream name, e.g. "backend#0". */
std::string frStreamName(std::uint16_t stream);

/** Human-readable kind name, e.g. "backend.fetch". */
const char *frKindName(std::uint16_t kind);

/** One-line rendering of an event (divergence reports, tooling). */
std::string frEventToString(const FrEvent &e);

/**
 * Write @p log to @p path (header + events + checksummed trailer).
 * @return false with @p error set on I/O failure.
 */
bool saveFrLog(const std::string &path, const FrLog &log,
               std::string &error);

/**
 * Load and validate a log: magic, schema version, size, per-stream
 * sequence continuity, and the FNV-1a trailer checksum. A truncated
 * file fails loudly, naming the last valid (stream, seq) so the reader
 * knows exactly how much of the recording survived.
 */
bool loadFrLog(const std::string &path, FrLog &log, std::string &error);

/**
 * Thrown (under DivergencePolicy::Throw) when a replayed run's next
 * action does not match the recorded stream: carries the first
 * mismatching event's stream and sequence number plus a rendered
 * expected-vs-actual report.
 */
class ReplayDivergence : public std::runtime_error
{
  public:
    ReplayDivergence(std::uint16_t stream_id, std::uint32_t sequence,
                     const std::string &what)
        : std::runtime_error(what), stream(stream_id), seq(sequence)
    {}

    std::uint16_t stream; ///< diverging stream id (frStreamName()able)
    std::uint32_t seq;    ///< first mismatching sequence number
};

/**
 * The recorder/replayer. One instance serves a whole process (all
 * runtime instances it constructs); choke points call record() with
 * the event they are about to act on, and the same call verifies and
 * re-injects during replay.
 */
class FlightRecorder
{
  public:
    enum class Mode
    {
        Record, ///< append events (full log or bounded ring)
        Replay  ///< consume a loaded log, verifying each event
    };

    /** What record() does when a replayed event mismatches. */
    enum class DivergencePolicy
    {
        Throw, ///< throw ReplayDivergence (tfmc, tests)
        Abort  ///< print the report to stderr and _Exit(3) (benches)
    };

    /** Full-log recorder (@p ring_capacity 0) or bounded ring. */
    explicit FlightRecorder(std::size_t ring_capacity = 0);

    /** Load @p path for replay; null (with @p error set) on failure. */
    static std::unique_ptr<FlightRecorder>
    loadForReplay(const std::string &path, std::string &error);

    Mode mode() const { return mode_; }
    bool replaying() const { return mode_ == Mode::Replay; }
    bool ring() const { return ringCap_ != 0; }
    std::size_t ringCapacity() const { return ringCap_; }

    void setDivergencePolicy(DivergencePolicy policy) { policy_ = policy; }

    /**
     * Register one runtime instance; returns its instance id. Runtimes
     * are constructed in a deterministic order, so ids line up between
     * the recording and replaying processes.
     */
    std::uint16_t registerInstance();

    /**
     * The choke-point call. Recording: append the event. Replaying:
     * pop the stream's next event, verify kind, cycle, and the first
     * @p check_args arguments (the action's inputs), then copy the
     * recorded arguments back into @p args — re-injecting the recorded
     * outcome (arrival cycles, completion times) into the caller.
     * Context streams (net, cluster) are record-only: their choke
     * points never execute during replay.
     */
    void record(std::uint16_t instance, FrCat cat, FrKind kind,
                std::uint64_t cycle, std::uint64_t (&args)[4],
                int check_args);

    /** record() for emit-and-forget sites with no out-args. */
    void
    note(std::uint16_t instance, FrCat cat, FrKind kind,
         std::uint64_t cycle, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
         std::uint64_t a2 = 0, std::uint64_t a3 = 0)
    {
        std::uint64_t args[4] = {a0, a1, a2, a3};
        record(instance, cat, kind, cycle, args, 4);
    }

    /**
     * Replay epilogue: every consumed stream must be fully drained, or
     * the replayed run did measurably less than the recording — a
     * divergence reported at the first unconsumed event.
     */
    void finishReplay();

    /** Total events currently held (ring: at most the capacity). */
    std::size_t size() const { return events_.size(); }

    /** Events dropped out of the ring (0 in full-log mode). */
    std::uint64_t ringDropped() const { return ringDropped_; }

    /** Events consumed so far across all streams (replay mode). */
    std::uint64_t consumed() const { return consumed_; }

    /**
     * Replay progress as a log position: one past the highest global
     * log index consumed so far. Context events (net, cluster) are
     * emitted *before* the consumed backend event of the operation
     * that caused them, so the log prefix below this frontier is
     * exactly what the recording run had emitted at the same point —
     * the basis for ReplayBackend's snapshot-consistent stats
     * reconstruction.
     */
    std::uint64_t consumedFrontier() const { return frontier_; }

    /** Per-category event counts over the held/loaded log. */
    std::uint64_t categoryCount(FrCat cat) const;

    /** The held (record) or loaded (replay) events, oldest first. */
    std::vector<FrEvent> snapshot() const;

    /** The loaded log, read in place (replay mode only). */
    const std::vector<FrEvent> &replayLog() const;

    /** Write the current contents to @p path (ring: the tail dump). */
    bool save(const std::string &path, std::string &error) const;

    /**
     * Mirror the recorder's state into a trace: "record.*"/"replay.*"
     * counter samples (per category + total) and one schema-version
     * metadata event, so --trace and --record/--replay compose.
     */
    void exportTrace(Observability &sink, std::uint32_t stream,
                     std::uint64_t now) const;

    /** "record.events"/"replay.consumed"-style counters. */
    void exportStats(StatSet &set) const;

  private:
    explicit FlightRecorder(FrLog &&loaded);

    /** Replay-side verification of one choke-point event. */
    void verify(std::uint16_t stream, FrKind kind, std::uint64_t cycle,
                std::uint64_t (&args)[4], int check_args);

    [[noreturn]] void diverge(std::uint16_t stream, std::uint32_t seq,
                              const std::string &detail);

    Mode mode_ = Mode::Record;
    DivergencePolicy policy_ = DivergencePolicy::Throw;
    std::size_t ringCap_ = 0;
    std::uint16_t nextInstance_ = 0;

    /// Record mode: the held events (deque so the ring pops cheaply).
    std::deque<FrEvent> events_;
    std::uint64_t ringDropped_ = 0;
    /// Next sequence number per stream id.
    std::vector<std::uint32_t> nextSeq_;

    /// Replay mode: the loaded log and per-stream cursors.
    FrLog log_;
    std::vector<std::vector<std::size_t>> streamEvents_;
    std::vector<std::size_t> cursor_;
    std::uint64_t consumed_ = 0;
    std::uint64_t frontier_ = 0;
};

namespace obs
{

/**
 * Process-wide default recorder, mirroring obs::defaultSink(): the
 * bench-level --record/--replay flags install one before main() runs
 * and every runtime constructed without an explicit recorder picks it
 * up. Null in normal operation — recording off costs one pointer check
 * at the (already cold) choke points and nothing on guard fast paths.
 */
FlightRecorder *defaultRecorder();
void setDefaultRecorder(FlightRecorder *recorder);

} // namespace obs

} // namespace tfm

#endif // TRACKFM_OBS_FLIGHT_RECORDER_HH
