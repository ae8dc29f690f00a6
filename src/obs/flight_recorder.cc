#include "flight_recorder.hh"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>

#include "obs/obs.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace tfm
{

namespace
{

constexpr char kMagic[8] = {'T', 'F', 'M', 'F', 'R', 'E', 'C', '\0'};
constexpr char kEndMagic[8] = {'T', 'F', 'M', 'F', 'R', 'E', 'N', 'D'};
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kTrailerBytes = 16;
constexpr std::uint32_t kRingFlag = 1u << 0;

/** FNV-1a over the serialized event bytes. */
std::uint64_t
fnv1a(const void *data, std::size_t len,
      std::uint64_t hash = 1469598103934665603ull)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; i++) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

const char *
catName(std::uint16_t cat)
{
    switch (static_cast<FrCat>(cat)) {
      case FrCat::Net:
        return "net";
      case FrCat::Backend:
        return "backend";
      case FrCat::Cluster:
        return "cluster";
      case FrCat::Evac:
        return "evac";
      case FrCat::Prefetch:
        return "prefetch";
      default:
        return "unknown";
    }
}

/** Streams that replay actually consumes (the rest are context). */
bool
consumedCat(std::uint16_t cat)
{
    switch (static_cast<FrCat>(cat)) {
      case FrCat::Backend:
      case FrCat::Evac:
      case FrCat::Prefetch:
        return true;
      default:
        return false;
    }
}

} // anonymous namespace

std::string
frStreamName(std::uint16_t stream)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%s#%u",
                  catName(stream % frCatSlots), stream / frCatSlots);
    return buffer;
}

const char *
frKindName(std::uint16_t kind)
{
    switch (static_cast<FrKind>(kind)) {
      case FrKind::NetFetch:
        return "net.fetch";
      case FrKind::NetWriteback:
        return "net.writeback";
      case FrKind::BackendFetch:
        return "backend.fetch";
      case FrKind::BackendFetchBatch:
        return "backend.fetch-batch";
      case FrKind::BackendFetchSeg:
        return "backend.fetch-seg";
      case FrKind::BackendWritebackBatch:
        return "backend.writeback-batch";
      case FrKind::BackendWritebackSeg:
        return "backend.writeback-seg";
      case FrKind::BackendClusterStats:
        return "backend.cluster-stats";
      case FrKind::ClusterShardFail:
        return "cluster.shard-fail";
      case FrKind::ClusterReReplicate:
        return "cluster.re-replicate";
      case FrKind::EvacVictim:
        return "evac.victim";
      case FrKind::PrefetchDecision:
        return "prefetch.decision";
      default:
        return "unknown";
    }
}

std::string
frEventToString(const FrEvent &e)
{
    char buffer[192];
    std::snprintf(buffer, sizeof(buffer),
                  "%s seq %" PRIu32 " kind %s cycle %" PRIu64
                  " args [%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  "]",
                  frStreamName(e.stream).c_str(), e.seq,
                  frKindName(e.kind), e.cycle, e.arg[0], e.arg[1],
                  e.arg[2], e.arg[3]);
    return buffer;
}

bool
saveFrLog(const std::string &path, const FrLog &log, std::string &error)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        error = "cannot open '" + path + "' for writing";
        return false;
    }

    unsigned char header[kHeaderBytes] = {};
    std::memcpy(header, kMagic, 8);
    const std::uint32_t version = frSchemaVersion;
    const std::uint64_t count = log.events.size();
    std::memcpy(header + 8, &version, 4);
    std::memcpy(header + 12, &log.flags, 4);
    std::memcpy(header + 16, &log.wallTime, 8);
    std::memcpy(header + 24, &count, 8);
    std::memcpy(header + 32, &log.ringCapacity, 8);
    os.write(reinterpret_cast<const char *>(header), kHeaderBytes);

    std::uint64_t checksum = fnv1a(nullptr, 0);
    if (!log.events.empty()) {
        os.write(reinterpret_cast<const char *>(log.events.data()),
                 static_cast<std::streamsize>(count * sizeof(FrEvent)));
        checksum = fnv1a(log.events.data(), count * sizeof(FrEvent));
    }

    unsigned char trailer[kTrailerBytes];
    std::memcpy(trailer, &checksum, 8);
    std::memcpy(trailer + 8, kEndMagic, 8);
    os.write(reinterpret_cast<const char *>(trailer), kTrailerBytes);
    if (!os) {
        error = "write to '" + path + "' failed";
        return false;
    }
    return true;
}

bool
loadFrLog(const std::string &path, FrLog &log, std::string &error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::vector<char> bytes((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());

    if (bytes.size() < kHeaderBytes) {
        error = "'" + path + "' is not a flight-recorder log (only " +
                std::to_string(bytes.size()) + " bytes)";
        return false;
    }
    if (std::memcmp(bytes.data(), kMagic, 8) != 0) {
        error = "'" + path + "' is not a flight-recorder log (bad magic)";
        return false;
    }
    std::uint64_t count = 0;
    std::memcpy(&log.version, bytes.data() + 8, 4);
    std::memcpy(&log.flags, bytes.data() + 12, 4);
    std::memcpy(&log.wallTime, bytes.data() + 16, 8);
    std::memcpy(&count, bytes.data() + 24, 8);
    std::memcpy(&log.ringCapacity, bytes.data() + 32, 8);

    if (log.version != frSchemaVersion) {
        error = "'" + path + "': schema version mismatch: log is v" +
                std::to_string(log.version) + ", this tool reads v" +
                std::to_string(frSchemaVersion);
        return false;
    }

    const std::size_t avail = bytes.size() - kHeaderBytes;
    const std::size_t wholeEvents =
        std::min<std::size_t>(count, avail / sizeof(FrEvent));
    log.events.resize(wholeEvents);
    if (wholeEvents) {
        std::memcpy(log.events.data(), bytes.data() + kHeaderBytes,
                    wholeEvents * sizeof(FrEvent));
    }

    const std::size_t expected =
        kHeaderBytes + count * sizeof(FrEvent) + kTrailerBytes;
    if (bytes.size() < expected) {
        error = "'" + path + "' is truncated: header promises " +
                std::to_string(count) + " events (" +
                std::to_string(expected) + " bytes), file has " +
                std::to_string(bytes.size()) + "; last valid event: ";
        error += log.events.empty()
                     ? "none"
                     : frStreamName(log.events.back().stream) + " seq " +
                           std::to_string(log.events.back().seq);
        return false;
    }

    const char *trailer =
        bytes.data() + kHeaderBytes + count * sizeof(FrEvent);
    std::uint64_t storedChecksum = 0;
    std::memcpy(&storedChecksum, trailer, 8);
    if (std::memcmp(trailer + 8, kEndMagic, 8) != 0) {
        error = "'" + path + "': bad trailer magic (corrupted log)";
        return false;
    }
    const std::uint64_t checksum =
        fnv1a(log.events.data(), count * sizeof(FrEvent));
    if (checksum != storedChecksum) {
        char rendered[64];
        std::snprintf(rendered, sizeof(rendered),
                      "stored %016" PRIx64 ", computed %016" PRIx64,
                      storedChecksum, checksum);
        error = "'" + path + "': checksum mismatch (" + rendered +
                "): log is corrupted";
        return false;
    }

    // Per-stream sequence continuity. A full log starts every stream at
    // 0; a ring dump starts wherever the ring's tail happens to begin,
    // but must still be gap-free within each stream.
    std::vector<std::uint32_t> next;
    std::vector<bool> seen;
    for (std::size_t i = 0; i < log.events.size(); i++) {
        const FrEvent &e = log.events[i];
        if (e.stream >= next.size()) {
            next.resize(e.stream + 1, 0);
            seen.resize(e.stream + 1, false);
        }
        const bool fresh = !seen[e.stream];
        seen[e.stream] = true;
        if (fresh && (log.flags & kRingFlag))
            next[e.stream] = e.seq;
        else if (fresh && e.seq != 0) {
            error = "'" + path + "': stream " + frStreamName(e.stream) +
                    " starts at seq " + std::to_string(e.seq) +
                    ", expected 0";
            return false;
        }
        if (e.seq != next[e.stream]) {
            error = "'" + path + "': sequence gap on stream " +
                    frStreamName(e.stream) + ": event " +
                    std::to_string(i) + " has seq " +
                    std::to_string(e.seq) + ", expected " +
                    std::to_string(next[e.stream]);
            return false;
        }
        next[e.stream]++;
    }
    return true;
}

FlightRecorder::FlightRecorder(std::size_t ring_capacity)
    : mode_(Mode::Record), ringCap_(ring_capacity)
{}

FlightRecorder::FlightRecorder(FrLog &&loaded)
    : mode_(Mode::Replay), log_(std::move(loaded))
{
    for (std::size_t i = 0; i < log_.events.size(); i++) {
        const std::uint16_t stream = log_.events[i].stream;
        if (stream >= streamEvents_.size()) {
            streamEvents_.resize(stream + 1);
            cursor_.resize(stream + 1, 0);
        }
        streamEvents_[stream].push_back(i);
    }
}

std::unique_ptr<FlightRecorder>
FlightRecorder::loadForReplay(const std::string &path, std::string &error)
{
    FrLog log;
    if (!loadFrLog(path, log, error))
        return nullptr;
    if (log.flags & kRingFlag) {
        error = "'" + path + "' is a ring-buffer tail dump; only full " +
                "logs can be replayed";
        return nullptr;
    }
    return std::unique_ptr<FlightRecorder>(
        new FlightRecorder(std::move(log)));
}

std::uint16_t
FlightRecorder::registerInstance()
{
    return nextInstance_++;
}

void
FlightRecorder::record(std::uint16_t instance, FrCat cat, FrKind kind,
                       std::uint64_t cycle, std::uint64_t (&args)[4],
                       int check_args)
{
    const std::uint16_t stream = static_cast<std::uint16_t>(
        instance * frCatSlots + static_cast<std::uint16_t>(cat));
    if (mode_ == Mode::Replay) {
        verify(stream, kind, cycle, args, check_args);
        return;
    }
    if (stream >= nextSeq_.size())
        nextSeq_.resize(stream + 1, 0);
    FrEvent e;
    e.stream = stream;
    e.kind = static_cast<std::uint16_t>(kind);
    e.seq = nextSeq_[stream]++;
    e.cycle = cycle;
    for (int i = 0; i < 4; i++)
        e.arg[i] = args[i];
    if (ringCap_ && events_.size() >= ringCap_) {
        events_.pop_front();
        ringDropped_++;
    }
    events_.push_back(e);
}

void
FlightRecorder::verify(std::uint16_t stream, FrKind kind,
                       std::uint64_t cycle, std::uint64_t (&args)[4],
                       int check_args)
{
    if (stream >= streamEvents_.size() ||
        cursor_[stream] >= streamEvents_[stream].size()) {
        FrEvent actual;
        actual.stream = stream;
        actual.kind = static_cast<std::uint16_t>(kind);
        actual.seq = stream < cursor_.size()
                         ? static_cast<std::uint32_t>(cursor_[stream])
                         : 0;
        actual.cycle = cycle;
        for (int i = 0; i < 4; i++)
            actual.arg[i] = args[i];
        diverge(stream, actual.seq,
                "log exhausted on stream " + frStreamName(stream) +
                    ": replayed run attempted an unrecorded event\n"
                    "  actual:   " +
                    frEventToString(actual));
    }
    const FrEvent &expected =
        log_.events[streamEvents_[stream][cursor_[stream]]];
    bool match = expected.kind == static_cast<std::uint16_t>(kind) &&
                 expected.cycle == cycle;
    for (int i = 0; match && i < check_args; i++)
        match = expected.arg[i] == args[i];
    if (!match) {
        FrEvent actual;
        actual.stream = stream;
        actual.kind = static_cast<std::uint16_t>(kind);
        actual.seq = expected.seq;
        actual.cycle = cycle;
        for (int i = 0; i < 4; i++)
            actual.arg[i] = args[i];
        diverge(stream, expected.seq,
                "first mismatch on stream " + frStreamName(stream) +
                    " at seq " + std::to_string(expected.seq) +
                    "\n  expected: " + frEventToString(expected) +
                    "\n  actual:   " + frEventToString(actual));
    }
    // Re-inject the recorded outcome (arrival/completion cycles).
    for (int i = 0; i < 4; i++)
        args[i] = expected.arg[i];
    frontier_ = std::max<std::uint64_t>(
        frontier_, streamEvents_[stream][cursor_[stream]] + 1);
    cursor_[stream]++;
    consumed_++;
}

void
FlightRecorder::diverge(std::uint16_t stream, std::uint32_t seq,
                        const std::string &detail)
{
    const std::string what = "replay divergence: " + detail;
    if (policy_ == DivergencePolicy::Abort) {
        std::fprintf(stderr, "%s\n", what.c_str());
        std::_Exit(3);
    }
    throw ReplayDivergence(stream, seq, what);
}

void
FlightRecorder::finishReplay()
{
    if (mode_ != Mode::Replay)
        return;
    for (std::size_t stream = 0; stream < streamEvents_.size(); stream++) {
        if (!consumedCat(static_cast<std::uint16_t>(stream % frCatSlots)))
            continue;
        if (cursor_[stream] < streamEvents_[stream].size()) {
            const FrEvent &e =
                log_.events[streamEvents_[stream][cursor_[stream]]];
            diverge(static_cast<std::uint16_t>(stream), e.seq,
                    "log not fully consumed: replayed run ended with " +
                        std::to_string(streamEvents_[stream].size() -
                                       cursor_[stream]) +
                        " unreplayed event(s) on stream " +
                        frStreamName(static_cast<std::uint16_t>(stream)) +
                        "\n  next unconsumed: " + frEventToString(e));
        }
    }
}

std::uint64_t
FlightRecorder::categoryCount(FrCat cat) const
{
    std::uint64_t count = 0;
    const auto wanted = static_cast<std::uint16_t>(cat);
    if (mode_ == Mode::Replay) {
        for (const FrEvent &e : log_.events)
            count += (e.stream % frCatSlots) == wanted;
    } else {
        for (const FrEvent &e : events_)
            count += (e.stream % frCatSlots) == wanted;
    }
    return count;
}

const std::vector<FrEvent> &
FlightRecorder::replayLog() const
{
    TFM_ASSERT(mode_ == Mode::Replay, "only a replay has a loaded log");
    return log_.events;
}

std::vector<FrEvent>
FlightRecorder::snapshot() const
{
    if (mode_ == Mode::Replay)
        return log_.events;
    return {events_.begin(), events_.end()};
}

bool
FlightRecorder::save(const std::string &path, std::string &error) const
{
    FrLog log;
    log.version = frSchemaVersion;
    log.flags = ringDropped_ ? kRingFlag : 0;
    log.wallTime = static_cast<std::uint64_t>(std::time(nullptr));
    log.ringCapacity = ringCap_;
    log.events = snapshot();
    return saveFrLog(path, log, error);
}

void
FlightRecorder::exportTrace(Observability &sink, std::uint32_t stream,
                            std::uint64_t now) const
{
    TraceSink &trace = sink.trace();
    if (!trace.enabled())
        return;
    trace.metadata("flight_recorder_schema", "version", frSchemaVersion);
    static const char *const counterNames[2][6] = {
        {"record.net", "record.backend", "record.cluster", "record.evac",
         "record.prefetch", "record.events"},
        {"replay.net", "replay.backend", "replay.cluster", "replay.evac",
         "replay.prefetch", "replay.events"},
    };
    const int row = replaying() ? 1 : 0;
    const FrCat cats[5] = {FrCat::Net, FrCat::Backend, FrCat::Cluster,
                           FrCat::Evac, FrCat::Prefetch};
    std::uint64_t total = 0;
    for (int i = 0; i < 5; i++) {
        const std::uint64_t count = categoryCount(cats[i]);
        total += count;
        trace.counter(stream, counterNames[row][i], now, count);
    }
    trace.counter(stream, counterNames[row][5], now, total);
    if (replaying())
        trace.counter(stream, "replay.consumed", now, consumed_);
    if (ringCap_)
        trace.counter(stream, "record.ring_dropped", now, ringDropped_);
}

void
FlightRecorder::exportStats(StatSet &set) const
{
    if (replaying()) {
        set.add("replay.events", log_.events.size());
        set.add("replay.consumed", consumed_);
    } else {
        set.add("record.events", events_.size());
        if (ringCap_)
            set.add("record.ring_dropped", ringDropped_);
    }
}

namespace obs
{

namespace
{
FlightRecorder *gRecorder = nullptr;
} // anonymous namespace

FlightRecorder *
defaultRecorder()
{
    return gRecorder;
}

void
setDefaultRecorder(FlightRecorder *recorder)
{
    gRecorder = recorder;
}

} // namespace obs

} // namespace tfm
