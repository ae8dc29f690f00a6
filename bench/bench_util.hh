/**
 * @file
 * Shared helpers for the figure/table regeneration harnesses.
 *
 * Every bench binary regenerates one table or figure from the paper's
 * evaluation: it prints the experiment banner (paper reference, scale
 * factors, cost constants), runs the sweep, and emits one row per data
 * point in a fixed-width table that can be compared against the paper
 * (and trivially re-plotted).
 */

#ifndef TRACKFM_BENCH_BENCH_UTIL_HH
#define TRACKFM_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "obs/flight_recorder.hh"
#include "obs/obs.hh"
#include "sim/cost_params.hh"
#include "sim/logging.hh"

namespace tfm::bench
{

/**
 * Process-wide tracing session behind the uniform `--trace=<file>`
 * flag.
 *
 * Bench binaries have argument-less main() functions, so the flag is
 * recovered from /proc/self/cmdline (with a TFM_TRACE=<file>
 * environment fallback for non-procfs platforms). When present, an
 * Observability sink is installed as the process-wide default before
 * main() runs; every runtime the bench constructs then attaches to it
 * through obs::defaultSink(), and the Chrome trace_event JSON file is
 * written when the process exits. TFM_TRACE_EPOCH overrides the
 * time-series epoch (simulated cycles).
 */
class TraceSession
{
  public:
    TraceSession()
    {
        path = traceArg();
        if (path.empty()) {
            if (const char *env = std::getenv("TFM_TRACE"))
                path = env;
        }
        if (path.empty())
            return;
        ObsConfig config;
        config.trace = true;
        config.epochCycles = 100000;
        if (const char *epoch = std::getenv("TFM_TRACE_EPOCH"))
            config.epochCycles = std::strtoull(epoch, nullptr, 10);
        sink = new Observability(config);
        obs::setDefaultSink(sink);
    }

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    ~TraceSession()
    {
        if (!sink)
            return;
        obs::setDefaultSink(nullptr);
        std::ofstream os(path);
        if (os) {
            sink->writeTrace(os);
            std::fprintf(stderr, "trace written to %s (%zu events)\n",
                         path.c_str(), sink->trace().size());
        } else {
            TFM_WARN("cannot open trace file %s", path.c_str());
        }
        delete sink;
    }

  private:
    static std::string traceArg();

    std::string path;
    Observability *sink = nullptr;
};

/**
 * The value of `--<name>=<value>` on this process's command line, or ""
 * when absent. Bench binaries have argument-less main() functions, so
 * flags are recovered from /proc/self/cmdline.
 */
inline std::string
cmdlineArg(const char *name)
{
    std::ifstream cmdline("/proc/self/cmdline", std::ios::binary);
    const std::string all((std::istreambuf_iterator<char>(cmdline)),
                          std::istreambuf_iterator<char>());
    const std::string prefix = std::string("--") + name + "=";
    std::size_t start = 0;
    while (start < all.size()) {
        std::size_t end = all.find('\0', start);
        if (end == std::string::npos)
            end = all.size();
        if (all.compare(start, prefix.size(), prefix) == 0)
            return all.substr(start + prefix.size(),
                              end - start - prefix.size());
        start = end + 1;
    }
    return "";
}

/**
 * True when `--<name>` appears on this process's command line, bare or
 * with a value. Boolean flags (--stats, --concurrent) come through
 * here; cmdlineArg() only sees the `--<name>=<value>` spelling.
 */
inline bool
flagPresent(const char *name)
{
    std::ifstream cmdline("/proc/self/cmdline", std::ios::binary);
    const std::string all((std::istreambuf_iterator<char>(cmdline)),
                          std::istreambuf_iterator<char>());
    const std::string bare = std::string("--") + name;
    std::size_t start = 0;
    while (start < all.size()) {
        std::size_t end = all.find('\0', start);
        if (end == std::string::npos)
            end = all.size();
        const std::size_t len = end - start;
        if (len == bare.size() &&
            all.compare(start, len, bare) == 0)
            return true;
        if (len > bare.size() &&
            all.compare(start, bare.size(), bare) == 0 &&
            all[start + bare.size()] == '=')
            return true;
        start = end + 1;
    }
    return false;
}

inline std::string
TraceSession::traceArg()
{
    return cmdlineArg("trace");
}

/**
 * First-class run seed behind the uniform `--seed=<n>` flag (TFM_SEED
 * for non-procfs platforms). Every bench that seeds a workload or a
 * generator passes its current default through this, so one knob
 * reseeds the whole binary instead of each bench growing its own
 * ad-hoc flag. With neither flag nor env set, @p fallback is returned
 * and output is unchanged — figure benches keep their published
 * numbers.
 */
inline std::uint64_t
runSeed(std::uint64_t fallback)
{
    std::string value = cmdlineArg("seed");
    if (value.empty()) {
        if (const char *env = std::getenv("TFM_SEED"))
            value = env;
    }
    if (value.empty())
        return fallback;
    return std::strtoull(value.c_str(), nullptr, 10);
}

/** Was the run seed explicitly pinned (--seed / TFM_SEED)? */
inline bool
seedPinned()
{
    return !cmdlineArg("seed").empty() ||
           std::getenv("TFM_SEED") != nullptr;
}

/**
 * Wall-clock measurement policy for dispatch-rate (host time) numbers:
 * `warmup` throwaway runs, then the minimum over `repeats` timed runs
 * — the standard way to get a stable rate out of a noisy shared host.
 * Overridable with --repeat=N / --warmup=N (TFM_REPEAT / TFM_WARMUP
 * for non-procfs platforms).
 */
struct RepeatConfig
{
    int repeats = 5;
    int warmup = 1;
};

inline RepeatConfig
repeatConfig()
{
    RepeatConfig config;
    auto read = [](const char *flag, const char *env, int fallback) {
        std::string value = cmdlineArg(flag);
        if (value.empty()) {
            if (const char *e = std::getenv(env))
                value = e;
        }
        if (value.empty())
            return fallback;
        const long parsed = std::strtol(value.c_str(), nullptr, 10);
        return parsed > 0 ? static_cast<int>(parsed) : fallback;
    };
    config.repeats = read("repeat", "TFM_REPEAT", config.repeats);
    config.warmup = read("warmup", "TFM_WARMUP", config.warmup);
    return config;
}

/// One session per bench process, live from static init to exit.
inline TraceSession traceSession;

/**
 * Process-wide record/replay session behind the uniform
 * `--record=<file>` / `--replay=<file>` flags (TFM_RECORD / TFM_REPLAY
 * for non-procfs platforms).
 *
 * Mirrors TraceSession: when a flag is present, a FlightRecorder is
 * installed as the process-wide default before main() runs, so every
 * runtime the bench constructs picks it up through
 * obs::defaultRecorder() — no per-bench changes. The log is saved (or
 * the replay verified) when the process exits. Composes with --trace:
 * the recorder's counters are exported into the trace sink before the
 * trace file is written (this object is declared after traceSession,
 * so it is destroyed first).
 */
class RecorderSession
{
  public:
    RecorderSession()
    {
        savePath = cmdlineArg("record");
        if (savePath.empty()) {
            if (const char *env = std::getenv("TFM_RECORD"))
                savePath = env;
        }
        std::string replayPath = cmdlineArg("replay");
        if (replayPath.empty()) {
            if (const char *env = std::getenv("TFM_REPLAY"))
                replayPath = env;
        }
        if (!replayPath.empty()) {
            std::string error;
            auto loaded =
                FlightRecorder::loadForReplay(replayPath, error);
            if (!loaded) {
                std::fprintf(stderr, "bench: --replay=%s: %s\n",
                             replayPath.c_str(), error.c_str());
                std::exit(1);
            }
            recorder = loaded.release();
        } else if (!savePath.empty()) {
            recorder = new FlightRecorder();
        } else {
            return;
        }
        // Divergence in a bench cannot usefully unwind through a
        // static destructor or a measurement loop: print the report
        // and die instead.
        recorder->setDivergencePolicy(
            FlightRecorder::DivergencePolicy::Abort);
        obs::setDefaultRecorder(recorder);
    }

    RecorderSession(const RecorderSession &) = delete;
    RecorderSession &operator=(const RecorderSession &) = delete;

    ~RecorderSession()
    {
        if (!recorder)
            return;
        obs::setDefaultRecorder(nullptr);
        if (Observability *sink = obs::defaultSink())
            recorder->exportTrace(*sink, sink->registerStream("recorder"),
                                  0);
        if (recorder->replaying()) {
            recorder->finishReplay(); // aborts with a report on failure
            std::fprintf(stderr,
                         "replay verified (%llu events consumed)\n",
                         static_cast<unsigned long long>(
                             recorder->consumed()));
        } else {
            std::string error;
            if (recorder->save(savePath, error))
                std::fprintf(stderr,
                             "recording written to %s (%zu events)\n",
                             savePath.c_str(), recorder->size());
            else
                TFM_WARN("cannot save recording: %s", error.c_str());
        }
        delete recorder;
    }

  private:
    std::string savePath;
    FlightRecorder *recorder = nullptr;
};

/// Declared after traceSession so record/replay results reach the
/// trace sink before the trace file is written.
inline RecorderSession recorderSession;

/**
 * Machine-readable result emitter: accumulates key/value pairs and
 * prints one `BENCH_JSON {...}` line that trajectory tooling can grep
 * out of the human-readable report and append to a BENCH_*.json file.
 */
class JsonLine
{
  public:
    explicit JsonLine(const char *benchName)
    {
        buffer = "{\"bench\":\"";
        buffer += benchName;
        buffer += "\"";
    }

    JsonLine &
    field(const char *key, std::uint64_t value)
    {
        char tmp[32];
        std::snprintf(tmp, sizeof(tmp), "%llu",
                      static_cast<unsigned long long>(value));
        return raw(key, tmp);
    }

    JsonLine &
    field(const char *key, double value)
    {
        char tmp[32];
        std::snprintf(tmp, sizeof(tmp), "%.6g", value);
        return raw(key, tmp);
    }

    JsonLine &
    field(const char *key, const char *value)
    {
        std::string quoted = "\"";
        quoted += value;
        quoted += "\"";
        return raw(key, quoted.c_str());
    }

    /** Print the completed line to stdout. */
    void
    emit() const
    {
        std::printf("BENCH_JSON %s}\n", buffer.c_str());
    }

  private:
    JsonLine &
    raw(const char *key, const char *rendered)
    {
        buffer += ",\"";
        buffer += key;
        buffer += "\":";
        buffer += rendered;
        return *this;
    }

    std::string buffer;
};

/** Print the experiment banner. */
inline void
banner(const char *artifact, const char *claim, const char *scale_note)
{
    std::printf("==============================================================\n");
    std::printf("Reproducing: %s\n", artifact);
    std::printf("Claim:       %s\n", claim);
    std::printf("Scale:       %s\n", scale_note);
    std::printf("==============================================================\n");
}

/** Print a section header inside a bench. */
inline void
section(const char *title)
{
    std::printf("\n--- %s ---\n", title);
}

/** Simulated seconds for a cycle count at the model's frequency. */
inline double
seconds(std::uint64_t cycles, const CostParams &costs)
{
    return static_cast<double>(cycles) / (costs.cpuGhz * 1e9);
}

/** Fraction formatter ("25%"). */
inline std::string
pct(double fraction)
{
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "%.0f%%", fraction * 100.0);
    return buffer;
}

/** The standard local-memory sweep used by most figures. */
inline const double localMemSweep[] = {0.10, 0.25, 0.40, 0.55,
                                       0.70, 0.85, 1.00};
inline constexpr int localMemSweepPoints = 7;

/** Choose a frame-count-safe local memory size for a fraction. */
inline std::uint64_t
localBytesFor(double fraction, std::uint64_t working_set,
              std::uint32_t object_size)
{
    auto bytes = static_cast<std::uint64_t>(fraction *
                                            static_cast<double>(
                                                working_set));
    const std::uint64_t floor_bytes = 8ull * object_size;
    return bytes < floor_bytes ? floor_bytes : bytes;
}

} // namespace tfm::bench

#endif // TRACKFM_BENCH_BENCH_UTIL_HH
