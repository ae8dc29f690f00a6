/**
 * @file
 * Measurement harness shared by the four benchmark workloads: host
 * timers, the in-memory span recorder of the traced run, sample
 * statistics, and the per-repetition result every workload returns.
 *
 * Two clocks are kept apart. Simulated values (cycles, counts) are the
 * model's output and must repeat exactly for one seed; host values
 * (seconds) are how fast the simulator itself runs.
 */

#ifndef TRACKFM_PERFBENCH_HARNESS_HH
#define TRACKFM_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Host nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
secondsBetween(std::int64_t begin_ns, std::int64_t end_ns)
{
    return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/**
 * Spans of the traced run: name, start, end and parent, kept in memory
 * and written out when the benchmark ends. Names are string literals or
 * strings interned by the recorder, so a span stores a pointer only.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        const char *name = nullptr;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::int32_t parent = -1; ///< index of the parent, -1 for roots
    };

    /** Open a span as a child of the innermost open span. */
    std::size_t open(const char *name);
    void close(std::size_t index);
    /** Record an already-finished span under the innermost open span. */
    void add(const char *name, std::int64_t start_ns, std::int64_t end_ns);
    /** A stable copy of @p name for spans with composed names. */
    const char *intern(const std::string &name);


    /** Self time (span minus its children) summed per span name. */
    std::map<std::string, double> selfSeconds() const;
    /** Span count per name. */
    std::map<std::string, std::uint64_t> counts() const;

    /**
     * Chrome trace_event JSON (Perfetto-loadable), shaped like the obs
     * tracer's: one complete ('X') event per span with integer host
     * nanoseconds as its timestamp unit (the obs traces use simulated
     * cycles), at most @p max_events of them in start order; the rest
     * are counted in otherData.dropped.
     */
    void writeChromeTrace(std::ostream &os, const std::string &label,
                          std::size_t max_events) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
    std::map<std::string, std::string> interned_;
};

/** RAII span; a null recorder makes it free (the untraced runs). */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *recorder, const char *name)
        : rec(recorder), index(rec ? rec->open(name) : 0)
    {}
    ~SpanScope()
    {
        if (rec)
            rec->close(index);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *rec;
    std::size_t index;
};

/** Ordered (name, value) list; metric names keep the order they came in. */
using Values = std::vector<std::pair<std::string, double>>;

/** Set @p name in @p values, appending it when absent. */
void setValue(Values &values, const std::string &name, double value);

/**
 * What one repetition of a workload (set-up plus measured phase)
 * produces. Every repetition of one seed does identical simulated work,
 * so `sim` and `counts` must match across repetitions exactly.
 */
struct RepResult
{
    double setupSeconds = 0.0; ///< host: set-up of this repetition
    double wallSeconds = 0.0;  ///< host: the measured phase
    Values host;   ///< other host-time values (compile_s, rates)
    Values sim;    ///< simulated end-to-end values (sim_cycles, ...)
    Values counts; ///< deterministic per-layer counts and ratios
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few failure messages
};

/** A workload: one repetition at a time, spans when @p spans is set. */
using RepFn = RepResult (*)(std::uint64_t seed, SpanRecorder *spans);

/** Median of @p values (which it sorts). */
double median(std::vector<double> values);
/** Nearest-rank percentile @p p in [0, 100] of @p values (sorted copy). */
double percentile(std::vector<double> values, double p);
/**
 * The highest of p90/p99/p99.9 that leaves at least ten samples above
 * it, or -1 when @p n is too small for any of them.
 */
double highestSupportedPercentile(std::size_t n);

/** Peak resident set size of this process in MB. */
double peakRssMb();

} // namespace perfbench

#endif // TRACKFM_PERFBENCH_HARNESS_HH
