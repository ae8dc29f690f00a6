/**
 * @file
 * perfbench driver: runs one workload for a given host-time budget and
 * prints its metrics. Every repetition does the workload's set-up and
 * its measured phase from scratch on the same seed, so host times are
 * medians over repetitions while simulated values must repeat exactly.
 *
 *   perfbench_driver --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--trace-out <dir>]
 *
 * With --trace 1 half the budget runs untraced and half records spans;
 * the span file is written to <dir>/<workload>-seed<n>.json. The last
 * stdout line is one JSON object: correct/attempted/failed plus the
 * end-to-end ("e2e") and per-layer ("layer") values.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <fstream>
#include <malloc.h>
#include <string>

#include "harness.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Workload
{
    const char *name;
    RepFn fn;
};

const Workload kWorkloads[] = {
    {"ir-corpus", irCorpusRep},
    {"kv-zipf", kvZipfRep},
    {"stream-fastswap", streamFastswapRep},
    {"serve-mix", serveMixRep},
};

/// Spans written to the trace file; the rest are counted as dropped.
constexpr std::size_t kMaxTraceEvents = 100000;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut = ".";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload <ir-corpus|kv-zipf|stream-fastswap|"
                 "serve-mix> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <dir>]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            opts.workload = value;
        else if (flag == "--seed")
            opts.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            opts.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            opts.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--trace-out")
            opts.traceOut = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (opts.workload.empty())
        usage("--workload is required");
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");
    return opts;
}

/** The repetitions of one phase (untraced or traced) of a run. */
struct Phase
{
    std::vector<RepResult> reps;
    std::vector<std::map<std::string, double>> selfSeconds;
    std::map<std::string, std::uint64_t> spanCounts; ///< first rep
    /// Process peak RSS after the first repetition. Later repetitions
    /// can only add heap fragmentation, which varies from run to run.
    double firstRepPeakRssMb = 0.0;
};

Phase
runPhase(RepFn fn, std::uint64_t seed, double budget_s, std::size_t min_reps,
         bool traced, const std::string &trace_file,
         const std::string &label)
{
    Phase phase;
    const std::int64_t start = nowNs();
    while (phase.reps.size() < min_reps ||
           secondsBetween(start, nowNs()) < budget_s) {
        SpanRecorder recorder;
        phase.reps.push_back(fn(seed, traced ? &recorder : nullptr));
        if (phase.reps.size() == 1)
            phase.firstRepPeakRssMb = peakRssMb();
        if (!traced)
            continue;
        phase.selfSeconds.push_back(recorder.selfSeconds());
        if (phase.reps.size() == 1) {
            phase.spanCounts = recorder.counts();
            std::ofstream os(trace_file);
            if (!os)
                throw std::runtime_error("cannot write " + trace_file);
            recorder.writeChromeTrace(os, label, kMaxTraceEvents);
        }
    }
    return phase;
}

std::vector<double>
column(const std::vector<RepResult> &reps, double RepResult::*field)
{
    std::vector<double> out;
    for (const RepResult &rep : reps)
        out.push_back(rep.*field);
    return out;
}

double
lookup(const Values &values, const std::string &name)
{
    for (const auto &[key, value] : values) {
        if (key == name)
            return value;
    }
    return 0.0;
}

/** Median, highest percentile with >= 10 samples beyond it, count. */
void
printTiming(const char *name, const std::vector<double> &samples)
{
    const double p = highestSupportedPercentile(samples.size());
    std::printf("  %-28s %-5s %14.6f", name, "host", median(samples));
    if (p > 0.0)
        std::printf("  p%g %.6f", p, percentile(samples, p));
    std::printf("  n=%zu  min %.6f  max %.6f\n", samples.size(),
                percentile(samples, 0), percentile(samples, 100));
}

void
appendJson(std::string &out, const char *key, const Values &values)
{
    out += ",\"";
    out += key;
    out += "\":{";
    for (std::size_t i = 0; i < values.size(); i++) {
        char buffer[64];
        std::snprintf(buffer, sizeof buffer, "%.17g", values[i].second);
        out += (i ? ",\"" : "\"") + values[i].first + "\":" + buffer;
    }
    out += "}";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    // Fixed thresholds keep glibc from raising its mmap threshold as
    // large blocks are freed, so where a block lands, and with it
    // peak_rss_mb, does not depend on the order earlier blocks came and
    // went. Blocks up to glibc's 32 MiB cap come from the heap, which
    // is never trimmed, so repetitions reuse its pages.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, INT_MAX);
    const Workload *workload = nullptr;
    for (const Workload &w : kWorkloads) {
        if (opts.workload == w.name)
            workload = &w;
    }
    if (!workload)
        usage(("unknown workload " + opts.workload).c_str());

    try {
        const std::string label =
            opts.workload + "-seed" + std::to_string(opts.seed);
        const std::string trace_file =
            opts.traceOut + "/" + label + ".json";
        const double untraced_budget =
            opts.trace ? opts.seconds / 2 : opts.seconds;
        const Phase plain = runPhase(workload->fn, opts.seed,
                                     untraced_budget, 3, false, "", label);
        Phase traced;
        if (opts.trace)
            traced = runPhase(workload->fn, opts.seed, opts.seconds / 2, 2,
                              true, trace_file, label);

        // Every repetition of a seed must do identical simulated work.
        const RepResult &first = plain.reps.front();
        bool deterministic = true;
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
        std::vector<std::string> failures;
        const Phase *phases[] = {&plain, &traced};
        for (const Phase *phase : phases) {
            for (const RepResult &rep : phase->reps) {
                attempted += rep.attempted;
                failed += rep.failed;
                failures.insert(failures.end(), rep.failures.begin(),
                                rep.failures.end());
                if (rep.sim != first.sim || rep.counts != first.counts)
                    deterministic = false;
            }
        }

        const std::vector<double> setup =
            column(plain.reps, &RepResult::setupSeconds);
        const std::vector<double> wall =
            column(plain.reps, &RepResult::wallSeconds);
        Values e2e = {{"setup_s", median(setup)},
                      {"wall_s", median(wall)},
                      {"peak_rss_mb", plain.firstRepPeakRssMb}};
        e2e.insert(e2e.end(), first.sim.begin(), first.sim.end());

        Values layer = first.counts;
        for (const auto &entry : first.host) {
            std::vector<double> samples;
            for (const RepResult &rep : plain.reps)
                samples.push_back(lookup(rep.host, entry.first));
            setValue(layer, entry.first, median(samples));
        }
        const double fail_frac = attempted ? static_cast<double>(failed) /
                                                 static_cast<double>(attempted)
                                           : 0.0;
        setValue(layer, "fail_frac", fail_frac);
        if (opts.trace) {
            for (const auto &span : traced.spanCounts) {
                std::vector<double> samples;
                for (const auto &self : traced.selfSeconds) {
                    const auto it = self.find(span.first);
                    samples.push_back(it == self.end() ? 0.0 : it->second);
                }
                setValue(layer, span.first + "_s", median(samples));
            }
            setValue(layer, "obs.trace_overhead",
                     median(column(traced.reps, &RepResult::wallSeconds)) /
                         median(wall));
        }

        std::printf("perfbench %s  seed %llu  untraced reps %zu  traced "
                    "reps %zu\n",
                    opts.workload.c_str(),
                    static_cast<unsigned long long>(opts.seed),
                    plain.reps.size(), traced.reps.size());
        std::printf("end-to-end (median over repetitions):\n");
        printTiming("setup_s", setup);
        printTiming("wall_s", wall);
        std::printf("  %-28s %-5s %14.1f  (first repetition; %.1f at "
                    "exit)\n",
                    "peak_rss_mb", "host", plain.firstRepPeakRssMb,
                    peakRssMb());
        for (const auto &[name, value] : first.sim)
            std::printf("  %-28s %-5s %14.0f\n", name.c_str(), "sim",
                        value);
        std::printf("  %-28s %-5s %14.6f  (%llu of %llu)\n", "fail_frac",
                    "check", fail_frac,
                    static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(attempted));
        std::printf("per-layer:\n");
        for (const auto &[name, value] : layer)
            std::printf("  %-34s %16.6g\n", name.c_str(), value);
        if (opts.trace) {
            std::printf("spans (first traced rep count, median self "
                        "seconds per rep):\n");
            for (const auto &[name, count] : traced.spanCounts)
                std::printf("  %-34s %10llu %14.6f\n", name.c_str(),
                            static_cast<unsigned long long>(count),
                            lookup(layer, name + "_s"));
            std::printf("trace written to %s\n", trace_file.c_str());
        }
        if (!deterministic)
            std::printf("NOT DETERMINISTIC: simulated values or counts "
                        "differ between repetitions of one seed\n");
        for (std::size_t i = 0; i < failures.size() && i < 10; i++)
            std::printf("FAILED: %s\n", failures[i].c_str());

        std::string json = "{\"correct\":";
        json += failed == 0 && deterministic ? "true" : "false";
        json += ",\"attempted\":" + std::to_string(attempted);
        json += ",\"failed\":" + std::to_string(failed);
        appendJson(json, "e2e", e2e);
        appendJson(json, "layer", layer);
        std::printf("%s}\n", json.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
    return 0;
}
