/**
 * @file
 * tfmc — the TrackFM compiler driver.
 *
 * The command-line face of the toolchain in Fig. 1: feed it an
 * unmodified program (textual IR standing in for LLVM bitcode) and it
 * compiles the program for far memory and, on request, runs it on the
 * simulated cluster and reports what the runtime did.
 *
 *     tfmc program.tir                      # compile, print IR
 *     tfmc --run program.tir                # compile and execute
 *     tfmc --run --stats program.tir        # ... with runtime stats
 *     tfmc --chunk=none --object-size=256 --local-mem=262144 ...
 *     tfmc --autotune program.tir           # pick the object size
 *     tfmc --no-transform --run program.tir # baseline (host heap)
 */

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "cluster/sharded_cluster.hh"
#include "core/autotuner.hh"
#include "core/system.hh"
#include "interp/interpreter.hh"
#include "ir/printer.hh"
#include "obs/flight_recorder.hh"
#include "obs/obs.hh"

namespace
{

struct Options
{
    std::string inputPath;
    bool run = false;
    bool stats = false;
    bool emitIr = false;
    bool transform = true;
    bool autotune = false;
    bool prefetch = true;
    bool guardOpt = true;
    bool guardReport = false;
    bool checkSafety = false;
    std::string hybrid;       ///< "", "auto", or "paged" (--hybrid)
    bool accessReport = false; ///< --print-access-report
    std::string profileIn;    ///< --profile=<file> (PGO tie-breaks)
    std::string profileOut;   ///< --emit-profile=<file>
    std::string engine = "bytecode"; ///< "bytecode" or "ref"
    std::string sanitize;   ///< "farmem", or empty = off
    std::string trace;      ///< trace output path; empty = off
    std::string printAfter; ///< pass name, or "all"; empty = off
    std::string chunk = "costmodel";
    std::uint32_t objectSize = 4096;
    std::uint64_t localMem = 16 << 20;
    std::uint64_t farHeap = 256 << 20;
    std::string record;     ///< full event-log output path; empty = off
    std::string replay;     ///< event-log to replay against; empty = off
    bool flightRecorder = false;
    std::uint64_t flightRecorderCap = 4096; ///< ring size in events
    std::uint32_t shards = 1;
    std::uint32_t replicate = 1;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> killShards;
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: tfmc [options] <program.tir>\n"
        "  --run                 execute main() after compiling\n"
        "  --stats               print runtime statistics after --run\n"
        "  --emit-ir             print the transformed IR\n"
        "  --no-transform        parse only (baseline, host heap)\n"
        "  --no-prefetch         disable the stride prefetcher\n"
        "  --no-guard-opt        disable the guard optimization suite\n"
        "  --print-after=<pass>  dump IR after the named pass (or 'all')\n"
        "  --print-guard-report  per-allocation-site guard table\n"
        "  --hybrid[=auto|paged] hybrid data plane: run the static\n"
        "                        access-pattern analysis and route Dense\n"
        "                        allocation sites to the paged plane\n"
        "                        (auto, default) or force every site\n"
        "                        paged (paged; ablation baseline)\n"
        "  --print-access-report per-site access-pattern verdicts with\n"
        "                        stride/chase evidence, plus arbiter\n"
        "                        decisions under --hybrid\n"
        "  --profile=<file>      allocation-site profile for the\n"
        "                        arbiter's Mixed/Unknown PGO tie-break\n"
        "  --emit-profile=<file> write (merging into an existing file)\n"
        "                        the observed allocation-site profile\n"
        "                        after --run\n"
        "  --check-safety        run the static guard-safety checker on\n"
        "                        the IR after every pipeline pass; print\n"
        "                        diagnostics and exit non-zero on any\n"
        "  --engine=<e>          execution engine for --run: bytecode\n"
        "                        (pre-decoded register VM, default) or\n"
        "                        ref (tree-walking reference engine;\n"
        "                        --sanitize=farmem always uses ref)\n"
        "  --sanitize=farmem     dynamic far-memory checking under --run:\n"
        "                        trap stale translations, object-frame\n"
        "                        escapes, and out-of-bounds far accesses\n"
        "  --trace=<file>        write a Chrome trace_event JSON file\n"
        "                        (runtime spans/counters plus per-stage\n"
        "                        safety.* counters under --check-safety)\n"
        "  --record=<file>       log every nondeterminism source (network\n"
        "                        scheduling, backend completions, shard\n"
        "                        failures, eviction and prefetch decisions)\n"
        "                        to a binary event log for later --replay\n"
        "  --replay=<file>       re-run against a recorded log: backend\n"
        "                        timing is re-injected and every decision\n"
        "                        is verified; the first divergence is\n"
        "                        reported (stream, seq, expected/actual)\n"
        "                        and exits with status 3\n"
        "  --flight-recorder[=N] keep only the last N events (default\n"
        "                        4096) in a ring; on a trap the ring is\n"
        "                        dumped to <input>.flight.tfr\n"
        "  --shards=<n>          stripe the far heap over n remote shards\n"
        "                        (1 to 64, default 1)\n"
        "  --replicate=<k>       keep k copies of every stripe (1 to 8,\n"
        "                        at most --shards)\n"
        "  --kill-shard=<s>@<c>  schedule shard s (< --shards) to die at\n"
        "                        cycle c (repeatable)\n"
        "  --autotune            search object sizes, report the best\n"
        "  --chunk=<p>           none | all | costmodel (default)\n"
        "  --object-size=<n>     AIFM object size in bytes (default 4096)\n"
        "  --local-mem=<n>       local tier size in bytes (default 16M)\n"
        "  --far-heap=<n>        far heap size in bytes (default 256M)\n");
}

/** Parse all of @p text as a decimal number into @p value. */
bool
parseNumber(const char *text, std::uint64_t &value)
{
    if (*text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    value = std::strtoull(text, &end, 10);
    return errno == 0 && *end == '\0';
}

/** Parse the count of flag @p arg ("--name=<n>"), or say why not. */
template <typename T>
bool
parseCount(const std::string &arg, T &count)
{
    const std::size_t eq = arg.find('=');
    std::uint64_t n = 0;
    if (!parseNumber(arg.c_str() + eq + 1, n) ||
        n > std::numeric_limits<T>::max()) {
        std::fprintf(stderr, "tfmc: %s wants a number, got '%s'\n",
                     arg.substr(0, eq).c_str(), arg.c_str() + eq + 1);
        return false;
    }
    count = static_cast<T>(n);
    return true;
}

/**
 * Refuse an object size, local tier or far heap the runtime cannot
 * build, with a diagnostic instead of the runtime's assertion.
 */
bool
memoryFlagsValid(const Options &options)
{
    const std::uint32_t size = options.objectSize;
    if (size < 16 || (size & (size - 1)) != 0) {
        std::fprintf(stderr,
                     "tfmc: --object-size needs a power of two >= 16, "
                     "got %u\n",
                     size);
        return false;
    }
    if (options.localMem / size < 2) {
        std::fprintf(stderr,
                     "tfmc: --local-mem=%llu holds fewer than two "
                     "%u-byte objects\n",
                     static_cast<unsigned long long>(options.localMem),
                     size);
        return false;
    }
    if (options.farHeap < size) {
        std::fprintf(stderr,
                     "tfmc: --far-heap=%llu holds less than one %u-byte "
                     "object\n",
                     static_cast<unsigned long long>(options.farHeap), size);
        return false;
    }
    return true;
}

/**
 * Refuse a cluster shape the remote tier cannot build, with a
 * diagnostic instead of the tier's assertion.
 */
bool
clusterFlagsValid(const Options &options)
{
    constexpr std::uint32_t max_shards = tfm::ShardedCluster::maxShards;
    constexpr std::uint32_t max_copies = tfm::ShardedCluster::maxReplicas;
    if (options.shards < 1 || options.shards > max_shards) {
        std::fprintf(stderr, "tfmc: --shards needs 1 <= n <= %u\n",
                     max_shards);
        return false;
    }
    if (options.replicate < 1 || options.replicate > max_copies ||
        options.replicate > options.shards) {
        std::fprintf(stderr,
                     "tfmc: --replicate needs 1 <= k <= %u and k <= "
                     "--shards (%u)\n",
                     max_copies, options.shards);
        return false;
    }
    for (const auto &[shard, cycle] : options.killShards) {
        if (shard >= options.shards) {
            std::fprintf(stderr,
                         "tfmc: --kill-shard=%u@%llu names a shard "
                         "outside --shards (%u)\n",
                         shard, static_cast<unsigned long long>(cycle),
                         options.shards);
            return false;
        }
    }
    return true;
}

bool
parseArgs(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--run") {
            options.run = true;
        } else if (arg == "--stats") {
            options.stats = true;
        } else if (arg == "--emit-ir") {
            options.emitIr = true;
        } else if (arg == "--no-transform") {
            options.transform = false;
        } else if (arg == "--no-prefetch") {
            options.prefetch = false;
        } else if (arg == "--no-guard-opt") {
            options.guardOpt = false;
        } else if (arg == "--print-guard-report") {
            options.guardReport = true;
        } else if (arg == "--check-safety") {
            options.checkSafety = true;
        } else if (arg == "--hybrid") {
            options.hybrid = "auto";
        } else if (arg.rfind("--hybrid=", 0) == 0) {
            options.hybrid = arg.substr(9);
        } else if (arg == "--print-access-report") {
            options.accessReport = true;
        } else if (arg.rfind("--profile=", 0) == 0) {
            options.profileIn = arg.substr(10);
        } else if (arg.rfind("--emit-profile=", 0) == 0) {
            options.profileOut = arg.substr(15);
        } else if (arg.rfind("--engine=", 0) == 0) {
            options.engine = arg.substr(9);
        } else if (arg.rfind("--sanitize=", 0) == 0) {
            options.sanitize = arg.substr(11);
        } else if (arg.rfind("--trace=", 0) == 0) {
            options.trace = arg.substr(8);
        } else if (arg.rfind("--print-after=", 0) == 0) {
            options.printAfter = arg.substr(14);
        } else if (arg == "--autotune") {
            options.autotune = true;
        } else if (arg.rfind("--chunk=", 0) == 0) {
            options.chunk = arg.substr(8);
        } else if (arg.rfind("--object-size=", 0) == 0) {
            if (!parseCount(arg, options.objectSize))
                return false;
        } else if (arg.rfind("--local-mem=", 0) == 0) {
            if (!parseCount(arg, options.localMem))
                return false;
        } else if (arg.rfind("--far-heap=", 0) == 0) {
            if (!parseCount(arg, options.farHeap))
                return false;
        } else if (arg.rfind("--record=", 0) == 0) {
            options.record = arg.substr(9);
        } else if (arg.rfind("--replay=", 0) == 0) {
            options.replay = arg.substr(9);
        } else if (arg == "--flight-recorder") {
            options.flightRecorder = true;
        } else if (arg.rfind("--flight-recorder=", 0) == 0) {
            options.flightRecorder = true;
            if (!parseCount(arg, options.flightRecorderCap))
                return false;
            if (options.flightRecorderCap == 0) {
                std::fprintf(stderr,
                             "tfmc: --flight-recorder needs N > 0\n");
                return false;
            }
        } else if (arg.rfind("--shards=", 0) == 0) {
            if (!parseCount(arg, options.shards))
                return false;
        } else if (arg.rfind("--replicate=", 0) == 0) {
            if (!parseCount(arg, options.replicate))
                return false;
        } else if (arg.rfind("--kill-shard=", 0) == 0) {
            const std::string spec = arg.substr(13);
            const std::size_t at = spec.find('@');
            std::uint64_t shard = 0;
            std::uint64_t cycle = 0;
            if (at == std::string::npos ||
                !parseNumber(spec.substr(0, at).c_str(), shard) ||
                shard > UINT32_MAX ||
                !parseNumber(spec.c_str() + at + 1, cycle)) {
                std::fprintf(stderr,
                             "tfmc: --kill-shard wants <shard>@<cycle>, "
                             "got '%s'\n",
                             spec.c_str());
                return false;
            }
            options.killShards.emplace_back(
                static_cast<std::uint32_t>(shard), cycle);
        } else if (arg == "--help" || arg == "-h") {
            return false;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "tfmc: unknown option '%s'\n",
                         arg.c_str());
            return false;
        } else if (options.inputPath.empty()) {
            options.inputPath = arg;
        } else {
            std::fprintf(stderr, "tfmc: multiple input files\n");
            return false;
        }
    }
    return clusterFlagsValid(options) && memoryFlagsValid(options) &&
           !options.inputPath.empty();
}

/**
 * The per-allocation-site guard table: what the compiler did to each
 * site's guards, joined (under --run) with the interpreter's dynamic
 * allocation-site profile.
 */
void
printGuardReport(const tfm::System &system,
                 const tfm::CompiledProgram &program,
                 const tfm::AllocSiteProfile *profile)
{
    const tfm::GuardSiteReport &report = system.guardSiteReport();
    const tfm::StaticGuardCounts counts =
        tfm::countStaticGuards(program.ir());
    std::printf("\nguard report:\n");
    std::printf("  static instructions: %llu guards, %llu revalidations, "
                "%llu chunk accesses\n",
                static_cast<unsigned long long>(counts.guards),
                static_cast<unsigned long long>(counts.revals),
                static_cast<unsigned long long>(counts.chunkAccesses));
    std::printf("  %-16s %5s %9s %5s %10s %8s", "function", "site",
                "inserted", "elim", "coalesced", "hoisted");
    if (profile)
        std::printf(" %8s %10s", "allocs", "accesses");
    std::printf("\n");

    auto printSite = [&](const tfm::GuardSiteReport::Site &site,
                         const char *label) {
        std::printf("  %-16s %5s %9llu %5llu %10llu %8llu", label,
                    site.function.empty()
                        ? "-"
                        : std::to_string(site.ordinal).c_str(),
                    static_cast<unsigned long long>(site.guardsInserted),
                    static_cast<unsigned long long>(
                        site.guardsEliminated),
                    static_cast<unsigned long long>(
                        site.guardsCoalesced),
                    static_cast<unsigned long long>(site.guardsHoisted));
        if (profile) {
            const tfm::AllocSiteProfile::Site *dynamic =
                site.function.empty()
                    ? nullptr
                    : profile->findByOrdinal(site.ordinal);
            std::printf(" %8llu %10llu",
                        static_cast<unsigned long long>(
                            dynamic ? dynamic->allocations : 0),
                        static_cast<unsigned long long>(
                            dynamic ? dynamic->guardedAccesses : 0));
        }
        std::printf("\n");
    };

    for (const tfm::GuardSiteReport::Site &site : report.sites)
        printSite(site, site.function.c_str());
    const tfm::GuardSiteReport::Site &rest = report.unattributed;
    if (rest.guardsInserted || rest.guardsEliminated ||
        rest.guardsCoalesced || rest.guardsHoisted) {
        tfm::GuardSiteReport::Site anonymous = rest;
        anonymous.function.clear();
        printSite(anonymous, "<unattributed>");
    }
    std::printf("  total: %llu inserted, %llu eliminated, "
                "%llu coalesced, %llu hoisted\n",
                static_cast<unsigned long long>(report.totalInserted()),
                static_cast<unsigned long long>(
                    report.totalEliminated()),
                static_cast<unsigned long long>(report.totalCoalesced()),
                static_cast<unsigned long long>(report.totalHoisted()));
}

/**
 * Print the guard-safety diagnostics in machine-readable form (one per
 * line, pass-stamped) plus a per-pass summary.
 * @return total diagnostic count.
 */
std::size_t
printSafetyReport(const tfm::SafetyReport &report)
{
    std::size_t total = 0;
    for (const tfm::SafetyReport::PassEntry &entry : report.perPass) {
        for (const tfm::SafetyDiagnostic &diag : entry.diagnostics) {
            std::printf("safety: after %s: %s\n", entry.pass.c_str(),
                        tfm::formatSafetyDiagnostic(diag).c_str());
            total++;
        }
    }
    std::printf("safety: %zu stage(s) checked, %zu diagnostic(s)\n",
                report.perPass.size(), total);
    for (const tfm::SafetyReport::PassEntry &entry : report.perPass) {
        std::printf("safety:   %-20s %zu\n", entry.pass.c_str(),
                    entry.diagnostics.size());
    }
    return total;
}

/**
 * Owns the --trace observability sink for the process and writes the
 * Chrome trace_event JSON file on destruction (i.e. on every exit path
 * out of main).
 */
struct TraceWriter
{
    explicit TraceWriter(const std::string &trace_path) : path(trace_path)
    {
        if (path.empty())
            return;
        tfm::ObsConfig obs_config;
        obs_config.trace = true;
        sink = std::make_unique<tfm::Observability>(obs_config);
    }

    ~TraceWriter()
    {
        if (!sink)
            return;
        std::ofstream os(path);
        if (os)
            sink->writeTrace(os);
        else
            std::fprintf(stderr, "tfmc: cannot open trace file '%s'\n",
                         path.c_str());
    }

    std::string path;
    std::unique_ptr<tfm::Observability> sink;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseArgs(argc, argv, options)) {
        usage();
        return 2;
    }

    std::ifstream in(options.inputPath);
    if (!in) {
        std::fprintf(stderr, "tfmc: cannot open '%s'\n",
                     options.inputPath.c_str());
        return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string source = buffer.str();

    tfm::SystemConfig config;
    config.runtime.farHeapBytes = options.farHeap;
    config.runtime.localMemBytes = options.localMem;
    config.runtime.objectSizeBytes = options.objectSize;
    config.runtime.prefetchEnabled = options.prefetch;
    config.runtime.cluster.shardCount = options.shards;
    config.runtime.cluster.replicationFactor = options.replicate;
    for (const auto &[shard, cycle] : options.killShards)
        config.runtime.cluster.failures.killShard(shard, cycle);

    // The recorder must exist before the System (and its runtime) is
    // constructed: replay swaps the remote backend at construction.
    std::unique_ptr<tfm::FlightRecorder> recorder;
    if (!options.replay.empty()) {
        if (!options.record.empty() || options.flightRecorder) {
            std::fprintf(stderr, "tfmc: --replay excludes --record and "
                                 "--flight-recorder\n");
            return 2;
        }
        std::string error;
        recorder =
            tfm::FlightRecorder::loadForReplay(options.replay, error);
        if (!recorder) {
            std::fprintf(stderr, "tfmc: --replay=%s: %s\n",
                         options.replay.c_str(), error.c_str());
            return 1;
        }
    } else if (!options.record.empty() || options.flightRecorder) {
        recorder = std::make_unique<tfm::FlightRecorder>(
            options.flightRecorder ? options.flightRecorderCap : 0);
    }
    if (recorder)
        config.runtime.recorder = recorder.get();
    config.passes.optimizeGuards = options.guardOpt;
    if (!options.printAfter.empty()) {
        const std::string wanted = options.printAfter;
        config.passObserver = [wanted](const std::string &pass,
                                       const tfm::ir::Module &module) {
            if (wanted != "all" && wanted != pass)
                return;
            std::printf("; IR after %s\n%s\n", pass.c_str(),
                        tfm::ir::moduleToString(module).c_str());
        };
    }
    if (options.chunk == "none")
        config.passes.chunkPolicy = tfm::ChunkPolicy::None;
    else if (options.chunk == "all")
        config.passes.chunkPolicy = tfm::ChunkPolicy::All;
    else if (options.chunk == "costmodel")
        config.passes.chunkPolicy = tfm::ChunkPolicy::CostModel;
    else {
        std::fprintf(stderr, "tfmc: bad --chunk value '%s'\n",
                     options.chunk.c_str());
        return 2;
    }
    if (!options.sanitize.empty() && options.sanitize != "farmem") {
        std::fprintf(stderr, "tfmc: bad --sanitize value '%s'\n",
                     options.sanitize.c_str());
        return 2;
    }
    if (options.engine != "bytecode" && options.engine != "ref") {
        std::fprintf(stderr, "tfmc: bad --engine value '%s'\n",
                     options.engine.c_str());
        return 2;
    }
    if (options.hybrid == "auto")
        config.passes.arbiterMode = tfm::ArbiterMode::Auto;
    else if (options.hybrid == "paged")
        config.passes.arbiterMode = tfm::ArbiterMode::ForceAllPaged;
    else if (!options.hybrid.empty()) {
        std::fprintf(stderr, "tfmc: bad --hybrid value '%s'\n",
                     options.hybrid.c_str());
        return 2;
    }
    tfm::AllocSiteProfile pgoProfile;
    if (!options.profileIn.empty()) {
        std::ifstream pin(options.profileIn);
        if (!pin) {
            std::fprintf(stderr, "tfmc: cannot open profile '%s'\n",
                         options.profileIn.c_str());
            return 1;
        }
        std::ostringstream ptext;
        ptext << pin.rdbuf();
        if (!tfm::AllocSiteProfile::parse(ptext.str(), pgoProfile)) {
            std::fprintf(stderr, "tfmc: malformed profile '%s'\n",
                         options.profileIn.c_str());
            return 1;
        }
        config.passes.arbiterProfile = &pgoProfile;
    }
    config.engine = options.engine == "ref"
                        ? tfm::InterpEngine::Reference
                        : tfm::InterpEngine::Bytecode;
    config.checkSafety = options.checkSafety;

    TraceWriter trace(options.trace);
    if (trace.sink)
        config.runtime.obs = trace.sink.get();

    if (options.autotune) {
        tfm::AutotuneConfig tune;
        tune.system = config;
        const tfm::AutotuneResult result =
            tfm::autotuneObjectSize(source, tune);
        if (!result.ok()) {
            std::fprintf(stderr, "tfmc: autotune failed (no candidate "
                                 "compiled and ran)\n");
            return 1;
        }
        std::printf("object-size  cycles\n");
        for (const tfm::AutotuneTrial &trial : result.trials) {
            std::printf("%10uB  %llu%s\n", trial.objectSizeBytes,
                        static_cast<unsigned long long>(trial.cycles),
                        trial.objectSizeBytes ==
                                result.bestObjectSizeBytes
                            ? "   <-- best"
                            : "");
        }
        return 0;
    }

    tfm::System system(config);
    tfm::CompileResult compiled = options.transform
                                      ? system.compile(source)
                                      : system.parseOnly(source);
    std::size_t safety_diags = 0;
    if (options.checkSafety) {
        // Report even when the pipeline failed: the observer runs
        // before the verifier, so the diagnostics that explain a
        // rejected module are already in the report.
        safety_diags = printSafetyReport(system.safetyReport());
    }
    if (!compiled.ok()) {
        std::fprintf(stderr, "tfmc: %s\n", compiled.error.c_str());
        return 1;
    }
    if (safety_diags > 0)
        return 1;

    if (options.accessReport) {
        if (config.passes.arbiterMode != tfm::ArbiterMode::Off) {
            const tfm::ArbiterReport &arb = system.arbiterReport();
            std::fputs(arb.accessReport.c_str(), stdout);
            for (const tfm::ArbiterDecision &d : arb.decisions) {
                std::printf("arbiter: site %u @%s verdict %s plane %s "
                            "reason %s\n",
                            d.ordinal, d.function.c_str(),
                            tfm::accessVerdictName(d.verdict),
                            d.paged ? "paged" : "guard",
                            d.reason.c_str());
            }
            std::printf("arbiter: %llu paged, %llu guard, %llu pgo "
                        "tie-break(s)\n",
                        static_cast<unsigned long long>(arb.pagedSites),
                        static_cast<unsigned long long>(arb.guardSites),
                        static_cast<unsigned long long>(
                            arb.pgoTieBreaks));
        } else {
            const tfm::AccessPatternAnalysis analysis(
                compiled.program->ir());
            std::fputs(analysis.report().c_str(), stdout);
        }
    }

    if (options.emitIr ||
        (!options.run && !options.checkSafety && !options.accessReport))
        std::fputs(compiled.program->disassemble().c_str(), stdout);

    if (!options.run) {
        if (options.guardReport)
            printGuardReport(system, *compiled.program, nullptr);
        return 0;
    }

    // Drive the interpreter directly (rather than System::run) when the
    // guard report wants the dynamic allocation-site profile joined in.
    tfm::Interpreter interpreter(compiled.program->ir(),
                                 system.runtime());
    interpreter.engine = config.engine;
    if (options.guardReport || !options.profileOut.empty())
        interpreter.enableAllocationProfiling();
    if (options.sanitize == "farmem")
        interpreter.enableSanitizer();
    tfm::RunResult result;
    try {
        result = interpreter.run("main");
    } catch (const tfm::ReplayDivergence &div) {
        std::fprintf(stderr, "tfmc: %s\n",
                     div.what());
        return 3;
    }
    for (const std::int64_t value : result.output)
        std::printf("%lld\n", static_cast<long long>(value));

    // The far-heap checksum is the bit-exactness witness: a replayed
    // run must print the identical value.
    if (recorder) {
        std::printf("far-heap checksum: %016llx\n",
                    static_cast<unsigned long long>(
                        system.runtime().runtime().heapChecksum()));
        if (trace.sink)
            recorder->exportTrace(
                *trace.sink, system.runtime().runtime().obsStream(),
                system.cycles());
    }

    // Persist the event log (stderr, so recorded stdout stays
    // byte-comparable across runs).
    auto saveRecording = [&]() -> bool {
        if (options.record.empty())
            return true;
        std::string error;
        if (!recorder->save(options.record, error)) {
            std::fprintf(stderr, "tfmc: --record=%s: %s\n",
                         options.record.c_str(), error.c_str());
            return false;
        }
        std::fprintf(stderr, "tfmc: recorded %zu events to '%s'\n",
                     recorder->size(), options.record.c_str());
        return true;
    };
    auto finishReplay = [&]() -> bool {
        try {
            recorder->finishReplay();
        } catch (const tfm::ReplayDivergence &div) {
            std::fprintf(stderr, "tfmc: %s\n",
                         div.what());
            return false;
        }
        std::fprintf(stderr,
                     "tfmc: replay verified: %llu events consumed\n",
                     static_cast<unsigned long long>(
                         recorder->consumed()));
        return true;
    };

    if (result.trapped) {
        std::fprintf(stderr, "tfmc: trap: %s\n",
                     result.trapMessage.c_str());
        if (recorder && !recorder->replaying()) {
            if (options.flightRecorder && options.record.empty()) {
                const std::string dump =
                    options.inputPath + ".flight.tfr";
                std::string error;
                if (recorder->save(dump, error))
                    std::fprintf(
                        stderr,
                        "tfmc: flight recorder: dumped last %zu events "
                        "(%llu dropped) to '%s'\n",
                        recorder->size(),
                        static_cast<unsigned long long>(
                            recorder->ringDropped()),
                        dump.c_str());
                else
                    std::fprintf(stderr,
                                 "tfmc: flight recorder: %s\n",
                                 error.c_str());
            } else {
                saveRecording();
            }
        } else if (recorder && recorder->replaying()) {
            if (!finishReplay())
                return 3;
        }
        return 1;
    }
    std::printf("exit value: %lld\n",
                static_cast<long long>(result.returnValue));
    std::printf("simulated time: %.6f s (%llu cycles)\n",
                system.seconds(),
                static_cast<unsigned long long>(system.cycles()));

    if (recorder) {
        if (recorder->replaying()) {
            if (!finishReplay())
                return 3;
        } else if (!saveRecording()) {
            return 1;
        }
    }

    if (options.guardReport) {
        const tfm::AllocSiteProfile profile =
            interpreter.allocationProfile();
        printGuardReport(system, *compiled.program, &profile);
    }

    if (!options.profileOut.empty()) {
        // Multi-epoch accumulation: fold any existing profile into the
        // fresh observation (matching ordinals sum, new sites insert
        // at their ordinal-sorted position).
        tfm::AllocSiteProfile merged = interpreter.allocationProfile();
        std::ifstream existing(options.profileOut);
        if (existing) {
            std::ostringstream old;
            old << existing.rdbuf();
            tfm::AllocSiteProfile previous;
            if (tfm::AllocSiteProfile::parse(old.str(), previous)) {
                previous.merge(merged);
                merged = std::move(previous);
            } else {
                std::fprintf(stderr,
                             "tfmc: --emit-profile=%s: existing file is "
                             "not a profile; overwriting\n",
                             options.profileOut.c_str());
            }
        }
        std::ofstream pout(options.profileOut);
        if (!pout) {
            std::fprintf(stderr, "tfmc: cannot write profile '%s'\n",
                         options.profileOut.c_str());
            return 1;
        }
        pout << merged.serialize();
        std::fprintf(stderr, "tfmc: wrote %zu profiled site(s) to '%s'\n",
                     merged.sites.size(), options.profileOut.c_str());
    }

    if (options.stats) {
        std::printf("\nstatistics:\n");
        const tfm::StatSet stats = system.stats();
        for (const auto &[name, value] : stats.all())
            std::printf("  %-28s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(value));
    }
    return 0;
}
