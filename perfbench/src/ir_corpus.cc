/**
 * @file
 * ir-corpus: a seeded draw of IR programs, each compiled with the full
 * pipeline (O1 + TrackFM + guard optimizer + hybrid arbiter + safety
 * checker) on a fresh System and run on the bytecode engine. The one
 * workload where the compiler and the interpreter do the work and the
 * far-memory runtime stays light.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/guard_safety.hh"
#include "ir/parser.hh"
#include "ir/verifier.hh"
#include "ir_test_programs.hh"
#include "sim/rng.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

/// Copies of each short program in one draw; the three long programs
/// appear once each, with seeded trip counts.
constexpr int kShortCopies = 6;

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path.string());
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** One program instance of the draw, with its reference results. */
struct Instance
{
    std::string name;
    std::string source;
    tfm::SystemConfig config;
    bool hasExpected = false;
    std::int64_t expected = 0;
    // Reference results, filled in set-up.
    std::int64_t refReturn = 0;
    std::vector<std::int64_t> refOutput;
    std::uint64_t refHeapHash = 0;
};

/** Contents of perfbench/programs/<name>.tir. */
std::string
loadProgram(const std::string &name)
{
    return readFile(std::filesystem::path(PERFBENCH_PROGRAMS_DIR) /
                    (name + ".tir"));
}

/**
 * Replace every `{{KEY}}` in @p text with its value from @p params;
 * throws when a placeholder is left unfilled.
 */
std::string
instantiate(const std::string &text,
            const std::map<std::string, std::uint64_t> &params)
{
    std::string out = text;
    for (const auto &[key, value] : params) {
        const std::string token = "{{" + key + "}}";
        for (std::size_t at = out.find(token); at != std::string::npos;
             at = out.find(token, at))
            out.replace(at, token.size(), std::to_string(value));
    }
    const std::size_t left = out.find("{{");
    if (left != std::string::npos)
        throw std::runtime_error("unfilled placeholder " +
                                 out.substr(left, out.find("}}", left) -
                                                      left + 2));
    return out;
}

/** Small tiers: the short programs still fetch and evict. */
tfm::SystemConfig
shortConfig()
{
    tfm::SystemConfig config;
    config.runtime.farHeapBytes = 1u << 20;
    config.runtime.localMemBytes = 256u << 10;
    config.passes.arbiterMode = tfm::ArbiterMode::Auto;
    return config;
}

/** FNV-1a over the far heap's 8-byte words, read through the runtime. */
std::uint64_t
farHeapHash(tfm::TfmRuntime &rt, std::uint64_t heap_bytes)
{
    std::uint64_t hash = 1469598103934665603ull;
    std::vector<std::uint64_t> words(8192);
    for (std::uint64_t at = 0; at < heap_bytes;
         at += words.size() * sizeof(std::uint64_t)) {
        const std::uint64_t len = std::min<std::uint64_t>(
            words.size() * sizeof(std::uint64_t), heap_bytes - at);
        rt.runtime().rawRead(at, words.data(), len);
        for (std::uint64_t i = 0; i < len / sizeof(std::uint64_t); i++)
            hash = (hash ^ words[i]) * 1099511628211ull;
    }
    return hash;
}

/** The "; Expected exit value: N" line of an example, if any. */
bool
expectedFromComment(const std::string &source, std::int64_t &value)
{
    const std::string marker = "Expected exit value:";
    const std::size_t at = source.find(marker);
    if (at == std::string::npos)
        return false;
    value = std::strtoll(source.c_str() + at + marker.size(), nullptr, 10);
    return true;
}

/** Trip count @p base scaled by a seeded factor in [0.95, 1.05). */
std::uint64_t
jitter(tfm::Rng &rng, std::uint64_t base)
{
    return static_cast<std::uint64_t>(static_cast<double>(base) *
                                      (0.95 + 0.1 * rng.uniform()));
}

/** The pool: corpus, examples, then the three long programs. */
std::vector<Instance>
loadPool(tfm::Rng &rng)
{
    std::vector<Instance> pool;
    for (const auto &program : tfm::testprogs::kCorpus) {
        Instance inst;
        inst.name = program.name;
        inst.source = program.source;
        inst.config = shortConfig();
        inst.hasExpected = true;
        inst.expected = program.expected;
        pool.push_back(std::move(inst));
    }

    std::vector<std::filesystem::path> examples;
    for (const auto &entry :
         std::filesystem::directory_iterator(TFM_EXAMPLES_DIR)) {
        if (entry.path().extension() == ".tir")
            examples.push_back(entry.path());
    }
    std::sort(examples.begin(), examples.end());
    for (const auto &path : examples) {
        Instance inst;
        inst.name = path.stem().string();
        inst.source = readFile(path);
        inst.config = shortConfig();
        inst.hasExpected = expectedFromComment(inst.source, inst.expected);
        pool.push_back(std::move(inst));
    }

    ScanChaseParams chase;
    chase.elements = jitter(rng, chase.elements);
    chase.hops = jitter(rng, chase.hops);
    Instance scan;
    scan.name = "scan_chase";
    scan.source = scanChaseSource(chase);
    scan.config = scanChaseConfig(tfm::ArbiterMode::Auto);
    pool.push_back(std::move(scan));

    constexpr std::uint64_t kRmwElems = 16384;
    Instance rmw;
    rmw.name = "rmw_sweep";
    rmw.source = instantiate(loadProgram("rmw_sweep"),
                             {{"A_BYTES", kRmwElems * 8},
                              {"ELEMS", kRmwElems},
                              {"MASK", kRmwElems - 1},
                              {"STEPS", jitter(rng, 131072)}});
    rmw.config = shortConfig();
    pool.push_back(std::move(rmw));

    Instance calls;
    calls.name = "call_loop";
    calls.source = instantiate(loadProgram("call_loop"),
                               {{"CALLS", jitter(rng, 100000)}});
    calls.config = shortConfig();
    pool.push_back(std::move(calls));
    return pool;
}

/**
 * Reference results of one instance, never from the compiler under
 * test for the answer: the return value and print output come from the
 * reference engine running the untransformed module. Its malloc stays
 * in host memory, so its far heap is empty; the far-heap checksum
 * reference is the reference engine running the compiled module.
 */
std::string
computeReference(Instance &inst)
{
    {
        tfm::System system(inst.config);
        tfm::CompileResult parsed = system.parseOnly(inst.source);
        if (!parsed.ok())
            return inst.name + ": " + parsed.error;
        tfm::Interpreter interp(parsed.program->ir(), system.runtime());
        interp.engine = tfm::InterpEngine::Reference;
        const tfm::RunResult run = interp.run("main");
        if (run.trapped)
            return inst.name + ": reference trap: " + run.trapMessage;
        if (inst.hasExpected && run.returnValue != inst.expected)
            return inst.name + ": reference returned " +
                   std::to_string(run.returnValue) + ", expected " +
                   std::to_string(inst.expected);
        inst.refReturn = run.returnValue;
        inst.refOutput = run.output;
    }
    tfm::System system(inst.config);
    tfm::CompileResult compiled = system.compile(inst.source);
    if (!compiled.ok())
        return inst.name + ": " + compiled.error;
    tfm::Interpreter interp(compiled.program->ir(), system.runtime());
    interp.engine = tfm::InterpEngine::Reference;
    const tfm::RunResult run = interp.run("main");
    if (run.trapped)
        return inst.name + ": reference trap: " + run.trapMessage;
    inst.refHeapHash =
        farHeapHash(system.runtime(), inst.config.runtime.farHeapBytes);
    return "";
}

/** Pass timing + safety checking hooked into System::compile. */
struct CompileProbe
{
    SpanRecorder *spans = nullptr;
    std::int64_t mark = 0;
    bool checking = false;
    std::uint64_t diags = 0;
};

} // anonymous namespace

std::string
scanChaseSource(const ScanChaseParams &params)
{
    constexpr std::uint64_t kNodes = 16384;
    // The dense array is twice the scanned span, as in bench_hybrid.
    return instantiate(loadProgram("scan_chase"),
                       {{"A_BYTES", params.elements * 32},
                        {"POOL_BYTES", kNodes * 128},
                        {"ELEMS", params.elements},
                        {"NODES", kNodes},
                        {"LEAP", 2693},
                        {"HOPS", params.hops}});
}

tfm::SystemConfig
scanChaseConfig(tfm::ArbiterMode mode)
{
    tfm::SystemConfig config;
    config.runtime.farHeapBytes = 16 << 20;
    config.runtime.localMemBytes = 4 << 20;
    config.runtime.objectSizeBytes = 4096;
    // 320 four-KB frames: streams the dense array, cannot hold the pool.
    config.runtime.pagedLocalMemBytes = 320ull * 4096;
    config.passes.arbiterMode = mode;
    return config;
}

ProgramRun
compileAndRun(const tfm::SystemConfig &config, const std::string &source,
              SpanRecorder *spans)
{
    ProgramRun out;
    CompileProbe probe;
    probe.spans = spans;
    tfm::SystemConfig cfg = config;
    // The safety checker runs from the observer (as --check-safety's
    // observer does) so its time is a span of its own.
    cfg.checkSafety = false;
    cfg.passObserver = [&probe](const std::string &pass,
                                const tfm::ir::Module &module) {
        if (probe.spans)
            probe.spans->add(probe.spans->intern("passes." + pass),
                             probe.mark, nowNs());
        if (pass == "pointer-guards")
            probe.checking = true;
        if (probe.checking) {
            SpanScope check(probe.spans, "analysis.safety");
            probe.diags += tfm::checkGuardSafety(module).size();
        }
        probe.mark = nowNs();
    };

    const std::int64_t t0 = nowNs();
    std::unique_ptr<tfm::System> system;
    {
        SpanScope span(spans, "core.system_setup");
        system = std::make_unique<tfm::System>(cfg);
    }
    out.setupSeconds = secondsBetween(t0, nowNs());

    if (spans) {
        // The front end on its own, outside the timed compile: System
        // runs it too, inside its first pass interval.
        std::unique_ptr<tfm::ir::Module> parsed;
        {
            SpanScope span(spans, "ir.parse");
            parsed = tfm::ir::parseModule(source).module;
        }
        if (parsed) {
            SpanScope span(spans, "ir.verify");
            tfm::ir::verifyModule(*parsed);
        }
    }

    const std::int64_t t1 = nowNs();
    tfm::CompileResult compiled;
    {
        SpanScope span(spans, "core.compile");
        probe.mark = nowNs();
        compiled = system->compile(source);
    }
    const std::int64_t t2 = nowNs();
    out.compileSeconds = secondsBetween(t1, t2);
    out.safetyDiags = probe.diags;
    if (!compiled.ok()) {
        out.error = compiled.error;
        return out;
    }
    {
        SpanScope span(spans, "interp.run");
        out.result = system->run(*compiled.program);
    }
    out.runSeconds = secondsBetween(t2, nowNs());
    out.cycles = system->cycles();
    out.heapHash = farHeapHash(system->runtime(), cfg.runtime.farHeapBytes);

    const tfm::PipelineReport &pipe = compiled.program->pipelineReport();
    const tfm::GuardSiteReport &sites = system->guardSiteReport();
    auto &c = out.counters;
    c["ir.insts_in"] = pipe.instructionsBefore;
    c["passes.insts_out"] = pipe.instructionsAfter;
    c["passes.guards_static"] = sites.totalInserted();
    c["passes.guards_removed"] = sites.totalEliminated() +
                                 sites.totalCoalesced() +
                                 sites.totalHoisted();
    c["passes.paged_sites"] = system->arbiterReport().pagedSites;
    c["passes.guard_sites"] = system->arbiterReport().guardSites;
    c["interp.insts"] = out.result.instructionsExecuted;
    c["interp.guard_fast_hits"] = out.result.guardFastHits;
    accumulate(c, system->stats());
    return out;
}

RepResult
irCorpusRep(std::uint64_t seed, SpanRecorder *spans)
{
    RepResult rep;
    std::vector<Instance> pool;
    std::vector<std::size_t> draw;
    std::int64_t t0 = nowNs();
    {
        SpanScope setup(spans, "setup");
        tfm::Rng rng(seed ^ 0x69722d636f727075ull);
        pool = loadPool(rng);
        for (Instance &inst : pool) {
            SpanScope span(spans, "setup.reference");
            const std::string error = computeReference(inst);
            if (!error.empty())
                throw std::runtime_error("ir-corpus reference: " + error);
        }
        for (std::size_t i = 0; i < pool.size(); i++) {
            const bool long_running = i + 3 >= pool.size();
            for (int k = 0; k < (long_running ? 1 : kShortCopies); k++)
                draw.push_back(i);
        }
        for (std::size_t i = draw.size() - 1; i > 0; i--)
            std::swap(draw[i], draw[rng.below(i + 1)]);
    }
    rep.setupSeconds = secondsBetween(t0, nowNs());

    std::map<std::string, std::uint64_t> counters;
    std::vector<double> cycles;
    double compile_s = 0.0;
    double engine_s = 0.0;
    std::uint64_t diags = 0;
    {
        SpanScope measure(spans, "measure");
        for (const std::size_t index : draw) {
            const Instance &inst = pool[index];
            SpanScope program(spans, "program");
            ProgramRun run = compileAndRun(inst.config, inst.source, spans);
            rep.setupSeconds += run.setupSeconds;
            rep.wallSeconds += run.compileSeconds + run.runSeconds;
            compile_s += run.compileSeconds;
            engine_s += run.result.wallSeconds;
            diags += run.safetyDiags;
            rep.attempted++;

            std::string failure;
            if (!run.error.empty())
                failure = run.error;
            else if (run.safetyDiags != 0)
                failure = "guard-safety diagnostics";
            else if (run.result.trapped)
                failure = "trap: " + run.result.trapMessage;
            else if (run.result.returnValue != inst.refReturn ||
                     run.result.output != inst.refOutput)
                failure = "returned " +
                          std::to_string(run.result.returnValue) +
                          ", reference " + std::to_string(inst.refReturn);
            else if (run.heapHash != inst.refHeapHash)
                failure = "far-heap checksum differs from the reference";
            if (!failure.empty()) {
                rep.failed++;
                if (rep.failures.size() < 5)
                    rep.failures.push_back(inst.name + ": " + failure);
                continue;
            }
            cycles.push_back(static_cast<double>(run.cycles));
            for (const auto &[name, value] : run.counters)
                counters[name] += value;
        }
    }

    double sum = 0.0;
    for (const double c : cycles)
        sum += c;
    rep.sim = {{"sim_cycles", sum},
               {"sim_p50_cycles", percentile(cycles, 50)},
               {"sim_p99_cycles", percentile(cycles, 99)}};
    rep.host = {{"compile_s", compile_s},
                {"interp.insts_per_s",
                 engine_s > 0.0 ? static_cast<double>(
                                      counters["interp.insts"]) /
                                      engine_s
                                : 0.0}};

    const auto num = [&counters](const char *name) {
        return static_cast<double>(counters[name]);
    };
    rep.counts = {
        {"ir.insts_in", num("ir.insts_in")},
        {"passes.insts_out", num("passes.insts_out")},
        {"passes.guards_static", num("passes.guards_static")},
        {"passes.guards_removed", num("passes.guards_removed")},
        {"passes.paged_sites", num("passes.paged_sites")},
        {"passes.guard_sites", num("passes.guard_sites")},
        {"analysis.safety_diags", static_cast<double>(diags)},
        {"interp.insts", num("interp.insts")},
    };
    const Values layers = layerCounts(counters);
    double guards = 0.0;
    for (const auto &[name, value] : layers) {
        if (name == "tfm.guards")
            guards = value;
    }
    rep.counts.emplace_back("interp.inline_hit_frac",
                            guards > 0.0 ? num("interp.guard_fast_hits") /
                                               guards
                                         : 0.0);
    rep.counts.insert(rep.counts.end(), layers.begin(), layers.end());
    return rep;
}

} // namespace perfbench
