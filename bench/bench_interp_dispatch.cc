/**
 * @file
 * Interpreter dispatch-rate benchmark: pre-decoded register bytecode
 * engine versus the tree-walking reference engine, on four instruction
 * mixes (host wall-clock instructions/second; the simulated cycle
 * clock is identical between engines by construction).
 *
 * Unlike the figure benches this measures the harness itself, not the
 * paper's system: the bytecode engine exists so the evaluation
 * workloads run at tolerable wall-clock speed. The two engines' runs
 * alternate (which one goes first flips every repeat), so host drift
 * hits both alike. Doubles as two gates: it always exits non-zero if
 * the engines differ on any mix in return value, instructions
 * executed or one run's simulated cycles, and --min-speedup=<x>
 * (TFM_MIN_SPEEDUP) exits non-zero if the bytecode engine is below
 * <x> times the reference engine on the arith-loop or pointer-chase
 * mix.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "core/system.hh"
#include "interp/interpreter.hh"

using namespace tfm;

namespace
{

/** ~200k iterations of straight-line integer arithmetic. */
const char *const kArithLoop = R"(
func @main() -> i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %acc = phi i64 [ 0, entry ], [ %acc4, loop ]
  %t1 = mul %i, 3
  %t2 = add %t1, 7
  %t3 = xor %t2, %i
  %t4 = and %t3, 1023
  %t5 = sub %t2, %t4
  %acc2 = add %acc, %t5
  %t6 = shl %i, 1
  %t7 = lshr %t6, 1
  %acc3 = add %acc2, %t7
  %acc4 = srem %acc3, 1000003
  %i2 = add %i, 1
  %c = icmp.slt %i2, 200000
  condbr %c, loop, exit
exit:
  ret %acc4
}
)";

/** Chase a permutation through a 8192-entry i64 array, 150k steps:
 *  every iteration is a guarded far-heap load at a data-dependent
 *  offset. */
const char *const kPointerChase = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(65536)
  br init
init:
  %i = phi i64 [ 0, entry ], [ %i2, init ]
  %n1 = add %i, 97
  %nv = srem %n1, 8192
  %p = gep %a, %i, 8
  store %nv, %p
  %i2 = add %i, 1
  %c = icmp.slt %i2, 8192
  condbr %c, init, chase
chase:
  br loop
loop:
  %k = phi i64 [ 0, chase ], [ %k2, loop ]
  %cur = phi i64 [ 0, chase ], [ %next, loop ]
  %q = gep %a, %cur, 8
  %next = load i64, %q
  %k2 = add %k, 1
  %c2 = icmp.slt %k2, 150000
  condbr %c2, loop, exit
exit:
  ret %next
}
)";

/** Ten read-modify-write sweeps of a 16384-entry array: two guards
 *  per iteration, mostly last-object cache hits. */
const char *const kGuardDense = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(131072)
  br init
init:
  %i = phi i64 [ 0, entry ], [ %i2, init ]
  %p = gep %a, %i, 8
  store %i, %p
  %i2 = add %i, 1
  %c = icmp.slt %i2, 16384
  condbr %c, init, sweep
sweep:
  br loop
loop:
  %k = phi i64 [ 0, sweep ], [ %k2, loop ]
  %acc = phi i64 [ 0, sweep ], [ %acc2, loop ]
  %j = srem %k, 16384
  %q = gep %a, %j, 8
  %v = load i64, %q
  %v2 = add %v, %k
  store %v2, %q
  %acc2 = add %acc, %v2
  %k2 = add %k, 1
  %c2 = icmp.slt %k2, 163840
  condbr %c2, loop, exit
exit:
  ret %acc2
}
)";

/** 150k calls to a small leaf function. */
const char *const kCallHeavy = R"(
func @leaf(%x: i64, %y: i64) -> i64 {
entry:
  %t = mul %x, 3
  %u = add %t, %y
  %v = and %u, 65535
  ret %v
}
func @main() -> i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %acc = phi i64 [ 0, entry ], [ %acc2, loop ]
  %r = call i64 @leaf(%i, %acc)
  %acc2 = add %acc, %r
  %i2 = add %i, 1
  %c = icmp.slt %i2, 150000
  condbr %c, loop, exit
exit:
  ret %acc2
}
)";

struct Mix
{
    const char *name;
    const char *source;
};

const Mix kMixes[] = {
    {"arith-loop", kArithLoop},
    {"pointer-chase", kPointerChase},
    {"guard-dense", kGuardDense},
    {"call-heavy", kCallHeavy},
};

/** One engine's interpreter over its own runtime, kept across all
 *  repeats so the bytecode engine's one-time compile is amortized
 *  exactly as in real use. */
struct EngineRun
{
    EngineRun(const CompiledProgram &program, const SystemConfig &config,
              InterpEngine engine)
        : rt(config.runtime, config.costs), interp(program.ir(), rt)
    {
        interp.engine = engine;
    }

    /** Run main once; returns the host seconds it took. */
    double
    runOnce()
    {
        const std::uint64_t cycles_before = rt.clock().now();
        const auto begin = std::chrono::steady_clock::now();
        const RunResult result = interp.run("main");
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - begin)
                .count();
        if (result.trapped) {
            std::fprintf(stderr, "bench_interp_dispatch: trap: %s\n",
                         result.trapMessage.c_str());
            std::exit(1);
        }
        returnValue = result.returnValue;
        instructions = result.instructionsExecuted;
        cycles = rt.clock().now() - cycles_before;
        guardFastHits = result.guardFastHits;
        return elapsed;
    }

    TfmRuntime rt;
    Interpreter interp;
    /// The latest run's observables.
    std::int64_t returnValue = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t guardFastHits = 0;
    /// Minimum timed-run wall seconds.
    double best = 0.0;
};

SystemConfig
benchConfig()
{
    SystemConfig config;
    // Local tier holds the whole working set: the bench measures the
    // engines' dispatch rate, not the simulated remote fetches (those
    // charge identical *simulated* cycles on both engines anyway).
    config.runtime.farHeapBytes = 64 << 20;
    config.runtime.localMemBytes = 16 << 20;
    config.runtime.objectSizeBytes = 4096;
    config.runtime.prefetchEnabled = false;
    return config;
}

/** Name the first observable the two engines' latest runs differ in,
 *  or return null when they agree. */
const char *
divergence(const EngineRun &ref, const EngineRun &bc)
{
    if (ref.returnValue != bc.returnValue)
        return "return value";
    if (ref.instructions != bc.instructions)
        return "instructions executed";
    if (ref.cycles != bc.cycles)
        return "simulated cycles";
    return nullptr;
}

} // anonymous namespace

int
main()
{
    bench::banner(
        "Interpreter dispatch rate - bytecode vs reference engine",
        "pre-decoded register bytecode with an inlined guard fast path "
        "dispatches ~2.4-3.3x the flat-frame tree-walker's "
        "instructions/second (1.75-2x on call-heavy)",
        "four mixes, full TrackFM pipeline, working set local");

    const bench::RepeatConfig repeats = bench::repeatConfig();
    double gate = 0.0;
    {
        std::string value = bench::cmdlineArg("min-speedup");
        if (value.empty()) {
            if (const char *env = std::getenv("TFM_MIN_SPEEDUP"))
                value = env;
        }
        if (!value.empty())
            gate = std::strtod(value.c_str(), nullptr);
    }

    std::printf("(min of %d runs after %d warmup)\n\n", repeats.repeats,
                repeats.warmup);
    std::printf("%14s %12s %14s %14s %9s %12s\n", "mix", "steps",
                "ref inst/s", "bc inst/s", "speedup", "bc fasthits");

    const SystemConfig config = benchConfig();
    bool gate_failed = false;
    for (const Mix &mix : kMixes) {
        System system(config);
        CompileResult compiled = system.compile(mix.source);
        if (!compiled.ok()) {
            std::fprintf(stderr, "bench_interp_dispatch: %s: %s\n",
                         mix.name, compiled.error.c_str());
            return 1;
        }
        EngineRun ref(*compiled.program, config, InterpEngine::Reference);
        EngineRun bc(*compiled.program, config, InterpEngine::Bytecode);
        const int runs = repeats.warmup + repeats.repeats;
        for (int i = 0; i < runs; i++) {
            EngineRun &first = i % 2 == 0 ? ref : bc;
            EngineRun &second = i % 2 == 0 ? bc : ref;
            const double first_s = first.runOnce();
            const double second_s = second.runOnce();
            if (const char *what = divergence(ref, bc)) {
                std::fprintf(stderr,
                             "bench_interp_dispatch: FAIL: %s: engines "
                             "differ in %s on run %d (ref %lld/%llu/%llu, "
                             "bytecode %lld/%llu/%llu return/insts/"
                             "cycles)\n",
                             mix.name, what, i,
                             static_cast<long long>(ref.returnValue),
                             static_cast<unsigned long long>(
                                 ref.instructions),
                             static_cast<unsigned long long>(ref.cycles),
                             static_cast<long long>(bc.returnValue),
                             static_cast<unsigned long long>(
                                 bc.instructions),
                             static_cast<unsigned long long>(bc.cycles));
                return 1;
            }
            if (i < repeats.warmup)
                continue;
            const bool first_timed = i == repeats.warmup;
            if (first_timed || first_s < first.best)
                first.best = first_s;
            if (first_timed || second_s < second.best)
                second.best = second_s;
        }
        auto rate = [](const EngineRun &run) {
            return run.best > 0.0
                       ? static_cast<double>(run.instructions) / run.best
                       : 0.0;
        };
        const double ref_rate = rate(ref);
        const double bc_rate = rate(bc);
        const double speedup = ref_rate > 0.0 ? bc_rate / ref_rate : 0.0;
        std::printf("%14s %12llu %14.3e %14.3e %8.2fx %12llu\n",
                    mix.name,
                    static_cast<unsigned long long>(bc.instructions),
                    ref_rate, bc_rate, speedup,
                    static_cast<unsigned long long>(bc.guardFastHits));
        bench::JsonLine("interp_dispatch")
            .field("mix", mix.name)
            .field("steps", bc.instructions)
            .field("refRate", ref_rate)
            .field("bcRate", bc_rate)
            .field("speedup", speedup)
            .field("guardFastHits", bc.guardFastHits)
            .emit();
        const bool gated = std::string(mix.name) == "arith-loop" ||
                           std::string(mix.name) == "pointer-chase";
        if (gate > 0.0 && gated && speedup < gate) {
            std::fprintf(stderr,
                         "bench_interp_dispatch: FAIL: %s speedup "
                         "%.2fx below the %.2fx floor\n",
                         mix.name, speedup, gate);
            gate_failed = true;
        }
    }
    return gate_failed ? 1 : 0;
}
