/**
 * @file
 * Ablation: the object-size autotuner (the section 3.2 extension).
 * Runs the exhaustive recompile-and-measure search on a sequential and
 * a scattered program and shows it lands on the sizes Figures 9 and 10
 * identify by hand.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "core/autotuner.hh"

using namespace tfm;

namespace
{

const char *const sequentialProgram = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(1048576)
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %p = gep %a, %i, 4
  %i32 = trunc %i to i32
  store %i32, %p
  %i2 = add %i, 1
  %c = icmp.slt %i2, 262144
  condbr %c, loop, exit
exit:
  ret 0
}
)";

const char *const scatteredProgram = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(1048576)
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %idx = mul %i, 5003
  %wrapped = srem %idx, 131072
  %p = gep %a, %wrapped, 8
  store %i, %p
  %i2 = add %i, 1
  %c = icmp.slt %i2, 4000
  condbr %c, loop, exit
exit:
  ret 0
}
)";

/**
 * Run the search on @p program and add its cells to @p json, keyed
 * e.g. "seq_cycles_512" and "seq_chosen" for @p tag "seq".
 */
void
tune(bench::JsonLine &json, const char *tag, const char *label,
     const char *program)
{
    AutotuneConfig config;
    config.system.runtime.farHeapBytes = 4 << 20;
    config.system.runtime.localMemBytes = 128 << 10;
    const AutotuneResult result = autotuneObjectSize(program, config);

    bench::section(label);
    std::printf("%10s %14s %14s\n", "obj size", "cycles", "MB fetched");
    for (const AutotuneTrial &trial : result.trials) {
        std::printf("%9uB %14llu %14.2f%s\n", trial.objectSizeBytes,
                    static_cast<unsigned long long>(trial.cycles),
                    static_cast<double>(trial.bytesFetched) / 1e6,
                    trial.objectSizeBytes == result.bestObjectSizeBytes
                        ? "   <-- chosen"
                        : "");
        const std::string size = std::to_string(trial.objectSizeBytes);
        json.field((std::string(tag) + "_cycles_" + size).c_str(),
                   trial.cycles);
        json.field((std::string(tag) + "_bytes_fetched_" + size).c_str(),
                   trial.bytesFetched);
    }
    json.field((std::string(tag) + "_chosen").c_str(),
               std::uint64_t{result.bestObjectSizeBytes});
}

} // anonymous namespace

int
main()
{
    bench::banner(
        "Ablation - object-size autotuning (section 3.2 extension)",
        "an exhaustive search over the 7 power-of-two sizes picks large "
        "objects for sequential programs and small ones for scattered "
        "programs, automatically",
        "1 MB heaps, 128 KB local; each trial recompiles and runs the "
        "program");

    // Every cell of both sweeps plus the chosen sizes; the build check
    // compares them exactly against bench/expected/ablation_autotune.json.
    bench::JsonLine json("ablation_autotune");
    tune(json, "seq", "sequential sweep (Fig. 10's regime)",
         sequentialProgram);
    tune(json, "scattered", "scattered stores (Fig. 9's regime)",
         scatteredProgram);
    json.emit();
    return 0;
}
