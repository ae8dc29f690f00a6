/**
 * @file
 * Anchor test: with the figure benches' settings, the workloads' own
 * code (compileAndRun, streamKernelCycles) reproduces the pinned
 * simulated values, so the workloads drive the layers the way the
 * figures do.
 *
 *  - bench_hybrid (scan+chase program, 320 paged frames): guard
 *    11,446,797, paged 595,430,430, hybrid 10,064,433 cycles, each run
 *    returning 1,073,729,056 with a clean safety report;
 *  - Fig. 12 (STREAM, 1M 4-byte elements, two arrays, Fastswap at 25%
 *    local memory): sum 47,152,128 and copy 100,909,056 cycles.
 *
 * Exits 0 when every value matches, 1 otherwise.
 */

#include <cstdio>

#include "workloads.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expectEq(const char *what, std::uint64_t got, std::uint64_t want)
{
    const bool ok = got == want;
    std::printf("%-8s %-28s %14llu  (pinned %llu)\n", ok ? "ok" : "FAIL",
                what, static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(want));
    failures += ok ? 0 : 1;
}

void
hybridPlane(const char *what, tfm::ArbiterMode mode, std::uint64_t cycles)
{
    const ProgramRun run = compileAndRun(
        scanChaseConfig(mode), scanChaseSource(ScanChaseParams{}), nullptr);
    if (!run.error.empty() || run.result.trapped || run.safetyDiags != 0) {
        std::printf("FAIL     %s: %s%s (%llu safety diagnostics)\n", what,
                    run.error.c_str(), run.result.trapMessage.c_str(),
                    static_cast<unsigned long long>(run.safetyDiags));
        failures++;
        return;
    }
    expectEq(what, run.cycles, cycles);
    expectEq("  return value",
             static_cast<std::uint64_t>(run.result.returnValue),
             1073729056);
}

} // anonymous namespace

int
main()
{
    hybridPlane("bench_hybrid guard", tfm::ArbiterMode::Off, 11446797);
    hybridPlane("bench_hybrid paged", tfm::ArbiterMode::ForceAllPaged,
                595430430);
    hybridPlane("bench_hybrid hybrid", tfm::ArbiterMode::Auto, 10064433);

    StreamParams fig12;
    fig12.elements = 1u << 20;
    fig12.arrays = 2;
    fig12.farHeapBytes = 32 << 20;
    expectEq("fig12 fastswap 25% sum",
             streamKernelCycles(fig12, StreamKernel::Sum), 47152128);
    expectEq("fig12 fastswap 25% copy",
             streamKernelCycles(fig12, StreamKernel::Copy), 100909056);

    std::printf("%s\n", failures ? "ANCHOR FAILED" : "anchor passed");
    return failures ? 1 : 0;
}
