/**
 * @file
 * The four benchmark workloads, plus the pieces the anchor test reuses
 * to prove the workloads drive the layers the way the figure benches
 * do (bench_hybrid's three planes, Fig. 12's Fastswap points).
 */

#ifndef TRACKFM_PERFBENCH_WORKLOADS_HH
#define TRACKFM_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>

#include "core/system.hh"
#include "harness.hh"
#include "sim/stats.hh"

namespace perfbench
{

/** @name ir-corpus
 * @{ */

/**
 * Trip counts of the scan+chase program (bench_hybrid's at defaults);
 * its chase pool is bench_hybrid's 16384 128-byte nodes, leap 2693.
 */
struct ScanChaseParams
{
    std::uint64_t elements = 32768; ///< 16-byte-stride scan elements
    std::uint64_t hops = 20000;     ///< chase steps
};

/** perfbench/programs/scan_chase.tir with @p params filled in. */
std::string scanChaseSource(const ScanChaseParams &params);

/** bench_hybrid's system: 4 MB local, 320 paged frames, @p mode. */
tfm::SystemConfig scanChaseConfig(tfm::ArbiterMode mode);

/** One compile + run on a fresh System, as the ir-corpus slots do. */
struct ProgramRun
{
    std::string error;          ///< compile error; empty on success
    tfm::RunResult result;
    std::uint64_t cycles = 0;   ///< simulated cycles of the run
    std::uint64_t heapHash = 0; ///< far-heap checksum after the run
    std::uint64_t safetyDiags = 0;
    double setupSeconds = 0.0;   ///< host time constructing the System
    double compileSeconds = 0.0; ///< host time in System::compile
    double runSeconds = 0.0;     ///< host time in System::run
    std::map<std::string, std::uint64_t> counters; ///< pipeline + stats
};

/**
 * Construct a System from @p config, compile @p source with its full
 * pipeline and run main() on its bytecode engine. The guard-safety
 * checker runs after every stage from pointer-guards on. With @p spans
 * set, records core/ir/passes/analysis/interp spans.
 */
ProgramRun compileAndRun(const tfm::SystemConfig &config,
                         const std::string &source, SpanRecorder *spans);

RepResult irCorpusRep(std::uint64_t seed, SpanRecorder *spans);
/** @} */

/** @name kv-zipf
 * @{ */
RepResult kvZipfRep(std::uint64_t seed, SpanRecorder *spans);
/** @} */

/** @name stream-fastswap
 * @{ */

/**
 * One STREAM set-up on Fastswap at 25% local memory with 4-byte
 * elements: array shape and far-heap size.
 */
struct StreamParams
{
    std::uint64_t elements = 1u << 22;
    int arrays = 3;
    std::uint64_t farHeapBytes = 64ull << 20;
};

enum class StreamKernel
{
    Sum,
    Copy,
    Triad
};

/** Simulated cycles of one @p kernel pass on a fresh backend. */
std::uint64_t streamKernelCycles(const StreamParams &params,
                                 StreamKernel kernel);

RepResult streamFastswapRep(std::uint64_t seed, SpanRecorder *spans);
/** @} */

/** @name serve-mix
 * @{ */
RepResult serveMixRep(std::uint64_t seed, SpanRecorder *spans);
/** @} */

/**
 * Per-layer counts from a runtime stat export (or a difference of two):
 * guard outcome mix, runtime events, network traffic, paging faults.
 * Every name is always present, zero when the layer did no work.
 */
Values layerCounts(const std::map<std::string, std::uint64_t> &stats);

/** StatSet as a name -> value map, summed into @p into. */
void accumulate(std::map<std::string, std::uint64_t> &into,
                const tfm::StatSet &set);

/** @p after - @p before, name by name (cumulative counters). */
std::map<std::string, std::uint64_t>
difference(const std::map<std::string, std::uint64_t> &after,
           const std::map<std::string, std::uint64_t> &before);

} // namespace perfbench

#endif // TRACKFM_PERFBENCH_WORKLOADS_HH
