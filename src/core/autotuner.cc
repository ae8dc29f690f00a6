#include "autotuner.hh"

namespace tfm
{

AutotuneResult
autotuneObjectSize(const std::string &source, const AutotuneConfig &config)
{
    AutotuneResult result;
    std::vector<std::uint32_t> sizes = config.candidates;
    if (sizes.empty()) {
        // Section 3.2: powers of two from the cache line (2^6) to the
        // base page (2^12).
        for (std::uint32_t size = 64; size <= 4096; size <<= 1)
            sizes.push_back(size);
    }
    // The batching dimension: either the requested sweep or a single
    // trial per size that keeps the base system's data-plane knobs.
    std::vector<std::uint32_t> batches = config.batchCandidates;
    const bool sweep_batches = !batches.empty();
    if (!sweep_batches)
        batches.push_back(config.system.runtime.fetchBatchMax);

    std::uint64_t best_cycles = ~0ull;
    for (const std::uint32_t size : sizes) {
        for (const std::uint32_t batch : batches) {
            AutotuneTrial trial;
            trial.objectSizeBytes = size;
            trial.batchMax = batch;

            SystemConfig sys_config = config.system;
            sys_config.runtime.objectSizeBytes = size;
            if (sweep_batches) {
                sys_config.runtime.fetchBatchMax = batch;
                sys_config.runtime.writebackBatchMax = batch;
            }
            System system(sys_config);

            CompileResult compiled = system.compile(source);
            if (compiled.ok()) {
                trial.compiled = true;
                const std::uint64_t start = system.cycles();
                Interpreter interp(compiled.program->ir(),
                                   system.runtime());
                interp.maxSteps = config.maxSteps;
                const RunResult run = interp.run(config.function);
                if (run.ok()) {
                    trial.ran = true;
                    trial.cycles = system.cycles() - start;
                    const NetStats &net =
                        system.runtime().runtime().net().stats();
                    trial.bytesFetched = net.bytesFetched;
                    trial.netMessages = net.totalMessages();
                    if (trial.cycles < best_cycles) {
                        best_cycles = trial.cycles;
                        result.bestObjectSizeBytes = size;
                        result.bestBatchMax = batch;
                    }
                }
            }
            result.trials.push_back(trial);
        }
    }
    return result;
}

} // namespace tfm
