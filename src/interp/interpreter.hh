/**
 * @file
 * IR interpreter: executes (transformed) modules against a TrackFM
 * runtime instance.
 *
 * The memory model mirrors the real system:
 *  - tagged (non-canonical) addresses reach memory only through guard /
 *    chunk.access instructions, which translate them to host pointers
 *    exactly as Fig. 4's generated code does;
 *  - a direct load/store of a tagged address traps, the interpreter's
 *    analogue of the general-protection fault a real non-canonical
 *    dereference raises — the safety net that makes missed guards loud;
 *  - untagged addresses (allocas, pre-transformation malloc) are host
 *    pointers accessed directly.
 */

#ifndef TRACKFM_INTERP_INTERPRETER_HH
#define TRACKFM_INTERP_INTERPRETER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/function.hh"
#include "passes/hot_alloc_pruning.hh"
#include "tfm/tfm_runtime.hh"

namespace tfm
{

/**
 * Execution engine selection. Both engines are bit-exact against each
 * other (outputs, heap contents, trap text, step counts, simulated
 * cycles, GuardStats); the bytecode engine is the fast default, the
 * tree-walking reference engine the trust anchor (and the only engine
 * the far-memory sanitizer runs on).
 */
enum class InterpEngine : std::uint8_t
{
    Reference, ///< tree-walking over the IR (lazy value lookups)
    Bytecode   ///< pre-decoded register VM with threaded dispatch
};

/** Outcome of one interpreted execution. */
struct RunResult
{
    bool trapped = false;
    std::string trapMessage;
    std::int64_t returnValue = 0;
    double returnFloat = 0.0;
    std::uint64_t instructionsExecuted = 0;
    /// Values passed to the print_i64 intrinsic, in order.
    std::vector<std::int64_t> output;
    /// Engine that actually ran: "bytecode" or "ref" (the sanitizer
    /// forces ref regardless of the requested engine).
    std::string engine;
    /// Host wall-clock time inside the engine (dispatch-rate metric;
    /// unrelated to the simulated cycle clock).
    double wallSeconds = 0.0;
    /// Guards resolved by the inline last-object cache probe without
    /// leaving the dispatch loop (bytecode engine only).
    std::uint64_t guardFastHits = 0;

    bool ok() const { return !trapped; }
};

/** Executes IR functions against a TfmRuntime. */
class Interpreter
{
  public:
    /**
     * @p module must not change while the interpreter exists: both
     * engines cache per-instruction decisions (compiled bytecode,
     * resolved call sites, profiling and sanitizer tables) on first
     * use.
     */
    Interpreter(const ir::Module &module, TfmRuntime &runtime);
    ~Interpreter();

    /**
     * Run @p function_name with integer arguments.
     * Execution stops at `maxSteps` interpreted instructions (runaway
     * protection) and reports a trap.
     */
    RunResult run(const std::string &function_name,
                  const std::vector<std::int64_t> &args = {});

    /** Default step budget; adjustable for long-running programs. */
    std::uint64_t maxSteps = 200'000'000;

    /**
     * Engine for subsequent run() calls. Per-function compile
     * bailouts (non-canonical SSA) silently fall back to the
     * reference engine for that function only; enableSanitizer()
     * forces the reference engine for the whole run.
     */
    InterpEngine engine = InterpEngine::Bytecode;

    /** @name Allocation-site profiling (for HotAllocPruningPass)
     * @{ */
    /** Record per-allocation-site hotness during subsequent runs. */
    void enableAllocationProfiling();
    /** The profile collected so far. */
    AllocSiteProfile allocationProfile() const;
    /** @} */

    /** @name Far-memory sanitizer (tfmc's --sanitize=farmem)
     * @{ */
    /**
     * Validate every guard-mediated access during subsequent runs.
     * Evacuations poison outstanding host translations, so a deref
     * through a stale translation traps with the producing guard, the
     * arming/invalidating epochs, and the allocating call site; an
     * access that walks off the guarded object frame or outside the
     * backing far-heap allocation traps with the same context. Clean
     * programs run unchanged: a translation armed by a guard is valid
     * until the next runtime entry, and the transformed pipeline never
     * separates a guard from its uses by one.
     */
    void enableSanitizer();
    /** @} */

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace tfm

#endif // TRACKFM_INTERP_INTERPRETER_HH
