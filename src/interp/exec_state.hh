/**
 * @file
 * Shared interpreter implementation state (internal header).
 *
 * `Interpreter::Impl` is split across two translation units: the
 * tree-walking reference engine (interpreter.cc) and the pre-decoded
 * register bytecode engine (bytecode.cc). Both execute against the
 * state defined here — same runtime, same step counter, same output
 * vector, same profiling/sanitizer bookkeeping — so a program may mix
 * engines per function (bytecode compilation bails out conservatively)
 * and still behave bit-identically to either engine alone.
 *
 * Everything observable must match between engines: step counts,
 * simulated cycles, GuardStats, trap text, outputs, and heap contents.
 * Helpers used by both live here inline so trap messages and cost
 * charges have a single source of truth.
 */

#ifndef TRACKFM_INTERP_EXEC_STATE_HH
#define TRACKFM_INTERP_EXEC_STATE_HH

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/bytecode.hh"
#include "interp/interpreter.hh"
#include "runtime/host_window.hh"
#include "tfm/tagged_ptr.hh"

namespace tfm
{

struct Interpreter::Impl
{
    const ir::Module &module;
    TfmRuntime &rt;
    std::uint64_t steps = 0;
    std::uint64_t maxSteps = 0;
    std::vector<std::int64_t> output;
    /// Host allocations backing allocas and untransformed malloc.
    std::vector<std::unique_ptr<std::byte[]>> hostAllocations;

    /// @name Engine selection
    /// @{
    InterpEngine engine = InterpEngine::Bytecode;
    /// Lazily compiled bytecode for the whole module.
    bc::Module bcode;
    bool bcodeReady = false;
    /// Guards resolved by the inline last-object cache probe without
    /// leaving the dispatch loop (bytecode engine only).
    std::uint64_t guardFastHits = 0;
    /// @}

    /// @name Allocation-site profiling
    /// @{
    bool profiling = false;
    /// Allocation-call instruction -> module-wide ordinal.
    std::map<const ir::Instruction *, std::uint32_t> siteOrdinals;
    AllocSiteProfile profile;
    /// Far-heap interval -> profile index (start -> {end, index}).
    std::map<std::uint64_t, std::pair<std::uint64_t, std::size_t>>
        intervals;
    /// @}

    /// @name Far-memory sanitizer
    /// @{
    bool sanitizing = false;
    /// Memory-access instruction -> the guard-family instruction that
    /// produced its address (precomputed over the whole module).
    std::map<const ir::Instruction *, const ir::Instruction *> sanRoots;
    /// One live far-heap allocation, for bounds checks and trap text.
    struct SanAlloc
    {
        std::uint64_t end = 0; ///< one past the last allocated offset
        std::string desc;      ///< allocating call site
    };
    /// Live allocations keyed by their starting far-heap offset.
    std::map<std::uint64_t, SanAlloc> sanAllocs;
    /// @}

    Impl(const ir::Module &m, TfmRuntime &runtime)
        : module(m), rt(runtime)
    {}

    /// Defined in interpreter.cc (needs analysis/guard_safety.hh).
    void enableProfiling();
    void enableSanitizer();

    /** Record one far-heap allocation for profiling. */
    void
    recordAllocation(const ir::Instruction &call_inst,
                     std::uint64_t tagged_addr, std::uint64_t bytes)
    {
        if (!profiling)
            return;
        auto it = siteOrdinals.find(&call_inst);
        if (it == siteOrdinals.end())
            return;
        const std::size_t index = it->second;
        profile.sites[index].allocations++;
        profile.sites[index].bytesAllocated += bytes;
        const std::uint64_t offset = tfmOffsetOf(tagged_addr);
        intervals[offset] = {offset + bytes, index};
    }

    /// Observed-pattern classification threshold: an access within one
    /// cache line of the site's previous access reads as streaming.
    static constexpr std::uint64_t seqDeltaBytes = 64;
    /// Site index -> far-heap offset of the site's last access.
    std::map<std::size_t, std::uint64_t> lastSiteOffset;

    /** Attribute a guarded (or paged) access to its allocation site. */
    void
    recordAccess(std::uint64_t tagged_addr)
    {
        if (!profiling || intervals.empty())
            return;
        const std::uint64_t offset = tfmOffsetOf(tagged_addr);
        auto it = intervals.upper_bound(offset);
        if (it == intervals.begin())
            return;
        --it;
        if (offset >= it->second.first)
            return;
        const std::size_t index = it->second.second;
        auto &site = profile.sites[index];
        site.guardedAccesses++;
        // Dynamic access-pattern witness for the static analysis: a
        // near-sequential delta from the site's previous access counts
        // as streaming, anything farther as dependent/random.
        auto last = lastSiteOffset.find(index);
        if (last != lastSiteOffset.end()) {
            const std::uint64_t prev = last->second;
            const std::uint64_t delta =
                offset > prev ? offset - prev : prev - offset;
            if (delta <= seqDeltaBytes)
                site.seqAccesses++;
            else
                site.randAccesses++;
        }
        lastSiteOffset[index] = offset;
    }

    [[noreturn]] static void
    trap(const std::string &message)
    {
        throw TrapException{message};
    }

    void
    step()
    {
        if (++steps > maxSteps)
            trap("step limit exceeded (possible infinite loop)");
        rt.clock().advance(rt.costs().computeCycles);
    }

    std::uint64_t
    hostAlloc(std::uint64_t bytes)
    {
        hostAllocations.push_back(
            std::make_unique<std::byte[]>(bytes ? bytes : 1));
        return reinterpret_cast<std::uint64_t>(
            hostAllocations.back().get());
    }

    /** One value-id entry of a reference-engine frame: the slot plus
     *  the value that last wrote it. */
    struct FrameEntry
    {
        Slot slot;
        const ir::Value *def = nullptr;
    };

    /** Per-call state of the reference engine. */
    struct Frame
    {
        /// Indexed by ir::Value::localId(); sized to the function's
        /// valueIdLimit() on entry (one allocation per call).
        std::vector<FrameEntry> values;

        void
        define(const ir::Value &value, Slot slot)
        {
            FrameEntry &entry = values[value.localId()];
            entry.slot = slot;
            entry.def = &value;
        }

        /// Pinned windows of the chunk cursors chunk.begin created in
        /// this frame.
        std::map<const ir::Instruction *, HostWindow> cursors;
        /// Armed state of epoch-arming guards (loop-invariant hoisting),
        /// consumed by guard.reval (see armedWindow()).
        std::map<const ir::Instruction *, HostWindow> revalStates;
        /// Sanitizer: the latest object window each guard-family
        /// instruction produced (a chunk window is pinned).
        std::map<const ir::Instruction *, HostWindow> sanTransl;
    };

    /**
     * The armed state of an epoch-arming guard that returned @p host: a
     * window with no range, at the current eviction epoch. guard.reval
     * hands @p host back while TfmRuntime::revalidate() finds that
     * epoch unchanged; revalidate() charges the check.
     */
    HostWindow
    armedWindow(std::byte *host) const
    {
        HostWindow armed;
        armed.host = host;
        armed.epoch = rt.runtime().evictionEpoch();
        return armed;
    }

    /// Defined in interpreter.cc (sanitizer runs on the ref engine).
    void sanRecord(Frame &frame, const ir::Instruction &producer,
                   std::uint64_t tagged_addr, std::byte *host);
    void sanRecordAlloc(const ir::Instruction &call_inst,
                        std::uint64_t tagged_addr, std::uint64_t bytes);
    const SanAlloc *sanAllocFor(std::uint64_t offset) const;
    void sanCheck(Frame &frame, const ir::Instruction &inst,
                  std::uint64_t addr, std::uint32_t bytes,
                  bool is_store);

    Slot
    valueOf(Frame &frame, const ir::Value *value)
    {
        if (value->isConstant()) {
            const auto *constant =
                static_cast<const ir::Constant *>(value);
            Slot slot;
            if (constant->type() == ir::Type::F64)
                slot.f = constant->floatValue();
            else
                slot.i =
                    static_cast<std::uint64_t>(constant->intValue());
            return slot;
        }
        // The stamp check keeps use-before-def detection, and rejects
        // an operand of another function whose id merely collides.
        const std::uint32_t id = value->localId();
        if (id >= frame.values.size() || frame.values[id].def != value)
            trap("use of undefined value %" + value->name());
        return frame.values[id].slot;
    }

    /** Raw memory access; traps on tagged (unguarded) addresses. */
    void
    rawAccess(std::uint64_t addr, void *buffer, std::uint32_t bytes,
              bool is_store)
    {
        if (pgIsTagged(addr)) {
            // Paged-plane pointer (hybrid arbiter): the "hardware" maps
            // it through the page table — fault accounting in the paged
            // plane, data through the shared far heap. No guard runs.
            if (is_store)
                rt.pagedWrite(addr, buffer, bytes);
            else
                rt.pagedRead(addr, buffer, bytes);
            recordAccess(addr);
            return;
        }
        if (tfmIsTagged(addr)) {
            trap("general protection fault: unguarded access to "
                 "non-canonical address (missing TrackFM guard)");
        }
        if (addr == 0)
            trap("null pointer dereference");
        if (is_store)
            std::memcpy(reinterpret_cast<void *>(addr), buffer, bytes);
        else
            std::memcpy(buffer, reinterpret_cast<void *>(addr), bytes);
    }

    Slot
    loadFrom(std::uint64_t addr, ir::Type type)
    {
        Slot slot;
        const std::uint32_t bytes = ir::sizeOf(type);
        if (type == ir::Type::F64) {
            rawAccess(addr, &slot.f, bytes, false);
        } else {
            std::uint64_t raw = 0;
            rawAccess(addr, &raw, bytes, false);
            slot.i = raw;
        }
        return slot;
    }

    void
    storeTo(std::uint64_t addr, Slot slot, ir::Type type)
    {
        const std::uint32_t bytes = ir::sizeOf(type);
        if (type == ir::Type::F64)
            rawAccess(addr, &slot.f, bytes, true);
        else
            rawAccess(addr, &slot.i, bytes, true);
    }

    /** Trap where the runtime would panic: @p count * @p size bytes
     *  the far heap cannot hold (an overflowing calloc allocates
     *  nothing and returns null). */
    void
    requireFarHeap(std::uint64_t count, std::uint64_t size = 1)
    {
        if (!TfmRuntime::callocOverflows(count, size) &&
            !rt.runtime().allocator().fits(count * size)) {
            trap("far heap exhausted: " + std::to_string(count * size) +
                 "-byte allocation");
        }
    }

    /**
     * Execute one interpreter intrinsic. @p arg lazily resolves call
     * operands (the reference engine looks values up on demand, so an
     * undefined operand of a later parameter must not trap before an
     * earlier one does).
     */
    template <typename ArgFn>
    Slot
    runBuiltin(Builtin builtin, const ir::Instruction &inst,
               ArgFn &&arg)
    {
        Slot result;
        switch (builtin) {
        case Builtin::RuntimeInit:
            // Hook inserted by RuntimeInitPass; the runtime in this
            // harness is constructed eagerly, so this is a marker.
            return result;
        case Builtin::TfmMalloc:
        case Builtin::PgMalloc: {
            const std::uint64_t bytes = arg(0).i;
            requireFarHeap(bytes);
            result.i = builtin == Builtin::TfmMalloc ? rt.tfmMalloc(bytes)
                                                     : rt.pagedMalloc(bytes);
            recordAllocation(inst, result.i, bytes);
            sanRecordAlloc(inst, result.i, bytes);
            return result;
        }
        case Builtin::TfmCalloc:
        case Builtin::PgCalloc: {
            const std::uint64_t bytes = arg(0).i * arg(1).i;
            requireFarHeap(arg(0).i, arg(1).i);
            result.i = builtin == Builtin::TfmCalloc
                           ? rt.tfmCalloc(arg(0).i, arg(1).i)
                           : rt.pagedCalloc(arg(0).i, arg(1).i);
            recordAllocation(inst, result.i, bytes);
            sanRecordAlloc(inst, result.i, bytes);
            return result;
        }
        case Builtin::HostMalloc:
            // A pruned (hot, local-only) allocation, or an
            // untransformed program's host heap.
            result.i = hostAlloc(arg(0).i);
            return result;
        case Builtin::HostCalloc: {
            const std::uint64_t bytes = arg(0).i * arg(1).i;
            result.i = hostAlloc(bytes);
            std::memset(reinterpret_cast<void *>(result.i), 0, bytes);
            return result;
        }
        case Builtin::TfmRealloc: {
            const std::uint64_t old_addr = arg(0).i;
            requireFarHeap(arg(1).i);
            result.i = rt.tfmRealloc(old_addr, arg(1).i);
            if (sanitizing && tfmIsTagged(old_addr))
                sanAllocs.erase(tfmOffsetOf(old_addr));
            sanRecordAlloc(inst, result.i, arg(1).i);
            return result;
        }
        case Builtin::TfmFree:
            if (sanitizing && tfmIsTagged(arg(0).i))
                sanAllocs.erase(tfmOffsetOf(arg(0).i));
            rt.tfmFree(arg(0).i);
            return result;
        case Builtin::HostFree:
            return result; // host arena frees at interpreter teardown
        case Builtin::PrintI64:
            output.push_back(static_cast<std::int64_t>(arg(0).i));
            return result;
        case Builtin::EvacuateAll:
            // Test/bench hook: force a full evacuation mid-program so
            // hoisted guards must take the revalidation-miss path.
            rt.runtime().evacuateAll();
            rt.evacuatePaged();
            return result;
        case Builtin::PgFree:
            if (sanitizing && pgIsTagged(arg(0).i))
                sanAllocs.erase(tfmOffsetOf(arg(0).i));
            rt.pagedFree(arg(0).i);
            return result;
        case Builtin::None:
            break;
        }
        return result;
    }

    /** A call instruction's target, resolved on first execution. */
    struct CallSite
    {
        Builtin builtin = Builtin::None;
        /// User callee; null for a builtin or an unknown function.
        const ir::Function *target = nullptr;
    };
    /// Reference engine: call instruction -> resolved target.
    std::unordered_map<const ir::Instruction *, CallSite> callSites;

    /** Defined in interpreter.cc: intrinsics plus user calls. */
    Slot callIntrinsicOrFunction(Frame &frame,
                                 const ir::Instruction &inst,
                                 int depth);

    /** The tree-walking reference engine (interpreter.cc). */
    Slot execFunctionRef(const ir::Function &function, const Slot *args,
                         std::size_t nargs, int depth);

    /** @name Bytecode engine (bytecode.cc)
     * @{ */
    /** Compile the module once (idempotent). */
    void ensureCompiled();
    /** Run one compiled function on the register VM. */
    Slot runBytecode(const bc::Function &fn, const Slot *args,
                     std::size_t nargs, int depth);
    /** @} */

    /** True when calls should prefer compiled bytecode. */
    bool
    useBytecode() const
    {
        return engine == InterpEngine::Bytecode && !sanitizing;
    }

    /**
     * Invoke @p function on whichever engine can run it: compiled
     * bytecode when available, the reference engine otherwise (engine
     * forced to ref, sanitizer active, or per-function compile
     * bailout). The only inter-frame interface is the argument/return
     * slots plus this shared Impl state, so frames may mix engines.
     */
    Slot
    callFunction(const ir::Function &function, const Slot *args,
                 std::size_t nargs, int depth)
    {
        if (useBytecode()) {
            auto it = bcode.functions.find(&function);
            if (it != bcode.functions.end() && it->second.ok)
                return runBytecode(it->second, args, nargs, depth);
        }
        return execFunctionRef(function, args, nargs, depth);
    }
};

} // namespace tfm

#endif // TRACKFM_INTERP_EXEC_STATE_HH
