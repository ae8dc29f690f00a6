/**
 * @file
 * The tree-walking reference engine, plus the Interpreter facade.
 *
 * This engine resolves every operand lazily through the frame — a flat
 * array indexed by the IR's per-function value ids, each entry stamped
 * with the value that wrote it — which makes it the semantic baseline
 * the bytecode engine (bytecode.cc) must match bit-exactly, and the
 * only engine that can execute IR the bytecode compiler bails out on
 * (non-canonical SSA, uses of undefined values) with faithful trap
 * behavior. It shares no code with the bytecode compiler or its
 * register allocator. The far-memory sanitizer runs exclusively here.
 */

#include "interp/exec_state.hh"

#include <chrono>

#include "analysis/guard_safety.hh"
#include "obs/obs.hh"

namespace tfm
{

void
Interpreter::Impl::enableProfiling()
{
    profiling = true;
    std::uint32_t ordinal = 0;
    for (const auto &function : module.allFunctions()) {
        for (const auto &block : function->basicBlocks()) {
            for (const auto &inst : block->instructions()) {
                if (inst->op() == ir::Opcode::Call &&
                    isAllocationCallee(inst->callee)) {
                    siteOrdinals[inst.get()] = ordinal;
                    AllocSiteProfile::Site site;
                    site.function = function->name();
                    site.ordinal = ordinal;
                    profile.sites.push_back(site);
                    ordinal++;
                }
            }
        }
    }
}

void
Interpreter::Impl::enableSanitizer()
{
    sanitizing = true;
    sanRoots.clear();
    for (const auto &function : module.allFunctions()) {
        for (const auto &block : function->basicBlocks()) {
            for (const auto &inst : block->instructions()) {
                const bool is_load = inst->op() == ir::Opcode::Load;
                const bool is_store = inst->op() == ir::Opcode::Store;
                if (!is_load && !is_store)
                    continue;
                const ir::Instruction *root = guardRootProducer(
                    inst->operand(is_load ? 0 : 1));
                if (root)
                    sanRoots[inst.get()] = root;
            }
        }
    }
}

/** Sanitizer bookkeeping for a guard's translation: the window over
 *  the guarded object at the current eviction epoch. An untagged
 *  (custody-rejected) address erases the entry instead so the map
 *  always mirrors the producer's latest execution. */
void
Interpreter::Impl::sanRecord(Frame &frame,
                             const ir::Instruction &producer,
                             std::uint64_t tagged_addr, std::byte *host)
{
    if (!sanitizing)
        return;
    if (!tfmIsTagged(tagged_addr)) {
        frame.sanTransl.erase(&producer);
        return;
    }
    FarMemRuntime &runtime = rt.runtime();
    frame.sanTransl[&producer] =
        runtime.objectWindow(tfmOffsetOf(tagged_addr), host,
                             runtime.evictionEpoch(), /*writable=*/true);
}

/** Track a live far-heap allocation for the sanitizer. */
void
Interpreter::Impl::sanRecordAlloc(const ir::Instruction &call_inst,
                                  std::uint64_t tagged_addr,
                                  std::uint64_t bytes)
{
    if (!sanitizing || !(tfmIsTagged(tagged_addr) || pgIsTagged(tagged_addr)))
        return;
    SanAlloc alloc;
    alloc.end = tfmOffsetOf(tagged_addr) + bytes;
    alloc.desc = call_inst.callee;
    if (call_inst.debugLine > 0) {
        alloc.desc += " (line " + std::to_string(call_inst.debugLine) +
                      ":" + std::to_string(call_inst.debugCol) + ")";
    }
    sanAllocs[tfmOffsetOf(tagged_addr)] = std::move(alloc);
}

/** The live allocation covering @p offset, or null. */
const Interpreter::Impl::SanAlloc *
Interpreter::Impl::sanAllocFor(std::uint64_t offset) const
{
    auto it = sanAllocs.upper_bound(offset);
    if (it == sanAllocs.begin())
        return nullptr;
    --it;
    return offset < it->second.end ? &it->second : nullptr;
}

namespace
{

std::string
sanWhere(const ir::Instruction &inst)
{
    if (inst.debugLine <= 0)
        return std::string();
    return " at line " + std::to_string(inst.debugLine) + ":" +
           std::to_string(inst.debugCol);
}

} // anonymous namespace

/** Validate one guard-mediated memory access. */
void
Interpreter::Impl::sanCheck(Frame &frame, const ir::Instruction &inst,
                            std::uint64_t addr, std::uint32_t bytes,
                            bool is_store)
{
    if (tfmIsTagged(addr))
        return; // rawAccess raises the GP-fault analogue itself
    auto root_it = sanRoots.find(&inst);
    if (root_it == sanRoots.end())
        return; // address never flowed through a guard
    const ir::Instruction *root = root_it->second;
    auto transl_it = frame.sanTransl.find(root);
    if (transl_it == frame.sanTransl.end())
        return; // producer only ever saw untagged pointers
    const HostWindow &transl = transl_it->second;
    const std::string access =
        std::string(is_store ? "store" : "load") + sanWhere(inst);
    const SanAlloc *home = sanAllocFor(transl.begin);
    const std::string origin =
        home ? "; object allocated by " + home->desc : std::string();
    // A translation is valid until the next runtime entry; any
    // eviction/evacuation since arming poisons it.
    if (!transl.live(rt.runtime().evictionEpoch())) {
        trap("farmem-sanitizer: use-after-eviction: " + access +
             " dereferences a stale translation from %" + root->name() +
             " (guarded at epoch " + std::to_string(transl.epoch) +
             ", evacuation advanced the epoch to " +
             std::to_string(rt.runtime().evictionEpoch()) + ")" +
             origin);
    }
    const auto frame_start = reinterpret_cast<std::uint64_t>(transl.host);
    const std::uint64_t frame_bytes = transl.end - transl.begin;
    if (addr < frame_start || addr + bytes > frame_start + frame_bytes) {
        trap("farmem-sanitizer: " + access +
             " escapes the guarded object frame of %" + root->name() +
             " (frame offset " +
             std::to_string(static_cast<std::int64_t>(addr - frame_start)) +
             ", frame is " + std::to_string(frame_bytes) + " bytes)" +
             origin);
    }
    const std::uint64_t mapped = transl.begin + (addr - frame_start);
    const SanAlloc *alloc = sanAllocFor(mapped);
    if (!alloc || mapped + bytes > alloc->end) {
        trap("farmem-sanitizer: " + access +
             " maps to far-heap offset " + std::to_string(mapped) +
             " outside any live allocation (via %" + root->name() +
             ")" + origin);
    }
}

Slot
Interpreter::Impl::callIntrinsicOrFunction(Frame &frame,
                                           const ir::Instruction &inst,
                                           int depth)
{
    auto arg = [&](std::size_t index) {
        return valueOf(frame, inst.operand(index));
    };
    auto [site_it, fresh] = callSites.try_emplace(&inst);
    CallSite &site = site_it->second;
    if (fresh) {
        site.builtin = builtinOf(inst.callee);
        if (site.builtin == Builtin::None)
            site.target = module.findFunction(inst.callee);
    }
    if (site.builtin != Builtin::None)
        return runBuiltin(site.builtin, inst, arg);

    if (!site.target)
        trap("call to unknown function @" + inst.callee);
    if (depth > 200)
        trap("call depth limit exceeded");
    // Arguments live on the host stack; only an unusually wide call
    // spills to the heap.
    constexpr std::size_t inlineArgs = 8;
    Slot inline_args[inlineArgs];
    std::vector<Slot> spilled;
    const std::size_t nargs = inst.numOperands();
    Slot *call_args = inline_args;
    if (nargs > inlineArgs) {
        spilled.resize(nargs);
        call_args = spilled.data();
    }
    for (std::size_t i = 0; i < nargs; i++)
        call_args[i] = arg(i);
    // Route through the engine dispatcher: a reference-engine frame
    // may call into a compiled callee and vice versa.
    return callFunction(*site.target, call_args, nargs, depth + 1);
}

Slot
Interpreter::Impl::execFunctionRef(const ir::Function &function,
                                   const Slot *args, std::size_t nargs,
                                   int depth)
{
    Frame frame;
    // Release chunk pins owned by this frame (on return or trap).
    auto releaseCursors = [&] {
        for (auto &[begin, cursor] : frame.cursors) {
            (void)begin;
            rt.endChunk(cursor);
        }
    };
    if (nargs != function.arguments().size())
        trap("argument count mismatch calling @" + function.name());
    frame.values.resize(function.valueIdLimit());
    for (std::size_t i = 0; i < nargs; i++)
        frame.define(*function.arguments()[i], args[i]);

    const ir::BasicBlock *block = function.entry();
    const ir::BasicBlock *previous = nullptr;
    if (!block)
        trap("function @" + function.name() + " has no entry");

    // Hoisted out of the block loop so its capacity is reused across
    // block entries instead of reallocating per iteration.
    std::vector<std::pair<const ir::Value *, Slot>> phi_values;

    try {
        while (true) {
            // Phi nodes evaluate simultaneously on block entry.
            phi_values.clear();
            for (const auto &inst : block->instructions()) {
                if (inst->op() != ir::Opcode::Phi)
                    break;
                bool matched = false;
                for (const auto &[incoming, pred] : inst->incoming()) {
                    if (pred == previous) {
                        phi_values.emplace_back(
                            inst.get(), valueOf(frame, incoming));
                        matched = true;
                        break;
                    }
                }
                if (!matched)
                    trap("phi without incoming for predecessor");
                step();
            }
            for (const auto &[phi, slot] : phi_values)
                frame.define(*phi, slot);

            const ir::BasicBlock *next = nullptr;
            for (const auto &owned : block->instructions()) {
                const ir::Instruction &inst = *owned;
                if (inst.op() == ir::Opcode::Phi)
                    continue;
                step();
                Slot result;
                switch (inst.op()) {
                  case ir::Opcode::Alloca:
                    result.i = hostAlloc(
                        static_cast<std::uint64_t>(inst.imm));
                    break;
                  case ir::Opcode::Load: {
                    const std::uint64_t addr =
                        valueOf(frame, inst.operand(0)).i;
                    if (sanitizing) {
                        sanCheck(frame, inst, addr,
                                 ir::sizeOf(inst.type()), false);
                    }
                    result = loadFrom(addr, inst.type());
                    break;
                  }
                  case ir::Opcode::Store: {
                    const std::uint64_t addr =
                        valueOf(frame, inst.operand(1)).i;
                    const ir::Type stored_type =
                        inst.operand(0)->type() == ir::Type::F64
                            ? ir::Type::F64
                            : inst.operand(0)->type();
                    if (sanitizing) {
                        sanCheck(frame, inst, addr,
                                 ir::sizeOf(stored_type), true);
                    }
                    storeTo(addr, valueOf(frame, inst.operand(0)),
                            stored_type);
                    break;
                  }
                  case ir::Opcode::Gep:
                    result.i =
                        valueOf(frame, inst.operand(0)).i +
                        valueOf(frame, inst.operand(1)).i *
                            static_cast<std::uint64_t>(inst.imm);
                    break;
                  case ir::Opcode::Guard: {
                    const std::uint64_t addr =
                        valueOf(frame, inst.operand(0)).i;
                    if (tfmIsTagged(addr))
                        recordAccess(addr);
                    std::byte *host = inst.isWrite
                                          ? rt.guardWrite(addr)
                                          : rt.guardRead(addr);
                    if (inst.armsEpoch)
                        frame.revalStates[&inst] = armedWindow(host);
                    sanRecord(frame, inst, addr, host);
                    result.i = reinterpret_cast<std::uint64_t>(host);
                    break;
                  }
                  case ir::Opcode::GuardReval: {
                    const auto *armer =
                        static_cast<const ir::Instruction *>(
                            inst.operand(0));
                    const std::uint64_t addr =
                        valueOf(frame, inst.operand(1)).i;
                    auto armed_it = frame.revalStates.find(armer);
                    if (armed_it == frame.revalStates.end())
                        trap("guard.reval before its arming guard");
                    auto &armed = armed_it->second;
                    if (tfmIsTagged(addr) &&
                        rt.revalidate(addr, armed.epoch)) {
                        // Epoch unchanged since arming: the host
                        // pointer (and any dirty bit) is still live.
                        sanRecord(frame, inst, addr, armed.host);
                        result.i = reinterpret_cast<std::uint64_t>(
                            armed.host);
                        break;
                    }
                    // Evacuation since arming (or an untagged
                    // pointer): re-run the full guard and re-arm.
                    if (tfmIsTagged(addr))
                        recordAccess(addr);
                    std::byte *host = inst.isWrite
                                          ? rt.guardWrite(addr)
                                          : rt.guardRead(addr);
                    armed = armedWindow(host);
                    sanRecord(frame, inst, addr, host);
                    result.i = reinterpret_cast<std::uint64_t>(host);
                    break;
                  }
                  case ir::Opcode::ChunkBegin: {
                    // (Re)arm the cursor for a fresh loop entry.
                    rt.endChunk(frame.cursors[&inst]);
                    result.i = reinterpret_cast<std::uint64_t>(&inst);
                    break;
                  }
                  case ir::Opcode::ChunkAccess: {
                    const auto *begin =
                        static_cast<const ir::Instruction *>(
                            inst.operand(0));
                    auto cursor_it = frame.cursors.find(begin);
                    if (cursor_it == frame.cursors.end())
                        trap("chunk.access before chunk.begin");
                    auto &cursor = cursor_it->second;
                    const std::uint64_t addr =
                        valueOf(frame, inst.operand(1)).i;
                    if (!tfmIsTagged(addr)) {
                        // Custody check inside the chunk helper.
                        rt.clock().advance(
                            rt.costs().custodyRejectCycles);
                        if (sanitizing)
                            frame.sanTransl.erase(&inst);
                        result.i = addr;
                        break;
                    }
                    recordAccess(addr);
                    const std::uint64_t offset = tfmOffsetOf(addr);
                    // A refill is the locality guard alone: no
                    // boundary check.
                    if (!cursor.bytes(offset, false))
                        rt.localityGuard(addr, cursor, inst.isWrite);
                    else
                        rt.boundaryCheck();
                    result.i =
                        reinterpret_cast<std::uint64_t>(cursor.at(offset));
                    // Chunk windows stay pinned (eviction-proof)
                    // until the cursor moves or is released.
                    if (sanitizing)
                        frame.sanTransl[&inst] = cursor;
                    break;
                  }
                  case ir::Opcode::Prefetch: {
                    const std::uint64_t addr =
                        valueOf(frame, inst.operand(0)).i;
                    if (tfmIsTagged(addr)) {
                        rt.prefetchAhead(
                            addr, 1,
                            static_cast<std::uint32_t>(inst.imm));
                    }
                    break;
                  }
                  case ir::Opcode::Add:
                    result.i = valueOf(frame, inst.operand(0)).i +
                               valueOf(frame, inst.operand(1)).i;
                    break;
                  case ir::Opcode::Sub:
                    result.i = valueOf(frame, inst.operand(0)).i -
                               valueOf(frame, inst.operand(1)).i;
                    break;
                  case ir::Opcode::Mul:
                    result.i = valueOf(frame, inst.operand(0)).i *
                               valueOf(frame, inst.operand(1)).i;
                    break;
                  case ir::Opcode::SDiv: {
                    const auto divisor = static_cast<std::int64_t>(
                        valueOf(frame, inst.operand(1)).i);
                    if (divisor == 0)
                        trap("division by zero");
                    result.i = static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(
                            valueOf(frame, inst.operand(0)).i) /
                        divisor);
                    break;
                  }
                  case ir::Opcode::SRem: {
                    const auto divisor = static_cast<std::int64_t>(
                        valueOf(frame, inst.operand(1)).i);
                    if (divisor == 0)
                        trap("remainder by zero");
                    result.i = static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(
                            valueOf(frame, inst.operand(0)).i) %
                        divisor);
                    break;
                  }
                  case ir::Opcode::And:
                    result.i = valueOf(frame, inst.operand(0)).i &
                               valueOf(frame, inst.operand(1)).i;
                    break;
                  case ir::Opcode::Or:
                    result.i = valueOf(frame, inst.operand(0)).i |
                               valueOf(frame, inst.operand(1)).i;
                    break;
                  case ir::Opcode::Xor:
                    result.i = valueOf(frame, inst.operand(0)).i ^
                               valueOf(frame, inst.operand(1)).i;
                    break;
                  case ir::Opcode::Shl:
                    result.i = valueOf(frame, inst.operand(0)).i
                               << (valueOf(frame, inst.operand(1)).i &
                                   63);
                    break;
                  case ir::Opcode::LShr:
                    result.i = valueOf(frame, inst.operand(0)).i >>
                               (valueOf(frame, inst.operand(1)).i & 63);
                    break;
                  case ir::Opcode::FAdd:
                    result.f = valueOf(frame, inst.operand(0)).f +
                               valueOf(frame, inst.operand(1)).f;
                    break;
                  case ir::Opcode::FSub:
                    result.f = valueOf(frame, inst.operand(0)).f -
                               valueOf(frame, inst.operand(1)).f;
                    break;
                  case ir::Opcode::FMul:
                    result.f = valueOf(frame, inst.operand(0)).f *
                               valueOf(frame, inst.operand(1)).f;
                    break;
                  case ir::Opcode::FDiv:
                    result.f = valueOf(frame, inst.operand(0)).f /
                               valueOf(frame, inst.operand(1)).f;
                    break;
                  case ir::Opcode::ICmpEq:
                  case ir::Opcode::ICmpNe:
                  case ir::Opcode::ICmpSlt:
                  case ir::Opcode::ICmpSle:
                  case ir::Opcode::ICmpSgt:
                  case ir::Opcode::ICmpSge: {
                    const auto lhs = static_cast<std::int64_t>(
                        valueOf(frame, inst.operand(0)).i);
                    const auto rhs = static_cast<std::int64_t>(
                        valueOf(frame, inst.operand(1)).i);
                    bool truth = false;
                    switch (inst.op()) {
                      case ir::Opcode::ICmpEq:
                        truth = lhs == rhs;
                        break;
                      case ir::Opcode::ICmpNe:
                        truth = lhs != rhs;
                        break;
                      case ir::Opcode::ICmpSlt:
                        truth = lhs < rhs;
                        break;
                      case ir::Opcode::ICmpSle:
                        truth = lhs <= rhs;
                        break;
                      case ir::Opcode::ICmpSgt:
                        truth = lhs > rhs;
                        break;
                      default:
                        truth = lhs >= rhs;
                        break;
                    }
                    result.i = truth;
                    break;
                  }
                  case ir::Opcode::FCmpOlt:
                    result.i = valueOf(frame, inst.operand(0)).f <
                               valueOf(frame, inst.operand(1)).f;
                    break;
                  case ir::Opcode::Zext:
                  case ir::Opcode::PtrToInt:
                  case ir::Opcode::IntToPtr:
                    result.i = valueOf(frame, inst.operand(0)).i;
                    break;
                  case ir::Opcode::Trunc: {
                    const std::uint32_t bits =
                        ir::sizeOf(inst.type()) * 8;
                    const std::uint64_t mask =
                        bits >= 64 ? ~0ull : ((1ull << bits) - 1);
                    result.i =
                        valueOf(frame, inst.operand(0)).i & mask;
                    break;
                  }
                  case ir::Opcode::SIToFP:
                    result.f = static_cast<double>(
                        static_cast<std::int64_t>(
                            valueOf(frame, inst.operand(0)).i));
                    break;
                  case ir::Opcode::FPToSI:
                    result.i = static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(
                            valueOf(frame, inst.operand(0)).f));
                    break;
                  case ir::Opcode::Call:
                    result =
                        callIntrinsicOrFunction(frame, inst, depth);
                    break;
                  case ir::Opcode::Br:
                    next = inst.succ0;
                    break;
                  case ir::Opcode::CondBr:
                    next = valueOf(frame, inst.operand(0)).i
                               ? inst.succ0
                               : inst.succ1;
                    break;
                  case ir::Opcode::Ret: {
                    Slot returned;
                    if (inst.numOperands() > 0)
                        returned = valueOf(frame, inst.operand(0));
                    releaseCursors();
                    return returned;
                  }
                  case ir::Opcode::Phi:
                    break; // handled above
                }
                if (inst.type() != ir::Type::Void &&
                    !inst.name().empty()) {
                    frame.define(inst, result);
                }
            }
            if (!next)
                trap("block fell through without a terminator");
            // Frame entries exist only for this function's value ids.
            if (next->parent() != &function)
                trap("branch to foreign block " + next->name());
            previous = block;
            block = next;
        }
    } catch (TrapException &) {
        releaseCursors();
        throw;
    }
}

Interpreter::Interpreter(const ir::Module &module, TfmRuntime &runtime)
    : impl(std::make_unique<Impl>(module, runtime))
{}

Interpreter::~Interpreter() = default;

void
Interpreter::enableAllocationProfiling()
{
    impl->enableProfiling();
}

void
Interpreter::enableSanitizer()
{
    impl->enableSanitizer();
}

AllocSiteProfile
Interpreter::allocationProfile() const
{
    return impl->profile;
}

RunResult
Interpreter::run(const std::string &function_name,
                 const std::vector<std::int64_t> &args)
{
    RunResult result;
    impl->engine = engine;
    result.engine = impl->useBytecode() ? "bytecode" : "ref";
    const ir::Function *function =
        impl->module.findFunction(function_name);
    if (!function) {
        result.trapped = true;
        result.trapMessage = "no such function @" + function_name;
        return result;
    }
    impl->steps = 0;
    impl->maxSteps = maxSteps;
    impl->output.clear();
    impl->guardFastHits = 0;
    if (impl->useBytecode())
        impl->ensureCompiled();
    std::vector<Slot> slots;
    for (const std::int64_t value : args) {
        Slot slot;
        slot.i = static_cast<std::uint64_t>(value);
        slots.push_back(slot);
    }
    const auto wall_begin = std::chrono::steady_clock::now();
    try {
        const Slot returned = impl->callFunction(
            *function, slots.data(), slots.size(), 0);
        result.returnValue = static_cast<std::int64_t>(returned.i);
        result.returnFloat = returned.f;
    } catch (TrapException &trap_info) {
        result.trapped = true;
        result.trapMessage = trap_info.message;
    }
    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_begin)
            .count();
    result.instructionsExecuted = impl->steps;
    result.output = impl->output;
    result.guardFastHits = impl->guardFastHits;

    // Dispatch-rate observability: per-run instruction rate and inline
    // guard-cache hits, on the runtime's trace stream.
    Observability *obs = impl->rt.runtime().obs();
    if (obs && obs->trace().enabled()) {
        const std::uint64_t rate =
            result.wallSeconds > 0.0
                ? static_cast<std::uint64_t>(
                      static_cast<double>(result.instructionsExecuted) /
                      result.wallSeconds)
                : 0;
        const std::uint64_t now = impl->rt.clock().now();
        obs->trace().counter(impl->rt.runtime().obsStream(),
                             "interp.instRate", now, rate);
        obs->trace().counter(impl->rt.runtime().obsStream(),
                             "interp.guardFastHits", now,
                             result.guardFastHits);
    }
    return result;
}

} // namespace tfm
