/**
 * @file
 * Bytecode engine: per-function compiler and register-VM dispatch.
 *
 * Compilation proves, per function, that every operand is defined at
 * each use (dominance), that blocks are canonical (leading phis,
 * terminator last), and resolves every value to a register, every phi
 * to an edge move list, every call to a CallSite, and every statically
 * doomed instruction to a Trap with the reference engine's message.
 * Anything unprovable throws Bail and the function stays on the
 * reference engine — so the dispatch loop itself contains no lazy
 * "undefined value" checks at all.
 *
 * The dispatch loop is direct-threaded (computed goto) when the build
 * defines TFM_COMPUTED_GOTO on a GNU-compatible compiler, with a
 * portable switch fallback. The guard-level last-object cache is
 * probed inline (TfmRuntime::guardCacheFastPath), so a cache-hit
 * guard never leaves the engine.
 */

#include "interp/exec_state.hh"

#include <cstring>
#include <optional>

#include "analysis/cfg.hh"
#include "analysis/dominators.hh"
#include "ir/instruction.hh"

namespace tfm
{

Builtin
builtinOf(const std::string &callee)
{
    if (callee == "tfm_runtime_init")
        return Builtin::RuntimeInit;
    if (callee == "tfm_malloc")
        return Builtin::TfmMalloc;
    if (callee == "tfm_calloc")
        return Builtin::TfmCalloc;
    if (callee == "host_malloc" || callee == "malloc")
        return Builtin::HostMalloc;
    if (callee == "host_calloc" || callee == "calloc")
        return Builtin::HostCalloc;
    if (callee == "tfm_realloc")
        return Builtin::TfmRealloc;
    if (callee == "tfm_free")
        return Builtin::TfmFree;
    if (callee == "free")
        return Builtin::HostFree;
    if (callee == "print_i64")
        return Builtin::PrintI64;
    if (callee == "tfm_evacuate_all")
        return Builtin::EvacuateAll;
    if (callee == "pg_malloc")
        return Builtin::PgMalloc;
    if (callee == "pg_calloc")
        return Builtin::PgCalloc;
    if (callee == "pg_free")
        return Builtin::PgFree;
    return Builtin::None;
}

namespace bc
{

namespace
{

/** Thrown during compilation: fall back to the reference engine. */
struct BailOut
{
    std::string reason;
};

/** Operands a builtin reads (the reference engine resolves lazily). */
std::size_t
builtinArgsUsed(Builtin builtin)
{
    switch (builtin) {
    case Builtin::TfmMalloc:
    case Builtin::HostMalloc:
    case Builtin::TfmFree:
    case Builtin::PrintI64:
    case Builtin::PgMalloc:
    case Builtin::PgFree:
        return 1;
    case Builtin::TfmCalloc:
    case Builtin::HostCalloc:
    case Builtin::TfmRealloc:
    case Builtin::PgCalloc:
        return 2;
    case Builtin::RuntimeInit:
    case Builtin::HostFree:
    case Builtin::EvacuateAll:
    case Builtin::None:
        break;
    }
    return 0;
}

class Compiler
{
  public:
    Compiler(const ir::Module &module, const ir::Function &function)
        : module(module), fn(function), cfg(function),
          domtree(function, cfg), ra(function)
    {}

    Function run();

  private:
    struct Pos
    {
        const ir::BasicBlock *block = nullptr;
        std::size_t index = 0;
    };

    void scanCanonicalForm() const;
    void indexFunction();
    void lowerBlock(const ir::BasicBlock *block);
    void lowerInst(const ir::Instruction &inst,
                   const ir::BasicBlock *block, std::size_t index);
    void lowerCall(const ir::Instruction &inst,
                   const ir::BasicBlock *block, std::size_t index);

    /** Bail unless @p value is provably defined at (block, index). */
    void requireDefined(const ir::Value *value,
                        const ir::BasicBlock *block,
                        std::size_t index) const;
    std::uint16_t operandReg(const ir::Instruction &inst,
                             std::size_t operand,
                             const ir::BasicBlock *block,
                             std::size_t index) const;
    std::uint32_t makeEdge(const ir::BasicBlock *from,
                           const ir::BasicBlock *to);
    std::uint32_t msgIndex(const std::string &message);
    void emitTrap(const std::string &message, bool charge_step,
                  const ir::Instruction *src);

    std::uint16_t
    dstReg(const ir::Instruction &inst) const
    {
        if (inst.type() != ir::Type::Void && !inst.name().empty())
            return ra.regOf(&inst);
        return RegAlloc::kSink;
    }

    const ir::Module &module;
    const ir::Function &fn;
    Cfg cfg;
    DominatorTree domtree;
    RegAlloc ra;
    Function out;
    std::vector<const ir::BasicBlock *> layout;
    std::map<const ir::Value *, Pos> position;
    std::map<const ir::Value *, std::uint32_t> cursorIndex;
    std::map<const ir::Value *, std::uint32_t> revalIndex;
    std::map<const ir::BasicBlock *, std::uint32_t> blockStart;
    std::vector<const ir::BasicBlock *> edgeTargets;
};

void
Compiler::scanCanonicalForm() const
{
    for (const ir::BasicBlock *block : layout) {
        const auto &insts = block->instructions();
        bool seen_non_phi = false;
        for (std::size_t i = 0; i < insts.size(); i++) {
            const ir::Instruction &inst = *insts[i];
            if (inst.op() == ir::Opcode::Phi) {
                if (seen_non_phi)
                    throw BailOut{"phi after non-phi instruction"};
            } else {
                seen_non_phi = true;
            }
            if (ir::isTerminator(inst.op()) && i + 1 != insts.size())
                throw BailOut{"terminator is not last in its block"};
        }
    }
}

void
Compiler::indexFunction()
{
    for (const ir::BasicBlock *block : layout) {
        const auto &insts = block->instructions();
        for (std::size_t i = 0; i < insts.size(); i++) {
            const ir::Instruction *inst = insts[i].get();
            position[inst] = Pos{block, i};
            if (inst->op() == ir::Opcode::ChunkBegin) {
                cursorIndex[inst] = static_cast<std::uint32_t>(
                    out.cursorOrigins.size());
                out.cursorOrigins.push_back(inst);
            }
            if (inst->op() == ir::Opcode::Guard && inst->armsEpoch)
                revalIndex[inst] = out.numRevals++;
        }
    }
}

void
Compiler::requireDefined(const ir::Value *value,
                         const ir::BasicBlock *block,
                         std::size_t index) const
{
    if (!value->isInstruction()) {
        // Constants and arguments are assigned up front; a miss means
        // the allocator overflowed (caught earlier) — keep the check
        // for safety.
        if (!ra.hasReg(value))
            throw BailOut{"operand without a register"};
        return;
    }
    if (!ra.hasReg(value))
        throw BailOut{"use of an unnamed instruction result"};
    auto it = position.find(value);
    if (it == position.end())
        throw BailOut{"use of a value from an unreachable block"};
    const Pos &def = it->second;
    if (def.block == block) {
        if (def.index >= index)
            throw BailOut{"use before definition in block"};
    } else if (!domtree.dominates(def.block, block)) {
        throw BailOut{"use not dominated by its definition"};
    }
}

std::uint16_t
Compiler::operandReg(const ir::Instruction &inst, std::size_t operand,
                     const ir::BasicBlock *block,
                     std::size_t index) const
{
    const ir::Value *value = inst.operand(operand);
    requireDefined(value, block, index);
    return ra.regOf(value);
}

std::uint32_t
Compiler::makeEdge(const ir::BasicBlock *from, const ir::BasicBlock *to)
{
    if (!to)
        throw BailOut{"null branch successor"};
    Edge edge;
    std::vector<Move> moves;
    for (const auto &owned : to->instructions()) {
        const ir::Instruction &phi = *owned;
        if (phi.op() != ir::Opcode::Phi)
            break;
        const ir::Value *incoming = nullptr;
        for (const auto &[value, pred] : phi.incoming()) {
            if (pred == from) {
                incoming = value;
                break;
            }
        }
        if (!incoming) {
            // The reference engine charges one step per matched phi,
            // then traps on the first unmatched one.
            edge.phiTrap = true;
            break;
        }
        // The incoming must be live at the end of `from`: defined in
        // `from` itself or in a dominator of it. (A phi of `to` used
        // as an incoming reads the previous iteration's value; its
        // block dominating `from` proves it has executed.)
        if (incoming->isInstruction()) {
            if (!ra.hasReg(incoming))
                throw BailOut{"phi incoming without a register"};
            auto it = position.find(incoming);
            if (it == position.end())
                throw BailOut{"phi incoming from unreachable block"};
            const Pos &def = it->second;
            if (def.block != from &&
                !domtree.dominates(def.block, from)) {
                throw BailOut{
                    "phi incoming not dominated by its definition"};
            }
        } else if (!ra.hasReg(incoming)) {
            throw BailOut{"phi incoming without a register"};
        }
        moves.push_back(Move{ra.regOf(&phi), ra.regOf(incoming)});
        edge.phiSteps++;
    }
    if (!edge.phiTrap)
        edge.moves = scheduleParallelMoves(std::move(moves),
                                           RegAlloc::kScratch);
    edgeTargets.push_back(to);
    out.edges.push_back(std::move(edge));
    return static_cast<std::uint32_t>(out.edges.size() - 1);
}

std::uint32_t
Compiler::msgIndex(const std::string &message)
{
    for (std::size_t i = 0; i < out.messages.size(); i++) {
        if (out.messages[i] == message)
            return static_cast<std::uint32_t>(i);
    }
    out.messages.push_back(message);
    return static_cast<std::uint32_t>(out.messages.size() - 1);
}

void
Compiler::emitTrap(const std::string &message, bool charge_step,
                   const ir::Instruction *src)
{
    Inst inst;
    inst.op = Op::Trap;
    inst.flags = charge_step ? kChargeStep : 0;
    inst.aux = msgIndex(message);
    inst.src = src;
    out.code.push_back(inst);
}

void
Compiler::lowerCall(const ir::Instruction &inst,
                    const ir::BasicBlock *block, std::size_t index)
{
    CallSite site;
    site.inst = &inst;
    site.builtin = builtinOf(inst.callee);
    if (site.builtin != Builtin::None) {
        const std::size_t used = builtinArgsUsed(site.builtin);
        if (inst.numOperands() < used)
            throw BailOut{"builtin call with too few arguments"};
        // Only the operands the builtin reads: the reference engine
        // resolves lazily, so a surplus undefined operand never traps.
        for (std::size_t i = 0; i < used; i++)
            site.args.push_back(operandReg(inst, i, block, index));
    } else {
        const ir::Function *target = module.findFunction(inst.callee);
        if (!target) {
            // Unknown callee traps before evaluating any argument.
            emitTrap("call to unknown function @" + inst.callee, true,
                     &inst);
            return;
        }
        for (std::size_t i = 0; i < inst.numOperands(); i++)
            site.args.push_back(operandReg(inst, i, block, index));
        if (inst.numOperands() != target->arguments().size()) {
            // Arguments are evaluated (and proven defined) first;
            // execFunction then rejects the count before any step.
            emitTrap("argument count mismatch calling @" +
                         target->name(),
                     true, &inst);
            return;
        }
        site.target = target;
    }
    Inst b;
    b.op = Op::Call;
    b.dst = dstReg(inst);
    b.aux = static_cast<std::uint32_t>(out.calls.size());
    b.src = &inst;
    out.calls.push_back(std::move(site));
    out.code.push_back(b);
}

void
Compiler::lowerInst(const ir::Instruction &inst,
                    const ir::BasicBlock *block, std::size_t index)
{
    Inst b;
    b.src = &inst;
    b.dst = dstReg(inst);
    auto binop = [&](Op op) {
        b.op = op;
        b.a = operandReg(inst, 0, block, index);
        b.b = operandReg(inst, 1, block, index);
        out.code.push_back(b);
    };
    auto unop = [&](Op op) {
        b.op = op;
        b.a = operandReg(inst, 0, block, index);
        out.code.push_back(b);
    };

    switch (inst.op()) {
    case ir::Opcode::Alloca:
        b.op = Op::Alloca;
        b.imm = inst.imm;
        out.code.push_back(b);
        return;
    case ir::Opcode::Load:
        b.a = operandReg(inst, 0, block, index);
        if (inst.type() == ir::Type::F64) {
            b.op = Op::LoadF;
        } else {
            b.op = Op::LoadI;
            b.aux = ir::sizeOf(inst.type());
        }
        out.code.push_back(b);
        return;
    case ir::Opcode::Store: {
        // Reference order: the address (operand 1) resolves first.
        b.b = operandReg(inst, 1, block, index);
        b.a = operandReg(inst, 0, block, index);
        const ir::Type stored = inst.operand(0)->type() == ir::Type::F64
                                    ? ir::Type::F64
                                    : inst.operand(0)->type();
        if (stored == ir::Type::F64) {
            b.op = Op::StoreF;
        } else {
            b.op = Op::StoreI;
            b.aux = ir::sizeOf(stored);
        }
        out.code.push_back(b);
        return;
    }
    case ir::Opcode::Gep:
        b.op = Op::Gep;
        b.a = operandReg(inst, 0, block, index);
        b.b = operandReg(inst, 1, block, index);
        b.imm = inst.imm;
        out.code.push_back(b);
        return;
    case ir::Opcode::Guard:
        b.op = inst.isWrite ? Op::GuardWrite : Op::GuardRead;
        b.a = operandReg(inst, 0, block, index);
        if (inst.armsEpoch) {
            b.flags |= kArmsEpoch;
            b.aux = revalIndex.at(&inst);
        }
        out.code.push_back(b);
        return;
    case ir::Opcode::GuardReval: {
        // Reference order: the pointer (operand 1) resolves before the
        // armed-state lookup can trap.
        b.a = operandReg(inst, 1, block, index);
        auto it = revalIndex.find(inst.operand(0));
        if (it == revalIndex.end()) {
            // Operand 0 is not a reachable epoch-arming guard of this
            // function, so the frame can never hold its armed state.
            emitTrap("guard.reval before its arming guard", true,
                     &inst);
            return;
        }
        b.op = Op::GuardReval;
        b.aux = it->second;
        if (inst.isWrite)
            b.flags |= kWrite;
        out.code.push_back(b);
        return;
    }
    case ir::Opcode::ChunkBegin:
        b.op = Op::ChunkBegin;
        b.aux = cursorIndex.at(&inst);
        // The cursor token the reference engine returns is the IR
        // instruction's address; both engines share the module, so the
        // value is identical either way.
        b.imm = static_cast<std::int64_t>(
            reinterpret_cast<std::uint64_t>(&inst));
        out.code.push_back(b);
        return;
    case ir::Opcode::ChunkAccess: {
        // Reference order: the cursor lookup traps before operand 1 is
        // even resolved.
        auto it = cursorIndex.find(inst.operand(0));
        if (it == cursorIndex.end()) {
            emitTrap("chunk.access before chunk.begin", true, &inst);
            return;
        }
        b.op = Op::ChunkAccess;
        b.aux = it->second;
        b.a = operandReg(inst, 1, block, index);
        if (inst.isWrite)
            b.flags |= kWrite;
        out.code.push_back(b);
        return;
    }
    case ir::Opcode::Prefetch:
        b.op = Op::Prefetch;
        b.a = operandReg(inst, 0, block, index);
        b.aux = static_cast<std::uint32_t>(inst.imm);
        out.code.push_back(b);
        return;
    case ir::Opcode::Add:
        binop(Op::Add);
        return;
    case ir::Opcode::Sub:
        binop(Op::Sub);
        return;
    case ir::Opcode::Mul:
        binop(Op::Mul);
        return;
    case ir::Opcode::SDiv:
        binop(Op::SDiv);
        return;
    case ir::Opcode::SRem:
        binop(Op::SRem);
        return;
    case ir::Opcode::And:
        binop(Op::And);
        return;
    case ir::Opcode::Or:
        binop(Op::Or);
        return;
    case ir::Opcode::Xor:
        binop(Op::Xor);
        return;
    case ir::Opcode::Shl:
        binop(Op::Shl);
        return;
    case ir::Opcode::LShr:
        binop(Op::LShr);
        return;
    case ir::Opcode::FAdd:
        binop(Op::FAdd);
        return;
    case ir::Opcode::FSub:
        binop(Op::FSub);
        return;
    case ir::Opcode::FMul:
        binop(Op::FMul);
        return;
    case ir::Opcode::FDiv:
        binop(Op::FDiv);
        return;
    case ir::Opcode::ICmpEq:
        binop(Op::ICmpEq);
        return;
    case ir::Opcode::ICmpNe:
        binop(Op::ICmpNe);
        return;
    case ir::Opcode::ICmpSlt:
        binop(Op::ICmpSlt);
        return;
    case ir::Opcode::ICmpSle:
        binop(Op::ICmpSle);
        return;
    case ir::Opcode::ICmpSgt:
        binop(Op::ICmpSgt);
        return;
    case ir::Opcode::ICmpSge:
        binop(Op::ICmpSge);
        return;
    case ir::Opcode::FCmpOlt:
        binop(Op::FCmpOlt);
        return;
    case ir::Opcode::Zext:
    case ir::Opcode::PtrToInt:
    case ir::Opcode::IntToPtr:
        unop(Op::CopyI);
        return;
    case ir::Opcode::Trunc: {
        const std::uint32_t bits = ir::sizeOf(inst.type()) * 8;
        const std::uint64_t mask =
            bits >= 64 ? ~0ull : ((1ull << bits) - 1);
        b.op = Op::TruncI;
        b.a = operandReg(inst, 0, block, index);
        b.imm = static_cast<std::int64_t>(mask);
        out.code.push_back(b);
        return;
    }
    case ir::Opcode::SIToFP:
        unop(Op::SIToFP);
        return;
    case ir::Opcode::FPToSI:
        unop(Op::FPToSI);
        return;
    case ir::Opcode::Call:
        lowerCall(inst, block, index);
        return;
    case ir::Opcode::Br:
        b.op = Op::Br;
        b.aux = makeEdge(block, inst.succ0);
        out.code.push_back(b);
        return;
    case ir::Opcode::CondBr:
        b.op = Op::CondBr;
        b.a = operandReg(inst, 0, block, index);
        b.aux = makeEdge(block, inst.succ0);
        b.imm = static_cast<std::int64_t>(makeEdge(block, inst.succ1));
        out.code.push_back(b);
        return;
    case ir::Opcode::Ret:
        if (inst.numOperands() > 0) {
            b.op = Op::Ret;
            b.a = operandReg(inst, 0, block, index);
        } else {
            b.op = Op::RetVoid;
        }
        out.code.push_back(b);
        return;
    case ir::Opcode::Phi:
        return; // handled on edges; skipped by lowerBlock
    }
}

void
Compiler::lowerBlock(const ir::BasicBlock *block)
{
    blockStart[block] =
        static_cast<std::uint32_t>(out.code.size());
    const auto &insts = block->instructions();
    bool terminated = false;
    for (std::size_t i = 0; i < insts.size(); i++) {
        const ir::Instruction &inst = *insts[i];
        if (inst.op() == ir::Opcode::Phi)
            continue;
        lowerInst(inst, block, i);
        terminated |= ir::isTerminator(inst.op());
    }
    if (!terminated) {
        // The reference engine executes the whole block (each charging
        // a step), then traps with no extra step.
        emitTrap("block fell through without a terminator", false,
                 nullptr);
    }
}

Function
Compiler::run()
{
    out.source = &fn;
    if (!fn.entry())
        throw BailOut{"function has no entry block"};
    if (!ra.ok())
        throw BailOut{"register file overflow"};

    for (const auto &block : fn.basicBlocks()) {
        if (cfg.reachable(block.get()))
            layout.push_back(block.get());
    }
    scanCanonicalForm();
    indexFunction();

    out.numRegs = ra.numRegs();
    out.initRegs = ra.initRegs();
    out.argRegs = ra.argRegs();
    // Entering the entry block, "previous" is null: a leading phi can
    // never match an incoming and traps before charging any step.
    const auto &entry_insts = fn.entry()->instructions();
    out.entryPhiTrap = !entry_insts.empty() &&
                       entry_insts.front()->op() == ir::Opcode::Phi;

    for (const ir::BasicBlock *block : layout)
        lowerBlock(block);
    for (std::size_t i = 0; i < out.edges.size(); i++) {
        // Only unverified IR branches into another function's block;
        // the reference engine traps on it.
        const auto target = blockStart.find(edgeTargets[i]);
        if (target == blockStart.end())
            throw BailOut{"branch to a block of another function"};
        out.edges[i].target = target->second;
    }

    out.ok = true;
    return out;
}

} // anonymous namespace

Module
compileModule(const ir::Module &module)
{
    Module compiled;
    for (const auto &function : module.allFunctions()) {
        try {
            Compiler compiler(module, *function);
            compiled.functions[function.get()] = compiler.run();
        } catch (const BailOut &bail) {
            Function failed;
            failed.source = function.get();
            failed.bailReason = bail.reason;
            compiled.functions[function.get()] = std::move(failed);
        }
    }
    return compiled;
}

} // namespace bc

void
Interpreter::Impl::ensureCompiled()
{
    if (bcodeReady)
        return;
    bcode = bc::compileModule(module);
    bcodeReady = true;
}

#if defined(TFM_COMPUTED_GOTO) && (defined(__GNUC__) || defined(__clang__))
#define TFM_USE_THREADED_DISPATCH 1
#endif

// One interpreter step: runaway protection plus the per-instruction
// compute-cycle charge (identical to the reference engine's step()).
#define VM_STEP()                                                      \
    do {                                                               \
        if (++steps > maxSteps)                                        \
            trap("step limit exceeded (possible infinite loop)");      \
        clk.advance(stepCycles);                                       \
    } while (0)

#ifdef TFM_USE_THREADED_DISPATCH
#define VM_CASE(n) L_##n:
#define VM_NEXT()                                                      \
    do {                                                               \
        ++in;                                                          \
        goto *kDispatch[static_cast<int>(in->op)];                     \
    } while (0)
#define VM_JUMP(p)                                                     \
    do {                                                               \
        in = (p);                                                      \
        goto *kDispatch[static_cast<int>(in->op)];                     \
    } while (0)
#else
#define VM_CASE(n) case bc::Op::n:
#define VM_NEXT()                                                      \
    do {                                                               \
        ++in;                                                          \
        goto dispatch;                                                 \
    } while (0)
#define VM_JUMP(p)                                                     \
    do {                                                               \
        in = (p);                                                      \
        goto dispatch;                                                 \
    } while (0)
#endif

Slot
Interpreter::Impl::runBytecode(const bc::Function &F, const Slot *args,
                               std::size_t nargs, int depth)
{
    const ir::Function &source = *F.source;
    if (nargs != source.arguments().size())
        trap("argument count mismatch calling @" + source.name());
    if (F.entryPhiTrap)
        trap("phi without incoming for predecessor");

    std::vector<Slot> regs = F.initRegs;
    Slot *const R = regs.data();
    for (std::size_t i = 0; i < nargs; i++)
        R[F.argRegs[i]] = args[i];

    /// Chunk cursors' pinned windows, by compile-time slot (engaged ==
    /// the map entry the reference engine creates when chunk.begin
    /// executes).
    std::vector<std::optional<HostWindow>> cursors(F.cursorOrigins.size());
    /// Armed state of epoch-arming guards, by compile-time slot.
    std::vector<std::optional<HostWindow>> revals(F.numRevals);

    CycleClock &clk = rt.clock();
    const std::uint64_t stepCycles = rt.costs().computeCycles;
    const bc::Inst *const code = F.code.data();
    const bc::Inst *in = code;

    auto release = [&] {
        for (std::optional<HostWindow> &cursor : cursors) {
            if (cursor)
                rt.endChunk(*cursor);
        }
    };
    // Take a CFG edge: charge one step per phi (reference parity),
    // trap if a phi had no incoming for this predecessor, then apply
    // the pre-scheduled parallel copies.
    auto takeEdge = [&](std::uint32_t index) -> const bc::Inst * {
        const bc::Edge &edge = F.edges[index];
        for (std::uint32_t k = 0; k < edge.phiSteps; k++)
            step();
        if (edge.phiTrap)
            trap("phi without incoming for predecessor");
        for (const bc::Move &move : edge.moves)
            R[move.dst] = R[move.src];
        return code + edge.target;
    };

    try {
#ifdef TFM_USE_THREADED_DISPATCH
        // Label table in exact bc::Op order.
        static const void *const kDispatch[] = {
            &&L_Alloca,  &&L_LoadI,    &&L_LoadF,       &&L_StoreI,
            &&L_StoreF,  &&L_Gep,      &&L_GuardRead,   &&L_GuardWrite,
            &&L_GuardReval, &&L_ChunkBegin, &&L_ChunkAccess,
            &&L_Prefetch, &&L_Add,     &&L_Sub,         &&L_Mul,
            &&L_SDiv,    &&L_SRem,     &&L_And,         &&L_Or,
            &&L_Xor,     &&L_Shl,      &&L_LShr,        &&L_FAdd,
            &&L_FSub,    &&L_FMul,     &&L_FDiv,        &&L_ICmpEq,
            &&L_ICmpNe,  &&L_ICmpSlt,  &&L_ICmpSle,     &&L_ICmpSgt,
            &&L_ICmpSge, &&L_FCmpOlt,  &&L_CopyI,       &&L_TruncI,
            &&L_SIToFP,  &&L_FPToSI,   &&L_Call,        &&L_Br,
            &&L_CondBr,  &&L_Ret,      &&L_RetVoid,     &&L_Trap,
        };
        goto *kDispatch[static_cast<int>(in->op)];
#else
    dispatch:
        switch (in->op) {
#endif

        VM_CASE(Alloca)
        {
            VM_STEP();
            R[in->dst] = Slot{
                hostAlloc(static_cast<std::uint64_t>(in->imm)), 0.0};
            VM_NEXT();
        }
        VM_CASE(LoadI)
        {
            VM_STEP();
            std::uint64_t raw = 0;
            rawAccess(R[in->a].i, &raw, in->aux, false);
            R[in->dst] = Slot{raw, 0.0};
            VM_NEXT();
        }
        VM_CASE(LoadF)
        {
            VM_STEP();
            Slot slot;
            rawAccess(R[in->a].i, &slot.f, sizeof(double), false);
            R[in->dst] = slot;
            VM_NEXT();
        }
        VM_CASE(StoreI)
        {
            VM_STEP();
            std::uint64_t raw = R[in->a].i;
            rawAccess(R[in->b].i, &raw, in->aux, true);
            VM_NEXT();
        }
        VM_CASE(StoreF)
        {
            VM_STEP();
            double value = R[in->a].f;
            rawAccess(R[in->b].i, &value, sizeof(double), true);
            VM_NEXT();
        }
        VM_CASE(Gep)
        {
            VM_STEP();
            R[in->dst] =
                Slot{R[in->a].i +
                         R[in->b].i * static_cast<std::uint64_t>(in->imm),
                     0.0};
            VM_NEXT();
        }
        VM_CASE(GuardRead)
        {
            VM_STEP();
            const std::uint64_t addr = R[in->a].i;
            if (profiling && tfmIsTagged(addr))
                recordAccess(addr);
            // Inline last-object cache probe: a hit is pure pointer
            // arithmetic plus the hit accounting, no runtime call.
            std::byte *host = rt.guardCacheFastPath(addr, false);
            if (host)
                guardFastHits++;
            else
                host = rt.guardRead(addr);
            if (in->flags & bc::kArmsEpoch)
                revals[in->aux] = armedWindow(host);
            R[in->dst] =
                Slot{reinterpret_cast<std::uint64_t>(host), 0.0};
            VM_NEXT();
        }
        VM_CASE(GuardWrite)
        {
            VM_STEP();
            const std::uint64_t addr = R[in->a].i;
            if (profiling && tfmIsTagged(addr))
                recordAccess(addr);
            std::byte *host = rt.guardCacheFastPath(addr, true);
            if (host)
                guardFastHits++;
            else
                host = rt.guardWrite(addr);
            if (in->flags & bc::kArmsEpoch)
                revals[in->aux] = armedWindow(host);
            R[in->dst] =
                Slot{reinterpret_cast<std::uint64_t>(host), 0.0};
            VM_NEXT();
        }
        VM_CASE(GuardReval)
        {
            VM_STEP();
            const std::uint64_t addr = R[in->a].i;
            std::optional<HostWindow> &armed = revals[in->aux];
            if (!armed)
                trap("guard.reval before its arming guard");
            std::byte *host;
            if (tfmIsTagged(addr) && rt.revalidate(addr, armed->epoch)) {
                // Epoch unchanged since arming: the host pointer (and
                // any dirty bit) is still live.
                host = armed->host;
            } else {
                // Evacuation since arming (or an untagged pointer):
                // re-run the full guard and re-arm.
                if (profiling && tfmIsTagged(addr))
                    recordAccess(addr);
                host = (in->flags & bc::kWrite) ? rt.guardWrite(addr)
                                                : rt.guardRead(addr);
                armed = armedWindow(host);
            }
            R[in->dst] =
                Slot{reinterpret_cast<std::uint64_t>(host), 0.0};
            VM_NEXT();
        }
        VM_CASE(ChunkBegin)
        {
            VM_STEP();
            std::optional<HostWindow> &cursor = cursors[in->aux];
            if (cursor)
                rt.endChunk(*cursor);
            else
                cursor.emplace();
            R[in->dst] =
                Slot{static_cast<std::uint64_t>(in->imm), 0.0};
            VM_NEXT();
        }
        VM_CASE(ChunkAccess)
        {
            VM_STEP();
            std::optional<HostWindow> &cursor = cursors[in->aux];
            if (!cursor)
                trap("chunk.access before chunk.begin");
            const std::uint64_t addr = R[in->a].i;
            if (!tfmIsTagged(addr)) {
                // Custody check inside the chunk helper.
                clk.advance(rt.costs().custodyRejectCycles);
                R[in->dst] = Slot{addr, 0.0};
                VM_NEXT();
            }
            if (profiling)
                recordAccess(addr);
            const std::uint64_t offset = tfmOffsetOf(addr);
            // A refill is the locality guard alone: no boundary check.
            if (!cursor->bytes(offset, false)) {
                rt.localityGuard(addr, *cursor,
                                 (in->flags & bc::kWrite) != 0);
            } else {
                rt.boundaryCheck();
            }
            R[in->dst] =
                Slot{reinterpret_cast<std::uint64_t>(cursor->at(offset)),
                     0.0};
            VM_NEXT();
        }
        VM_CASE(Prefetch)
        {
            VM_STEP();
            const std::uint64_t addr = R[in->a].i;
            if (tfmIsTagged(addr))
                rt.prefetchAhead(addr, 1, in->aux);
            VM_NEXT();
        }
        VM_CASE(Add)
        {
            VM_STEP();
            R[in->dst] = Slot{R[in->a].i + R[in->b].i, 0.0};
            VM_NEXT();
        }
        VM_CASE(Sub)
        {
            VM_STEP();
            R[in->dst] = Slot{R[in->a].i - R[in->b].i, 0.0};
            VM_NEXT();
        }
        VM_CASE(Mul)
        {
            VM_STEP();
            R[in->dst] = Slot{R[in->a].i * R[in->b].i, 0.0};
            VM_NEXT();
        }
        VM_CASE(SDiv)
        {
            VM_STEP();
            const auto divisor =
                static_cast<std::int64_t>(R[in->b].i);
            if (divisor == 0)
                trap("division by zero");
            R[in->dst] = Slot{
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(R[in->a].i) / divisor),
                0.0};
            VM_NEXT();
        }
        VM_CASE(SRem)
        {
            VM_STEP();
            const auto divisor =
                static_cast<std::int64_t>(R[in->b].i);
            if (divisor == 0)
                trap("remainder by zero");
            R[in->dst] = Slot{
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(R[in->a].i) % divisor),
                0.0};
            VM_NEXT();
        }
        VM_CASE(And)
        {
            VM_STEP();
            R[in->dst] = Slot{R[in->a].i & R[in->b].i, 0.0};
            VM_NEXT();
        }
        VM_CASE(Or)
        {
            VM_STEP();
            R[in->dst] = Slot{R[in->a].i | R[in->b].i, 0.0};
            VM_NEXT();
        }
        VM_CASE(Xor)
        {
            VM_STEP();
            R[in->dst] = Slot{R[in->a].i ^ R[in->b].i, 0.0};
            VM_NEXT();
        }
        VM_CASE(Shl)
        {
            VM_STEP();
            R[in->dst] = Slot{R[in->a].i << (R[in->b].i & 63), 0.0};
            VM_NEXT();
        }
        VM_CASE(LShr)
        {
            VM_STEP();
            R[in->dst] = Slot{R[in->a].i >> (R[in->b].i & 63), 0.0};
            VM_NEXT();
        }
        VM_CASE(FAdd)
        {
            VM_STEP();
            R[in->dst] = Slot{0, R[in->a].f + R[in->b].f};
            VM_NEXT();
        }
        VM_CASE(FSub)
        {
            VM_STEP();
            R[in->dst] = Slot{0, R[in->a].f - R[in->b].f};
            VM_NEXT();
        }
        VM_CASE(FMul)
        {
            VM_STEP();
            R[in->dst] = Slot{0, R[in->a].f * R[in->b].f};
            VM_NEXT();
        }
        VM_CASE(FDiv)
        {
            VM_STEP();
            R[in->dst] = Slot{0, R[in->a].f / R[in->b].f};
            VM_NEXT();
        }
        VM_CASE(ICmpEq)
        {
            VM_STEP();
            R[in->dst] =
                Slot{static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(R[in->a].i) ==
                         static_cast<std::int64_t>(R[in->b].i)),
                     0.0};
            VM_NEXT();
        }
        VM_CASE(ICmpNe)
        {
            VM_STEP();
            R[in->dst] =
                Slot{static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(R[in->a].i) !=
                         static_cast<std::int64_t>(R[in->b].i)),
                     0.0};
            VM_NEXT();
        }
        VM_CASE(ICmpSlt)
        {
            VM_STEP();
            R[in->dst] =
                Slot{static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(R[in->a].i) <
                         static_cast<std::int64_t>(R[in->b].i)),
                     0.0};
            VM_NEXT();
        }
        VM_CASE(ICmpSle)
        {
            VM_STEP();
            R[in->dst] =
                Slot{static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(R[in->a].i) <=
                         static_cast<std::int64_t>(R[in->b].i)),
                     0.0};
            VM_NEXT();
        }
        VM_CASE(ICmpSgt)
        {
            VM_STEP();
            R[in->dst] =
                Slot{static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(R[in->a].i) >
                         static_cast<std::int64_t>(R[in->b].i)),
                     0.0};
            VM_NEXT();
        }
        VM_CASE(ICmpSge)
        {
            VM_STEP();
            R[in->dst] =
                Slot{static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(R[in->a].i) >=
                         static_cast<std::int64_t>(R[in->b].i)),
                     0.0};
            VM_NEXT();
        }
        VM_CASE(FCmpOlt)
        {
            VM_STEP();
            R[in->dst] = Slot{
                static_cast<std::uint64_t>(R[in->a].f < R[in->b].f),
                0.0};
            VM_NEXT();
        }
        VM_CASE(CopyI)
        {
            VM_STEP();
            R[in->dst] = Slot{R[in->a].i, 0.0};
            VM_NEXT();
        }
        VM_CASE(TruncI)
        {
            VM_STEP();
            R[in->dst] = Slot{
                R[in->a].i & static_cast<std::uint64_t>(in->imm), 0.0};
            VM_NEXT();
        }
        VM_CASE(SIToFP)
        {
            VM_STEP();
            R[in->dst] =
                Slot{0, static_cast<double>(
                            static_cast<std::int64_t>(R[in->a].i))};
            VM_NEXT();
        }
        VM_CASE(FPToSI)
        {
            VM_STEP();
            R[in->dst] = Slot{static_cast<std::uint64_t>(
                                  static_cast<std::int64_t>(R[in->a].f)),
                              0.0};
            VM_NEXT();
        }
        VM_CASE(Call)
        {
            VM_STEP();
            const bc::CallSite &site = F.calls[in->aux];
            Slot result;
            if (!site.target) {
                result = runBuiltin(site.builtin, *site.inst,
                                    [&](std::size_t k) {
                                        return R[site.args[k]];
                                    });
            } else {
                if (depth > 200)
                    trap("call depth limit exceeded");
                Slot small[8];
                std::vector<Slot> big;
                const std::size_t n = site.args.size();
                Slot *ap = small;
                if (n > 8) {
                    big.resize(n);
                    ap = big.data();
                }
                for (std::size_t k = 0; k < n; k++)
                    ap[k] = R[site.args[k]];
                result = callFunction(*site.target, ap, n, depth + 1);
            }
            R[in->dst] = result;
            VM_NEXT();
        }
        VM_CASE(Br)
        {
            VM_STEP();
            VM_JUMP(takeEdge(in->aux));
        }
        VM_CASE(CondBr)
        {
            VM_STEP();
            VM_JUMP(takeEdge(
                R[in->a].i ? in->aux
                           : static_cast<std::uint32_t>(in->imm)));
        }
        VM_CASE(Ret)
        {
            VM_STEP();
            const Slot returned = R[in->a];
            release();
            return returned;
        }
        VM_CASE(RetVoid)
        {
            VM_STEP();
            release();
            return Slot{};
        }
        VM_CASE(Trap)
        {
            if (in->flags & bc::kChargeStep)
                VM_STEP();
            trap(F.messages[in->aux]);
        }

#ifndef TFM_USE_THREADED_DISPATCH
        }
        trap("bytecode dispatch fell through"); // unreachable
#endif
    } catch (TrapException &) {
        release();
        throw;
    }
}

} // namespace tfm
