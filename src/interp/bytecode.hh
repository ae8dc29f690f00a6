/**
 * @file
 * Pre-decoded register bytecode for the IR interpreter.
 *
 * The tree-walking reference engine checks every operand read against
 * the stamp of its frame entry, re-inspects each opcode and re-matches
 * phi incoming lists on every block entry. This module compiles each
 * `ir::Function` once into a dense instruction stream over numbered
 * register slots:
 *
 *  - the frame is one flat `std::vector<Slot>` indexed by register
 *    number (constants pre-materialized, register 0 a write-only sink
 *    for unnamed results, register 1 a scratch for parallel copies);
 *  - every operand is resolved to a register at compile time, so the
 *    dispatch loop never touches a map;
 *  - phi semantics are pre-resolved into a parallel-copy move list
 *    attached to each CFG edge (scheduled with cycle breaking through
 *    the scratch register);
 *  - dispatch is direct-threaded (computed goto) when the build defines
 *    TFM_COMPUTED_GOTO, with a portable `switch` fallback.
 *
 * Compilation is conservative: any function whose SSA form cannot be
 * proven well-behaved (a use not dominated by its definition, a
 * terminator that is not last in its block, phis after non-phis) is
 * marked `ok = false` and keeps running on the reference engine, whose
 * lazy lookups reproduce the exact trap behavior. Both engines must be
 * bit-exact: same outputs, same heap contents, same trap text, same
 * step counts, same simulated cycles, same GuardStats.
 */

#ifndef TRACKFM_INTERP_BYTECODE_HH
#define TRACKFM_INTERP_BYTECODE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/function.hh"

namespace tfm
{

/** Runtime value: integer/pointer or double (one register slot). */
struct Slot
{
    std::uint64_t i = 0;
    double f = 0.0;
};

/** Thrown on traps; caught at the top of Interpreter::run(). */
struct TrapException
{
    std::string message;
};

/**
 * Interpreter intrinsics (the TrackFM libc replacement plus harness
 * hooks), resolved from the callee name once — at compile time for the
 * bytecode engine, per call for the reference engine.
 */
enum class Builtin : std::uint8_t
{
    None, ///< not an intrinsic: a user function (or unknown)
    RuntimeInit,
    TfmMalloc,
    TfmCalloc,
    HostMalloc, ///< host_malloc and untransformed malloc
    HostCalloc, ///< host_calloc and untransformed calloc
    TfmRealloc,
    TfmFree,
    HostFree, ///< untransformed free: host arena frees at teardown
    PrintI64,
    EvacuateAll,
    PgMalloc, ///< paged-plane allocation (hybrid arbiter, bit-61 tag)
    PgCalloc,
    PgFree
};

/** Intrinsic id for a callee name (None for user functions). */
Builtin builtinOf(const std::string &callee);

namespace bc
{

/** Pre-decoded opcodes. Order must match the dispatch label table. */
enum class Op : std::uint8_t
{
    Alloca,      ///< dst = {hostAlloc(imm), 0}
    LoadI,       ///< dst = {zext(*(aux-byte *)r[a].i), 0}
    LoadF,       ///< dst = {0, *(double *)r[a].i}
    StoreI,      ///< *(aux-byte *)r[b].i = r[a].i
    StoreF,      ///< *(double *)r[b].i = r[a].f
    Gep,         ///< dst = {r[a].i + r[b].i * imm, 0}
    GuardRead,   ///< dst = guard(r[a].i); kArmsEpoch arms reval slot aux
    GuardWrite,  ///< write flavor of GuardRead
    GuardReval,  ///< dst = revalidate reval slot aux against r[a].i
    ChunkBegin,  ///< (re)arm cursor aux; dst = {imm (cursor token), 0}
    ChunkAccess, ///< dst = chunk window for r[a].i through cursor aux
    Prefetch,    ///< prefetchAhead(r[a].i, 1, aux) when tagged
    Add,
    Sub,
    Mul,
    SDiv,
    SRem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    FAdd,
    FSub,
    FMul,
    FDiv,
    ICmpEq,
    ICmpNe,
    ICmpSlt,
    ICmpSle,
    ICmpSgt,
    ICmpSge,
    FCmpOlt,
    CopyI,  ///< dst = {r[a].i, 0} (zext / ptrtoint / inttoptr)
    TruncI, ///< dst = {r[a].i & imm, 0}
    SIToFP, ///< dst = {0, (double)(int64)r[a].i}
    FPToSI, ///< dst = {(uint64)(int64)r[a].f, 0}
    Call,   ///< dst = invoke call site aux
    Br,     ///< take edge aux
    CondBr, ///< take edge aux when r[a].i, else edge imm
    Ret,    ///< return r[a]
    RetVoid,
    Trap ///< trap messages[aux]; kChargeStep charges one step first
};

/** Inst::flags bits. */
constexpr std::uint8_t kWrite = 1;      ///< guard/chunk write access
constexpr std::uint8_t kArmsEpoch = 2;  ///< guard arms its reval slot
constexpr std::uint8_t kChargeStep = 4; ///< Trap charges one step

/**
 * One pre-decoded instruction. Operands are register numbers; `aux`
 * and `imm` carry opcode-specific immediates (see Op). `src` keeps the
 * originating IR instruction so debugLine/debugCol and allocation-site
 * identity survive pre-decoding.
 */
struct Inst
{
    Op op = Op::Trap;
    std::uint8_t flags = 0;
    std::uint16_t dst = 0;
    std::uint16_t a = 0;
    std::uint16_t b = 0;
    std::uint32_t aux = 0;
    std::int64_t imm = 0;
    const ir::Instruction *src = nullptr;
};

/** One register copy of a scheduled parallel-move list. */
struct Move
{
    std::uint16_t dst = 0;
    std::uint16_t src = 0;
};

/**
 * One CFG edge with its pre-resolved phi moves. Taking the edge
 * charges `phiSteps` interpreter steps (one per phi, reference-engine
 * parity), then either traps (a phi had no incoming for this
 * predecessor) or applies the scheduled copies and jumps to `target`.
 */
struct Edge
{
    std::uint32_t target = 0;   ///< pc of the successor block
    std::uint32_t phiSteps = 0; ///< steps charged before moves/trap
    bool phiTrap = false;       ///< missing incoming: trap after steps
    std::vector<Move> moves;
};

/** One call site, with the callee resolved at compile time. */
struct CallSite
{
    const ir::Instruction *inst = nullptr;
    const ir::Function *target = nullptr; ///< null => builtin intrinsic
    Builtin builtin = Builtin::None;
    std::vector<std::uint16_t> args;
};

/** One compiled function. */
struct Function
{
    const ir::Function *source = nullptr;
    /// False: compilation bailed out; the reference engine runs this
    /// function (see bailReason) while callers/callees stay compiled.
    bool ok = false;
    std::string bailReason;
    /// The entry block starts with phis: entering it with no
    /// predecessor traps before charging any steps.
    bool entryPhiTrap = false;
    std::uint32_t numRegs = 2;
    std::vector<Slot> initRegs; ///< constants pre-materialized
    std::vector<std::uint16_t> argRegs;
    std::vector<Inst> code;
    std::vector<Edge> edges;
    std::vector<CallSite> calls;
    std::vector<std::string> messages; ///< Trap message pool
    /// ChunkBegin origin per cursor slot (frame cursor state count).
    std::vector<const ir::Instruction *> cursorOrigins;
    std::uint32_t numRevals = 0; ///< epoch-arming guard slot count
};

/** A compiled module: one Function per ir::Function. */
struct Module
{
    std::map<const ir::Function *, Function> functions;
};

/** Compile every function; bailed-out ones are marked `ok = false`. */
Module compileModule(const ir::Module &module);

/**
 * Dense SSA-value -> register numbering for one function: arguments
 * and phis first (phis always occupy a frame slot in the reference
 * engine), then named non-void instructions, then constants.
 */
class RegAlloc
{
  public:
    /// Write-only sink for unnamed/void results.
    static constexpr std::uint16_t kSink = 0;
    /// Scratch register for parallel-copy cycle breaking.
    static constexpr std::uint16_t kScratch = 1;

    explicit RegAlloc(const ir::Function &function);

    /** False when the function needs more than 64K registers. */
    bool ok() const { return !overflow; }

    bool hasReg(const ir::Value *value) const
    {
        return regs.count(value) > 0;
    }

    /** Register of @p value; kSink when it has none. */
    std::uint16_t
    regOf(const ir::Value *value) const
    {
        auto it = regs.find(value);
        return it == regs.end() ? kSink : it->second;
    }

    std::uint32_t numRegs() const { return next; }
    const std::vector<Slot> &initRegs() const { return init; }
    const std::vector<std::uint16_t> &argRegs() const { return args; }

  private:
    std::map<const ir::Value *, std::uint16_t> regs;
    std::vector<Slot> init;
    std::vector<std::uint16_t> args;
    std::uint32_t next = 2;
    bool overflow = false;
};

/**
 * Order a parallel copy (all sources read before any destination is
 * written) into a sequential move list, breaking cycles through
 * @p scratch. Self-moves are dropped.
 */
std::vector<Move> scheduleParallelMoves(std::vector<Move> moves,
                                        std::uint16_t scratch);

} // namespace bc
} // namespace tfm

#endif // TRACKFM_INTERP_BYTECODE_HH
