/**
 * @file
 * Interpreter tests: semantics of untransformed programs, semantic
 * preservation through the TrackFM pipeline, the non-canonical trap,
 * and guard/chunk behaviour observable through runtime stats.
 */

#include <gtest/gtest.h>

#include "interp/interpreter.hh"
#include "ir/parser.hh"
#include "ir_test_programs.hh"
#include "passes/o1_passes.hh"
#include "passes/trackfm_passes.hh"

namespace tfm
{
namespace
{

std::unique_ptr<ir::Module>
parseOrDie(const char *text)
{
    auto result = ir::parseModule(text);
    EXPECT_TRUE(result.ok()) << result.error;
    return std::move(result.module);
}

RuntimeConfig
interpConfig()
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 4 << 20;
    cfg.localMemBytes = 64 << 10;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = false;
    return cfg;
}

void
transform(ir::Module &module, ChunkPolicy policy = ChunkPolicy::CostModel,
          bool prefetch = false)
{
    PassManager manager;
    TrackFmPassOptions options;
    options.chunkPolicy = policy;
    options.injectPrefetch = prefetch;
    addTrackFmPipeline(manager, options);
    const PipelineReport report = manager.run(module);
    ASSERT_TRUE(report.ok()) << report.verifierError;
}

/** One engine's run of @p module's main on a fresh runtime. */
std::pair<RunResult, std::uint64_t>
runOn(const ir::Module &module, InterpEngine engine)
{
    TfmRuntime rt(interpConfig(), CostParams{});
    Interpreter interp(module, rt);
    interp.engine = engine;
    RunResult result = interp.run("main");
    return {result, rt.clock().now()};
}

/**
 * Run main on both engines and expect them to agree on everything
 * observable: trap text, return value, output, steps and cycles.
 * Returns the reference engine's result.
 */
RunResult
runBothEngines(const ir::Module &module)
{
    const auto [ref, ref_cycles] = runOn(module, InterpEngine::Reference);
    const auto [bc, bc_cycles] = runOn(module, InterpEngine::Bytecode);
    EXPECT_EQ(ref.engine, "ref");
    EXPECT_EQ(bc.engine, "bytecode");
    EXPECT_EQ(ref.trapped, bc.trapped);
    EXPECT_EQ(ref.trapMessage, bc.trapMessage);
    EXPECT_EQ(ref.returnValue, bc.returnValue);
    EXPECT_EQ(ref.output, bc.output);
    EXPECT_EQ(ref.instructionsExecuted, bc.instructionsExecuted);
    EXPECT_EQ(ref_cycles, bc_cycles);
    return ref;
}

ir::Instruction *
findInst(const ir::Function &function, const std::string &name)
{
    for (const auto &block : function.basicBlocks()) {
        for (const auto &inst : block->instructions()) {
            if (inst->name() == name)
                return inst.get();
        }
    }
    return nullptr;
}

TEST(Interp, RunsUntransformedSumProgram)
{
    auto module = parseOrDie(testprogs::sumProgram);
    TfmRuntime rt(interpConfig(), CostParams{});
    Interpreter interp(*module, rt);
    const RunResult result = interp.run("main");
    ASSERT_TRUE(result.ok()) << result.trapMessage;
    EXPECT_EQ(result.returnValue, 499500);
    // Untransformed: the host heap is used, no guards at all.
    EXPECT_EQ(rt.guardStats().guardTotal(), 0u);
}

TEST(Interp, RunsStackProgram)
{
    auto module = parseOrDie(testprogs::stackProgram);
    TfmRuntime rt(interpConfig(), CostParams{});
    Interpreter interp(*module, rt);
    const RunResult result = interp.run("main");
    ASSERT_TRUE(result.ok()) << result.trapMessage;
    EXPECT_EQ(result.returnValue, 4);
}

TEST(Interp, LibcTransformAloneTrapsOnUnguardedAccess)
{
    // The paper's core safety property: TrackFM pointers are non-
    // canonical, so an access that escaped guard insertion faults
    // instead of reading garbage.
    auto module = parseOrDie(testprogs::sumProgram);
    LibcTransformPass libc_only;
    libc_only.run(*module);
    TfmRuntime rt(interpConfig(), CostParams{});
    Interpreter interp(*module, rt);
    const RunResult result = interp.run("main");
    ASSERT_TRUE(result.trapped);
    EXPECT_NE(result.trapMessage.find("general protection fault"),
              std::string::npos);
}

TEST(Interp, TransformedProgramComputesTheSameSum)
{
    auto module = parseOrDie(testprogs::sumProgram);
    transform(*module, ChunkPolicy::None);
    TfmRuntime rt(interpConfig(), CostParams{});
    Interpreter interp(*module, rt);
    const RunResult result = interp.run("main");
    ASSERT_TRUE(result.ok()) << result.trapMessage;
    EXPECT_EQ(result.returnValue, 499500);
    // 1000 guarded stores + 1000 guarded loads.
    EXPECT_EQ(rt.guardStats().guardTotal(), 2000u);
    EXPECT_GT(rt.guardStats().fastTotal(), 1900u);
}

TEST(Interp, ChunkedProgramComputesTheSameSum)
{
    auto module = parseOrDie(testprogs::sumI32Program);
    transform(*module, ChunkPolicy::CostModel);
    TfmRuntime rt(interpConfig(), CostParams{});
    Interpreter interp(*module, rt);
    const RunResult result = interp.run("main");
    ASSERT_TRUE(result.ok()) << result.trapMessage;
    EXPECT_EQ(result.returnValue, 5995);
    // Chunked loops: no per-element guards, boundary checks instead.
    EXPECT_EQ(rt.guardStats().fastTotal(), 0u);
    EXPECT_GT(rt.guardStats().boundaryChecks, 3000u);
    EXPECT_GE(rt.guardStats().localityGuards, 2u);
}

TEST(Interp, ChunkingPoliciesAgreeOnResults)
{
    for (const ChunkPolicy policy :
         {ChunkPolicy::None, ChunkPolicy::All, ChunkPolicy::CostModel}) {
        auto module = parseOrDie(testprogs::sumI32Program);
        transform(*module, policy);
        TfmRuntime rt(interpConfig(), CostParams{});
        Interpreter interp(*module, rt);
        const RunResult result = interp.run("main");
        ASSERT_TRUE(result.ok()) << result.trapMessage;
        EXPECT_EQ(result.returnValue, 5995);
    }
}

TEST(Interp, PrefetchInjectionStillCorrectAndIssuesPrefetches)
{
    auto module = parseOrDie(testprogs::sumI32Program);
    transform(*module, ChunkPolicy::CostModel, /*prefetch=*/true);
    auto cfg = interpConfig();
    cfg.prefetchEnabled = true;
    TfmRuntime rt(cfg, CostParams{});
    Interpreter interp(*module, rt);
    const RunResult result = interp.run("main");
    ASSERT_TRUE(result.ok()) << result.trapMessage;
    EXPECT_EQ(result.returnValue, 5995);
    EXPECT_GT(rt.guardStats().prefetchCalls, 0u);
}

TEST(Interp, O1ThenTrackFmStillCorrect)
{
    auto module = parseOrDie(testprogs::sumProgram);
    PassManager manager;
    addO1Pipeline(manager);
    TrackFmPassOptions options;
    addTrackFmPipeline(manager, options);
    ASSERT_TRUE(manager.run(*module).ok());
    TfmRuntime rt(interpConfig(), CostParams{});
    Interpreter interp(*module, rt);
    const RunResult result = interp.run("main");
    ASSERT_TRUE(result.ok()) << result.trapMessage;
    EXPECT_EQ(result.returnValue, 499500);
}

TEST(Interp, UserFunctionCallsWork)
{
    const char *text = R"(
func @square(%x: i64) -> i64 {
entry:
  %r = mul %x, %x
  ret %r
}

func @main() -> i64 {
entry:
  %a = call i64 @square(7)
  %b = call i64 @square(%a)
  ret %b
}
)";
    auto module = parseOrDie(text);
    TfmRuntime rt(interpConfig(), CostParams{});
    Interpreter interp(*module, rt);
    const RunResult result = interp.run("main");
    ASSERT_TRUE(result.ok()) << result.trapMessage;
    EXPECT_EQ(result.returnValue, 49 * 49);
}

TEST(Interp, RecursionWorksAndDepthIsBounded)
{
    const char *text = R"(
func @fib(%n: i64) -> i64 {
entry:
  %small = icmp.slt %n, 2
  condbr %small, base, rec
base:
  ret %n
rec:
  %n1 = sub %n, 1
  %n2 = sub %n, 2
  %a = call i64 @fib(%n1)
  %b = call i64 @fib(%n2)
  %s = add %a, %b
  ret %s
}

func @main() -> i64 {
entry:
  %r = call i64 @fib(15)
  ret %r
}
)";
    auto module = parseOrDie(text);
    TfmRuntime rt(interpConfig(), CostParams{});
    Interpreter interp(*module, rt);
    const RunResult result = interp.run("main");
    ASSERT_TRUE(result.ok()) << result.trapMessage;
    EXPECT_EQ(result.returnValue, 610);
}

TEST(Interp, PrintIntrinsicCollectsOutput)
{
    const char *text = R"(
func @main() -> i64 {
entry:
  call void @print_i64(11)
  call void @print_i64(22)
  ret 0
}
)";
    auto module = parseOrDie(text);
    TfmRuntime rt(interpConfig(), CostParams{});
    Interpreter interp(*module, rt);
    const RunResult result = interp.run("main");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.output, (std::vector<std::int64_t>{11, 22}));
}

TEST(Interp, InfiniteLoopHitsStepLimit)
{
    const char *text = R"(
func @main() -> i64 {
entry:
  br spin
spin:
  br spin
}
)";
    auto module = parseOrDie(text);
    TfmRuntime rt(interpConfig(), CostParams{});
    Interpreter interp(*module, rt);
    interp.maxSteps = 10000;
    const RunResult result = interp.run("main");
    ASSERT_TRUE(result.trapped);
    EXPECT_NE(result.trapMessage.find("step limit"), std::string::npos);
}

TEST(Interp, NullDereferenceTraps)
{
    const char *text = R"(
func @main() -> i64 {
entry:
  %z = inttoptr 0 to ptr
  %v = load i64, %z
  ret %v
}
)";
    auto module = parseOrDie(text);
    TfmRuntime rt(interpConfig(), CostParams{});
    Interpreter interp(*module, rt);
    const RunResult result = interp.run("main");
    ASSERT_TRUE(result.trapped);
    EXPECT_NE(result.trapMessage.find("null pointer"), std::string::npos);
}

TEST(Interp, MissingFunctionIsAnError)
{
    auto module = parseOrDie(testprogs::stackProgram);
    TfmRuntime rt(interpConfig(), CostParams{});
    Interpreter interp(*module, rt);
    const RunResult result = interp.run("nonexistent");
    EXPECT_TRUE(result.trapped);
}

TEST(Interp, FloatArithmetic)
{
    const char *text = R"(
func @main() -> i64 {
entry:
  %a = sitofp 7 to f64
  %b = fmul %a, f1.5
  %c = fadd %b, f0.5
  %r = fptosi %c to i64
  ret %r
}
)";
    auto module = parseOrDie(text);
    TfmRuntime rt(interpConfig(), CostParams{});
    Interpreter interp(*module, rt);
    const RunResult result = interp.run("main");
    ASSERT_TRUE(result.ok()) << result.trapMessage;
    EXPECT_EQ(result.returnValue, 11); // 7*1.5+0.5
}

TEST(Interp, GuardsChargeSimulatedCycles)
{
    auto module = parseOrDie(testprogs::sumProgram);
    transform(*module, ChunkPolicy::None);
    TfmRuntime naive_rt(interpConfig(), CostParams{});
    Interpreter naive(*module, naive_rt);
    naive.run("main");

    auto untransformed = parseOrDie(testprogs::sumProgram);
    TfmRuntime plain_rt(interpConfig(), CostParams{});
    Interpreter plain(*untransformed, plain_rt);
    plain.run("main");

    EXPECT_GT(naive_rt.clock().now(), plain_rt.clock().now());
}

TEST(InterpFrames, RecursiveActivationsKeepTheirOwnValues)
{
    // %m is defined before the recursive call and read after it: each
    // activation must see its own %m and %n, not the callee's.
    const char *text = R"(
func @f(%n: i64) -> i64 {
entry:
  %small = icmp.slt %n, 1
  condbr %small, base, rec
base:
  ret 0
rec:
  %m = mul %n, 10
  %n1 = sub %n, 1
  %r = call i64 @f(%n1)
  %s = add %r, %m
  %t = add %s, %n
  ret %t
}

func @main() -> i64 {
entry:
  %r = call i64 @f(5)
  ret %r
}
)";
    auto module = parseOrDie(text);
    const RunResult result = runBothEngines(*module);
    ASSERT_TRUE(result.ok()) << result.trapMessage;
    EXPECT_EQ(result.returnValue, 11 * (1 + 2 + 3 + 4 + 5));
}

TEST(InterpFrames, CalleeCannotReadItsCallersEntries)
{
    // The outer activation defines %v, then recurses; the innermost one
    // takes the other branch and reads %v, which its own frame never
    // defined. Shared entries would return 101 instead of trapping.
    const char *text = R"(
func @g(%n: i64) -> i64 {
entry:
  %c = icmp.sgt %n, 0
  condbr %c, rec, use
rec:
  %v = add %n, 100
  %n1 = sub %n, 1
  %r = call i64 @g(%n1)
  ret %r
use:
  ret %v
}

func @main() -> i64 {
entry:
  %r = call i64 @g(1)
  ret %r
}
)";
    auto module = parseOrDie(text);
    const RunResult result = runBothEngines(*module);
    EXPECT_TRUE(result.trapped);
    EXPECT_EQ(result.trapMessage, "use of undefined value %v");
}

TEST(InterpFrames, PhiSwapInALoopReadsTheOldValues)
{
    // Phis evaluate simultaneously on block entry: %a and %b swap on
    // every back edge. Sequential evaluation would make both 2.
    const char *text = R"(
func @main() -> i64 {
entry:
  br loop
loop:
  %a = phi i64 [ 1, entry ], [ %b, loop ]
  %b = phi i64 [ 2, entry ], [ %a, loop ]
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  call void @print_i64(%a)
  %i2 = add %i, 1
  %c = icmp.slt %i2, 4
  condbr %c, loop, exit
exit:
  %r = mul %a, 10
  %s = add %r, %b
  ret %s
}
)";
    auto module = parseOrDie(text);
    const RunResult result = runBothEngines(*module);
    ASSERT_TRUE(result.ok()) << result.trapMessage;
    EXPECT_EQ(result.output, (std::vector<std::int64_t>{1, 2, 1, 2}));
    EXPECT_EQ(result.returnValue, 21);
}

TEST(InterpFrames, MidBlockInsertAndRemovalHole)
{
    // A pass-style edit: insert %sq in the middle of the loop body,
    // route %acc2 through it, and delete the dead %dead. The new value
    // gets a fresh id past every old one; the removed id stays a hole.
    const char *text = R"(
func @main() -> i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %acc = phi i64 [ 0, entry ], [ %acc2, loop ]
  %dead = mul %i, 7
  %acc2 = add %acc, %i
  %i2 = add %i, 1
  %c = icmp.slt %i2, 10
  condbr %c, loop, exit
exit:
  ret %acc2
}
)";
    auto module = parseOrDie(text);
    ir::Function *fn = module->findFunction("main");
    ir::BasicBlock *loop = fn->findBlock("loop");
    ir::Instruction *i = findInst(*fn, "i");
    ir::Instruction *dead = findInst(*fn, "dead");
    ir::Instruction *acc2 = findInst(*fn, "acc2");
    const std::uint32_t limit = fn->valueIdLimit();

    auto sq = std::make_unique<ir::Instruction>(ir::Opcode::Mul,
                                                ir::Type::I64, "sq");
    sq->addOperand(i);
    sq->addOperand(i);
    ir::Instruction *sq_ptr = loop->insertAt(2, std::move(sq));
    acc2->setOperand(1, sq_ptr);
    EXPECT_EQ(sq_ptr->localId(), limit);
    loop->removeAt(loop->indexOf(dead));
    EXPECT_EQ(fn->valueIdLimit(), limit + 1);
    EXPECT_LT(fn->instructionCount(), fn->valueIdLimit());

    const RunResult result = runBothEngines(*module);
    ASSERT_TRUE(result.ok()) << result.trapMessage;
    EXPECT_EQ(result.returnValue, 285); // sum of i*i for i < 10
}

TEST(InterpFrames, OperandFromAnotherFunctionTraps)
{
    // %b's operand is @other's argument %x, whose id equals main's %a:
    // an entry that is defined, but by a different value. Reading it
    // must trap, not return %a's slot.
    const char *text = R"(
func @other(%x: i64) -> i64 {
entry:
  %y = add %x, 1
  ret %y
}

func @main() -> i64 {
entry:
  %a = add 1, 2
  %b = add %a, 3
  ret %b
}
)";
    auto module = parseOrDie(text);
    const ir::Function *other = module->findFunction("other");
    const ir::Function *main_fn = module->findFunction("main");
    ir::Argument *x = other->arguments()[0].get();
    ir::Instruction *a = findInst(*main_fn, "a");
    ASSERT_EQ(x->localId(), a->localId());
    findInst(*main_fn, "b")->setOperand(0, x);

    const RunResult result = runBothEngines(*module);
    EXPECT_TRUE(result.trapped);
    EXPECT_EQ(result.trapMessage, "use of undefined value %x");
}

TEST(InterpFrames, BranchToAnotherFunctionsBlockTraps)
{
    // Hand-built IR the verifier would reject: main branches into a
    // block of @other, whose instruction ids lie past main's frame.
    // The default (bytecode) engine's compiler bails out on the foreign
    // edge and runs main on the reference engine, which traps.
    const char *text = R"(
func @other(%x: i64) -> i64 {
entry:
  %y = add %x, 1
  %z = add %y, 1
  br tail
tail:
  %w = add 40, 2
  ret %w
}

func @main() -> i64 {
entry:
  br done
done:
  ret 0
}
)";
    auto module = parseOrDie(text);
    ir::Function *main_fn = module->findFunction("main");
    ir::BasicBlock *tail = module->findFunction("other")->findBlock("tail");
    ASSERT_GE(findInst(*module->findFunction("other"), "w")->localId(),
              main_fn->valueIdLimit());
    main_fn->entry()->terminator()->succ0 = tail;

    for (const InterpEngine engine :
         {InterpEngine::Reference, InterpEngine::Bytecode}) {
        const RunResult result = runOn(*module, engine).first;
        EXPECT_TRUE(result.trapped);
        EXPECT_EQ(result.trapMessage, "branch to foreign block tail");
    }
}

} // namespace
} // namespace tfm
