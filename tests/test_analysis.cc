/**
 * @file
 * Unit tests for the compiler analyses: CFG, dominators, loops,
 * induction variables, heap provenance.
 */

#include <gtest/gtest.h>

#include <map>

#include "analysis/cfg.hh"
#include "analysis/dominators.hh"
#include "analysis/heap_provenance.hh"
#include "analysis/induction_variable.hh"
#include "analysis/loop_info.hh"
#include "ir/builder.hh"
#include "ir/parser.hh"
#include "ir_test_programs.hh"

namespace tfm
{
namespace
{

ir::ParseResult
parseOrDie(const char *text)
{
    auto result = ir::parseModule(text);
    EXPECT_TRUE(result.ok()) << result.error;
    return result;
}

TEST(CfgAnalysis, RpoStartsAtEntry)
{
    auto parsed = parseOrDie(testprogs::sumProgram);
    const ir::Function *main_fn = parsed.module->findFunction("main");
    const Cfg cfg(*main_fn);
    ASSERT_FALSE(cfg.reversePostOrder().empty());
    EXPECT_EQ(cfg.reversePostOrder().front(), main_fn->entry());
    EXPECT_EQ(cfg.reversePostOrder().size(), 5u);
}

TEST(CfgAnalysis, PredecessorsAreComplete)
{
    auto parsed = parseOrDie(testprogs::sumProgram);
    const ir::Function *main_fn = parsed.module->findFunction("main");
    const Cfg cfg(*main_fn);
    ir::BasicBlock *loop = main_fn->findBlock("loop");
    const auto &preds = cfg.predecessors(loop);
    EXPECT_EQ(preds.size(), 2u); // compute + the loop itself
}

TEST(CfgAnalysis, UnreachableBlocksAreReported)
{
    const char *text = R"(
func @f() -> i64 {
entry:
  ret 1
island:
  ret 2
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const Cfg cfg(*fn);
    EXPECT_TRUE(cfg.reachable(fn->findBlock("entry")));
    EXPECT_FALSE(cfg.reachable(fn->findBlock("island")));
}

TEST(Dominators, EntryDominatesEverything)
{
    auto parsed = parseOrDie(testprogs::sumProgram);
    const ir::Function *main_fn = parsed.module->findFunction("main");
    const Cfg cfg(*main_fn);
    const DominatorTree dom(*main_fn, cfg);
    for (const auto &block : main_fn->basicBlocks())
        EXPECT_TRUE(dom.dominates(main_fn->entry(), block.get()));
}

TEST(Dominators, LoopHeaderDominatesBody)
{
    auto parsed = parseOrDie(testprogs::sumProgram);
    const ir::Function *main_fn = parsed.module->findFunction("main");
    const Cfg cfg(*main_fn);
    const DominatorTree dom(*main_fn, cfg);
    EXPECT_TRUE(dom.dominates(main_fn->findBlock("init"),
                              main_fn->findBlock("loop")));
    EXPECT_FALSE(dom.dominates(main_fn->findBlock("loop"),
                               main_fn->findBlock("init")));
    EXPECT_EQ(dom.idom(main_fn->entry()), nullptr);
}

TEST(Dominators, UnreachableBlocksAreOutsideTheTree)
{
    const char *text = R"(
func @f() -> i64 {
entry:
  ret 1
island:
  br island2
island2:
  br island
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const Cfg cfg(*fn);
    const DominatorTree dom(*fn, cfg);
    ir::BasicBlock *entry = fn->findBlock("entry");
    ir::BasicBlock *island = fn->findBlock("island");
    EXPECT_FALSE(cfg.reachable(island));
    // Nothing reachable dominates an unreachable block; dominance
    // stays reflexive even off the tree.
    EXPECT_FALSE(dom.dominates(entry, island));
    EXPECT_TRUE(dom.dominates(island, island));
    EXPECT_EQ(dom.idom(island), nullptr);
}

TEST(Dominators, SelfLoopHeader)
{
    const char *text = R"(
func @f(%n: i64) -> i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %i2 = add %i, 1
  %c = icmp.slt %i2, %n
  condbr %c, loop, exit
exit:
  ret %i2
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const Cfg cfg(*fn);
    const DominatorTree dom(*fn, cfg);
    ir::BasicBlock *loop = fn->findBlock("loop");
    EXPECT_EQ(dom.idom(loop), fn->findBlock("entry"));
    EXPECT_TRUE(dom.dominates(loop, loop));
    EXPECT_TRUE(dom.dominates(loop, fn->findBlock("exit")));
    EXPECT_FALSE(dom.dominates(fn->findBlock("exit"), loop));
}

TEST(Dominators, CriticalEdgeDiamond)
{
    // entry -> join is a critical edge (entry has two successors,
    // join has two predecessors); neither arm may claim the join.
    const char *text = R"(
func @f(%n: i64) -> i64 {
entry:
  %c = icmp.slt %n, 3
  condbr %c, left, join
left:
  br join
join:
  %v = phi i64 [ 1, entry ], [ 2, left ]
  ret %v
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const Cfg cfg(*fn);
    const DominatorTree dom(*fn, cfg);
    EXPECT_EQ(dom.idom(fn->findBlock("join")), fn->findBlock("entry"));
    EXPECT_FALSE(
        dom.dominates(fn->findBlock("left"), fn->findBlock("join")));
    EXPECT_TRUE(
        dom.dominates(fn->findBlock("entry"), fn->findBlock("left")));
}

TEST(Dominators, MultiPredJoinIdomIsNearestCommonDominator)
{
    const char *text = R"(
func @f(%n: i64) -> i64 {
entry:
  %c = icmp.slt %n, 3
  condbr %c, a, b
a:
  br join
b:
  %c2 = icmp.slt %n, 5
  condbr %c2, c, join
c:
  br join
join:
  %v = phi i64 [ 1, a ], [ 2, b ], [ 3, c ]
  ret %v
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const Cfg cfg(*fn);
    const DominatorTree dom(*fn, cfg);
    ir::BasicBlock *join = fn->findBlock("join");
    EXPECT_EQ(cfg.predecessors(join).size(), 3u);
    EXPECT_EQ(dom.idom(join), fn->findBlock("entry"));
    EXPECT_EQ(dom.idom(fn->findBlock("c")), fn->findBlock("b"));
    EXPECT_TRUE(dom.dominates(fn->findBlock("b"), fn->findBlock("c")));
    EXPECT_FALSE(dom.dominates(fn->findBlock("b"), join));
    EXPECT_FALSE(dom.dominates(fn->findBlock("c"), join));
}

TEST(Loops, FindsBothLoopsWithPreheaders)
{
    auto parsed = parseOrDie(testprogs::sumProgram);
    const ir::Function *main_fn = parsed.module->findFunction("main");
    const Cfg cfg(*main_fn);
    const DominatorTree dom(*main_fn, cfg);
    const LoopInfo loops(*main_fn, cfg, dom);
    ASSERT_EQ(loops.loops().size(), 2u);
    for (const auto &loop : loops.loops()) {
        EXPECT_NE(loop->preheader, nullptr);
        EXPECT_EQ(loop->blocks.size(), 1u); // single-block loops
        EXPECT_EQ(loop->depth, 1u);
    }
}

TEST(Loops, DetectsNesting)
{
    const char *text = R"(
func @f(%n: i64) -> i64 {
entry:
  br outer
outer:
  %i = phi i64 [ 0, entry ], [ %i2, outer.latch ]
  br inner
inner:
  %j = phi i64 [ 0, outer ], [ %j2, inner ]
  %j2 = add %j, 1
  %cj = icmp.slt %j2, %n
  condbr %cj, inner, outer.latch
outer.latch:
  %i2 = add %i, 1
  %ci = icmp.slt %i2, %n
  condbr %ci, outer, exit
exit:
  ret %i
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const Cfg cfg(*fn);
    const DominatorTree dom(*fn, cfg);
    const LoopInfo loops(*fn, cfg, dom);
    ASSERT_EQ(loops.loops().size(), 2u);
    const Loop *inner = loops.innermostLoopFor(fn->findBlock("inner"));
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->header, fn->findBlock("inner"));
    EXPECT_EQ(inner->depth, 2u);
}

TEST(Loops, DeepNestDepthsReachTheFixpoint)
{
    // A 4-deep nest (self-loop h4 inside h3 inside h2 inside h1) and
    // three sibling self-loops after it. The headers are created
    // innermost-first, so the depth pass, which visits loops in
    // header-address order, tends to meet inner loops before the
    // loops around them: the order that needs one round per level.
    ir::Module module;
    ir::Function *fn = module.addFunction("f", ir::Type::I64);
    ir::Argument *c = fn->addArgument(ir::Type::I64, "c");
    ir::BasicBlock *entry = fn->addBlock("entry");
    ir::BasicBlock *h4 = fn->addBlock("h4");
    ir::BasicBlock *x4 = fn->addBlock("x4");
    ir::BasicBlock *h3 = fn->addBlock("h3");
    ir::BasicBlock *x3 = fn->addBlock("x3");
    ir::BasicBlock *h2 = fn->addBlock("h2");
    ir::BasicBlock *x2 = fn->addBlock("x2");
    ir::BasicBlock *h1 = fn->addBlock("h1");
    ir::BasicBlock *s1 = fn->addBlock("s1");
    ir::BasicBlock *s2 = fn->addBlock("s2");
    ir::BasicBlock *s3 = fn->addBlock("s3");
    ir::BasicBlock *exit = fn->addBlock("exit");
    ir::IRBuilder b(fn);
    b.setBlock(entry);
    b.br(h1);
    b.setBlock(h1);
    b.br(h2);
    b.setBlock(h2);
    b.br(h3);
    b.setBlock(h3);
    b.br(h4);
    b.setBlock(h4);
    b.condBr(c, h4, x4);
    b.setBlock(x4);
    b.condBr(c, h3, x3);
    b.setBlock(x3);
    b.condBr(c, h2, x2);
    b.setBlock(x2);
    b.condBr(c, h1, s1);
    b.setBlock(s1);
    b.condBr(c, s1, s2);
    b.setBlock(s2);
    b.condBr(c, s2, s3);
    b.setBlock(s3);
    b.condBr(c, s3, exit);
    b.setBlock(exit);
    b.ret(c);

    const Cfg cfg(*fn);
    const DominatorTree dom(*fn, cfg);
    const LoopInfo loops(*fn, cfg, dom);
    ASSERT_EQ(loops.loops().size(), 7u);
    const std::map<const ir::BasicBlock *, unsigned> expected = {
        {h1, 1}, {h2, 2}, {h3, 3}, {h4, 4}, {s1, 1}, {s2, 1}, {s3, 1}};
    for (const auto &loop : loops.loops()) {
        auto it = expected.find(loop->header);
        ASSERT_NE(it, expected.end()) << loop->header->name();
        EXPECT_EQ(loop->depth, it->second) << loop->header->name();
    }
    EXPECT_EQ(loops.innermostLoopFor(h4)->header, h4);
    EXPECT_EQ(loops.innermostLoopFor(x4)->header, h3);
}

TEST(InductionVariablesAnalysis, FindsLoopCounter)
{
    auto parsed = parseOrDie(testprogs::sumProgram);
    const ir::Function *main_fn = parsed.module->findFunction("main");
    const Cfg cfg(*main_fn);
    const DominatorTree dom(*main_fn, cfg);
    const LoopInfo loops(*main_fn, cfg, dom);

    const Loop *sum_loop =
        loops.innermostLoopFor(main_fn->findBlock("loop"));
    ASSERT_NE(sum_loop, nullptr);
    const InductionVariables ivs(*sum_loop, *main_fn);
    // %j is a basic IV; %acc is also detected structurally only if its
    // step is constant — it is not (step is %v), so exactly one IV.
    ASSERT_EQ(ivs.basicIvs().size(), 1u);
    EXPECT_EQ(ivs.basicIvs()[0].step, 1);
}

TEST(InductionVariablesAnalysis, FindsStridedAccess)
{
    auto parsed = parseOrDie(testprogs::sumProgram);
    const ir::Function *main_fn = parsed.module->findFunction("main");
    const Cfg cfg(*main_fn);
    const DominatorTree dom(*main_fn, cfg);
    const LoopInfo loops(*main_fn, cfg, dom);

    const Loop *init_loop =
        loops.innermostLoopFor(main_fn->findBlock("init"));
    const InductionVariables ivs(*init_loop, *main_fn);
    ASSERT_EQ(ivs.stridedAccesses().size(), 1u);
    const StridedAccess &access = ivs.stridedAccesses()[0];
    EXPECT_TRUE(access.isWrite);
    EXPECT_EQ(access.strideBytes, 8);
    EXPECT_EQ(access.elementBytes, 8u);
    EXPECT_EQ(access.guard, nullptr); // guards not inserted yet
}

TEST(InductionVariablesAnalysis, LoopInvariantBase)
{
    auto parsed = parseOrDie(testprogs::sumProgram);
    const ir::Function *main_fn = parsed.module->findFunction("main");
    const Cfg cfg(*main_fn);
    const DominatorTree dom(*main_fn, cfg);
    const LoopInfo loops(*main_fn, cfg, dom);
    const Loop *init_loop =
        loops.innermostLoopFor(main_fn->findBlock("init"));
    const InductionVariables ivs(*init_loop, *main_fn);
    const StridedAccess &access = ivs.stridedAccesses()[0];
    EXPECT_TRUE(ivs.isLoopInvariant(access.base));
    EXPECT_FALSE(ivs.isLoopInvariant(access.iv->phi));
}

TEST(InductionVariablesAnalysis, NegativeStepFromSubUpdate)
{
    const char *text = R"(
func @f() -> i64 {
entry:
  %a = call ptr @malloc(8000)
  br loop
loop:
  %i = phi i64 [ 999, entry ], [ %i2, loop ]
  %p = gep %a, %i, 8
  store %i, %p
  %i2 = sub %i, 1
  %c = icmp.slt %i2, 0
  condbr %c, exit, loop
exit:
  ret 0
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const Cfg cfg(*fn);
    const DominatorTree dom(*fn, cfg);
    const LoopInfo loops(*fn, cfg, dom);
    const Loop *loop = loops.innermostLoopFor(fn->findBlock("loop"));
    ASSERT_NE(loop, nullptr);
    const InductionVariables ivs(*loop, *fn);
    ASSERT_EQ(ivs.basicIvs().size(), 1u);
    EXPECT_EQ(ivs.basicIvs()[0].step, -1);
    ASSERT_EQ(ivs.stridedAccesses().size(), 1u);
    EXPECT_EQ(ivs.stridedAccesses()[0].strideBytes, -8);
}

TEST(InductionVariablesAnalysis, NonUnitConstantStep)
{
    const char *text = R"(
func @f() -> i64 {
entry:
  %a = call ptr @malloc(8000)
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %p = gep %a, %i, 8
  store %i, %p
  %i2 = add %i, 3
  %c = icmp.slt %i2, 999
  condbr %c, loop, exit
exit:
  ret 0
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const Cfg cfg(*fn);
    const DominatorTree dom(*fn, cfg);
    const LoopInfo loops(*fn, cfg, dom);
    const Loop *loop = loops.innermostLoopFor(fn->findBlock("loop"));
    ASSERT_NE(loop, nullptr);
    const InductionVariables ivs(*loop, *fn);
    ASSERT_EQ(ivs.basicIvs().size(), 1u);
    EXPECT_EQ(ivs.basicIvs()[0].step, 3);
    ASSERT_EQ(ivs.stridedAccesses().size(), 1u);
    EXPECT_EQ(ivs.stridedAccesses()[0].strideBytes, 24);
}

TEST(InductionVariablesAnalysis, MultiBlockUpdateIsConservativelyMissed)
{
    // The phi's loop-carried value is itself a phi over two updates
    // (+1 or +2 picked per iteration): not a basic IV. The analysis
    // must stay conservative — no IV, no strided access — rather than
    // guess a step.
    const char *text = R"(
func @f(%n: i64) -> i64 {
entry:
  %a = call ptr @malloc(8000)
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %i3, latch ]
  %p = gep %a, %i, 8
  store %i, %p
  %c = icmp.slt %i, %n
  condbr %c, fast, slow
fast:
  %if = add %i, 1
  br latch
slow:
  %is = add %i, 2
  br latch
latch:
  %i3 = phi i64 [ %if, fast ], [ %is, slow ]
  %c2 = icmp.slt %i3, 1000
  condbr %c2, loop, exit
exit:
  ret 0
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const Cfg cfg(*fn);
    const DominatorTree dom(*fn, cfg);
    const LoopInfo loops(*fn, cfg, dom);
    const Loop *loop = loops.innermostLoopFor(fn->findBlock("loop"));
    ASSERT_NE(loop, nullptr);
    const InductionVariables ivs(*loop, *fn);
    EXPECT_TRUE(ivs.basicIvs().empty());
    EXPECT_TRUE(ivs.stridedAccesses().empty());
}

TEST(InductionVariablesAnalysis, RuntimeBoundedTripCountStillAnalyzes)
{
    // The bound is a function argument: the trip count is unknown at
    // compile time, but the IV structure (phi + constant step) and the
    // byte stride are still fully derivable.
    const char *text = R"(
func @f(%n: i64) -> i64 {
entry:
  %a = call ptr @malloc(8000)
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %p = gep %a, %i, 8
  store %i, %p
  %i2 = add %i, 1
  %c = icmp.slt %i2, %n
  condbr %c, loop, exit
exit:
  ret 0
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const Cfg cfg(*fn);
    const DominatorTree dom(*fn, cfg);
    const LoopInfo loops(*fn, cfg, dom);
    const Loop *loop = loops.innermostLoopFor(fn->findBlock("loop"));
    ASSERT_NE(loop, nullptr);
    const InductionVariables ivs(*loop, *fn);
    ASSERT_EQ(ivs.basicIvs().size(), 1u);
    EXPECT_EQ(ivs.basicIvs()[0].step, 1);
    EXPECT_TRUE(ivs.isLoopInvariant(fn->arguments()[0].get()));
    ASSERT_EQ(ivs.stridedAccesses().size(), 1u);
    EXPECT_EQ(ivs.stridedAccesses()[0].strideBytes, 8);
}

TEST(InductionVariablesAnalysis, InterchangedNestingKeepsIvsPerLoop)
{
    // Inner loop over %j, but the access is driven by the outer %i:
    // from the inner loop's perspective the address is loop-invariant
    // (no strided access); from the outer loop's it strides by 8.
    const char *text = R"(
func @f(%n: i64) -> i64 {
entry:
  %a = call ptr @malloc(8000)
  br outer
outer:
  %i = phi i64 [ 0, entry ], [ %i2, outer.latch ]
  br inner
inner:
  %j = phi i64 [ 0, outer ], [ %j2, inner ]
  %p = gep %a, %i, 8
  store %j, %p
  %j2 = add %j, 1
  %cj = icmp.slt %j2, %n
  condbr %cj, inner, outer.latch
outer.latch:
  %i2 = add %i, 1
  %ci = icmp.slt %i2, %n
  condbr %ci, outer, exit
exit:
  ret 0
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const Cfg cfg(*fn);
    const DominatorTree dom(*fn, cfg);
    const LoopInfo loops(*fn, cfg, dom);
    const Loop *inner = loops.innermostLoopFor(fn->findBlock("inner"));
    const Loop *outer = loops.innermostLoopFor(fn->findBlock("outer"));
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, outer);

    const InductionVariables innerIvs(*inner, *fn);
    ASSERT_EQ(innerIvs.basicIvs().size(), 1u);
    EXPECT_EQ(innerIvs.basicIvs()[0].phi->name(), "j");
    // %i is defined outside the inner loop: invariant there, so the
    // access does not stride in the inner nest.
    EXPECT_TRUE(innerIvs.isLoopInvariant(
        fn->findBlock("outer")->instructions().front().get()));
    EXPECT_TRUE(innerIvs.stridedAccesses().empty());

    const InductionVariables outerIvs(*outer, *fn);
    ASSERT_EQ(outerIvs.basicIvs().size(), 1u);
    EXPECT_EQ(outerIvs.basicIvs()[0].phi->name(), "i");
}

TEST(HeapProvenanceAnalysis, MallocIsHeapAllocaIsNot)
{
    auto parsed = parseOrDie(testprogs::sumProgram);
    const ir::Function *main_fn = parsed.module->findFunction("main");
    const HeapProvenance provenance(*main_fn);
    // %a = call @malloc: Heap. Derived geps: Heap.
    for (const auto &block : main_fn->basicBlocks()) {
        for (const auto &inst : block->instructions()) {
            if (inst->op() == ir::Opcode::Call) {
                EXPECT_EQ(provenance.of(inst.get()), Provenance::Heap);
            }
            if (inst->op() == ir::Opcode::Gep) {
                EXPECT_TRUE(provenance.needsGuard(inst.get()));
                EXPECT_EQ(provenance.of(inst.get()), Provenance::Heap);
            }
        }
    }
}

TEST(HeapProvenanceAnalysis, StackAccessesNeedNoGuard)
{
    auto parsed = parseOrDie(testprogs::stackProgram);
    const ir::Function *main_fn = parsed.module->findFunction("main");
    const HeapProvenance provenance(*main_fn);
    for (const auto &block : main_fn->basicBlocks()) {
        for (const auto &inst : block->instructions()) {
            if (inst->op() == ir::Opcode::Alloca ||
                inst->op() == ir::Opcode::Gep) {
                EXPECT_FALSE(provenance.needsGuard(inst.get()));
            }
        }
    }
}

TEST(HeapProvenanceAnalysis, ArgumentsAreUnknown)
{
    const char *text = R"(
func @f(%p: ptr) -> i64 {
entry:
  %v = load i64, %p
  ret %v
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const HeapProvenance provenance(*fn);
    const ir::Value *arg = fn->arguments()[0].get();
    EXPECT_EQ(provenance.of(arg), Provenance::Unknown);
    EXPECT_TRUE(provenance.needsGuard(arg)); // custody check decides
}

TEST(HeapProvenanceAnalysis, PhiMergesToUnknown)
{
    const char *text = R"(
func @f(%c: i64) -> i64 {
entry:
  %h = call ptr @malloc(64)
  %s = alloca 64
  condbr %c, a, b
a:
  br join
b:
  br join
join:
  %p = phi ptr [ %h, a ], [ %s, b ]
  %v = load i64, %p
  ret %v
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const HeapProvenance provenance(*fn);
    const ir::BasicBlock *join = fn->findBlock("join");
    const ir::Instruction *phi = join->instructions().front().get();
    EXPECT_EQ(provenance.of(phi), Provenance::Unknown);
    EXPECT_TRUE(provenance.needsGuard(phi));
}

TEST(HeapProvenanceAnalysis, IntCastsPreserveCustody)
{
    // The paper: "even if a pointer is cast to an integer type ... the
    // resulting load/store will still be properly guarded".
    const char *text = R"(
func @f() -> i64 {
entry:
  %h = call ptr @malloc(64)
  %as_int = ptrtoint %h to i64
  %bumped = add %as_int, 8
  %back = inttoptr %bumped to ptr
  %v = load i64, %back
  ret %v
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const HeapProvenance provenance(*fn);
    for (const auto &inst : fn->entry()->instructions()) {
        if (inst->name() == "back") {
            EXPECT_EQ(provenance.of(inst.get()), Provenance::Heap);
        }
    }
}

TEST(HeapProvenanceAnalysis, RevalAndChunkTranslateTheRawPointer)
{
    // guard.reval and chunk.access carry the guard/cursor in operand 0
    // and the raw pointer in operand 1; provenance must follow the
    // pointer, not the translation machinery.
    const char *text = R"(
func @f() -> i64 {
entry:
  %p = call ptr @malloc(32)
  %g = guard.w %p, epoch
  store 1, %g
  %cur = chunk.begin %p, 8
  br loop
loop:
  %h = guard.reval.r %g, %p
  %v = load i64, %h
  %ca = chunk.access.r %cur, %p
  %w = load i64, %ca
  %c = icmp.slt %v, %w
  condbr %c, loop, exit
exit:
  ret %v
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const HeapProvenance provenance(*fn);
    for (const auto &block : fn->basicBlocks()) {
        for (const auto &inst : block->instructions()) {
            if (inst->op() == ir::Opcode::Guard ||
                inst->op() == ir::Opcode::GuardReval ||
                inst->op() == ir::Opcode::ChunkAccess) {
                EXPECT_EQ(provenance.of(inst.get()), Provenance::Heap)
                    << "%" << inst->name();
            }
        }
    }
}

TEST(HeapProvenanceAnalysis, SelfReferentialPhiStaysGuardable)
{
    // A pointer-chase phi feeding its own gep: the pessimistic seed
    // makes the cycle converge to Unknown, which still takes a guard —
    // the analysis may lose precision but never soundness.
    const char *text = R"(
func @f(%n: i64) -> i64 {
entry:
  %h = call ptr @malloc(64)
  br loop
loop:
  %p = phi ptr [ %h, entry ], [ %p2, loop ]
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %p2 = gep %p, 1, 8
  %i2 = add %i, 1
  %c = icmp.slt %i2, %n
  condbr %c, loop, exit
exit:
  %v = load i64, %p
  ret %v
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const HeapProvenance provenance(*fn);
    const ir::Instruction *phi =
        fn->findBlock("loop")->instructions().front().get();
    ASSERT_EQ(phi->op(), ir::Opcode::Phi);
    EXPECT_EQ(provenance.of(phi), Provenance::Unknown);
    EXPECT_TRUE(provenance.needsGuard(phi));
}

TEST(HeapProvenanceAnalysis, AllHeapJoinStaysHeap)
{
    const char *text = R"(
func @f(%n: i64) -> i64 {
entry:
  %a = call ptr @malloc(8)
  %b = call ptr @malloc(8)
  %c = icmp.slt %n, 3
  condbr %c, l, r
l:
  br join
r:
  br join
join:
  %p = phi ptr [ %a, l ], [ %b, r ]
  %v = load i64, %p
  ret %v
}
)";
    auto parsed = parseOrDie(text);
    const ir::Function *fn = parsed.module->findFunction("f");
    const HeapProvenance provenance(*fn);
    const ir::Instruction *phi =
        fn->findBlock("join")->instructions().front().get();
    EXPECT_EQ(provenance.of(phi), Provenance::Heap);
}

} // namespace
} // namespace tfm
