/**
 * @file
 * Unit tests for the TrackFM pass pipeline and the O1 clean-up passes.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "ir/parser.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "ir_test_programs.hh"
#include "passes/guard_opt.hh"
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

std::uint64_t
countOpcode(const ir::Module &module, ir::Opcode op)
{
    std::uint64_t count = 0;
    for (const auto &function : module.allFunctions()) {
        for (const auto &block : function->basicBlocks()) {
            for (const auto &inst : block->instructions())
                count += (inst->op() == op);
        }
    }
    return count;
}

TEST(RuntimeInitPassTest, InsertsHookOnceAtMainEntry)
{
    auto module = parseOrDie(testprogs::sumProgram);
    RuntimeInitPass pass;
    EXPECT_TRUE(pass.run(*module));
    const ir::Function *main_fn = module->findFunction("main");
    const ir::Instruction *first =
        main_fn->entry()->instructions().front().get();
    EXPECT_EQ(first->op(), ir::Opcode::Call);
    EXPECT_EQ(first->callee, "tfm_runtime_init");
    // Idempotent.
    EXPECT_FALSE(pass.run(*module));
    EXPECT_EQ(ir::verifyModule(*module), "");
}

TEST(LibcTransformPassTest, RewritesAllocationCalls)
{
    auto module = parseOrDie(testprogs::sumProgram);
    LibcTransformPass pass;
    EXPECT_TRUE(pass.run(*module));
    bool found = false;
    for (const auto &block :
         module->findFunction("main")->basicBlocks()) {
        for (const auto &inst : block->instructions()) {
            if (inst->op() == ir::Opcode::Call &&
                inst->callee == "tfm_malloc") {
                found = true;
            }
            EXPECT_NE(inst->callee, "malloc");
        }
    }
    EXPECT_TRUE(found);
    EXPECT_FALSE(pass.run(*module)); // idempotent
}

TEST(GuardPassTest, GuardsHeapAccessesOnly)
{
    auto module = parseOrDie(testprogs::sumProgram);
    GuardPass pass;
    EXPECT_TRUE(pass.run(*module));
    // One store (init loop) + one load (sum loop).
    EXPECT_EQ(pass.guardsInserted(), 2u);
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Guard), 2u);
    EXPECT_EQ(ir::verifyModule(*module), "");
    // Idempotent: rerunning adds nothing.
    EXPECT_FALSE(pass.run(*module));
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Guard), 2u);
}

TEST(GuardPassTest, LeavesStackProgramAlone)
{
    auto module = parseOrDie(testprogs::stackProgram);
    GuardPass pass;
    EXPECT_FALSE(pass.run(*module));
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Guard), 0u);
}

TEST(GuardPassTest, GuardReadWriteMatchesAccess)
{
    auto module = parseOrDie(testprogs::sumProgram);
    GuardPass pass;
    pass.run(*module);
    for (const auto &block :
         module->findFunction("main")->basicBlocks()) {
        for (std::size_t i = 0; i < block->instructions().size(); i++) {
            const ir::Instruction *inst =
                block->instructions()[i].get();
            if (inst->op() != ir::Opcode::Guard)
                continue;
            const ir::Instruction *user =
                block->instructions()[i + 1].get();
            if (user->op() == ir::Opcode::Store) {
                EXPECT_TRUE(inst->isWrite);
            } else if (user->op() == ir::Opcode::Load) {
                EXPECT_FALSE(inst->isWrite);
            }
        }
    }
}

TEST(LoopChunkPassTest, CostModelRejectsLowDensity)
{
    // 8-byte elements at 4 KB objects: density 512 < break-even 730.
    auto module = parseOrDie(testprogs::sumProgram);
    GuardPass guards;
    guards.run(*module);
    TrackFmPassOptions options;
    options.objectSizeBytes = 4096;
    options.chunkPolicy = ChunkPolicy::CostModel;
    LoopChunkPass pass(options);
    EXPECT_FALSE(pass.run(*module));
    EXPECT_EQ(pass.candidatesSeen(), 2u);
    EXPECT_EQ(pass.loopsChunked(), 0u);
}

TEST(LoopChunkPassTest, CostModelAcceptsHighDensity)
{
    // 4-byte elements at 4 KB objects: density 1024 > break-even.
    auto module = parseOrDie(testprogs::sumI32Program);
    GuardPass guards;
    guards.run(*module);
    TrackFmPassOptions options;
    options.objectSizeBytes = 4096;
    options.chunkPolicy = ChunkPolicy::CostModel;
    LoopChunkPass pass(options);
    EXPECT_TRUE(pass.run(*module));
    EXPECT_EQ(pass.loopsChunked(), 2u);
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Guard), 0u);
    EXPECT_EQ(countOpcode(*module, ir::Opcode::ChunkBegin), 2u);
    EXPECT_EQ(countOpcode(*module, ir::Opcode::ChunkAccess), 2u);
    EXPECT_EQ(ir::verifyModule(*module), "");
}

TEST(LoopChunkPassTest, AllPolicyChunksRegardlessOfDensity)
{
    auto module = parseOrDie(testprogs::sumProgram);
    GuardPass guards;
    guards.run(*module);
    TrackFmPassOptions options;
    options.chunkPolicy = ChunkPolicy::All;
    LoopChunkPass pass(options);
    EXPECT_TRUE(pass.run(*module));
    EXPECT_EQ(pass.loopsChunked(), 2u);
}

TEST(PrefetchInjectionPassTest, AddsPrefetchAfterChunkBegin)
{
    auto module = parseOrDie(testprogs::sumI32Program);
    GuardPass guards;
    guards.run(*module);
    TrackFmPassOptions options;
    options.chunkPolicy = ChunkPolicy::CostModel;
    options.prefetchDepth = 6;
    LoopChunkPass chunk(options);
    chunk.run(*module);
    PrefetchInjectionPass prefetch(options);
    EXPECT_TRUE(prefetch.run(*module));
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Prefetch), 2u);
    // Idempotent.
    EXPECT_FALSE(prefetch.run(*module));
    EXPECT_EQ(ir::verifyModule(*module), "");
}

TEST(Pipeline, FullPipelineVerifiesAndGrowsCode)
{
    auto module = parseOrDie(testprogs::sumI32Program);
    const std::uint64_t before = estimateLoweredInstructions(*module);
    PassManager manager;
    TrackFmPassOptions options;
    addTrackFmPipeline(manager, options);
    const PipelineReport report = manager.run(*module);
    EXPECT_TRUE(report.ok()) << report.verifierError;
    // 5 base stages + elim, coalesce, hoist, and the second elim round.
    EXPECT_EQ(report.entries.size(), 9u);
    const std::uint64_t after = estimateLoweredInstructions(*module);
    // Section 4.6: transformed code is larger (≈2.4x on average for
    // guard-dense code).
    EXPECT_GT(after, before);
}

TEST(Pipeline, GuardDenseCodeGrowsRoughlyPaperFactor)
{
    // A function that is mostly loads/stores should grow by a factor
    // in the couple-of-x range once every access carries a 14-
    // instruction guard.
    auto module = parseOrDie(testprogs::sumProgram);
    const std::uint64_t before = estimateLoweredInstructions(*module);
    PassManager manager;
    TrackFmPassOptions options;
    options.chunkPolicy = ChunkPolicy::None; // pure guard expansion
    addTrackFmPipeline(manager, options);
    manager.run(*module);
    const std::uint64_t after = estimateLoweredInstructions(*module);
    const double growth =
        static_cast<double>(after) / static_cast<double>(before);
    EXPECT_GT(growth, 1.5);
    EXPECT_LT(growth, 6.0);
}

TEST(O1Passes, ConstantFoldingFolds)
{
    auto module = parseOrDie(testprogs::o1Program);
    ConstantFoldPass fold;
    EXPECT_TRUE(fold.run(*module));
    DeadCodeElimPass dce;
    EXPECT_TRUE(dce.run(*module));
    // %folded and %dead are gone.
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Mul), 0u);
}

TEST(O1Passes, RedundantLoadElimination)
{
    auto module = parseOrDie(testprogs::o1Program);
    RedundantLoadElimPass pass;
    EXPECT_TRUE(pass.run(*module));
    EXPECT_EQ(pass.loadsRemoved(), 1u);
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Load), 1u);
    EXPECT_EQ(ir::verifyModule(*module), "");
}

TEST(O1Passes, RedundantLoadElimStopsAtStores)
{
    const char *text = R"(
func @f(%p: ptr) -> i64 {
entry:
  %v1 = load i64, %p
  store 5, %p
  %v2 = load i64, %p
  %s = add %v1, %v2
  ret %s
}
)";
    auto module = parseOrDie(text);
    RedundantLoadElimPass pass;
    EXPECT_FALSE(pass.run(*module));
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Load), 2u);
}

TEST(O1Passes, DceKeepsSideEffects)
{
    auto module = parseOrDie(testprogs::sumProgram);
    DeadCodeElimPass pass;
    pass.run(*module);
    // Stores and calls survive even if "unused".
    EXPECT_GT(countOpcode(*module, ir::Opcode::Store), 0u);
    EXPECT_GT(countOpcode(*module, ir::Opcode::Call), 0u);
    EXPECT_EQ(ir::verifyModule(*module), "");
}

TEST(O1Passes, SimplifyCfgDropsUnreachableBlocks)
{
    const char *text = R"(
func @f() -> i64 {
entry:
  ret 1
island:
  ret 2
}
)";
    auto module = parseOrDie(text);
    SimplifyCfgPass pass;
    EXPECT_TRUE(pass.run(*module));
    EXPECT_EQ(module->findFunction("f")->basicBlocks().size(), 1u);
    EXPECT_EQ(ir::verifyModule(*module), "");
}

TEST(O1Passes, O1BeforeGuardsReducesGuardCount)
{
    // The Fig. 17b mechanism at IR level: eliminating redundant loads
    // first means fewer guards inserted.
    auto without_o1 = parseOrDie(testprogs::o1Program);
    auto with_o1 = parseOrDie(testprogs::o1Program);

    // Pretend the alloca'd buffer is heap so its accesses get guarded:
    // rewrite alloca -> malloc call for this test.
    auto heapify = [](ir::Module &module) {
        for (const auto &function : module.allFunctions()) {
            for (const auto &block : function->basicBlocks()) {
                for (const auto &inst : block->instructions()) {
                    if (inst->op() == ir::Opcode::Alloca) {
                        // Loads/stores via an Unknown-provenance value
                        // still get guarded; simply renaming provenance
                        // is easiest via a call marker.
                    }
                }
            }
        }
    };
    (void)heapify;

    // o1Program uses an alloca (NonHeap): guards skip it. Use a heap
    // variant instead.
    const char *heap_text = R"(
func @main() -> i64 {
entry:
  %buf = call ptr @malloc(16)
  store 21, %buf
  %v1 = load i64, %buf
  %v2 = load i64, %buf
  %v3 = load i64, %buf
  %sum1 = add %v1, %v2
  %sum = add %sum1, %v3
  ret %sum
}
)";
    without_o1 = parseOrDie(heap_text);
    with_o1 = parseOrDie(heap_text);

    GuardPass guards_plain;
    guards_plain.run(*without_o1);

    PassManager o1;
    addO1Pipeline(o1);
    EXPECT_TRUE(o1.run(*with_o1).ok());
    GuardPass guards_after_o1;
    guards_after_o1.run(*with_o1);

    EXPECT_EQ(guards_plain.guardsInserted(), 4u);
    EXPECT_EQ(guards_after_o1.guardsInserted(), 2u);
}

TEST(Pipeline, ReportTracksInstructionCounts)
{
    auto module = parseOrDie(testprogs::sumProgram);
    PassManager manager;
    addTrackFmPipeline(manager, TrackFmPassOptions{});
    const PipelineReport report = manager.run(*module);
    EXPECT_TRUE(report.ok());
    EXPECT_GT(report.instructionsAfter, report.instructionsBefore);
}

// ---------------------------------------------------------------------
// Guard optimization suite
// ---------------------------------------------------------------------

TEST(RedundantGuardElim, MergesSamePointerPairAndPromotesToWrite)
{
    auto module = parseOrDie(testprogs::invariantAccumulatorProgram);
    GuardPass guards;
    guards.run(*module);
    ASSERT_EQ(guards.guardsInserted(), 4u);

    RedundantGuardElimPass elim;
    EXPECT_TRUE(elim.run(*module));
    // Only the in-loop load/store pair merges; the entry->loop and
    // loop->exit candidates sit across loop back edges (any path from
    // the dominator re-enters the runtime) and must survive.
    EXPECT_EQ(elim.guardsEliminated(), 1u);
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Guard), 3u);
    EXPECT_EQ(ir::verifyModule(*module), "");

    // The surviving in-loop guard absorbed the store's dirty intent.
    bool found_write_guard_feeding_load = false;
    for (const auto &block :
         module->findFunction("main")->basicBlocks()) {
        for (const auto &inst : block->instructions()) {
            if (inst->op() == ir::Opcode::Guard && inst->isWrite &&
                block->name() == "loop") {
                found_write_guard_feeding_load = true;
            }
        }
    }
    EXPECT_TRUE(found_write_guard_feeding_load);
}

TEST(RedundantGuardElim, ForeignGuardIsABarrier)
{
    auto module = parseOrDie(testprogs::twoObjectProgram);
    GuardPass guards;
    guards.run(*module);
    ASSERT_EQ(guards.guardsInserted(), 4u);

    RedundantGuardElimPass elim;
    // store %x / load %x are separated by the guard on %y (a runtime
    // entry that can evict %x's frame), and vice versa: nothing merges.
    EXPECT_FALSE(elim.run(*module));
    EXPECT_EQ(elim.guardsEliminated(), 0u);
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Guard), 4u);
}

TEST(GuardCoalesce, CollapsesStructFieldsOntoBase)
{
    auto module = parseOrDie(testprogs::structFieldsProgram);
    GuardPass guards;
    guards.run(*module);
    ASSERT_EQ(guards.guardsInserted(), 6u);

    GuardCoalescePass coalesce(4096);
    EXPECT_TRUE(coalesce.run(*module));
    EXPECT_EQ(coalesce.guardsCoalesced(), 5u);
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Guard), 1u);
    EXPECT_EQ(ir::verifyModule(*module), "");

    // The merged guard carries the members' write intent.
    for (const auto &block :
         module->findFunction("main")->basicBlocks()) {
        for (const auto &inst : block->instructions()) {
            if (inst->op() == ir::Opcode::Guard) {
                EXPECT_TRUE(inst->isWrite);
            }
        }
    }
}

TEST(GuardCoalesce, RespectsObjectBoundary)
{
    // Offsets 0 and 1*8 of a 64-byte allocation, but a 8-byte object
    // size: the fields land in different AIFM objects, so they must
    // NOT share one guard.
    const char *text = R"(
func @main() -> i64 {
entry:
  %s = call ptr @malloc(64)
  store 1, %s
  %f1 = gep %s, 1, 8
  store 2, %f1
  ret 0
}
)";
    auto module = parseOrDie(text);
    GuardPass guards;
    guards.run(*module);
    ASSERT_EQ(guards.guardsInserted(), 2u);
    GuardCoalescePass coalesce(8);
    EXPECT_FALSE(coalesce.run(*module));
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Guard), 2u);
}

TEST(GuardHoist, HoistsInvariantGuardAndInsertsReval)
{
    auto module = parseOrDie(testprogs::invariantAccumulatorProgram);
    GuardPass guards;
    guards.run(*module);

    GuardHoistPass hoist;
    EXPECT_TRUE(hoist.run(*module));
    // Both in-loop guards (load and store) have the invariant pointer.
    EXPECT_EQ(hoist.guardsHoisted(), 2u);
    EXPECT_EQ(countOpcode(*module, ir::Opcode::GuardReval), 2u);
    EXPECT_EQ(ir::verifyModule(*module), "");

    // The arming guards sit in the preheader (entry), flagged.
    const ir::Function *main_fn = module->findFunction("main");
    unsigned armers_in_entry = 0;
    for (const auto &inst : main_fn->entry()->instructions()) {
        if (inst->op() == ir::Opcode::Guard && inst->armsEpoch)
            armers_in_entry++;
    }
    EXPECT_EQ(armers_in_entry, 2u);

    // A second elimination round dedups the preheader armers (their
    // remaining uses are epoch-checked guard.reval operands).
    RedundantGuardElimPass elim;
    EXPECT_TRUE(elim.run(*module));
    EXPECT_EQ(ir::verifyModule(*module), "");
    unsigned armers_after = 0;
    for (const auto &inst : main_fn->entry()->instructions()) {
        if (inst->op() == ir::Opcode::Guard && inst->armsEpoch)
            armers_after++;
    }
    EXPECT_EQ(armers_after, 1u);
}

TEST(GuardHoist, LeavesVariantPointersAlone)
{
    auto module = parseOrDie(testprogs::sumProgram);
    GuardPass guards;
    guards.run(*module);
    GuardHoistPass hoist;
    // Strided geps are not loop-invariant: nothing to hoist.
    EXPECT_FALSE(hoist.run(*module));
    EXPECT_EQ(countOpcode(*module, ir::Opcode::GuardReval), 0u);
}

TEST(GuardOptPipeline, SiteReportAccountsForEveryGuard)
{
    auto module = parseOrDie(testprogs::invariantAccumulatorProgram);
    GuardSiteReport report;
    TrackFmPassOptions options;
    options.siteReport = &report;
    PassManager manager;
    addTrackFmPipeline(manager, options);
    ASSERT_TRUE(manager.run(*module).ok());

    EXPECT_EQ(report.totalInserted(), 4u);
    EXPECT_EQ(report.totalEliminated(), 2u);
    EXPECT_EQ(report.totalHoisted(), 1u);
    ASSERT_EQ(report.sites.size(), 1u);
    EXPECT_EQ(report.sites[0].function, "main");
    // Static remains: the arming entry guard + the exit load guard.
    const StaticGuardCounts counts = countStaticGuards(*module);
    EXPECT_EQ(counts.guards, 2u);
    EXPECT_EQ(counts.revals, 1u);
}

// ---------------------------------------------------------------------
// Differential harness: every test program must behave identically at
// O0 (guard optimization off) and with the full guard-opt pipeline.
// ---------------------------------------------------------------------

std::uint64_t
heapChecksum(System &system)
{
    const std::uint64_t frontier =
        system.runtime().runtime().allocator().frontier();
    std::uint64_t sum = 1469598103934665603ull;
    for (std::uint64_t off = 0; off < frontier; off += 8) {
        std::uint64_t word = 0;
        const std::size_t len = static_cast<std::size_t>(
            frontier - off >= 8 ? 8 : frontier - off);
        system.runtime().runtime().rawRead(off, &word, len);
        sum = (sum ^ word) * 1099511628211ull;
    }
    return sum;
}

SystemConfig
differentialConfig(bool optimize_guards)
{
    SystemConfig config;
    config.runtime.farHeapBytes = 8u << 20;
    config.runtime.localMemBytes = 1u << 20;
    config.runtime.objectSizeBytes = 4096;
    config.passes.optimizeGuards = optimize_guards;
    return config;
}

void
runDifferential(const char *label, const char *text)
{
    SCOPED_TRACE(label);
    System baseline(differentialConfig(false));
    System optimized(differentialConfig(true));

    CompileResult base_compiled = baseline.compile(text);
    CompileResult opt_compiled = optimized.compile(text);
    ASSERT_TRUE(base_compiled.ok()) << base_compiled.error;
    ASSERT_TRUE(opt_compiled.ok()) << opt_compiled.error;

    const RunResult base_run = baseline.run(*base_compiled.program);
    const RunResult opt_run = optimized.run(*opt_compiled.program);

    EXPECT_EQ(base_run.trapped, opt_run.trapped);
    EXPECT_EQ(base_run.trapMessage, opt_run.trapMessage);
    EXPECT_EQ(base_run.returnValue, opt_run.returnValue);
    EXPECT_EQ(base_run.output, opt_run.output);
    EXPECT_EQ(heapChecksum(baseline), heapChecksum(optimized));
}

TEST(GuardOptDifferential, AllTestProgramsMatchAtEveryOptLevel)
{
    runDifferential("sum", testprogs::sumProgram);
    runDifferential("sumI32", testprogs::sumI32Program);
    runDifferential("stack", testprogs::stackProgram);
    runDifferential("o1", testprogs::o1Program);
    runDifferential("invariantAccumulator",
                    testprogs::invariantAccumulatorProgram);
    runDifferential("structFields", testprogs::structFieldsProgram);
    runDifferential("twoObject", testprogs::twoObjectProgram);
    runDifferential("evacuationLoop", testprogs::evacuationLoopProgram);
}

TEST(GuardOptDifferential, MidLoopEvacuationForcesRevalMisses)
{
    System optimized(differentialConfig(true));
    CompileResult compiled =
        optimized.compile(testprogs::evacuationLoopProgram);
    ASSERT_TRUE(compiled.ok()) << compiled.error;
    const RunResult result = optimized.run(*compiled.program);
    ASSERT_FALSE(result.trapped) << result.trapMessage;
    EXPECT_EQ(result.returnValue, 4950);
    // Every iteration's evacuation bumps the epoch, so the hoisted
    // guard's revalidation must miss and re-run the full guard.
    const GuardStats &stats = optimized.runtime().guardStats();
    EXPECT_GT(stats.revalidations, 0u);
    EXPECT_GT(stats.revalidationMisses, 0u);
}

TEST(GuardOptDifferential, DynamicGuardsDropAtLeastTwofold)
{
    System baseline(differentialConfig(false));
    System optimized(differentialConfig(true));
    CompileResult base_compiled =
        baseline.compile(testprogs::invariantAccumulatorProgram);
    CompileResult opt_compiled =
        optimized.compile(testprogs::invariantAccumulatorProgram);
    ASSERT_TRUE(base_compiled.ok());
    ASSERT_TRUE(opt_compiled.ok());

    const RunResult base_run = baseline.run(*base_compiled.program);
    const RunResult opt_run = optimized.run(*opt_compiled.program);
    ASSERT_EQ(base_run.returnValue, opt_run.returnValue);

    const std::uint64_t base_guards =
        baseline.runtime().guardStats().guardTotal();
    const std::uint64_t opt_guards =
        optimized.runtime().guardStats().guardTotal();
    // Acceptance bar: >= 2x fewer dynamic guards at identical output.
    EXPECT_GE(base_guards, 2 * opt_guards);
}

} // namespace
} // namespace tfm
