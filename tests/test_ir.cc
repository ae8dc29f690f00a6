/**
 * @file
 * Unit tests for the IR core: types, builder, parser, printer,
 * verifier.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "ir/builder.hh"
#include "ir/parser.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "ir_test_programs.hh"

namespace tfm
{
namespace
{

using namespace ir;

ParseResult
parseOrDie(const char *text)
{
    ParseResult result = parseModule(text);
    EXPECT_TRUE(result.ok()) << result.error << " at line "
                             << result.errorLine;
    return result;
}

TEST(IrType, SizesAndNames)
{
    EXPECT_EQ(sizeOf(Type::I8), 1u);
    EXPECT_EQ(sizeOf(Type::I32), 4u);
    EXPECT_EQ(sizeOf(Type::I64), 8u);
    EXPECT_EQ(sizeOf(Type::F64), 8u);
    EXPECT_EQ(sizeOf(Type::Ptr), 8u);
    EXPECT_STREQ(typeName(Type::Ptr), "ptr");
    Type parsed;
    EXPECT_TRUE(typeFromName("i32", parsed));
    EXPECT_EQ(parsed, Type::I32);
    EXPECT_FALSE(typeFromName("i128", parsed));
}

TEST(IrBuilder, ConstructsAValidFunction)
{
    Module module;
    Function *fn = module.addFunction("double_it", Type::I64);
    Argument *x = fn->addArgument(Type::I64, "x");
    fn->addBlock("entry");
    IRBuilder builder(fn);
    Instruction *doubled =
        builder.binary(Opcode::Add, x, x, "doubled");
    builder.ret(doubled);
    EXPECT_TRUE(verifyModule(module).empty());
    EXPECT_EQ(fn->instructionCount(), 2u);
}

TEST(IrParser, ParsesTheSumProgram)
{
    auto result = parseOrDie(testprogs::sumProgram);
    Function *main_fn = result.module->findFunction("main");
    ASSERT_NE(main_fn, nullptr);
    EXPECT_EQ(main_fn->basicBlocks().size(), 5u);
    EXPECT_TRUE(verifyModule(*result.module).empty());
}

TEST(IrParser, RoundTripsThroughThePrinter)
{
    auto first = parseOrDie(testprogs::sumProgram);
    const std::string printed = moduleToString(*first.module);
    auto second = parseModule(printed);
    ASSERT_TRUE(second.ok()) << second.error;
    // Printing again must be a fixpoint.
    EXPECT_EQ(moduleToString(*second.module), printed);
}

TEST(IrParser, ReportsUnknownOpcode)
{
    const auto result = parseModule(
        "func @f() -> i64 {\nentry:\n  %x = frobnicate 1, 2\n  ret %x\n}\n");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("unknown opcode"), std::string::npos);
    EXPECT_EQ(result.errorLine, 3);
}

TEST(IrParser, ReportsUndefinedValue)
{
    const auto result = parseModule(
        "func @f() -> i64 {\nentry:\n  ret %nope\n}\n");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("undefined value"), std::string::npos);
}

TEST(IrParser, ReportsUndefinedBlock)
{
    const auto result =
        parseModule("func @f() -> i64 {\nentry:\n  br nowhere\n}\n");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("undefined block"), std::string::npos);
}

TEST(IrParser, ForwardPhiReferencesResolve)
{
    // %i2 is used in the phi before its definition.
    auto result = parseOrDie(testprogs::sumProgram);
    Function *main_fn = result.module->findFunction("main");
    const BasicBlock *init = main_fn->findBlock("init");
    const Instruction *phi = init->instructions().front().get();
    ASSERT_EQ(phi->op(), Opcode::Phi);
    ASSERT_EQ(phi->incoming().size(), 2u);
    for (const auto &[value, block] : phi->incoming())
        EXPECT_NE(value, nullptr) << "unresolved phi in " << block->name();
}

TEST(IrParser, ParsesGuardAndChunkOps)
{
    const char *text = R"(
func @f(%p: ptr) -> i64 {
entry:
  %g = guard.r %p
  %v = load i64, %g
  %cur = chunk.begin %p, 8
  prefetch %p, 8
  %h = chunk.access.w %cur, %p
  store %v, %h
  ret %v
}
)";
    auto result = parseOrDie(text);
    const Function *fn = result.module->findFunction("f");
    const auto &insts = fn->entry()->instructions();
    EXPECT_EQ(insts[0]->op(), Opcode::Guard);
    EXPECT_FALSE(insts[0]->isWrite);
    EXPECT_EQ(insts[2]->op(), Opcode::ChunkBegin);
    EXPECT_EQ(insts[2]->imm, 8);
    EXPECT_EQ(insts[3]->op(), Opcode::Prefetch);
    EXPECT_EQ(insts[4]->op(), Opcode::ChunkAccess);
    EXPECT_TRUE(insts[4]->isWrite);
    // Round trip.
    const std::string printed = moduleToString(*result.module);
    auto again = parseModule(printed);
    ASSERT_TRUE(again.ok()) << again.error;
    EXPECT_EQ(moduleToString(*again.module), printed);
}

TEST(IrParser, ParsesEpochGuardAndReval)
{
    const char *text = R"(
func @f(%p: ptr) -> i64 {
entry:
  %g = guard.w %p, epoch
  store 1, %g
  %h = guard.reval.w %g, %p
  store 2, %h
  %r = guard.reval.r %g, %p
  %v = load i64, %r
  ret %v
}
)";
    auto result = parseOrDie(text);
    const Function *fn = result.module->findFunction("f");
    const auto &insts = fn->entry()->instructions();
    EXPECT_EQ(insts[0]->op(), Opcode::Guard);
    EXPECT_TRUE(insts[0]->armsEpoch);
    EXPECT_TRUE(insts[0]->isWrite);
    EXPECT_EQ(insts[2]->op(), Opcode::GuardReval);
    EXPECT_TRUE(insts[2]->isWrite);
    EXPECT_EQ(insts[2]->operand(0), insts[0].get());
    EXPECT_EQ(insts[4]->op(), Opcode::GuardReval);
    EXPECT_FALSE(insts[4]->isWrite);
    EXPECT_EQ(verifyModule(*result.module), "");
    // Round trip is a printing fixpoint and preserves the epoch flag.
    const std::string printed = moduleToString(*result.module);
    EXPECT_NE(printed.find("epoch"), std::string::npos);
    auto again = parseModule(printed);
    ASSERT_TRUE(again.ok()) << again.error;
    EXPECT_EQ(moduleToString(*again.module), printed);
}

TEST(IrVerifier, RejectsRevalOfNonArmingGuard)
{
    // The arming guard lacks the epoch flag.
    const char *text = R"(
func @f(%p: ptr) -> i64 {
entry:
  %g = guard.r %p
  %h = guard.reval.r %g, %p
  %v = load i64, %h
  ret %v
}
)";
    auto result = parseOrDie(text);
    EXPECT_NE(
        verifyModule(*result.module).find("epoch-arming"),
        std::string::npos);
}

TEST(IrVerifier, RejectsRevalWhoseArmerDoesNotDominate)
{
    // The armer sits in one arm of a diamond; the reval at the join is
    // reachable through the other arm with no epoch snapshot taken.
    const char *text = R"(
func @f(%p: ptr, %n: i64) -> i64 {
entry:
  %c = icmp.slt %n, 3
  condbr %c, a, b
a:
  %g = guard.w %p, epoch
  store 1, %g
  br join
b:
  br join
join:
  %h = guard.reval.r %g, %p
  %v = load i64, %h
  ret %v
}
)";
    auto result = parseOrDie(text);
    EXPECT_NE(verifyModule(*result.module).find("does not dominate"),
              std::string::npos);
}

TEST(IrVerifier, RejectsAmbiguousDuplicateArmers)
{
    auto result = parseOrDie(R"(
func @f(%p: ptr) -> i64 {
entry:
  %g = guard.w %p, epoch
  store 1, %g
  %h = guard.reval.r %g, %p
  %v = load i64, %h
  ret %v
}
)");
    Function *fn = result.module->findFunction("f");
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(verifyModule(*result.module), "");
    // Forge a second epoch-arming guard that shadows %g's name — the
    // parser cannot produce this, but a buggy pass can.
    auto dup = IRBuilder::make(Opcode::Guard, Type::Ptr, "g");
    dup->addOperand(fn->arguments()[0].get());
    dup->armsEpoch = true;
    dup->isWrite = true;
    fn->entry()->insertAt(2, std::move(dup));
    EXPECT_NE(verifyModule(*result.module).find("ambiguous"),
              std::string::npos);
}

TEST(IrParser, RecordsLineAndColumnDebugInfo)
{
    const char *text = "func @f(%p: ptr) -> i64 {\n"
                       "entry:\n"
                       "  %g = guard.r %p\n"
                       "  %v = load i64, %g\n"
                       "  ret %v\n"
                       "}\n";
    auto result = parseOrDie(text);
    const auto &insts =
        result.module->findFunction("f")->entry()->instructions();
    EXPECT_EQ(insts[0]->debugLine, 3);
    EXPECT_EQ(insts[1]->debugLine, 4);
    EXPECT_EQ(insts[2]->debugLine, 5);
    for (const auto &inst : insts)
        EXPECT_GT(inst->debugCol, 0) << "%" << inst->name();
}

TEST(IrVerifier, RejectsRevalOfNonGuard)
{
    const char *text = R"(
func @f(%p: ptr) -> i64 {
entry:
  %x = add 1, 2
  %h = guard.reval.r %x, %p
  %v = load i64, %h
  ret %v
}
)";
    auto result = parseOrDie(text);
    EXPECT_NE(
        verifyModule(*result.module).find("epoch-arming"),
        std::string::npos);
}

TEST(IrVerifier, RejectsWrongGuardOperandCounts)
{
    Module module;
    Function *fn = module.addFunction("f", Type::Void);
    fn->addBlock("entry");
    IRBuilder builder(fn);
    // A guard with no pointer operand.
    auto bad = IRBuilder::make(Opcode::Guard, Type::Ptr, "g");
    fn->entry()->append(std::move(bad));
    builder.ret();
    EXPECT_NE(verifyModule(module).find("guard"), std::string::npos);
}

TEST(IrVerifier, CatchesMissingTerminator)
{
    Module module;
    Function *fn = module.addFunction("f", Type::Void);
    fn->addBlock("entry");
    IRBuilder builder(fn);
    builder.binary(Opcode::Add, builder.constI64(1), builder.constI64(2),
                   "x");
    EXPECT_NE(verifyModule(module).find("missing terminator"),
              std::string::npos);
}

TEST(IrVerifier, CatchesPhiFromNonPredecessor)
{
    Module module;
    Function *fn = module.addFunction("f", Type::I64);
    BasicBlock *entry = fn->addBlock("entry");
    BasicBlock *other = fn->addBlock("other");
    BasicBlock *exit_block = fn->addBlock("exit");
    IRBuilder builder(fn);
    builder.setBlock(entry);
    builder.br(exit_block);
    builder.setBlock(other);
    builder.br(exit_block);
    builder.setBlock(exit_block);
    Instruction *phi = builder.phi(Type::I64, "x");
    // "entry2" is not a predecessor of exit: wire a bogus incoming.
    BasicBlock *bogus = fn->addBlock("bogus");
    builder.setBlock(bogus);
    builder.ret(builder.constI64(0));
    phi->incoming().emplace_back(builder.constI64(1), bogus);
    builder.setBlock(exit_block);
    builder.ret(phi);
    EXPECT_NE(verifyModule(module).find("non-predecessor"),
              std::string::npos);
}

TEST(IrVerifier, AcceptsAllTestPrograms)
{
    for (const char *program :
         {testprogs::sumProgram, testprogs::sumI32Program,
          testprogs::stackProgram, testprogs::o1Program,
          testprogs::invariantAccumulatorProgram,
          testprogs::structFieldsProgram,
          testprogs::evacuationLoopProgram,
          testprogs::twoObjectProgram}) {
        auto result = parseOrDie(program);
        EXPECT_EQ(verifyModule(*result.module), "");
    }
}

/**
 * Every argument and instruction of @p module has an id unique within
 * its function and below valueIdLimit(); constant operands have none.
 */
void
expectDenseValueIds(const Module &module, const std::string &label)
{
    for (const auto &function : module.allFunctions()) {
        const std::uint32_t limit = function->valueIdLimit();
        std::vector<bool> seen(limit, false);
        auto claim = [&](const Value &value) {
            ASSERT_LT(value.localId(), limit)
                << label << ": @" << function->name() << " %"
                << value.name();
            EXPECT_FALSE(seen[value.localId()])
                << label << ": @" << function->name() << " %"
                << value.name() << " reuses id " << value.localId();
            seen[value.localId()] = true;
        };
        for (const auto &arg : function->arguments())
            claim(*arg);
        for (const auto &block : function->basicBlocks()) {
            for (const auto &inst : block->instructions()) {
                claim(*inst);
                for (const Value *operand : inst->operands()) {
                    if (operand->isConstant()) {
                        EXPECT_EQ(operand->localId(), Value::noLocalId)
                            << label;
                    }
                }
            }
        }
    }
}

TEST(IrValueIds, StampedInOrderAndNeverReused)
{
    Module module;
    Function *fn = module.addFunction("f", Type::I64);
    Argument *x = fn->addArgument(Type::I64, "x");
    BasicBlock *entry = fn->addBlock("entry");
    IRBuilder builder(fn);
    Instruction *a = builder.binary(Opcode::Add, x, x, "a");
    Instruction *ret = builder.ret(a);
    EXPECT_EQ(x->localId(), 0u);
    EXPECT_EQ(a->localId(), 1u);
    EXPECT_EQ(ret->localId(), 2u);
    EXPECT_EQ(fn->valueIdLimit(), 3u);
    EXPECT_EQ(builder.constI64(5)->localId(), Value::noLocalId);

    entry->removeAt(0);
    EXPECT_EQ(fn->valueIdLimit(), 3u); // the hole is not reclaimed
    auto b = std::make_unique<Instruction>(Opcode::Add, Type::I64, "b");
    EXPECT_EQ(b->localId(), Value::noLocalId);
    b->addOperand(x);
    b->addOperand(x);
    EXPECT_EQ(entry->insertAt(0, std::move(b))->localId(), 3u);
    EXPECT_EQ(fn->valueIdLimit(), 4u);
    // The id sits in padding: a Value is a vtable pointer, the kind,
    // type and id words, and the name.
    EXPECT_EQ(sizeof(Value), sizeof(void *) + 8 + sizeof(std::string));
}

TEST(IrValueIds, DenseAfterParseAndFullPipeline)
{
    std::vector<std::pair<std::string, std::string>> sources;
    for (const testprogs::CorpusProgram &entry : testprogs::kCorpus)
        sources.emplace_back(entry.name, entry.source);
    const std::filesystem::path dir =
        std::filesystem::path(TFM_REPO_ROOT) / "examples";
    for (const auto &file : std::filesystem::directory_iterator(dir)) {
        if (file.path().extension() != ".tir")
            continue;
        std::ifstream in(file.path());
        std::ostringstream buffer;
        buffer << in.rdbuf();
        sources.emplace_back(file.path().filename().string(),
                             buffer.str());
    }
    ASSERT_GT(sources.size(), std::size(testprogs::kCorpus));
    for (const auto &[name, source] : sources) {
        const ParseResult parsed = parseOrDie(source.c_str());
        ASSERT_TRUE(parsed.ok()) << name;
        expectDenseValueIds(*parsed.module, name + "/parsed");
        for (const bool hybrid : {false, true}) {
            SystemConfig config;
            config.passes.arbiterMode =
                hybrid ? ArbiterMode::Auto : ArbiterMode::Off;
            System system(config);
            const CompileResult compiled = system.compile(source);
            ASSERT_TRUE(compiled.ok()) << name << ": " << compiled.error;
            expectDenseValueIds(compiled.program->ir(),
                                name + (hybrid ? "/hybrid" : "/full"));
        }
    }
}

TEST(IrModule, InstructionCountSumsFunctions)
{
    auto result = parseOrDie(testprogs::sumProgram);
    EXPECT_GT(result.module->instructionCount(), 15u);
}

} // namespace
} // namespace tfm
