/**
 * @file
 * Tests for the hybrid guard/paging data plane (DESIGN.md §4l): the
 * static access-pattern analysis, the per-site path arbiter, the
 * mixed-plane safety diagnostic, the seq/rand allocation profile
 * (serialize/parse/merge), and the corpus-wide differential gate that
 * pins hybrid execution bit-exact against the pure guard plane.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "analysis/access_pattern.hh"
#include "analysis/guard_safety.hh"
#include "core/system.hh"
#include "fastswap/paged_plane.hh"
#include "ir/parser.hh"
#include "passes/hot_alloc_pruning.hh"
#include "passes/path_arbiter.hh"
#include "tfm/tfm_runtime.hh"
#include "ir_test_programs.hh"

namespace tfm
{
namespace
{

using testprogs::kCorpus;

ir::ParseResult
parseOrDie(const char *text)
{
    auto result = ir::parseModule(text);
    EXPECT_TRUE(result.ok()) << result.error;
    return result;
}

SystemConfig
hybridConfig(ArbiterMode mode, bool optimize)
{
    SystemConfig config;
    config.runtime.farHeapBytes = 4 << 20;
    config.runtime.localMemBytes = 256 << 10;
    config.checkSafety = true;
    config.preOptimize = optimize;
    config.passes.optimizeGuards = optimize;
    config.passes.arbiterMode = mode;
    return config;
}

/** A dense loop plus a pointer chase on one allocation: Mixed. */
const char *const mixedProgram = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(8000)
  br init
init:
  %i = phi i64 [ 0, entry ], [ %i2, init ]
  %p = gep %a, %i, 8
  store %i, %p
  %i2 = add %i, 1
  %c = icmp.slt %i2, 1000
  condbr %c, init, chase
chase:
  %addr = load i64, %a
  %q = inttoptr %addr to ptr
  %v = load i64, %q
  ret %v
}
)";

// ---------------------------------------------------------------------
// Access-pattern analysis: verdicts and evidence
// ---------------------------------------------------------------------

TEST(AccessPattern, UnitStrideLoopIsDense)
{
    auto parsed = parseOrDie(testprogs::sumProgram);
    const AccessPatternAnalysis analysis(*parsed.module);
    ASSERT_EQ(analysis.sites().size(), 1u);
    const SiteAccessSummary &site = analysis.sites()[0];
    EXPECT_EQ(site.ordinal, 0u);
    EXPECT_EQ(site.verdict(), AccessVerdict::Dense);
    EXPECT_FALSE(site.escapes);
    ASSERT_EQ(site.strides.size(), 2u); // init store + sum load
    for (const StrideEvidence &ev : site.strides)
        EXPECT_EQ(ev.strideBytes, 8);
    EXPECT_TRUE(site.chases.empty());
}

TEST(AccessPattern, ConstantNonUnitStrideIsDense)
{
    // a[2*i] over 8-byte elements: byte stride 16, still within one
    // cache line per iteration.
    auto parsed = parseOrDie(testprogs::stridedProgram);
    const AccessPatternAnalysis analysis(*parsed.module);
    ASSERT_EQ(analysis.sites().size(), 1u);
    const SiteAccessSummary &site = analysis.sites()[0];
    EXPECT_EQ(site.verdict(), AccessVerdict::Dense);
    ASSERT_FALSE(site.strides.empty());
    for (const StrideEvidence &ev : site.strides)
        EXPECT_EQ(ev.strideBytes, 16);
}

TEST(AccessPattern, NegativeStrideIsDense)
{
    const char *text = R"(
func @main() -> i64 {
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
    const AccessPatternAnalysis analysis(*parsed.module);
    ASSERT_EQ(analysis.sites().size(), 1u);
    const SiteAccessSummary &site = analysis.sites()[0];
    ASSERT_EQ(site.strides.size(), 1u);
    EXPECT_EQ(site.strides[0].strideBytes, -8);
    EXPECT_EQ(site.verdict(), AccessVerdict::Dense);
}

TEST(AccessPattern, CacheLineExceedingStrideIsSparse)
{
    const char *text = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(1048576)
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %d = mul %i, 512
  %p = gep %a, %d, 8
  store %i, %p
  %i2 = add %i, 1
  %c = icmp.slt %i2, 256
  condbr %c, loop, exit
exit:
  ret 0
}
)";
    auto parsed = parseOrDie(text);
    const AccessPatternAnalysis analysis(*parsed.module);
    ASSERT_EQ(analysis.sites().size(), 1u);
    const SiteAccessSummary &site = analysis.sites()[0];
    ASSERT_EQ(site.strides.size(), 1u);
    EXPECT_EQ(site.strides[0].strideBytes, 4096);
    EXPECT_EQ(site.verdict(), AccessVerdict::Sparse);
}

TEST(AccessPattern, PointerChaseIsSparse)
{
    // The address itself is loaded out of the site's memory: the
    // classic next-pointer traversal.
    const char *text = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(4096)
  br loop
loop:
  %p = phi ptr [ %a, entry ], [ %q, loop ]
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %addr = load i64, %p
  %q = inttoptr %addr to ptr
  %i2 = add %i, 1
  %c = icmp.slt %i2, 100
  condbr %c, loop, exit
exit:
  ret 0
}
)";
    auto parsed = parseOrDie(text);
    const AccessPatternAnalysis analysis(*parsed.module);
    ASSERT_EQ(analysis.sites().size(), 1u);
    const SiteAccessSummary &site = analysis.sites()[0];
    EXPECT_FALSE(site.chases.empty());
    EXPECT_EQ(site.verdict(), AccessVerdict::Sparse);
    EXPECT_GT(site.chaseScore(), 0.0);
}

TEST(AccessPattern, DensePlusChaseIsMixed)
{
    auto parsed = parseOrDie(mixedProgram);
    const AccessPatternAnalysis analysis(*parsed.module);
    ASSERT_EQ(analysis.sites().size(), 1u);
    const SiteAccessSummary &site = analysis.sites()[0];
    EXPECT_FALSE(site.strides.empty());
    EXPECT_FALSE(site.chases.empty());
    EXPECT_EQ(site.verdict(), AccessVerdict::Mixed);
}

TEST(AccessPattern, StraightLineOnlyIsUnknown)
{
    // Out-of-loop accesses carry no iteration-order signal; they are
    // counted but do not vote.
    auto parsed = parseOrDie(testprogs::structFieldsProgram);
    const AccessPatternAnalysis analysis(*parsed.module);
    ASSERT_EQ(analysis.sites().size(), 1u);
    const SiteAccessSummary &site = analysis.sites()[0];
    EXPECT_EQ(site.verdict(), AccessVerdict::Unknown);
    EXPECT_EQ(site.straightLineAccesses, 6u);
    EXPECT_TRUE(site.strides.empty());
}

TEST(AccessPattern, UnknownCalleeEscapes)
{
    const char *text = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(64)
  call void @mystery(%a)
  ret 0
}
)";
    auto parsed = parseOrDie(text);
    const AccessPatternAnalysis analysis(*parsed.module);
    ASSERT_EQ(analysis.sites().size(), 1u);
    EXPECT_TRUE(analysis.sites()[0].escapes);
    EXPECT_NE(analysis.sites()[0].escapeReason.find("mystery"),
              std::string::npos)
        << analysis.sites()[0].escapeReason;
}

TEST(AccessPattern, ReallocEscapesTheSite)
{
    // A pointer reaching realloc may be freed and replaced mid-life;
    // the site must stay on the guard plane.
    const char *text = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(64)
  %b = call ptr @realloc(%a, 128)
  ret 0
}
)";
    auto parsed = parseOrDie(text);
    const AccessPatternAnalysis analysis(*parsed.module);
    ASSERT_EQ(analysis.sites().size(), 1u);
    EXPECT_TRUE(analysis.sites()[0].escapes);
}

TEST(AccessPattern, StoreToUntrackedMemoryEscapes)
{
    const char *text = R"(
func @main(%out: ptr) -> i64 {
entry:
  %a = call ptr @malloc(64)
  %v = ptrtoint %a to i64
  store %v, %out
  ret 0
}
)";
    auto parsed = parseOrDie(text);
    const AccessPatternAnalysis analysis(*parsed.module);
    ASSERT_EQ(analysis.sites().size(), 1u);
    EXPECT_TRUE(analysis.sites()[0].escapes);
}

TEST(AccessPattern, PhiMergingTwoSitesFlagsAliasing)
{
    const char *text = R"(
func @main(%n: i64) -> i64 {
entry:
  %a = call ptr @malloc(64)
  %b = call ptr @malloc(64)
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
    const AccessPatternAnalysis analysis(*parsed.module);
    ASSERT_EQ(analysis.sites().size(), 2u);
    EXPECT_TRUE(analysis.sites()[0].aliasesOther);
    EXPECT_TRUE(analysis.sites()[1].aliasesOther);
}

TEST(AccessPattern, InterproceduralStrideViaCalleeSummary)
{
    // The dense loop lives in a callee; the caller's site must inherit
    // the stride evidence through the parameter summary.
    const char *text = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(8000)
  %r = call i64 @fill(%a)
  ret %r
}
func @fill(%p: ptr) -> i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %q = gep %p, %i, 8
  store %i, %q
  %i2 = add %i, 1
  %c = icmp.slt %i2, 1000
  condbr %c, loop, exit
exit:
  ret 0
}
)";
    auto parsed = parseOrDie(text);
    const AccessPatternAnalysis analysis(*parsed.module);
    ASSERT_EQ(analysis.sites().size(), 1u);
    const SiteAccessSummary &site = analysis.sites()[0];
    EXPECT_FALSE(site.escapes);
    ASSERT_FALSE(site.strides.empty());
    EXPECT_EQ(site.strides[0].strideBytes, 8);
    EXPECT_EQ(site.strides[0].viaCallee, "fill");
    EXPECT_EQ(site.verdict(), AccessVerdict::Dense);
}

TEST(AccessPattern, NestedLoopIterationOrderWitness)
{
    // Row-major a[i*16 + j]: innermost stride 8, outer 128.
    const char *rowMajor = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(32768)
  br outer
outer:
  %i = phi i64 [ 0, entry ], [ %i2, outer.latch ]
  br inner
inner:
  %j = phi i64 [ 0, outer ], [ %j2, inner ]
  %row = mul %i, 16
  %idx = add %row, %j
  %p = gep %a, %idx, 8
  store %idx, %p
  %j2 = add %j, 1
  %cj = icmp.slt %j2, 16
  condbr %cj, inner, outer.latch
outer.latch:
  %i2 = add %i, 1
  %ci = icmp.slt %i2, 16
  condbr %ci, outer, exit
exit:
  ret 0
}
)";
    // Interchanged a[j*16 + i]: innermost stride 128, outer 8.
    const char *columnMajor = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(32768)
  br outer
outer:
  %i = phi i64 [ 0, entry ], [ %i2, outer.latch ]
  br inner
inner:
  %j = phi i64 [ 0, outer ], [ %j2, inner ]
  %row = mul %j, 16
  %idx = add %row, %i
  %p = gep %a, %idx, 8
  store %idx, %p
  %j2 = add %j, 1
  %cj = icmp.slt %j2, 16
  condbr %cj, inner, outer.latch
outer.latch:
  %i2 = add %i, 1
  %ci = icmp.slt %i2, 16
  condbr %ci, outer, exit
exit:
  ret 0
}
)";
    {
        auto parsed = parseOrDie(rowMajor);
        const AccessPatternAnalysis analysis(*parsed.module);
        ASSERT_EQ(analysis.sites().size(), 1u);
        const SiteAccessSummary &site = analysis.sites()[0];
        ASSERT_EQ(site.strides.size(), 1u);
        EXPECT_EQ(site.strides[0].strideBytes, 8);
        EXPECT_EQ(site.strides[0].outerStrideBytes, 128);
        EXPECT_EQ(site.strides[0].loopDepth, 2u);
        EXPECT_TRUE(site.strides[0].rowMajor);
        EXPECT_EQ(site.verdict(), AccessVerdict::Dense);
    }
    {
        auto parsed = parseOrDie(columnMajor);
        const AccessPatternAnalysis analysis(*parsed.module);
        ASSERT_EQ(analysis.sites().size(), 1u);
        const SiteAccessSummary &site = analysis.sites()[0];
        ASSERT_EQ(site.strides.size(), 1u);
        EXPECT_EQ(site.strides[0].strideBytes, 128);
        EXPECT_EQ(site.strides[0].outerStrideBytes, 8);
        EXPECT_FALSE(site.strides[0].rowMajor);
        // 128-byte inner stride exceeds the cache-line threshold.
        EXPECT_EQ(site.verdict(), AccessVerdict::Sparse);
    }
}

TEST(AccessPattern, ReportIsMachineReadable)
{
    auto parsed = parseOrDie(testprogs::sumProgram);
    const AccessPatternAnalysis analysis(*parsed.module);
    const std::string report = analysis.report();
    EXPECT_NE(report.find("access-report v1"), std::string::npos);
    EXPECT_NE(report.find("site 0 @main"), std::string::npos);
    EXPECT_NE(report.find("verdict dense"), std::string::npos);
    EXPECT_NE(report.find("  stride @main"), std::string::npos);
}

// ---------------------------------------------------------------------
// Allocation profile: serialize/parse/merge (multi-epoch PGO)
// ---------------------------------------------------------------------

AllocSiteProfile::Site
makeSite(std::uint32_t ordinal, const char *function,
         std::uint64_t allocations, std::uint64_t seq, std::uint64_t rand)
{
    AllocSiteProfile::Site site;
    site.ordinal = ordinal;
    site.function = function;
    site.allocations = allocations;
    site.bytesAllocated = allocations * 64;
    site.guardedAccesses = seq + rand;
    site.seqAccesses = seq;
    site.randAccesses = rand;
    return site;
}

TEST(AllocProfile, SerializeParseRoundTrip)
{
    AllocSiteProfile profile;
    profile.sites.push_back(makeSite(0, "main", 3, 90, 10));
    profile.sites.push_back(makeSite(2, "helper", 1, 0, 40));
    const std::string text = profile.serialize();
    EXPECT_NE(text.find("tfm-alloc-profile v2"), std::string::npos);

    AllocSiteProfile parsed;
    ASSERT_TRUE(AllocSiteProfile::parse(text, parsed));
    ASSERT_EQ(parsed.sites.size(), 2u);
    EXPECT_EQ(parsed.sites[0].ordinal, 0u);
    EXPECT_EQ(parsed.sites[0].function, "main");
    EXPECT_EQ(parsed.sites[0].seqAccesses, 90u);
    EXPECT_EQ(parsed.sites[0].randAccesses, 10u);
    EXPECT_EQ(parsed.sites[1].ordinal, 2u);
    EXPECT_EQ(parsed.sites[1].guardedAccesses, 40u);
}

TEST(AllocProfile, ParseAcceptsV1WithoutSeqRandColumns)
{
    const std::string v1 = "tfm-alloc-profile v1\n"
                           "site 0 main 3 192 100\n";
    AllocSiteProfile parsed;
    ASSERT_TRUE(AllocSiteProfile::parse(v1, parsed));
    ASSERT_EQ(parsed.sites.size(), 1u);
    EXPECT_EQ(parsed.sites[0].guardedAccesses, 100u);
    EXPECT_EQ(parsed.sites[0].seqAccesses, 0u);
    EXPECT_EQ(parsed.sites[0].seqFraction(), 0.0);
}

TEST(AllocProfile, ParseRejectsMalformedInputUntouched)
{
    AllocSiteProfile out;
    out.sites.push_back(makeSite(7, "keep", 1, 1, 1));
    EXPECT_FALSE(AllocSiteProfile::parse("not a profile\n", out));
    EXPECT_FALSE(
        AllocSiteProfile::parse("tfm-alloc-profile v2\nsite x\n", out));
    ASSERT_EQ(out.sites.size(), 1u);
    EXPECT_EQ(out.sites[0].ordinal, 7u);
}

TEST(AllocProfile, MergeSumsMatchesAndInsertsLaterEpochSitesInOrder)
{
    AllocSiteProfile base;
    base.sites.push_back(makeSite(0, "main", 2, 10, 0));
    base.sites.push_back(makeSite(4, "main", 1, 0, 5));

    // The later epoch saw site 2 for the first time (code path only
    // exercised under this epoch's input) and more of sites 0 and 4.
    AllocSiteProfile epoch;
    epoch.sites.push_back(makeSite(0, "main", 1, 20, 2));
    epoch.sites.push_back(makeSite(2, "helper", 3, 7, 7));
    epoch.sites.push_back(makeSite(4, "main", 1, 1, 5));

    base.merge(epoch);
    ASSERT_EQ(base.sites.size(), 3u);
    // Stable ordering key: the module ordinal, regardless of which
    // epoch first observed the site.
    EXPECT_EQ(base.sites[0].ordinal, 0u);
    EXPECT_EQ(base.sites[1].ordinal, 2u);
    EXPECT_EQ(base.sites[2].ordinal, 4u);
    EXPECT_EQ(base.sites[0].seqAccesses, 30u);
    EXPECT_EQ(base.sites[0].allocations, 3u);
    EXPECT_EQ(base.sites[1].function, "helper");
    EXPECT_EQ(base.sites[2].randAccesses, 10u);
}

// ---------------------------------------------------------------------
// Path arbiter: routing decisions and IR rewrites
// ---------------------------------------------------------------------

bool
moduleCallsCallee(const ir::Module &module, const char *callee)
{
    for (const auto &function : module.allFunctions())
        for (const auto &block : function->basicBlocks())
            for (const auto &inst : block->instructions())
                if (inst->op() == ir::Opcode::Call &&
                    inst->callee == callee)
                    return true;
    return false;
}

TEST(PathArbiter, DenseSiteGoesToThePagedPlane)
{
    System system(hybridConfig(ArbiterMode::Auto, true));
    CompileResult compiled = system.compile(testprogs::sumProgram);
    ASSERT_TRUE(compiled.ok()) << compiled.error;
    const ArbiterReport &report = system.arbiterReport();
    ASSERT_EQ(report.decisions.size(), 1u);
    EXPECT_TRUE(report.decisions[0].paged);
    EXPECT_EQ(report.decisions[0].reason, "static-dense");
    EXPECT_EQ(report.pagedSites, 1u);
    EXPECT_TRUE(moduleCallsCallee(compiled.program->ir(), "pg_malloc"));
    EXPECT_TRUE(system.safetyReport().clean());
    const RunResult result = system.run(*compiled.program);
    ASSERT_TRUE(result.ok()) << result.trapMessage;
    EXPECT_EQ(result.returnValue, 499500);
}

TEST(PathArbiter, ChaseSiteStaysOnTheGuardPlane)
{
    const char *text = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(4096)
  store 0, %a
  br loop
loop:
  %p = phi ptr [ %a, entry ], [ %q, loop ]
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %addr = load i64, %p
  %sum = add %addr, 0
  %q = inttoptr %sum to ptr
  %i2 = add %i, 1
  %c = icmp.slt %i2, 1
  condbr %c, loop, exit
exit:
  ret %i2
}
)";
    System system(hybridConfig(ArbiterMode::Auto, true));
    CompileResult compiled = system.compile(text);
    ASSERT_TRUE(compiled.ok()) << compiled.error;
    const ArbiterReport &report = system.arbiterReport();
    ASSERT_EQ(report.decisions.size(), 1u);
    EXPECT_FALSE(report.decisions[0].paged);
    EXPECT_EQ(report.decisions[0].reason, "static-sparse");
    EXPECT_FALSE(moduleCallsCallee(compiled.program->ir(), "pg_malloc"));
}

TEST(PathArbiter, AliasedSitesNeverSplitPlanes)
{
    const char *text = R"(
func @main(%n: i64) -> i64 {
entry:
  %a = call ptr @malloc(8000)
  %b = call ptr @malloc(8000)
  %c = icmp.slt %n, 3
  condbr %c, l, r
l:
  br join
r:
  br join
join:
  %p = phi ptr [ %a, l ], [ %b, r ]
  br loop
loop:
  %i = phi i64 [ 0, join ], [ %i2, loop ]
  %q = gep %p, %i, 8
  store %i, %q
  %i2 = add %i, 1
  %cc = icmp.slt %i2, 1000
  condbr %cc, loop, exit
exit:
  ret 0
}
)";
    System system(hybridConfig(ArbiterMode::Auto, true));
    CompileResult compiled = system.compile(text);
    ASSERT_TRUE(compiled.ok()) << compiled.error;
    const ArbiterReport &report = system.arbiterReport();
    ASSERT_EQ(report.decisions.size(), 2u);
    for (const ArbiterDecision &d : report.decisions) {
        EXPECT_FALSE(d.paged);
        EXPECT_EQ(d.reason, "aliases");
    }
    EXPECT_TRUE(system.safetyReport().clean());
}

TEST(PathArbiter, PgoTieBreakUsesTheObservedSeqFraction)
{
    // Straight-line accesses only: statically Unknown, so the profile
    // decides.
    AllocSiteProfile seqHeavy;
    seqHeavy.sites.push_back(makeSite(0, "main", 1, 90, 10));
    AllocSiteProfile randHeavy;
    randHeavy.sites.push_back(makeSite(0, "main", 1, 10, 90));

    {
        SystemConfig config = hybridConfig(ArbiterMode::Auto, true);
        config.passes.arbiterProfile = &seqHeavy;
        System system(config);
        CompileResult compiled =
            system.compile(testprogs::structFieldsProgram);
        ASSERT_TRUE(compiled.ok()) << compiled.error;
        const ArbiterReport &report = system.arbiterReport();
        ASSERT_EQ(report.decisions.size(), 1u);
        EXPECT_TRUE(report.decisions[0].paged);
        EXPECT_EQ(report.decisions[0].reason, "pgo-seq");
        EXPECT_EQ(report.pgoTieBreaks, 1u);
        const RunResult result = system.run(*compiled.program);
        ASSERT_TRUE(result.ok()) << result.trapMessage;
        EXPECT_EQ(result.returnValue, 66);
    }
    {
        SystemConfig config = hybridConfig(ArbiterMode::Auto, true);
        config.passes.arbiterProfile = &randHeavy;
        System system(config);
        CompileResult compiled =
            system.compile(testprogs::structFieldsProgram);
        ASSERT_TRUE(compiled.ok()) << compiled.error;
        ASSERT_EQ(system.arbiterReport().decisions.size(), 1u);
        EXPECT_FALSE(system.arbiterReport().decisions[0].paged);
        EXPECT_EQ(system.arbiterReport().decisions[0].reason,
                  "pgo-rand");
    }
    {
        System system(hybridConfig(ArbiterMode::Auto, true));
        CompileResult compiled =
            system.compile(testprogs::structFieldsProgram);
        ASSERT_TRUE(compiled.ok()) << compiled.error;
        ASSERT_EQ(system.arbiterReport().decisions.size(), 1u);
        EXPECT_FALSE(system.arbiterReport().decisions[0].paged);
        EXPECT_EQ(system.arbiterReport().decisions[0].reason,
                  "no-profile");
    }
}

TEST(PathArbiter, ForceAllPagedIsAnAblationOverride)
{
    System system(hybridConfig(ArbiterMode::ForceAllPaged, true));
    CompileResult compiled = system.compile(testprogs::twoObjectProgram);
    ASSERT_TRUE(compiled.ok()) << compiled.error;
    const ArbiterReport &report = system.arbiterReport();
    ASSERT_EQ(report.decisions.size(), 2u);
    for (const ArbiterDecision &d : report.decisions) {
        EXPECT_TRUE(d.paged);
        EXPECT_EQ(d.reason, "forced");
    }
    const RunResult result = system.run(*compiled.program);
    ASSERT_TRUE(result.ok()) << result.trapMessage;
    EXPECT_EQ(result.returnValue, 30);
}

TEST(PathArbiter, FreeOfAPagedSiteIsRetagged)
{
    const char *text = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(8000)
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %p = gep %a, %i, 8
  store %i, %p
  %i2 = add %i, 1
  %c = icmp.slt %i2, 1000
  condbr %c, loop, exit
exit:
  call void @free(%a)
  ret 0
}
)";
    System system(hybridConfig(ArbiterMode::Auto, true));
    CompileResult compiled = system.compile(text);
    ASSERT_TRUE(compiled.ok()) << compiled.error;
    EXPECT_EQ(system.arbiterReport().freesRewritten, 1u);
    EXPECT_TRUE(moduleCallsCallee(compiled.program->ir(), "pg_free"));
    EXPECT_FALSE(moduleCallsCallee(compiled.program->ir(), "tfm_free"));
    const RunResult result = system.run(*compiled.program);
    ASSERT_TRUE(result.ok()) << result.trapMessage;
}

/**
 * Evacuation sits outside the measurement window on both planes: the
 * tfm_evacuate_all builtin drops dirty paged pages without charging
 * their writeback to the link, like FarMemRuntime::evacuateAll.
 */
TEST(PathArbiter, EvacuateAllBuiltinChargesNoPagedWriteback)
{
    const std::string body = R"(
func @main() -> i64 {
entry:
  %a = call ptr @malloc(32768)
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %i2, loop ]
  %p = gep %a, %i, 8
  store %i, %p
  %i2 = add %i, 1
  %c = icmp.slt %i2, 4096
  condbr %c, loop, exit
exit:
)";
    const auto run = [&body](const char *tail) {
        System system(hybridConfig(ArbiterMode::ForceAllPaged, true));
        CompileResult compiled = system.compile(body + tail);
        EXPECT_TRUE(compiled.ok()) << compiled.error;
        const RunResult result = system.run(*compiled.program);
        EXPECT_TRUE(result.ok()) << result.trapMessage;
        return system.stats();
    };
    const StatSet kept = run("  ret 0\n}\n");
    const StatSet evacuated =
        run("  call void @tfm_evacuate_all()\n  ret 0\n}\n");
    // Eight dirty pages (plus a readahead page) were resident, then
    // dropped...
    EXPECT_GE(kept.get("paged.resident_pages"), 8u);
    EXPECT_EQ(evacuated.get("paged.resident_pages"), 0u);
    // ...and dropping them added no link traffic.
    EXPECT_EQ(evacuated.get("net.bytes_written_back"),
              kept.get("net.bytes_written_back"));
    EXPECT_EQ(evacuated.get("net.bytes_written_back"), 0u);
}

// ---------------------------------------------------------------------
// Paged data plane runtime
// ---------------------------------------------------------------------

RuntimeConfig
pagedRuntimeConfig()
{
    RuntimeConfig cfg;
    cfg.farHeapBytes = 4 << 20;
    cfg.localMemBytes = 16 * 4096;
    return cfg;
}

/**
 * pg_calloc's runtime entry: a reused region comes back zeroed, an
 * overflowing count * size allocates nothing, and the zero fill is raw
 * (no page fault, no link traffic), charged as CPU streaming like
 * tfmCalloc's.
 */
TEST(PagedRuntime, CallocZeroesAReusedRegionWithARawFill)
{
    TfmRuntime rt(pagedRuntimeConfig(), CostParams{});
    constexpr std::size_t kBytes = 3 * 4096;
    const std::uint64_t first = rt.pagedMalloc(kBytes);
    const std::vector<std::uint8_t> ones(kBytes, 0xa5);
    rt.pagedWrite(first, ones.data(), kBytes);
    rt.pagedFree(first);

    const PagedStats before = rt.pagedPlane()->stats();
    const NetStats netBefore = rt.runtime().backend().netStats();
    const std::uint64_t callocStart = rt.clock().now();
    const std::uint64_t again = rt.pagedCalloc(kBytes / 8, 8);
    const std::uint64_t callocCycles = rt.clock().now() - callocStart;
    ASSERT_EQ(again, first) << "the freed region must be reused";
    EXPECT_EQ(rt.pagedPlane()->stats().majorFaults, before.majorFaults);
    EXPECT_EQ(rt.pagedPlane()->stats().minorFaults, before.minorFaults);
    EXPECT_EQ(rt.runtime().backend().netStats().totalBytes(),
              netBefore.totalBytes());

    std::vector<std::uint8_t> back(kBytes, 0xff);
    rt.pagedRead(again, back.data(), kBytes);
    EXPECT_EQ(back, std::vector<std::uint8_t>(kBytes, 0));

    const std::uint64_t mallocStart = rt.clock().now();
    rt.pagedMalloc(kBytes);
    const std::uint64_t mallocCycles = rt.clock().now() - mallocStart;
    EXPECT_EQ(callocCycles, mallocCycles + kBytes / 16 + 1);

    const std::uint64_t overflowStart = rt.clock().now();
    EXPECT_EQ(rt.pagedCalloc(std::numeric_limits<std::size_t>::max() / 2 + 1,
                             2),
              0u);
    EXPECT_EQ(rt.clock().now(), overflowStart);
}

/**
 * A page window reads the far-heap store in place, so it is legal only
 * while the store holds the newest bytes. On TfmRuntime a guard's frame
 * can be newer: once a guard has localized an object, the paged plane
 * refuses to fill a window.
 */
TEST(PagedRuntimeDeathTest, WindowNeedsTheStoreToHoldTheNewestBytes)
{
    TfmRuntime rt(pagedRuntimeConfig(), CostParams{});
    const std::uint64_t paged = rt.pagedMalloc(4096);
    const std::uint64_t object = rt.tfmMalloc(64);
    rt.store<std::uint64_t>(object, 7);
    ASSERT_GT(rt.runtime().stats().localizeCalls, 0u);
    HostWindow window;
    std::uint64_t value = 0;
    EXPECT_DEATH(rt.pagedPlane()->readVia(window, tfmOffsetOf(paged),
                                          &value, sizeof(value)),
                 "newest bytes");
}

// ---------------------------------------------------------------------
// Mixed-plane safety diagnostic
// ---------------------------------------------------------------------

TEST(MixedPlaneChecker, MergingBothPlanesInOneValueIsFlagged)
{
    // A phi carrying a bit-60 (tfm_malloc) pointer on one edge and a
    // bit-61 (pg_malloc) pointer on the other: no single emission
    // strategy covers the access.
    const char *text = R"(
func @main(%n: i64) -> i64 {
entry:
  %g = call ptr @tfm_malloc(64)
  %p = call ptr @pg_malloc(64)
  %c = icmp.slt %n, 3
  condbr %c, l, r
l:
  br join
r:
  br join
join:
  %m = phi ptr [ %g, l ], [ %p, r ]
  %v = load i64, %m
  ret %v
}
)";
    auto parsed = parseOrDie(text);
    const std::vector<SafetyDiagnostic> diags =
        checkGuardSafety(*parsed.module);
    bool sawMixedPlane = false;
    for (const SafetyDiagnostic &d : diags)
        if (d.kind == SafetyDiagKind::MixedPlane)
            sawMixedPlane = true;
    EXPECT_TRUE(sawMixedPlane)
        << "expected a mixed-plane diagnostic, got " << diags.size()
        << " other diagnostic(s)";
    EXPECT_STREQ(safetyDiagKindName(SafetyDiagKind::MixedPlane),
                 "mixed-plane");
}

TEST(MixedPlaneChecker, SeparatePlanesInSeparateValuesAreLegal)
{
    const char *text = R"(
func @main() -> i64 {
entry:
  %g = call ptr @tfm_malloc(64)
  %p = call ptr @pg_malloc(64)
  %gg = guard.w %g
  store 1, %gg
  store 2, %p
  %gr = guard.r %g
  %a = load i64, %gr
  %b = load i64, %p
  %r = add %a, %b
  ret %r
}
)";
    auto parsed = parseOrDie(text);
    const std::vector<SafetyDiagnostic> diags =
        checkGuardSafety(*parsed.module);
    for (const SafetyDiagnostic &d : diags)
        EXPECT_NE(d.kind, SafetyDiagKind::MixedPlane) << d.message;
}

// ---------------------------------------------------------------------
// Corpus gates: differential vs pure guard + verdict agreement
// ---------------------------------------------------------------------

TEST(HybridDifferential, CorpusIsBitExactAgainstPureGuardAtBothOptLevels)
{
    for (const testprogs::CorpusProgram &entry : kCorpus) {
        for (const bool optimize : {false, true}) {
            System pure(hybridConfig(ArbiterMode::Off, optimize));
            CompileResult pureCompiled = pure.compile(entry.source);
            ASSERT_TRUE(pureCompiled.ok())
                << entry.name << ": " << pureCompiled.error;
            const RunResult pureRun = pure.run(*pureCompiled.program);

            System hybrid(hybridConfig(ArbiterMode::Auto, optimize));
            CompileResult hybridCompiled = hybrid.compile(entry.source);
            ASSERT_TRUE(hybridCompiled.ok())
                << entry.name << ": " << hybridCompiled.error;
            EXPECT_TRUE(hybrid.safetyReport().clean())
                << entry.name << " optimize=" << optimize;
            const RunResult hybridRun =
                hybrid.run(*hybridCompiled.program);

            EXPECT_EQ(hybridRun.trapped, pureRun.trapped)
                << entry.name << ": " << hybridRun.trapMessage;
            EXPECT_EQ(hybridRun.returnValue, pureRun.returnValue)
                << entry.name << " optimize=" << optimize;
            EXPECT_EQ(hybridRun.returnValue, entry.expected)
                << entry.name;
            EXPECT_EQ(hybridRun.output, pureRun.output) << entry.name;
            EXPECT_EQ(hybrid.runtime().runtime().heapChecksum(),
                      pure.runtime().runtime().heapChecksum())
                << entry.name << " optimize=" << optimize;
        }
    }
}

TEST(AccessPattern, StaticVerdictsAgreeWithInterpreterObservedPatterns)
{
    // The ISSUE gate: on >= 90% of statically classified (non-Unknown)
    // corpus sites, the static verdict must match what the interpreter
    // actually observed (seq/rand offset deltas per site).
    unsigned classified = 0, agreements = 0;
    for (const testprogs::CorpusProgram &entry : kCorpus) {
        System system(hybridConfig(ArbiterMode::Off, true));
        CompileResult compiled = system.compile(entry.source);
        ASSERT_TRUE(compiled.ok()) << entry.name;
        Interpreter interp(compiled.program->ir(), system.runtime());
        interp.enableAllocationProfiling();
        const RunResult result = interp.run("main");
        ASSERT_TRUE(result.ok())
            << entry.name << ": " << result.trapMessage;
        const AllocSiteProfile profile = interp.allocationProfile();

        const AccessPatternAnalysis analysis(compiled.program->ir());
        for (const SiteAccessSummary &site : analysis.sites()) {
            if (site.verdict() == AccessVerdict::Unknown)
                continue;
            const AllocSiteProfile::Site *observed =
                profile.findByOrdinal(site.ordinal);
            if (!observed ||
                observed->seqAccesses + observed->randAccesses < 2)
                continue; // too few samples to witness a pattern
            classified++;
            const double seq = observed->seqFraction();
            const AccessVerdict witnessed =
                seq >= 0.6   ? AccessVerdict::Dense
                : seq <= 0.4 ? AccessVerdict::Sparse
                             : AccessVerdict::Mixed;
            const bool agree = site.verdict() == witnessed ||
                               site.verdict() == AccessVerdict::Mixed ||
                               witnessed == AccessVerdict::Mixed;
            if (agree)
                agreements++;
            else
                ADD_FAILURE() << entry.name << " site " << site.ordinal
                              << ": static "
                              << accessVerdictName(site.verdict())
                              << " vs observed seqFraction " << seq;
        }
    }
    ASSERT_GT(classified, 0u);
    EXPECT_GE(static_cast<double>(agreements),
              0.9 * static_cast<double>(classified))
        << agreements << "/" << classified;
}

} // namespace
} // namespace tfm
