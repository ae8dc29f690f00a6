#include "access_pattern.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "induction_variable.hh"
#include "loop_info.hh"

namespace tfm
{

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Module;
using ir::Opcode;
using ir::Value;

const char *
accessVerdictName(AccessVerdict verdict)
{
    switch (verdict) {
      case AccessVerdict::Dense:
        return "dense";
      case AccessVerdict::Sparse:
        return "sparse";
      case AccessVerdict::Mixed:
        return "mixed";
      case AccessVerdict::Unknown:
        return "unknown";
    }
    return "unknown";
}

unsigned
SiteAccessSummary::denseCount() const
{
    unsigned dense = 0;
    for (const StrideEvidence &ev : strides) {
        const std::int64_t mag =
            ev.strideBytes < 0 ? -ev.strideBytes : ev.strideBytes;
        if (mag <= AccessPatternAnalysis::denseStrideThresholdBytes)
            dense++;
    }
    return dense;
}

unsigned
SiteAccessSummary::sparseCount() const
{
    unsigned sparse = irregularAccesses +
                      static_cast<unsigned>(chases.size());
    for (const StrideEvidence &ev : strides) {
        const std::int64_t mag =
            ev.strideBytes < 0 ? -ev.strideBytes : ev.strideBytes;
        if (mag > AccessPatternAnalysis::denseStrideThresholdBytes)
            sparse++;
    }
    return sparse;
}

double
SiteAccessSummary::denseFraction() const
{
    const unsigned classified = denseCount() + sparseCount();
    return classified == 0
               ? 0.0
               : static_cast<double>(denseCount()) /
                     static_cast<double>(classified);
}

double
SiteAccessSummary::chaseScore() const
{
    const unsigned classified = denseCount() + sparseCount();
    return classified == 0
               ? 0.0
               : static_cast<double>(chases.size()) /
                     static_cast<double>(classified);
}

AccessVerdict
SiteAccessSummary::verdict() const
{
    const unsigned dense = denseCount();
    const unsigned sparse = sparseCount();
    if (dense + sparse == 0)
        return AccessVerdict::Unknown;
    const double frac = denseFraction();
    if (chases.empty() && frac >= 0.75)
        return AccessVerdict::Dense;
    if (frac <= 0.25)
        return AccessVerdict::Sparse;
    return AccessVerdict::Mixed;
}

namespace
{

/// Derivation-chain load depth saturates here (recursion guard).
constexpr unsigned maxLoadDepth = 8;

bool
isAllocationName(const std::string &callee)
{
    // Must match the ordinal walks in enableProfiling and the
    // hot-alloc pruning / path-arbiter passes.
    return callee == "malloc" || callee == "calloc" ||
           callee == "tfm_malloc" || callee == "tfm_calloc" ||
           callee == "pg_malloc" || callee == "pg_calloc";
}

bool
isNonEscapingIntrinsic(const std::string &callee)
{
    // Runtime entry points consume their pointer argument without
    // stashing it anywhere the program can reload it from. realloc is
    // deliberately NOT here: it ends the allocation's lifetime and
    // hands back a different (possibly different-plane) pointer, so
    // reallocated sites must stay out of the arbiter's reach.
    return callee == "tfm_free" || callee == "pg_free" ||
           callee == "free" || callee == "tfm_evacuate_all" ||
           callee == "tfm_runtime_init" || callee == "print_i64" ||
           callee == "host_malloc" || callee == "host_calloc" ||
           isAllocationName(callee);
}

/// Root of a pointer derivation: a concrete allocation site (by
/// module ordinal) or a formal parameter of the analyzed function.
struct RootId
{
    bool isParam = false;
    std::uint32_t id = 0; ///< ordinal or argument index

    bool
    operator<(const RootId &other) const
    {
        if (isParam != other.isParam)
            return isParam < other.isParam;
        return id < other.id;
    }
};

/** What one SSA value may point at. */
struct Deriv
{
    std::set<RootId> roots;
    /// Load hops between the roots and this value (0 = the pointer
    /// itself; >= 1 = loaded out of root memory — chase territory).
    unsigned loadDepth = 0;
};

/** Access evidence attributed to one formal parameter of a function
 *  (the interprocedural call summary, guard-safety-checker style). */
struct ParamSummary
{
    std::vector<StrideEvidence> strides;
    std::vector<ChaseEvidence> chases;
    unsigned irregular = 0;
    unsigned straightLine = 0;
    bool escapes = false;
    std::string escapeReason;
    bool aliasesOther = false;
};

struct FunctionSummary
{
    std::vector<ParamSummary> params;
    /// Parameters the return value may be derived from.
    std::set<std::uint32_t> returnParams;
    /// Concrete allocation ordinals the return value may carry
    /// (factory functions).
    std::set<std::uint32_t> returnSites;
    unsigned returnLoadDepth = 0;

    /// Dedup keys of every evidence record already merged, so the
    /// fixpoint's monotone growth terminates.
    std::set<std::string> evidenceKeys;
};

std::string
strideKey(const StrideEvidence &ev)
{
    std::ostringstream key;
    key << "s:" << ev.function << ':' << ev.line << ':' << ev.col << ':'
        << ev.strideBytes << ':' << ev.outerStrideBytes << ':'
        << ev.elementBytes << ':' << ev.isWrite << ':' << ev.viaCallee;
    return key.str();
}

std::string
chaseKey(const ChaseEvidence &ev)
{
    std::ostringstream key;
    key << "c:" << ev.function << ':' << ev.line << ':' << ev.col << ':'
        << ev.derivationDepth << ':' << ev.viaCallee;
    return key.str();
}

/** Loop nest context of one function. */
struct LoopNest
{
    std::unique_ptr<Cfg> cfg;
    std::unique_ptr<DominatorTree> dom;
    std::unique_ptr<LoopInfo> loopInfo;
    /// One IV analysis per loop, same index as loopInfo->loops().
    std::vector<std::unique_ptr<InductionVariables>> ivs;
    /// Basic-IV phi -> (owning loop, iv record).
    std::map<const Instruction *, std::pair<const Loop *, const BasicIv *>>
        ivByPhi;

    explicit LoopNest(const Function &function)
    {
        cfg = std::make_unique<Cfg>(function);
        dom = std::make_unique<DominatorTree>(function, *cfg);
        loopInfo = std::make_unique<LoopInfo>(function, *cfg, *dom);
        for (const auto &loop : loopInfo->loops()) {
            ivs.push_back(std::make_unique<InductionVariables>(
                *loop, function));
            for (const BasicIv &iv : ivs.back()->basicIvs())
                ivByPhi[iv.phi] = {loop.get(), &iv};
        }
    }

    const InductionVariables *
    ivsOf(const Loop *loop) const
    {
        const auto &loops = loopInfo->loops();
        for (std::size_t i = 0; i < loops.size(); i++) {
            if (loops[i].get() == loop)
                return ivs[i].get();
        }
        return nullptr;
    }

    /** Enclosing loops of @p block, innermost first. */
    std::vector<const Loop *>
    enclosingLoops(const BasicBlock *block) const
    {
        std::vector<const Loop *> chain;
        for (const auto &loop : loopInfo->loops()) {
            if (loop->contains(block))
                chain.push_back(loop.get());
        }
        std::sort(chain.begin(), chain.end(),
                  [](const Loop *a, const Loop *b) {
                      return a->depth > b->depth;
                  });
        return chain;
    }
};

/**
 * Linearize @p value over the basic IVs of the loop nest enclosing the
 * access: value = sum(coeff[phi] * phi) + invariant. Returns false
 * when the expression is not affine in those IVs.
 */
bool
linearize(const Value *value, std::int64_t mult, const LoopNest &nest,
          const Loop *outermost, const InductionVariables *outerIvs,
          const BasicBlock *accessBlock,
          std::map<const Instruction *, std::int64_t> &coeffs,
          unsigned depth)
{
    if (depth > 64)
        return false;
    if (value->isConstant())
        return true;
    if (value->isInstruction()) {
        auto ivIt = nest.ivByPhi.find(
            static_cast<const Instruction *>(value));
        if (ivIt != nest.ivByPhi.end() &&
            ivIt->second.first->contains(accessBlock)) {
            coeffs[ivIt->first] += mult;
            return true;
        }
    }
    // Anything invariant in the outermost enclosing loop contributes
    // only to the (ignored) base term.
    if (outerIvs->isLoopInvariant(value))
        return true;
    if (!value->isInstruction())
        return false;
    const auto *inst = static_cast<const Instruction *>(value);
    switch (inst->op()) {
      case Opcode::Add:
        return linearize(inst->operand(0), mult, nest, outermost,
                         outerIvs, accessBlock, coeffs, depth + 1) &&
               linearize(inst->operand(1), mult, nest, outermost,
                         outerIvs, accessBlock, coeffs, depth + 1);
      case Opcode::Sub:
        return linearize(inst->operand(0), mult, nest, outermost,
                         outerIvs, accessBlock, coeffs, depth + 1) &&
               linearize(inst->operand(1), -mult, nest, outermost,
                         outerIvs, accessBlock, coeffs, depth + 1);
      case Opcode::Mul:
        if (inst->operand(1)->isConstant()) {
            const std::int64_t c =
                static_cast<const ir::Constant *>(inst->operand(1))
                    ->intValue();
            return linearize(inst->operand(0), mult * c, nest,
                             outermost, outerIvs, accessBlock, coeffs,
                             depth + 1);
        }
        if (inst->operand(0)->isConstant()) {
            const std::int64_t c =
                static_cast<const ir::Constant *>(inst->operand(0))
                    ->intValue();
            return linearize(inst->operand(1), mult * c, nest,
                             outermost, outerIvs, accessBlock, coeffs,
                             depth + 1);
        }
        return false;
      case Opcode::Shl:
        if (inst->operand(1)->isConstant()) {
            const std::int64_t c =
                static_cast<const ir::Constant *>(inst->operand(1))
                    ->intValue();
            if (c < 0 || c > 32)
                return false;
            return linearize(inst->operand(0), mult << c, nest,
                             outermost, outerIvs, accessBlock, coeffs,
                             depth + 1);
        }
        return false;
      case Opcode::Gep:
        // result = op0 + op1 * imm
        return linearize(inst->operand(0), mult, nest, outermost,
                         outerIvs, accessBlock, coeffs, depth + 1) &&
               linearize(inst->operand(1), mult * inst->imm, nest,
                         outermost, outerIvs, accessBlock, coeffs,
                         depth + 1);
      case Opcode::Zext:
      case Opcode::Trunc:
      case Opcode::PtrToInt:
      case Opcode::IntToPtr:
        return linearize(inst->operand(0), mult, nest, outermost,
                         outerIvs, accessBlock, coeffs, depth + 1);
      case Opcode::Guard:
        return linearize(inst->operand(0), mult, nest, outermost,
                         outerIvs, accessBlock, coeffs, depth + 1);
      case Opcode::GuardReval:
      case Opcode::ChunkAccess:
        return linearize(inst->operand(1), mult, nest, outermost,
                         outerIvs, accessBlock, coeffs, depth + 1);
      default:
        return false;
    }
}

/** Per-iteration byte stride of @p loop given linearized coeffs. */
std::int64_t
strideForLoop(const Loop *loop, const LoopNest &nest,
              const std::map<const Instruction *, std::int64_t> &coeffs)
{
    std::int64_t stride = 0;
    for (const auto &[phi, coeff] : coeffs) {
        auto it = nest.ivByPhi.find(phi);
        if (it != nest.ivByPhi.end() && it->second.first == loop)
            stride += coeff * it->second.second->step;
    }
    return stride;
}

/** The whole-module analysis state. */
class Analyzer
{
  public:
    explicit Analyzer(const Module &module) : mod(module)
    {
        // Assign stable ordinals (same walk as the profiler).
        std::uint32_t ordinal = 0;
        for (const auto &function : mod.allFunctions()) {
            for (const auto &block : function->basicBlocks()) {
                for (const auto &inst : block->instructions()) {
                    if (inst->op() == Opcode::Call &&
                        isAllocationName(inst->callee)) {
                        allocOrdinals[inst.get()] = ordinal;
                        SiteAccessSummary site;
                        site.ordinal = ordinal;
                        site.function = function->name();
                        site.callee = inst->callee;
                        site.line = inst->debugLine;
                        site.col = inst->debugCol;
                        siteByOrdinal[ordinal] = site;
                        ordinal++;
                    }
                }
            }
        }
        for (const auto &function : mod.allFunctions()) {
            for (const auto &block : function->basicBlocks()) {
                for (const auto &inst : block->instructions()) {
                    if (inst->op() == Opcode::Call &&
                        mod.findFunction(inst->callee)) {
                        calledNames.insert(inst->callee);
                    }
                }
            }
        }
    }

    std::vector<SiteAccessSummary>
    run()
    {
        // Interprocedural fixpoint over call summaries: evidence only
        // accumulates (deduped by key), so this terminates.
        bool changed = true;
        unsigned guard = 0;
        while (changed && guard++ < 64) {
            changed = false;
            for (const auto &function : mod.allFunctions())
                changed |= analyzeFunction(*function, false);
        }
        // Final pass with converged summaries attributes evidence to
        // concrete allocation sites.
        for (const auto &function : mod.allFunctions())
            analyzeFunction(*function, true);

        std::vector<SiteAccessSummary> result;
        result.reserve(siteByOrdinal.size());
        for (auto &[ordinal, site] : siteByOrdinal) {
            (void)ordinal;
            result.push_back(std::move(site));
        }
        return result;
    }

  private:
    const Module &mod;
    std::map<const Instruction *, std::uint32_t> allocOrdinals;
    std::map<std::uint32_t, SiteAccessSummary> siteByOrdinal;
    std::map<const Function *, FunctionSummary> summaries;
    std::set<std::string> calledNames;
    std::set<std::string> siteEvidenceKeys;

    bool
    isUncalled(const Function &function) const
    {
        return calledNames.count(function.name()) == 0;
    }

    /** Merge one derivation into another; true when it grew. */
    static bool
    mergeDeriv(Deriv &into, const Deriv &from)
    {
        bool grew = false;
        for (const RootId &root : from.roots)
            grew |= into.roots.insert(root).second;
        if (from.loadDepth > into.loadDepth) {
            into.loadDepth = from.loadDepth;
            grew = true;
        }
        return grew;
    }

    FunctionSummary &
    summaryOf(const Function &function)
    {
        FunctionSummary &summary = summaries[&function];
        if (summary.params.size() < function.arguments().size())
            summary.params.resize(function.arguments().size());
        return summary;
    }

    /**
     * Analyze one function against the current callee summaries.
     * Returns true when this function's own summary grew. When
     * @p collectSites is set, evidence rooted at concrete allocation
     * ordinals is merged into the global site table.
     */
    bool analyzeFunction(const Function &function, bool collectSites);

    /** Attribute evidence at @p root. Returns true on summary growth. */
    template <typename Evidence>
    bool
    attribute(const Function &function, const RootId &root,
              const Evidence &ev, bool collectSites,
              std::vector<Evidence> ParamSummary::*paramList,
              std::vector<Evidence> SiteAccessSummary::*siteList,
              const std::string &key)
    {
        if (root.isParam) {
            FunctionSummary &summary = summaryOf(function);
            if (root.id >= summary.params.size())
                return false;
            std::ostringstream paramKey;
            paramKey << 'p' << root.id << '|' << key;
            if (!summary.evidenceKeys.insert(paramKey.str()).second)
                return false;
            (summary.params[root.id].*paramList).push_back(ev);
            return true;
        }
        if (collectSites) {
            auto it = siteByOrdinal.find(root.id);
            if (it == siteByOrdinal.end())
                return false;
            std::ostringstream siteKey;
            siteKey << root.id << '|' << key;
            if (siteEvidenceKeys.insert(siteKey.str()).second)
                (it->second.*siteList).push_back(ev);
        }
        return false;
    }

    bool
    markEscape(const Function &function, const RootId &root,
               const std::string &reason, bool collectSites)
    {
        if (root.isParam) {
            FunctionSummary &summary = summaryOf(function);
            if (root.id >= summary.params.size())
                return false;
            ParamSummary &param = summary.params[root.id];
            if (param.escapes)
                return false;
            param.escapes = true;
            param.escapeReason = reason;
            return true;
        }
        if (collectSites) {
            auto it = siteByOrdinal.find(root.id);
            if (it != siteByOrdinal.end() && !it->second.escapes) {
                it->second.escapes = true;
                it->second.escapeReason = reason;
            }
        }
        return false;
    }

    bool
    markAliases(const Function &function, const RootId &root,
                bool collectSites)
    {
        if (root.isParam) {
            FunctionSummary &summary = summaryOf(function);
            if (root.id >= summary.params.size())
                return false;
            ParamSummary &param = summary.params[root.id];
            if (param.aliasesOther)
                return false;
            param.aliasesOther = true;
            return true;
        }
        if (collectSites) {
            auto it = siteByOrdinal.find(root.id);
            if (it != siteByOrdinal.end())
                it->second.aliasesOther = true;
        }
        return false;
    }

};

bool
Analyzer::analyzeFunction(const Function &function, bool collectSites)
{
    bool summaryGrew = false;
    LoopNest nest(function);

    // --- Derivation dataflow (which roots can each value carry) ---
    std::map<const Value *, Deriv> derivs;
    for (const auto &arg : function.arguments()) {
        if (arg->type() != ir::Type::Ptr && arg->type() != ir::Type::I64)
            continue;
        Deriv d;
        d.roots.insert(RootId{true, arg->index()});
        derivs[arg.get()] = d;
    }
    summaryOf(function); // make sure params are sized

    auto derivOf = [&](const Value *value) -> Deriv {
        auto it = derivs.find(value);
        return it == derivs.end() ? Deriv{} : it->second;
    };

    bool changed = true;
    unsigned rounds = 0;
    while (changed && rounds++ < 64) {
        changed = false;
        for (const auto &block : function.basicBlocks()) {
            for (const auto &inst : block->instructions()) {
                Deriv fresh;
                bool tracked = false;
                switch (inst->op()) {
                  case Opcode::Call: {
                    auto ord = allocOrdinals.find(inst.get());
                    if (ord != allocOrdinals.end()) {
                        fresh.roots.insert(RootId{false, ord->second});
                        tracked = true;
                        break;
                    }
                    const Function *target =
                        mod.findFunction(inst->callee);
                    if (target) {
                        auto sumIt = summaries.find(target);
                        if (sumIt == summaries.end())
                            break;
                        const FunctionSummary &sum = sumIt->second;
                        for (std::uint32_t p : sum.returnParams) {
                            if (p < inst->numOperands()) {
                                Deriv argDeriv =
                                    derivOf(inst->operand(p));
                                argDeriv.loadDepth = std::min(
                                    maxLoadDepth,
                                    argDeriv.loadDepth +
                                        sum.returnLoadDepth);
                                mergeDeriv(fresh, argDeriv);
                            }
                        }
                        for (std::uint32_t site : sum.returnSites)
                            fresh.roots.insert(RootId{false, site});
                        if (!sum.returnSites.empty()) {
                            fresh.loadDepth = std::max(
                                fresh.loadDepth, sum.returnLoadDepth);
                        }
                        tracked = !fresh.roots.empty();
                    }
                    break;
                  }
                  case Opcode::Gep:
                  case Opcode::PtrToInt:
                  case Opcode::IntToPtr:
                  case Opcode::Zext:
                  case Opcode::Trunc:
                  case Opcode::Guard:
                    fresh = derivOf(inst->operand(0));
                    tracked = !fresh.roots.empty();
                    break;
                  case Opcode::GuardReval:
                  case Opcode::ChunkAccess:
                    fresh = derivOf(inst->operand(1));
                    tracked = !fresh.roots.empty();
                    break;
                  case Opcode::Add:
                  case Opcode::Sub:
                    // Pointer arithmetic: propagate from whichever
                    // side carries roots (both sides for symmetry).
                    mergeDeriv(fresh, derivOf(inst->operand(0)));
                    mergeDeriv(fresh, derivOf(inst->operand(1)));
                    tracked = !fresh.roots.empty();
                    break;
                  case Opcode::Phi:
                    for (const auto &[incoming, pred] :
                         inst->incoming()) {
                        (void)pred;
                        mergeDeriv(fresh, derivOf(incoming));
                    }
                    tracked = !fresh.roots.empty();
                    break;
                  case Opcode::Load: {
                    // A pointer loaded out of tracked memory stays
                    // attributed to the same roots, one chase hop
                    // deeper.
                    Deriv addr = derivOf(inst->operand(0));
                    if (!addr.roots.empty()) {
                        fresh.roots = addr.roots;
                        fresh.loadDepth =
                            std::min(maxLoadDepth, addr.loadDepth + 1);
                        tracked = true;
                    }
                    break;
                  }
                  default:
                    break;
                }
                if (!tracked)
                    continue;
                Deriv &slot = derivs[inst.get()];
                if (mergeDeriv(slot, fresh))
                    changed = true;
            }
        }
    }

    // --- Evidence collection ---
    auto recordAccessEvidence = [&](const Instruction &memOp,
                                    const Value *addr, bool isWrite,
                                    std::uint32_t elementBytes) {
        const Deriv d = derivOf(addr);
        if (d.roots.empty())
            return;
        if (d.roots.size() >= 2) {
            for (const RootId &root : d.roots)
                summaryGrew |= markAliases(function, root, collectSites);
        }
        const BasicBlock *block = memOp.parent();
        const std::vector<const Loop *> loops =
            nest.enclosingLoops(block);

        if (d.loadDepth >= 1) {
            ChaseEvidence ev;
            ev.function = function.name();
            ev.line = memOp.debugLine;
            ev.col = memOp.debugCol;
            ev.derivationDepth = d.loadDepth;
            const std::string key = chaseKey(ev);
            for (const RootId &root : d.roots) {
                summaryGrew |= attribute(
                    function, root, ev, collectSites,
                    &ParamSummary::chases, &SiteAccessSummary::chases,
                    key);
            }
            return;
        }

        if (loops.empty()) {
            // Straight-line access: unclassified, tallied per site.
            if (collectSites) {
                for (const RootId &root : d.roots) {
                    if (!root.isParam) {
                        auto it = siteByOrdinal.find(root.id);
                        if (it != siteByOrdinal.end())
                            it->second.straightLineAccesses++;
                    }
                }
            }
            return;
        }

        const Loop *innermost = loops.front();
        const Loop *outermost = loops.back();
        const InductionVariables *outerIvs = nest.ivsOf(outermost);
        std::map<const Instruction *, std::int64_t> coeffs;
        const bool affine =
            outerIvs && linearize(addr, 1, nest, outermost, outerIvs,
                                  block, coeffs, 0);
        if (!affine) {
            // In-loop but not affine in any enclosing IV: irregular.
            if (collectSites) {
                for (const RootId &root : d.roots) {
                    if (!root.isParam) {
                        auto it = siteByOrdinal.find(root.id);
                        if (it != siteByOrdinal.end())
                            it->second.irregularAccesses++;
                    }
                }
            }
            return;
        }

        StrideEvidence ev;
        ev.function = function.name();
        ev.line = memOp.debugLine;
        ev.col = memOp.debugCol;
        ev.strideBytes = strideForLoop(innermost, nest, coeffs);
        ev.outerStrideBytes =
            loops.size() >= 2 ? strideForLoop(loops[1], nest, coeffs)
                              : 0;
        ev.elementBytes = elementBytes;
        ev.loopDepth = innermost->depth;
        const std::int64_t innerMag =
            ev.strideBytes < 0 ? -ev.strideBytes : ev.strideBytes;
        const std::int64_t outerMag = ev.outerStrideBytes < 0
                                          ? -ev.outerStrideBytes
                                          : ev.outerStrideBytes;
        ev.rowMajor = outerMag == 0 || innerMag <= outerMag;
        ev.isWrite = isWrite;
        const std::string key = strideKey(ev);
        for (const RootId &root : d.roots) {
            summaryGrew |= attribute(
                function, root, ev, collectSites,
                &ParamSummary::strides, &SiteAccessSummary::strides,
                key);
        }
    };

    for (const auto &block : function.basicBlocks()) {
        for (const auto &inst : block->instructions()) {
            switch (inst->op()) {
              case Opcode::Load:
                recordAccessEvidence(*inst, inst->operand(0), false,
                                     ir::sizeOf(inst->type()));
                break;
              case Opcode::Store: {
                recordAccessEvidence(
                    *inst, inst->operand(1), true,
                    ir::sizeOf(inst->operand(0)->type()));
                // Storing a tracked pointer somewhere: into tracked
                // site memory it is a linked-structure build (the
                // reloads already register as chases); into untracked
                // or caller-owned (parameter) memory the derivation
                // web loses it — escape. Only depth-0 derivations
                // carry the site's pointer identity; a loadDepth >= 1
                // value is data read out of the site.
                const Deriv stored = derivOf(inst->operand(0));
                if (!stored.roots.empty() && stored.loadDepth == 0) {
                    const Deriv dest = derivOf(inst->operand(1));
                    bool destIsCallerMemory = false;
                    for (const RootId &root : dest.roots)
                        destIsCallerMemory |= root.isParam;
                    if (dest.roots.empty() || destIsCallerMemory) {
                        const char *reason =
                            dest.roots.empty()
                                ? "stored to untracked memory"
                                : "stored through caller memory";
                        for (const RootId &root : stored.roots) {
                            summaryGrew |= markEscape(
                                function, root, reason, collectSites);
                        }
                    }
                }
                break;
              }
              case Opcode::Call: {
                if (allocOrdinals.count(inst.get()) ||
                    isNonEscapingIntrinsic(inst->callee)) {
                    break;
                }
                const Function *target = mod.findFunction(inst->callee);
                for (std::size_t i = 0; i < inst->numOperands(); i++) {
                    const Deriv arg = derivOf(inst->operand(i));
                    if (arg.roots.empty())
                        continue;
                    if (!target) {
                        // As in the Store case: only a depth-0 value
                        // hands the callee the site pointer itself.
                        if (arg.loadDepth == 0) {
                            for (const RootId &root : arg.roots) {
                                summaryGrew |= markEscape(
                                    function, root,
                                    "passed to unknown callee " +
                                        inst->callee,
                                    collectSites);
                            }
                        }
                        continue;
                    }
                    // Known callee: translate its parameter summary
                    // into evidence on the caller's roots.
                    auto sumIt = summaries.find(target);
                    if (sumIt == summaries.end())
                        continue;
                    const FunctionSummary &sum = sumIt->second;
                    if (i >= sum.params.size())
                        continue;
                    const ParamSummary &param = sum.params[i];
                    for (StrideEvidence ev : param.strides) {
                        if (ev.viaCallee.empty())
                            ev.viaCallee = inst->callee;
                        const std::string key = strideKey(ev);
                        for (const RootId &root : arg.roots) {
                            summaryGrew |= attribute(
                                function, root, ev, collectSites,
                                &ParamSummary::strides,
                                &SiteAccessSummary::strides, key);
                        }
                    }
                    for (ChaseEvidence ev : param.chases) {
                        if (ev.viaCallee.empty())
                            ev.viaCallee = inst->callee;
                        // Chase depth observed on the callee's
                        // parameter compounds with the hops the
                        // argument already carries.
                        ev.derivationDepth =
                            std::min(maxLoadDepth,
                                     ev.derivationDepth + arg.loadDepth);
                        const std::string key = chaseKey(ev);
                        for (const RootId &root : arg.roots) {
                            summaryGrew |= attribute(
                                function, root, ev, collectSites,
                                &ParamSummary::chases,
                                &SiteAccessSummary::chases, key);
                        }
                    }
                    if (param.escapes && arg.loadDepth == 0) {
                        for (const RootId &root : arg.roots) {
                            summaryGrew |= markEscape(
                                function, root,
                                "escapes in callee " + inst->callee +
                                    " (" + param.escapeReason + ")",
                                collectSites);
                        }
                    }
                    if (param.aliasesOther) {
                        for (const RootId &root : arg.roots) {
                            summaryGrew |=
                                markAliases(function, root,
                                            collectSites);
                        }
                    }
                }
                break;
              }
              case Opcode::Ret: {
                if (inst->numOperands() == 0)
                    break;
                const Deriv ret = derivOf(inst->operand(0));
                if (ret.roots.empty())
                    break;
                FunctionSummary &summary = summaryOf(function);
                for (const RootId &root : ret.roots) {
                    if (root.isParam) {
                        summaryGrew |=
                            summary.returnParams.insert(root.id).second;
                    } else {
                        summaryGrew |=
                            summary.returnSites.insert(root.id).second;
                    }
                }
                if (ret.loadDepth > summary.returnLoadDepth) {
                    summary.returnLoadDepth = ret.loadDepth;
                    summaryGrew = true;
                }
                // A function nobody in the module calls hands the
                // pointer to the outside world — but only a depth-0
                // return carries a site pointer; returning loaded
                // data (a sum, a field value) does not.
                if (isUncalled(function) && ret.loadDepth == 0) {
                    for (const RootId &root : ret.roots) {
                        summaryGrew |= markEscape(
                            function, root, "returned to environment",
                            collectSites);
                    }
                }
                break;
              }
              default:
                break;
            }
        }
    }

    return summaryGrew;
}

} // namespace

AccessPatternAnalysis::AccessPatternAnalysis(const ir::Module &module)
{
    Analyzer analyzer(module);
    _sites = analyzer.run();
}

const SiteAccessSummary *
AccessPatternAnalysis::findByOrdinal(std::uint32_t ordinal) const
{
    for (const SiteAccessSummary &site : _sites) {
        if (site.ordinal == ordinal)
            return &site;
    }
    return nullptr;
}

std::string
AccessPatternAnalysis::report() const
{
    std::ostringstream out;
    out << "access-report v1\n";
    for (const SiteAccessSummary &site : _sites) {
        out << "site " << site.ordinal << " @" << site.function
            << " callee " << site.callee << " line " << site.line
            << " verdict " << accessVerdictName(site.verdict())
            << " dense " << site.denseCount() << " sparse "
            << site.sparseCount() << " chase-score ";
        out.precision(2);
        out << std::fixed << site.chaseScore() << " escapes "
            << (site.escapes ? 1 : 0) << " aliases "
            << (site.aliasesOther ? 1 : 0);
        if (site.escapes)
            out << " escape-reason \"" << site.escapeReason << '"';
        out << '\n';
        for (const StrideEvidence &ev : site.strides) {
            out << "  stride @" << ev.function << ':' << ev.line << ':'
                << ev.col << " bytes " << ev.strideBytes << " outer "
                << ev.outerStrideBytes << " elem " << ev.elementBytes
                << " depth " << ev.loopDepth << " row-major "
                << (ev.rowMajor ? 1 : 0) << " write "
                << (ev.isWrite ? 1 : 0);
            if (!ev.viaCallee.empty())
                out << " via " << ev.viaCallee;
            out << '\n';
        }
        for (const ChaseEvidence &ev : site.chases) {
            out << "  chase @" << ev.function << ':' << ev.line << ':'
                << ev.col << " depth " << ev.derivationDepth;
            if (!ev.viaCallee.empty())
                out << " via " << ev.viaCallee;
            out << '\n';
        }
        if (site.irregularAccesses) {
            out << "  irregular " << site.irregularAccesses << '\n';
        }
        if (site.straightLineAccesses) {
            out << "  straight-line " << site.straightLineAccesses
                << '\n';
        }
    }
    return out.str();
}

} // namespace tfm
