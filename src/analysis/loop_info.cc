#include "loop_info.hh"

#include <algorithm>
#include <map>

namespace tfm
{

LoopInfo::LoopInfo(const ir::Function &function, const Cfg &cfg,
                   const DominatorTree &dom)
{
    // Collect back edges grouped by header.
    std::map<ir::BasicBlock *, std::vector<ir::BasicBlock *>> backEdges;
    for (const auto &block : function.basicBlocks()) {
        if (!cfg.reachable(block.get()))
            continue;
        for (ir::BasicBlock *succ : block->successors()) {
            if (dom.dominates(succ, block.get()))
                backEdges[succ].push_back(block.get());
        }
    }

    // Build each loop body by walking predecessors from the latches.
    for (auto &[header, latches] : backEdges) {
        auto loop = std::make_unique<Loop>();
        loop->header = header;
        loop->latches = latches;
        loop->blocks.insert(header);
        std::vector<ir::BasicBlock *> worklist(latches.begin(),
                                               latches.end());
        while (!worklist.empty()) {
            ir::BasicBlock *block = worklist.back();
            worklist.pop_back();
            if (loop->blocks.count(block))
                continue;
            loop->blocks.insert(block);
            for (ir::BasicBlock *pred : cfg.predecessors(block))
                worklist.push_back(pred);
        }
        // Preheader: the unique predecessor of the header outside the
        // loop body.
        ir::BasicBlock *preheader = nullptr;
        bool unique = true;
        for (ir::BasicBlock *pred : cfg.predecessors(header)) {
            if (loop->blocks.count(pred))
                continue;
            if (preheader)
                unique = false;
            preheader = pred;
        }
        loop->preheader = unique ? preheader : nullptr;
        _loops.push_back(std::move(loop));
    }

    // Depths: a loop nested in another has a strictly smaller body.
    // Iterate to a fixpoint so chains of nesting propagate; a round
    // that changes no depth is the fixpoint.
    for (bool changed = true; changed;) {
        changed = false;
        for (auto &outer : _loops) {
            for (auto &inner : _loops) {
                if (inner.get() == outer.get() ||
                    inner->depth > outer->depth)
                    continue;
                if (inner->blocks.size() < outer->blocks.size() &&
                    std::includes(outer->blocks.begin(),
                                  outer->blocks.end(),
                                  inner->blocks.begin(),
                                  inner->blocks.end())) {
                    inner->depth = outer->depth + 1;
                    changed = true;
                }
            }
        }
    }
}

Loop *
LoopInfo::innermostLoopFor(const ir::BasicBlock *block) const
{
    Loop *best = nullptr;
    for (const auto &loop : _loops) {
        if (!loop->contains(block))
            continue;
        if (!best || loop->blocks.size() < best->blocks.size())
            best = loop.get();
    }
    return best;
}

} // namespace tfm
