/**
 * @file
 * Basic blocks: ordered instruction sequences ending in a terminator.
 */

#ifndef TRACKFM_IR_BASIC_BLOCK_HH
#define TRACKFM_IR_BASIC_BLOCK_HH

#include <memory>
#include <string>
#include <vector>

#include "instruction.hh"

namespace tfm::ir
{

class Function;

/** A basic block. Owns its instructions. */
class BasicBlock
{
  public:
    BasicBlock(std::string name, Function *parent)
        : _name(std::move(name)), _parent(parent)
    {}

    const std::string &name() const { return _name; }
    Function *parent() const { return _parent; }

    const std::vector<std::unique_ptr<Instruction>> &
    instructions() const
    {
        return insts;
    }

    bool empty() const { return insts.empty(); }

    Instruction *
    terminator() const
    {
        if (insts.empty() || !isTerminator(insts.back()->op()))
            return nullptr;
        return insts.back().get();
    }

    /**
     * Append an instruction (takes ownership) and stamp it with the
     * parent function's next value id. Defined in function.hh.
     */
    Instruction *append(std::unique_ptr<Instruction> inst);

    /** Insert before position @p index (stamps like append()). */
    Instruction *insertAt(std::size_t index,
                          std::unique_ptr<Instruction> inst);

    /** Index of an instruction in this block (or size() if absent). */
    std::size_t
    indexOf(const Instruction *inst) const
    {
        for (std::size_t i = 0; i < insts.size(); i++) {
            if (insts[i].get() == inst)
                return i;
        }
        return insts.size();
    }

    /** Remove (and destroy) the instruction at @p index; its value id
     *  stays retired. */
    void
    removeAt(std::size_t index)
    {
        insts.erase(insts.begin() + static_cast<std::ptrdiff_t>(index));
    }

    /** Successor blocks from the terminator. */
    std::vector<BasicBlock *>
    successors() const
    {
        std::vector<BasicBlock *> out;
        const Instruction *term = terminator();
        if (!term)
            return out;
        if (term->succ0)
            out.push_back(term->succ0);
        if (term->succ1)
            out.push_back(term->succ1);
        return out;
    }

  private:
    std::string _name;
    Function *_parent;
    std::vector<std::unique_ptr<Instruction>> insts;
};

} // namespace tfm::ir

#endif // TRACKFM_IR_BASIC_BLOCK_HH
