/**
 * @file
 * IR functions and modules.
 */

#ifndef TRACKFM_IR_FUNCTION_HH
#define TRACKFM_IR_FUNCTION_HH

#include <memory>
#include <string>
#include <vector>

#include "basic_block.hh"
#include "value.hh"

namespace tfm::ir
{

/** A function: arguments plus a list of basic blocks (entry first). */
class Function
{
  public:
    Function(std::string name, Type return_type)
        : _name(std::move(name)), retType(return_type)
    {}

    const std::string &name() const { return _name; }
    Type returnType() const { return retType; }

    Argument *
    addArgument(Type type, std::string arg_name)
    {
        args.push_back(std::make_unique<Argument>(
            type, std::move(arg_name),
            static_cast<unsigned>(args.size())));
        stampValue(*args.back());
        return args.back().get();
    }

    const std::vector<std::unique_ptr<Argument>> &
    arguments() const
    {
        return args;
    }

    BasicBlock *
    addBlock(std::string block_name)
    {
        blocks.push_back(
            std::make_unique<BasicBlock>(std::move(block_name), this));
        return blocks.back().get();
    }

    const std::vector<std::unique_ptr<BasicBlock>> &
    basicBlocks() const
    {
        return blocks;
    }

    BasicBlock *entry() const
    {
        return blocks.empty() ? nullptr : blocks.front().get();
    }

    BasicBlock *
    findBlock(const std::string &block_name) const
    {
        for (const auto &block : blocks) {
            if (block->name() == block_name)
                return block.get();
        }
        return nullptr;
    }

    /**
     * Remove the given blocks from the function (they must not be
     * referenced by surviving branches or phis).
     *
     * @return true when anything was removed.
     */
    bool
    eraseBlocks(const std::vector<const BasicBlock *> &victims)
    {
        bool changed = false;
        for (std::size_t i = 0; i < blocks.size(); i++) {
            bool doomed = false;
            for (const BasicBlock *victim : victims)
                doomed |= (blocks[i].get() == victim);
            if (doomed) {
                blocks.erase(blocks.begin() +
                             static_cast<std::ptrdiff_t>(i));
                i--;
                changed = true;
            }
        }
        return changed;
    }

    /**
     * One past the highest Value::localId() handed out in this
     * function: every argument and instruction id is below it. Holes
     * left by removed instructions are not reclaimed.
     */
    std::uint32_t valueIdLimit() const { return nextValueId; }

    /** Total instruction count (IR size metric for section 4.6). */
    std::size_t
    instructionCount() const
    {
        std::size_t count = 0;
        for (const auto &block : blocks)
            count += block->instructions().size();
        return count;
    }

    /**
     * Keep track of constants owned by this function (pass-created
     * literals live here so their lifetime covers all uses).
     */
    Constant *
    makeConstant(Type type, std::int64_t value)
    {
        constants.push_back(std::make_unique<Constant>(type, value));
        return constants.back().get();
    }

    Constant *
    makeFloatConstant(double value)
    {
        constants.push_back(std::make_unique<Constant>(value));
        return constants.back().get();
    }

  private:
    friend class BasicBlock;

    void stampValue(Value &value) { value._localId = nextValueId++; }

    std::string _name;
    Type retType;
    std::uint32_t nextValueId = 0;
    std::vector<std::unique_ptr<Argument>> args;
    std::vector<std::unique_ptr<BasicBlock>> blocks;
    std::vector<std::unique_ptr<Constant>> constants;
};

inline Instruction *
BasicBlock::append(std::unique_ptr<Instruction> inst)
{
    inst->setParent(this);
    _parent->stampValue(*inst);
    insts.push_back(std::move(inst));
    return insts.back().get();
}

inline Instruction *
BasicBlock::insertAt(std::size_t index, std::unique_ptr<Instruction> inst)
{
    inst->setParent(this);
    _parent->stampValue(*inst);
    auto it = insts.begin() + static_cast<std::ptrdiff_t>(index);
    return insts.insert(it, std::move(inst))->get();
}

/** A module: a set of functions. */
class Module
{
  public:
    Function *
    addFunction(std::string name, Type return_type)
    {
        functions.push_back(
            std::make_unique<Function>(std::move(name), return_type));
        return functions.back().get();
    }

    const std::vector<std::unique_ptr<Function>> &
    allFunctions() const
    {
        return functions;
    }

    Function *
    findFunction(const std::string &name) const
    {
        for (const auto &function : functions) {
            if (function->name() == name)
                return function.get();
        }
        return nullptr;
    }

    /** Total instruction count across functions. */
    std::size_t
    instructionCount() const
    {
        std::size_t count = 0;
        for (const auto &function : functions)
            count += function->instructionCount();
        return count;
    }

  private:
    std::vector<std::unique_ptr<Function>> functions;
};

} // namespace tfm::ir

#endif // TRACKFM_IR_FUNCTION_HH
