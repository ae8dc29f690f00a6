/**
 * @file
 * Value hierarchy for the TrackFM compiler IR: constants, function
 * arguments, and instructions (defined in instruction.hh).
 */

#ifndef TRACKFM_IR_VALUE_HH
#define TRACKFM_IR_VALUE_HH

#include <cstdint>
#include <string>

#include "type.hh"

namespace tfm::ir
{

class Function;

/** Base of everything that can appear as an operand. */
class Value
{
  public:
    enum class Kind : std::uint8_t
    {
        Constant,
        Argument,
        Instruction
    };

    Value(Kind kind, Type type, std::string name)
        : _kind(kind), _type(type), _name(std::move(name))
    {}

    virtual ~Value() = default;

    Kind kind() const { return _kind; }
    Type type() const { return _type; }
    const std::string &name() const { return _name; }
    void setName(std::string name) { _name = std::move(name); }

    /**
     * Re-type a value. Only the parser and type-refining passes use
     * this; the type of a value is otherwise fixed at construction.
     */
    void setType(Type type) { _type = type; }

    bool isConstant() const { return _kind == Kind::Constant; }
    bool isInstruction() const { return _kind == Kind::Instruction; }

    /** localId() of a value that never entered a function. */
    static constexpr std::uint32_t noLocalId = ~std::uint32_t{0};

    /**
     * Dense per-function id, below the owning function's
     * valueIdLimit(). Function::addArgument, BasicBlock::append and
     * BasicBlock::insertAt stamp it; ids are never reused, so a removed
     * instruction leaves a hole. Constants (and instructions not yet in
     * a block) read noLocalId.
     */
    std::uint32_t localId() const { return _localId; }

  private:
    friend class Function;

    Kind _kind;
    Type _type;
    /// Sits in the padding after _type: sizeof(Value) does not grow.
    std::uint32_t _localId = noLocalId;
    std::string _name;
};

/** Integer or floating literal. */
class Constant : public Value
{
  public:
    Constant(Type type, std::int64_t value)
        : Value(Kind::Constant, type, ""), ival(value), fval(0)
    {}

    Constant(double value)
        : Value(Kind::Constant, Type::F64, ""), ival(0), fval(value)
    {}

    std::int64_t intValue() const { return ival; }
    double floatValue() const { return fval; }

  private:
    std::int64_t ival;
    double fval;
};

/** Formal function parameter. */
class Argument : public Value
{
  public:
    Argument(Type type, std::string name, unsigned index)
        : Value(Kind::Argument, type, std::move(name)), _index(index)
    {}

    unsigned index() const { return _index; }

  private:
    unsigned _index;
};

} // namespace tfm::ir

#endif // TRACKFM_IR_VALUE_HH
