/**
 * @file
 * The runtime both interpreters share (docs/INTERP.md): the kernel
 * boundary, binary arithmetic and its cycle cost, the math intrinsics
 * and flattened cell counts.
 *
 * The bytecode VM and the reference walker evaluate programs each in
 * their own way, but every leaf semantics below lives once and both
 * call it. So the two agree on these by construction, and a fault here
 * is a fault fixed in one place. Signed integer arithmetic wraps as
 * two's complement; the one overflow that cannot wrap, LONG_MIN / -1
 * (and % -1), traps like a zero divisor.
 */

#ifndef HETEROGEN_INTERP_RUNTIME_H
#define HETEROGEN_INTERP_RUNTIME_H

#include <climits>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cir/ast.h"
#include "interp/interp.h"
#include "interp/memory.h"
#include "interp/value.h"

namespace heterogen::interp {

// --- cell counts -----------------------------------------------------------

/**
 * Cells of one instance of each struct, by name. A redeclared name
 * keeps its last declaration, the layout both engines allocate.
 */
class StructCells
{
  public:
    StructCells() = default;
    explicit StructCells(const cir::TranslationUnit &tu);

    /** Cells of one `name`; traps "unknown struct layout: <name>". */
    long of(const std::string &name) const;

  private:
    std::map<std::string, long> cells_;
};

/**
 * Flattened cell count of one instance of `t`: 1 for a scalar (or no
 * type), its field count for a struct, the product of the dimensions
 * for an array. Traps on an unknown-size array or struct layout.
 */
long flatCells(const cir::Type *t, const StructCells &structs);

/** Pointer-arithmetic stride of a cell of `ptr_type`: 1 unless a pointer. */
long placeStride(const cir::Type *ptr_type, const StructCells &structs);

// --- two's-complement integer arithmetic ------------------------------------

inline long
wrapAdd(long x, long y)
{
    return long(static_cast<unsigned long>(x) + static_cast<unsigned long>(y));
}

inline long
wrapSub(long x, long y)
{
    return long(static_cast<unsigned long>(x) - static_cast<unsigned long>(y));
}

inline long
wrapMul(long x, long y)
{
    return long(static_cast<unsigned long>(x) * static_cast<unsigned long>(y));
}

inline long
wrapNeg(long x)
{
    return long(0UL - static_cast<unsigned long>(x));
}

/** `p` moved by `cells`, its offset wrapping at 32 bits. */
inline Place
advance(Place p, long cells)
{
    return {p.block, int32_t(uint32_t(p.offset) + uint32_t(cells))};
}

/** The cycle charge of an int-int binary operation (CpuCosts). */
inline uint8_t
intCycles(cir::BinaryOp op)
{
    switch (op) {
      case cir::BinaryOp::Mul: return CpuCosts::kIntMul;
      case cir::BinaryOp::Div:
      case cir::BinaryOp::Mod: return CpuCosts::kIntDiv;
      default: return CpuCosts::kIntAlu;
    }
}

/**
 * `x op y` on two integers, for every non-logical operator. Division
 * and modulo trap on a zero divisor and on LONG_MIN / -1, whose
 * quotient has no 64-bit value; all else wraps. Inline: the VM's typed
 * register ops run on it.
 */
inline long
intBinary(cir::BinaryOp op, long x, long y)
{
    using cir::BinaryOp;
    switch (op) {
      case BinaryOp::Add: return wrapAdd(x, y);
      case BinaryOp::Sub: return wrapSub(x, y);
      case BinaryOp::Mul: return wrapMul(x, y);
      case BinaryOp::Div:
        if (y == 0)
            throw Trap("integer division by zero");
        if (x == LONG_MIN && y == -1)
            throw Trap("integer division overflow");
        return x / y;
      case BinaryOp::Mod:
        if (y == 0)
            throw Trap("integer modulo by zero");
        if (x == LONG_MIN && y == -1)
            throw Trap("integer modulo overflow");
        return x % y;
      case BinaryOp::Lt: return x < y;
      case BinaryOp::Gt: return x > y;
      case BinaryOp::Le: return x <= y;
      case BinaryOp::Ge: return x >= y;
      case BinaryOp::Eq: return x == y;
      case BinaryOp::Ne: return x != y;
      case BinaryOp::BitAnd: return x & y;
      case BinaryOp::BitOr: return x | y;
      case BinaryOp::BitXor: return x ^ y;
      case BinaryOp::Shl: return x << (y & 63);
      case BinaryOp::Shr: return x >> (y & 63);
      default:
        throw Trap("unhandled integer operation");
    }
}

/** The binary operation a compound assignment applies. */
inline cir::BinaryOp
compoundOp(cir::AssignOp op)
{
    switch (op) {
      case cir::AssignOp::Add: return cir::BinaryOp::Add;
      case cir::AssignOp::Sub: return cir::BinaryOp::Sub;
      case cir::AssignOp::Mul: return cir::BinaryOp::Mul;
      case cir::AssignOp::Div: return cir::BinaryOp::Div;
      default: return cir::BinaryOp::Mod;
    }
}

// --- values ------------------------------------------------------------------

/**
 * The cycles `a op b` costs (CpuCosts). An engine charges them before
 * applyBinary, so a trapping operation has been charged too.
 */
uint64_t binaryCycles(cir::BinaryOp op, const Value &a, const Value &b);

/**
 * `a op b` for any operand kinds and every non-logical operator:
 * pointer arithmetic and comparison when either side is a pointer
 * (a struct block's stride is its field count), floating point when
 * either side is a float, else intBinary.
 */
Value applyBinary(cir::BinaryOp op, const Value &a, const Value &b,
                  const Memory &memory, const StructCells &structs);

/**
 * `old` stepped by `delta` (++ / --): a float by delta, a pointer by
 * delta strides of `type` (the cell's static type), else an integer.
 */
Value incDec(const Value &old, long delta, const cir::Type *type,
             const StructCells &structs);

// --- math intrinsics -------------------------------------------------------

/** Math intrinsics (the VM's Math opcode operand). */
enum class MathFn : int32_t
{
    Sqrt, Fabs, Abs, Pow, Sin, Cos, Tan, Exp, Log, Floor, Ceil,
    Min, Max,
    Unknown, ///< "unimplemented intrinsic: <name>"
};

/** The MathFn a call to `name` applies; Unknown for any other name. */
MathFn mathFnOf(const std::string &name);

/**
 * `name(args)` for the intrinsic `fn` (= mathFnOf(name)). Traps on a
 * wrong argument count, outside the domain (sqrt, log) and on Unknown.
 * The caller charges kMath first.
 */
Value applyMath(MathFn fn, const std::string &name,
                const std::vector<Value> &args);

// --- the kernel boundary ---------------------------------------------------

/**
 * The kernel's arguments materialized into one run's memory: arrays and
 * pointers as blocks of their element type, streams as FIFOs holding
 * the elements, scalars as values coerced to the parameter type.
 */
class KernelArgs
{
  public:
    /**
     * Materialize `args` for `fn`'s parameters, in order. Traps on an
     * array for a scalar parameter or the reverse, and when the count
     * differs from the parameter count.
     */
    KernelArgs(Memory &memory, const cir::FunctionDecl &fn,
               const std::vector<KernelArg> &args);
    /** `args` is read again by finish(): it must outlive this. */
    KernelArgs(Memory &, const cir::FunctionDecl &,
               std::vector<KernelArg> &&) = delete;

    /** The parameter values, in order. */
    const std::vector<Value> &values() const { return values_; }

    /**
     * Complete `result` once the call returned `ret`: the return value
     * (unless void) and each argument's post-run state — an array's
     * block, a stream's remaining elements (drained), a scalar as
     * passed. Marks the result ok.
     */
    void finish(const Value &ret, RunResult &result) const;

  private:
    Memory &memory_;
    const cir::FunctionDecl &fn_;
    const std::vector<KernelArg> &args_;
    std::vector<Value> values_;
    std::vector<int32_t> blocks_;  ///< array argument blocks, else 0
    std::vector<int32_t> streams_; ///< stream argument ids, else -1
};

/**
 * Seed capture (RunOptions::capture_function): the first call of a run
 * to that function records its evaluated arguments.
 */
class SeedCapture
{
  public:
    /** Arm for one run under `options`. */
    void arm(const RunOptions &options);

    /** True when a call to `name` is the one to capture. */
    bool
    due(const std::string &name) const
    {
        return out_ && !done_ && name == *function_;
    }

    /**
     * Record `fn`'s arguments into RunOptions::captured_args: an
     * array from the pointed-to cell to the end of its block, a
     * stream's queued elements (left queued), a scalar as it is.
     */
    void capture(Memory &memory, const cir::FunctionDecl &fn,
                 const std::vector<Value> &args);

  private:
    const std::string *function_ = nullptr;
    std::vector<KernelArg> *out_ = nullptr;
    bool done_ = false;
};

} // namespace heterogen::interp

#endif // HETEROGEN_INTERP_RUNTIME_H
