#include "interp/runtime.h"

#include <cmath>
#include <utility>

namespace heterogen::interp {

using namespace cir;

// --- cell counts -----------------------------------------------------------

StructCells::StructCells(const TranslationUnit &tu)
{
    for (const auto &sd : tu.structs)
        cells_[sd->name] = long(sd->fields.size());
}

long
StructCells::of(const std::string &name) const
{
    auto it = cells_.find(name);
    if (it == cells_.end())
        throw Trap("unknown struct layout: " + name);
    return it->second;
}

long
flatCells(const Type *t, const StructCells &structs)
{
    if (!t)
        return 1;
    if (t->isArray()) {
        long n = t->arraySize();
        if (n == kUnknownArraySize)
            throw Trap("sizeof of unknown-size array");
        return wrapMul(n, flatCells(t->element().get(), structs));
    }
    if (t->isStruct())
        return structs.of(t->structName());
    return 1;
}

long
placeStride(const Type *ptr_type, const StructCells &structs)
{
    if (ptr_type && ptr_type->isPointer())
        return flatCells(ptr_type->element().get(), structs);
    return 1;
}

// --- values ------------------------------------------------------------------

uint64_t
binaryCycles(BinaryOp op, const Value &a, const Value &b)
{
    if (a.isPointer() || b.isPointer())
        return CpuCosts::kIntAlu;
    bool flt = a.isFloat() || b.isFloat();
    switch (op) {
      case BinaryOp::Add:
      case BinaryOp::Sub:
        return flt ? CpuCosts::kFloatAlu : CpuCosts::kIntAlu;
      case BinaryOp::Mul:
        return flt ? CpuCosts::kFloatMul : CpuCosts::kIntMul;
      case BinaryOp::Div:
      case BinaryOp::Mod:
        return flt ? CpuCosts::kFloatDiv : CpuCosts::kIntDiv;
      default:
        return CpuCosts::kIntAlu;
    }
}

namespace {

Value
pointerBinary(BinaryOp op, const Value &a, const Value &b,
              const Memory &memory, const StructCells &structs)
{
    // A pointer into a struct block steps over whole instances.
    auto stride = [&](const Value &ptr) {
        const Type *bt = memory.blockType(ptr.asPlace().block);
        return bt && bt->isStruct() ? structs.of(bt->structName()) : 1L;
    };
    if (op == BinaryOp::Add || op == BinaryOp::Sub) {
        if (a.isPointer() && b.isInt()) {
            long delta = wrapMul(b.asInt(), stride(a));
            if (op == BinaryOp::Sub)
                delta = wrapNeg(delta);
            return Value::makePointer(advance(a.asPlace(), delta));
        }
        if (a.isInt() && b.isPointer() && op == BinaryOp::Add)
            return Value::makePointer(
                advance(b.asPlace(), wrapMul(a.asInt(), stride(b))));
        if (a.isPointer() && b.isPointer() && op == BinaryOp::Sub) {
            if (a.asPlace().block != b.asPlace().block)
                throw Trap("subtraction of unrelated pointers");
            int32_t cells = int32_t(uint32_t(a.asPlace().offset) -
                                    uint32_t(b.asPlace().offset));
            long size = stride(a);
            if (size == 0)
                throw Trap("difference of pointers to zero-size elements");
            return Value::makeInt(cells / size);
        }
        throw Trap("invalid pointer arithmetic");
    }
    auto as_pair = [](const Value &v) {
        if (v.isPointer())
            return std::pair<long, long>(v.asPlace().block,
                                         v.asPlace().offset);
        return std::pair<long, long>(0, v.asInt());
    };
    auto [ab, ao] = as_pair(a);
    auto [bb, bo] = as_pair(b);
    switch (op) {
      case BinaryOp::Eq: return Value::makeInt(ab == bb && ao == bo);
      case BinaryOp::Ne: return Value::makeInt(!(ab == bb && ao == bo));
      case BinaryOp::Lt: return Value::makeInt(ao < bo);
      case BinaryOp::Gt: return Value::makeInt(ao > bo);
      case BinaryOp::Le: return Value::makeInt(ao <= bo);
      case BinaryOp::Ge: return Value::makeInt(ao >= bo);
      default:
        throw Trap("invalid pointer operation");
    }
}

Value
floatBinary(BinaryOp op, double x, double y)
{
    switch (op) {
      case BinaryOp::Add: return Value::makeFloat(x + y);
      case BinaryOp::Sub: return Value::makeFloat(x - y);
      case BinaryOp::Mul: return Value::makeFloat(x * y);
      case BinaryOp::Div:
        if (y == 0.0)
            throw Trap("floating division by zero");
        return Value::makeFloat(x / y);
      case BinaryOp::Lt: return Value::makeInt(x < y);
      case BinaryOp::Gt: return Value::makeInt(x > y);
      case BinaryOp::Le: return Value::makeInt(x <= y);
      case BinaryOp::Ge: return Value::makeInt(x >= y);
      case BinaryOp::Eq: return Value::makeInt(x == y);
      case BinaryOp::Ne: return Value::makeInt(x != y);
      default:
        throw Trap("invalid float operation");
    }
}

} // namespace

Value
applyBinary(BinaryOp op, const Value &a, const Value &b,
            const Memory &memory, const StructCells &structs)
{
    if (a.isPointer() || b.isPointer())
        return pointerBinary(op, a, b, memory, structs);
    if (a.isFloat() || b.isFloat())
        return floatBinary(op, a.asFloat(), b.asFloat());
    return Value::makeInt(intBinary(op, a.asInt(), b.asInt()));
}

Value
incDec(const Value &old, long delta, const Type *type,
       const StructCells &structs)
{
    if (old.isFloat())
        return Value::makeFloat(old.asFloat() + delta);
    if (old.isPointer())
        return Value::makePointer(advance(
            old.asPlace(), wrapMul(delta, placeStride(type, structs))));
    return Value::makeInt(wrapAdd(old.asInt(), delta));
}

// --- math intrinsics -------------------------------------------------------

MathFn
mathFnOf(const std::string &name)
{
    static const std::map<std::string, MathFn> fns = {
        {"sqrt", MathFn::Sqrt}, {"sqrtf", MathFn::Sqrt},
        {"fabs", MathFn::Fabs}, {"abs", MathFn::Abs},
        {"pow", MathFn::Pow},   {"powf", MathFn::Pow},
        {"sin", MathFn::Sin},   {"cos", MathFn::Cos},
        {"tan", MathFn::Tan},   {"exp", MathFn::Exp},
        {"log", MathFn::Log},   {"floor", MathFn::Floor},
        {"ceil", MathFn::Ceil}, {"min", MathFn::Min},
        {"max", MathFn::Max},
    };
    auto it = fns.find(name);
    return it == fns.end() ? MathFn::Unknown : it->second;
}

Value
applyMath(MathFn fn, const std::string &name, const std::vector<Value> &args)
{
    if (fn == MathFn::Unknown)
        throw Trap("unimplemented intrinsic: " + name);
    size_t arity = fn == MathFn::Pow || fn == MathFn::Min ||
                           fn == MathFn::Max
                       ? 2
                       : 1;
    if (args.size() != arity)
        throw Trap(name + " expects " + std::to_string(arity) +
                   " argument(s)");
    double x = args[0].asFloat();
    switch (fn) {
      case MathFn::Sqrt:
        if (x < 0)
            throw Trap("sqrt of negative value");
        return Value::makeFloat(std::sqrt(x));
      case MathFn::Fabs: return Value::makeFloat(std::fabs(x));
      case MathFn::Abs: {
        long i = args[0].asInt();
        return Value::makeInt(i < 0 ? wrapNeg(i) : i);
      }
      case MathFn::Pow:
        return Value::makeFloat(std::pow(x, args[1].asFloat()));
      case MathFn::Sin: return Value::makeFloat(std::sin(x));
      case MathFn::Cos: return Value::makeFloat(std::cos(x));
      case MathFn::Tan: return Value::makeFloat(std::tan(x));
      case MathFn::Exp: return Value::makeFloat(std::exp(x));
      case MathFn::Log:
        if (x <= 0)
            throw Trap("log of non-positive value");
        return Value::makeFloat(std::log(x));
      case MathFn::Floor: return Value::makeFloat(std::floor(x));
      case MathFn::Ceil: return Value::makeFloat(std::ceil(x));
      case MathFn::Min:
      case MathFn::Max: {
        bool flt = args[0].isFloat() || args[1].isFloat();
        bool take_first = flt ? x < args[1].asFloat()
                              : args[0].asInt() < args[1].asInt();
        if (fn == MathFn::Max)
            take_first = !take_first;
        // The argument itself, with its declared type.
        return take_first ? args[0] : args[1];
      }
      case MathFn::Unknown:
        break;
    }
    throw Trap("unimplemented intrinsic: " + name);
}

// --- the kernel boundary ---------------------------------------------------

namespace {

KernelArg
valueToArg(const Value &v)
{
    if (v.isFloat())
        return KernelArg::ofFloat(v.asFloat());
    return KernelArg::ofInt(v.asInt());
}

} // namespace

KernelArgs::KernelArgs(Memory &memory, const FunctionDecl &fn,
                       const std::vector<KernelArg> &args)
    : memory_(memory), fn_(fn), args_(args), blocks_(args.size(), 0),
      streams_(args.size(), -1)
{
    for (size_t i = 0; i < args.size(); ++i) {
        if (i >= fn.params.size())
            throw Trap("too many kernel arguments");
        const KernelArg &arg = args[i];
        const TypePtr &type = fn.params[i].type;
        if (type->isStream()) {
            int32_t id = memory.createStream();
            streams_[i] = id;
            if (arg.kind == KernelArg::Kind::IntArray) {
                for (long v : arg.ints)
                    memory.streamWrite(
                        id, coerceToType(Value::makeInt(v), type->element()));
            } else if (arg.kind == KernelArg::Kind::FloatArray) {
                for (double v : arg.floats)
                    memory.streamWrite(id, coerceToType(Value::makeFloat(v),
                                                        type->element()));
            }
            values_.push_back(Value::makeStream(id));
        } else if (type->isArray() || type->isPointer()) {
            const TypePtr &elem = type->element();
            int32_t block;
            if (arg.kind == KernelArg::Kind::IntArray) {
                block = memory.allocate(int(arg.ints.size()), elem);
                for (size_t k = 0; k < arg.ints.size(); ++k)
                    memory.store({block, int32_t(k)},
                                 Value::makeInt(arg.ints[k]));
            } else if (arg.kind == KernelArg::Kind::FloatArray) {
                block = memory.allocate(int(arg.floats.size()), elem);
                for (size_t k = 0; k < arg.floats.size(); ++k)
                    memory.store({block, int32_t(k)},
                                 Value::makeFloat(arg.floats[k]));
            } else {
                throw Trap("scalar kernel arg for array parameter");
            }
            blocks_[i] = block;
            values_.push_back(Value::makePointer({block, 0}));
        } else if (arg.kind == KernelArg::Kind::Int) {
            values_.push_back(coerceToType(Value::makeInt(arg.i), type));
        } else if (arg.kind == KernelArg::Kind::Float) {
            values_.push_back(coerceToType(Value::makeFloat(arg.f), type));
        } else {
            throw Trap("array kernel arg for scalar parameter");
        }
    }
    if (values_.size() != fn.params.size())
        throw Trap("missing kernel arguments for " + fn.name);
}

void
KernelArgs::finish(const Value &ret, RunResult &result) const
{
    if (!fn_.ret_type->isVoid()) {
        result.has_ret = true;
        result.ret = valueToArg(ret);
    }
    for (size_t i = 0; i < args_.size(); ++i) {
        const TypePtr &type = fn_.params[i].type;
        if (type->isStream()) {
            bool is_float = type->element() && type->element()->isFloating();
            std::vector<long> iv;
            std::vector<double> fv;
            while (!memory_.streamEmpty(streams_[i])) {
                Value v = memory_.streamRead(streams_[i]);
                if (is_float)
                    fv.push_back(v.asFloat());
                else
                    iv.push_back(v.asInt());
            }
            result.out_args.push_back(
                is_float ? KernelArg::ofFloats(std::move(fv))
                         : KernelArg::ofInts(std::move(iv)));
        } else if (int32_t block = blocks_[i]; block > 0) {
            int n = memory_.blockSize(block);
            if (args_[i].kind == KernelArg::Kind::FloatArray) {
                std::vector<double> out(size_t(n), 0.0);
                for (int k = 0; k < n; ++k)
                    out[size_t(k)] = memory_.load({block, k}).asFloat();
                result.out_args.push_back(KernelArg::ofFloats(std::move(out)));
            } else {
                std::vector<long> out(size_t(n), 0);
                for (int k = 0; k < n; ++k)
                    out[size_t(k)] = truncatedInt(memory_.load({block, k}));
                result.out_args.push_back(KernelArg::ofInts(std::move(out)));
            }
        } else {
            result.out_args.push_back(args_[i]); // passed by value
        }
    }
    result.ok = true;
}

void
SeedCapture::arm(const RunOptions &options)
{
    function_ = &options.capture_function;
    out_ = options.capture_function.empty() ? nullptr : options.captured_args;
    done_ = false;
}

void
SeedCapture::capture(Memory &memory, const FunctionDecl &fn,
                     const std::vector<Value> &args)
{
    done_ = true;
    std::vector<KernelArg> captured;
    for (size_t i = 0; i < args.size(); ++i) {
        const TypePtr &type = fn.params[i].type;
        const Value &v = args[i];
        if ((type->isArray() || type->isPointer()) && v.isPointer()) {
            Place p = v.asPlace();
            int n = memory.blockSize(p.block);
            if (type->element() && type->element()->isFloating()) {
                std::vector<double> xs;
                for (int k = p.offset; k < n; ++k)
                    xs.push_back(memory.load({p.block, k}).asFloat());
                captured.push_back(KernelArg::ofFloats(std::move(xs)));
            } else {
                std::vector<long> xs;
                for (int k = p.offset; k < n; ++k)
                    xs.push_back(truncatedInt(memory.load({p.block, k})));
                captured.push_back(KernelArg::ofInts(std::move(xs)));
            }
        } else if (type->isStream() && v.isStream()) {
            // Read each element and queue it again: the stream is unchanged.
            size_t n = memory.streamSize(v.streamId());
            std::vector<long> xs;
            for (size_t k = 0; k < n; ++k) {
                Value x = memory.streamRead(v.streamId());
                xs.push_back(truncatedInt(x));
                memory.streamWrite(v.streamId(), x);
            }
            captured.push_back(KernelArg::ofInts(std::move(xs)));
        } else {
            captured.push_back(valueToArg(v));
        }
    }
    *out_ = std::move(captured);
}

} // namespace heterogen::interp
