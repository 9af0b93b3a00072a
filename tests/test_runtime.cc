/**
 * @file
 * The runtime both interpreters share (interp/runtime.h), tested
 * directly with expected values. The engines call the same code for
 * these, so the walker-vs-VM differential tests cannot catch a fault in
 * it; these pin the primitives instead: the kernel-boundary round trip,
 * seed capture, pointer arithmetic, integer overflow and the math
 * intrinsics' traps.
 */

#include <gtest/gtest.h>

#include <climits>

#include "cir/parser.h"
#include "cir/sema.h"
#include "interp/runtime.h"

namespace heterogen::interp {
namespace {

using cir::BinaryOp;

/** The message of the Trap `fn` raises, or "" when it returns. */
template <typename Fn>
std::string
trapOf(Fn &&fn)
{
    try {
        fn();
    } catch (const Trap &t) {
        return t.what();
    }
    return "";
}

std::unique_ptr<cir::TranslationUnit>
analyzed(const std::string &source)
{
    auto tu = cir::parse(source);
    cir::analyzeOrDie(*tu);
    return tu;
}

TEST(Runtime, KernelArgsRoundTripEveryKind)
{
    auto tu = analyzed(R"(
        double k(int i, double f, int a[3], double *d,
                 hls::stream<int> &s, hls::stream<float> &t) { return f; }
    )");
    const cir::FunctionDecl &fn = *tu->findFunction("k");
    std::vector<KernelArg> args = {
        KernelArg::ofInt(7),           KernelArg::ofFloat(2.5),
        KernelArg::ofInts({1, 2, 3}),  KernelArg::ofFloats({0.5, -1.5}),
        KernelArg::ofInts({4, 5}),     KernelArg::ofFloats({0.25}),
    };
    Memory memory;
    KernelArgs bound(memory, fn, args);
    const std::vector<Value> &v = bound.values();
    ASSERT_EQ(v.size(), 6u);
    EXPECT_EQ(v[0].asInt(), 7);
    EXPECT_EQ(v[1].asFloat(), 2.5);
    ASSERT_TRUE(v[2].isPointer());
    EXPECT_EQ(memory.blockSize(v[2].asPlace().block), 3);
    ASSERT_TRUE(v[3].isPointer());
    ASSERT_TRUE(v[4].isStream());
    EXPECT_EQ(memory.streamSize(v[4].streamId()), 2u);
    ASSERT_TRUE(v[5].isStream());

    // The run writes one array cell and consumes one stream element.
    memory.store(advance(v[2].asPlace(), 1), Value::makeInt(20));
    memory.store(v[3].asPlace(), Value::makeFloat(8.0));
    memory.streamRead(v[4].streamId());

    RunResult result;
    bound.finish(Value::makeFloat(1.5), result);
    EXPECT_TRUE(result.ok);
    EXPECT_TRUE(result.has_ret);
    EXPECT_EQ(result.ret, KernelArg::ofFloat(1.5));
    std::vector<KernelArg> want = {
        KernelArg::ofInt(7),           KernelArg::ofFloat(2.5),
        KernelArg::ofInts({1, 20, 3}), KernelArg::ofFloats({8.0, -1.5}),
        KernelArg::ofInts({5}),        KernelArg::ofFloats({0.25}),
    };
    EXPECT_EQ(result.out_args, want);
    // Reading a stream back drains it.
    EXPECT_TRUE(memory.streamEmpty(v[4].streamId()));
    EXPECT_TRUE(memory.streamEmpty(v[5].streamId()));
}

TEST(Runtime, KernelArgsCoerceScalarsAndReturnInts)
{
    auto tu = analyzed("char k(char c, int x) { return c; }");
    const cir::FunctionDecl &fn = *tu->findFunction("k");
    std::vector<KernelArg> args = {KernelArg::ofInt(300),
                                   KernelArg::ofFloat(2.75)};
    Memory memory;
    KernelArgs bound(memory, fn, args);
    EXPECT_EQ(bound.values()[0].asInt(), 44); // 300 wraps to a char
    EXPECT_EQ(bound.values()[1].asInt(), 2);  // a float truncates
    RunResult result;
    bound.finish(Value::makeInt(-3), result);
    EXPECT_EQ(result.ret, KernelArg::ofInt(-3));
    // Scalars are passed by value: read back as given.
    EXPECT_EQ(result.out_args[0], KernelArg::ofInt(300));
    EXPECT_EQ(result.out_args[1], KernelArg::ofFloat(2.75));
}

TEST(Runtime, KernelArgsTrapOnMismatch)
{
    auto tu = analyzed("void k(int x, int a[2]) { }");
    const cir::FunctionDecl &fn = *tu->findFunction("k");
    auto bind = [&](std::vector<KernelArg> args) {
        return trapOf([&] {
            Memory memory;
            KernelArgs bound(memory, fn, args);
        });
    };
    EXPECT_EQ(bind({KernelArg::ofInt(1), KernelArg::ofInts({1, 2})}), "");
    EXPECT_EQ(bind({KernelArg::ofInt(1)}), "missing kernel arguments for k");
    EXPECT_EQ(bind({KernelArg::ofInt(1), KernelArg::ofInts({1}),
                    KernelArg::ofInt(2)}),
              "too many kernel arguments");
    EXPECT_EQ(bind({KernelArg::ofInts({1}), KernelArg::ofInts({1})}),
              "array kernel arg for scalar parameter");
    EXPECT_EQ(bind({KernelArg::ofInt(1), KernelArg::ofInt(2)}),
              "scalar kernel arg for array parameter");
}

TEST(Runtime, SeedCaptureSnapshotsAStreamWithoutConsumingIt)
{
    auto tu = analyzed(
        "void k(hls::stream<int> &s, int a[4], double x) { }");
    const cir::FunctionDecl &fn = *tu->findFunction("k");
    std::vector<KernelArg> args = {KernelArg::ofInts({3, 1, 4}),
                                   KernelArg::ofInts({9, 8, 7, 6}),
                                   KernelArg::ofFloat(0.5)};
    Memory memory;
    KernelArgs bound(memory, fn, args);

    std::vector<KernelArg> captured;
    RunOptions options;
    options.capture_function = "k";
    options.captured_args = &captured;
    SeedCapture seed;
    seed.arm(options);
    EXPECT_FALSE(seed.due("other"));
    ASSERT_TRUE(seed.due("k"));

    // An array argument is captured from the cell it points at.
    std::vector<Value> values = bound.values();
    values[1] = Value::makePointer(advance(values[1].asPlace(), 1));
    seed.capture(memory, fn, values);
    EXPECT_FALSE(seed.due("k")) << "only the first call is captured";
    std::vector<KernelArg> want = {KernelArg::ofInts({3, 1, 4}),
                                   KernelArg::ofInts({8, 7, 6}),
                                   KernelArg::ofFloat(0.5)};
    EXPECT_EQ(captured, want);

    // The stream still holds every element, in order.
    RunResult result;
    bound.finish(Value(), result);
    EXPECT_FALSE(result.has_ret);
    EXPECT_EQ(result.out_args[0], KernelArg::ofInts({3, 1, 4}));

    // Re-armed for the next run; no capture without a function name.
    seed.arm(options);
    EXPECT_TRUE(seed.due("k"));
    options.capture_function.clear();
    seed.arm(options);
    EXPECT_FALSE(seed.due(""));
}

TEST(Runtime, PointerArithmeticStepsOverStructInstances)
{
    auto tu = analyzed(R"(
        struct P { int x; int y; int z; };
        struct E { };
        void k() { }
    )");
    StructCells structs(*tu);
    EXPECT_EQ(structs.of("P"), 3);
    EXPECT_EQ(structs.of("E"), 0);
    EXPECT_EQ(trapOf([&] { structs.of("Q"); }), "unknown struct layout: Q");

    std::vector<const cir::Type *> fields;
    for (const cir::Field &f : tu->structs[0]->fields)
        fields.push_back(f.type.get());
    Memory memory;
    int32_t block =
        memory.allocatePattern(4, cir::Type::structType("P"), fields);
    Value base = Value::makePointer({block, 0});
    auto apply = [&](BinaryOp op, const Value &a, const Value &b) {
        return applyBinary(op, a, b, memory, structs);
    };

    Value two = apply(BinaryOp::Add, base, Value::makeInt(2));
    EXPECT_EQ(two.asPlace(), (Place{block, 6}));
    EXPECT_EQ(apply(BinaryOp::Add, Value::makeInt(2), base).asPlace(),
              (Place{block, 6}));
    EXPECT_EQ(apply(BinaryOp::Sub, two, Value::makeInt(1)).asPlace(),
              (Place{block, 3}));
    EXPECT_EQ(apply(BinaryOp::Sub, two, base).asInt(), 2);
    EXPECT_EQ(apply(BinaryOp::Sub, base, two).asInt(), -2);
    EXPECT_EQ(apply(BinaryOp::Lt, base, two).asInt(), 1);
    EXPECT_EQ(apply(BinaryOp::Eq, two, two).asInt(), 1);
    EXPECT_EQ(binaryCycles(BinaryOp::Mul, two, Value::makeInt(3)),
              CpuCosts::kIntAlu);

    // ++ on a P* steps one instance; on an untyped cell, one cell.
    cir::TypePtr to_p = cir::Type::pointer(cir::Type::structType("P"));
    EXPECT_EQ(incDec(two, 1, to_p.get(), structs).asPlace(),
              (Place{block, 9}));
    EXPECT_EQ(incDec(two, -1, nullptr, structs).asPlace(),
              (Place{block, 5}));
    EXPECT_EQ(flatCells(cir::Type::array(cir::Type::structType("P"), 5).get(),
                        structs),
              15);

    int32_t other = memory.allocate(4, cir::Type::intType());
    EXPECT_EQ(trapOf([&] {
                  apply(BinaryOp::Sub, base, Value::makePointer({other, 0}));
              }),
              "subtraction of unrelated pointers");
    EXPECT_EQ(trapOf([&] { apply(BinaryOp::Mul, base, Value::makeInt(2)); }),
              "invalid pointer operation");
    EXPECT_EQ(trapOf([&] { apply(BinaryOp::Add, base, base); }),
              "invalid pointer arithmetic");

    // Elements of a field-less struct have no size to divide by.
    int32_t empty = memory.allocate(2, cir::Type::structType("E"));
    Value e0 = Value::makePointer({empty, 0});
    EXPECT_EQ(trapOf([&] { apply(BinaryOp::Sub, e0, e0); }),
              "difference of pointers to zero-size elements");
}

TEST(Runtime, SignedIntegerOpsWrapAndDivisionOverflowTraps)
{
    EXPECT_EQ(intBinary(BinaryOp::Add, LONG_MAX, 1), LONG_MIN);
    EXPECT_EQ(intBinary(BinaryOp::Sub, LONG_MIN, 1), LONG_MAX);
    EXPECT_EQ(intBinary(BinaryOp::Mul, LONG_MAX, 2), -2);
    EXPECT_EQ(intBinary(BinaryOp::Div, LONG_MIN, 1), LONG_MIN);
    EXPECT_EQ(intBinary(BinaryOp::Mod, LONG_MIN, 3), -2);
    EXPECT_EQ(wrapNeg(LONG_MIN), LONG_MIN);
    EXPECT_EQ(trapOf([] { intBinary(BinaryOp::Div, LONG_MIN, -1); }),
              "integer division overflow");
    EXPECT_EQ(trapOf([] { intBinary(BinaryOp::Mod, LONG_MIN, -1); }),
              "integer modulo overflow");
    EXPECT_EQ(trapOf([] { intBinary(BinaryOp::Div, 1, 0); }),
              "integer division by zero");
    EXPECT_EQ(trapOf([] { intBinary(BinaryOp::Mod, 1, 0); }),
              "integer modulo by zero");
    StructCells none;
    EXPECT_EQ(incDec(Value::makeInt(LONG_MAX), 1, nullptr, none).asInt(),
              LONG_MIN);
    EXPECT_EQ(incDec(Value::makeInt(LONG_MIN), -1, nullptr, none).asInt(),
              LONG_MAX);
    EXPECT_EQ(applyMath(MathFn::Abs, "abs", {Value::makeInt(LONG_MIN)})
                  .asInt(),
              LONG_MIN);
}

TEST(Runtime, MathIntrinsicTrapMessages)
{
    // Each intrinsic called with one argument too many.
    const std::vector<std::pair<std::string, std::string>> arity = {
        {"sqrt", "sqrt expects 1 argument(s)"},
        {"sqrtf", "sqrtf expects 1 argument(s)"},
        {"fabs", "fabs expects 1 argument(s)"},
        {"abs", "abs expects 1 argument(s)"},
        {"pow", "pow expects 2 argument(s)"},
        {"powf", "powf expects 2 argument(s)"},
        {"sin", "sin expects 1 argument(s)"},
        {"cos", "cos expects 1 argument(s)"},
        {"tan", "tan expects 1 argument(s)"},
        {"exp", "exp expects 1 argument(s)"},
        {"log", "log expects 1 argument(s)"},
        {"floor", "floor expects 1 argument(s)"},
        {"ceil", "ceil expects 1 argument(s)"},
        {"min", "min expects 2 argument(s)"},
        {"max", "max expects 2 argument(s)"},
    };
    std::vector<Value> three(3, Value::makeFloat(1.0));
    for (const auto &[name, message] : arity) {
        MathFn fn = mathFnOf(name);
        EXPECT_NE(fn, MathFn::Unknown) << name;
        EXPECT_EQ(trapOf([&] { applyMath(fn, name, three); }), message);
        EXPECT_EQ(trapOf([&] { applyMath(fn, name, {}); }), message);
    }

    auto call = [](const std::string &name, std::vector<Value> args) {
        return applyMath(mathFnOf(name), name, args);
    };
    EXPECT_EQ(trapOf([&] { call("sqrt", {Value::makeFloat(-0.5)}); }),
              "sqrt of negative value");
    EXPECT_EQ(trapOf([&] { call("sqrtf", {Value::makeInt(-1)}); }),
              "sqrt of negative value");
    EXPECT_EQ(trapOf([&] { call("log", {Value::makeFloat(0.0)}); }),
              "log of non-positive value");
    EXPECT_EQ(trapOf([&] { call("log", {Value::makeInt(-2)}); }),
              "log of non-positive value");
    for (const char *name : {"sizeof", "printf", "hypot"}) {
        EXPECT_EQ(mathFnOf(name), MathFn::Unknown);
        EXPECT_EQ(trapOf([&] { call(name, {}); }),
                  std::string("unimplemented intrinsic: ") + name);
    }

    EXPECT_EQ(call("sqrt", {Value::makeInt(9)}).asFloat(), 3.0);
    EXPECT_EQ(call("pow", {Value::makeInt(2), Value::makeFloat(10)})
                  .asFloat(),
              1024.0);
    // min / max return the chosen argument itself, kind and all.
    Value m = call("min", {Value::makeInt(3), Value::makeFloat(2.5)});
    EXPECT_TRUE(m.isFloat());
    EXPECT_EQ(m.asFloat(), 2.5);
    Value big = call("max", {Value::makeInt(-4), Value::makeInt(-7)});
    EXPECT_TRUE(big.isInt());
    EXPECT_EQ(big.asInt(), -4);
}

} // namespace
} // namespace heterogen::interp
