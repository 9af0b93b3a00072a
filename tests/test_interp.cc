/** @file Unit tests for the CIR interpreter: semantics, traps, coverage. */

#include <gtest/gtest.h>

#include "cir/parser.h"
#include "cir/sema.h"
#include "interp/interp.h"
#include "interp/reference/reference.h"

namespace heterogen::interp {
namespace {

using cir::parse;

/** Parse + analyze + run in one step. */
RunResult
runSrc(const std::string &src, const std::string &fn,
       std::vector<KernelArg> args = {}, RunOptions opts = {})
{
    auto tu = parse(src);
    cir::analyzeOrDie(*tu);
    return runProgram(*tu, fn, args, opts);
}

/** Run on the VM and the reference walker; the walker's result plus
 * the first divergence between the two ("" when they agree). */
reference::DifferentialResult
runBoth(const std::string &src, const std::string &fn,
        std::vector<KernelArg> args)
{
    auto tu = parse(src);
    cir::analyzeOrDie(*tu);
    Interpreter interp(*tu);
    return reference::runDifferential(interp, fn, args);
}

TEST(Interp, ArithmeticAndReturn)
{
    auto r = runSrc("int f(int a, int b) { return a * b + 1; }", "f",
                    {KernelArg::ofInt(6), KernelArg::ofInt(7)});
    ASSERT_TRUE(r.ok) << r.trap;
    EXPECT_EQ(r.ret.i, 43);
}

TEST(Interp, FloatArithmetic)
{
    auto r = runSrc("float f(float x) { return x * 2.5; }", "f",
                    {KernelArg::ofFloat(4.0)});
    ASSERT_TRUE(r.ok);
    EXPECT_DOUBLE_EQ(r.ret.f, 10.0);
}

TEST(Interp, ControlFlowSum)
{
    auto r = runSrc(R"(
        int f(int n) {
            int acc = 0;
            for (int i = 1; i <= n; i++) {
                if (i % 2 == 0) { acc += i; }
            }
            return acc;
        }
    )",
                    "f", {KernelArg::ofInt(10)});
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.ret.i, 30);
}

TEST(Interp, WhileBreakContinue)
{
    auto r = runSrc(R"(
        int f() {
            int i = 0; int acc = 0;
            while (1) {
                i++;
                if (i > 10) { break; }
                if (i % 2 == 1) { continue; }
                acc += i;
            }
            return acc;
        }
    )",
                    "f");
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.ret.i, 30);
}

TEST(Interp, ArrayInOut)
{
    auto r = runSrc(R"(
        void scale(int a[4], int k) {
            for (int i = 0; i < 4; i++) { a[i] = a[i] * k; }
        }
    )",
                    "scale",
                    {KernelArg::ofInts({1, 2, 3, 4}), KernelArg::ofInt(3)});
    ASSERT_TRUE(r.ok);
    EXPECT_FALSE(r.has_ret);
    ASSERT_EQ(r.out_args.size(), 2u);
    EXPECT_EQ(r.out_args[0].ints, (std::vector<long>{3, 6, 9, 12}));
}

TEST(Interp, GlobalsPersistAcrossCalls)
{
    auto r = runSrc(R"(
        int counter = 0;
        void bump() { counter += 1; }
        int f() {
            bump(); bump(); bump();
            return counter;
        }
    )",
                    "f");
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.ret.i, 3);
}

TEST(Interp, RecursionFactorial)
{
    auto r = runSrc(R"(
        int fact(int n) {
            if (n <= 1) { return 1; }
            return n * fact(n - 1);
        }
    )",
                    "fact", {KernelArg::ofInt(6)});
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.ret.i, 720);
}

TEST(Interp, RunawayRecursionTraps)
{
    auto r = runSrc("int f(int n) { return f(n + 1); }", "f",
                    {KernelArg::ofInt(0)});
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.trap.find("depth"), std::string::npos);
}

TEST(Interp, StepLimitTraps)
{
    RunOptions opts;
    opts.max_steps = 1000;
    auto r = runSrc("int f() { while (1) { } return 0; }", "f", {}, opts);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.trap.find("step limit"), std::string::npos);
}

TEST(Interp, DivisionByZeroTraps)
{
    auto r = runSrc("int f(int a) { return 10 / a; }", "f",
                    {KernelArg::ofInt(0)});
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.trap.find("division by zero"), std::string::npos);
}

TEST(Interp, OutOfBoundsTraps)
{
    auto r = runSrc("int f() { int a[4]; return a[9]; }", "f");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.trap.find("out-of-bounds"), std::string::npos);
}

TEST(Interp, MallocFreeRoundTrip)
{
    auto r = runSrc(R"(
        int f() {
            int *p = (int*)malloc(4 * sizeof(int));
            p[0] = 7; p[3] = 9;
            int v = p[0] + p[3];
            free(p);
            return v;
        }
    )",
                    "f");
    ASSERT_TRUE(r.ok) << r.trap;
    EXPECT_EQ(r.ret.i, 16);
}

TEST(Interp, UseAfterFreeTraps)
{
    auto r = runSrc(R"(
        int f() {
            int *p = (int*)malloc(sizeof(int));
            free(p);
            return p[0];
        }
    )",
                    "f");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.trap.find("use after free"), std::string::npos);
}

TEST(Interp, DoubleFreeTraps)
{
    auto r = runSrc(R"(
        int f() {
            int *p = (int*)malloc(sizeof(int));
            free(p);
            free(p);
            return 0;
        }
    )",
                    "f");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.trap.find("double free"), std::string::npos);
}

TEST(Interp, NullDereferenceTraps)
{
    auto r = runSrc("int f() { int *p = 0; return *p; }", "f");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.trap.find("null pointer"), std::string::npos);
}

TEST(Interp, LinkedListViaMalloc)
{
    auto r = runSrc(R"(
        struct Node { int val; Node *next; };
        int f(int n) {
            Node *head = 0;
            for (int i = 0; i < n; i++) {
                Node *fresh = (Node*)malloc(sizeof(Node));
                fresh->val = i;
                fresh->next = head;
                head = fresh;
            }
            int acc = 0;
            Node *curr = head;
            while (curr != 0) { acc += curr->val; curr = curr->next; }
            return acc;
        }
    )",
                    "f", {KernelArg::ofInt(5)});
    ASSERT_TRUE(r.ok) << r.trap;
    EXPECT_EQ(r.ret.i, 10);
}

TEST(Interp, BinaryTreeRecursion)
{
    auto r = runSrc(R"(
        struct Node { int val; Node *left; Node *right; };
        Node *build(int depth, int v) {
            if (depth == 0) { return (Node*)0; }
            Node *n = (Node*)malloc(sizeof(Node));
            n->val = v;
            n->left = build(depth - 1, v * 2);
            n->right = build(depth - 1, v * 2 + 1);
            return n;
        }
        int sum(Node *n) {
            if (n == 0) { return 0; }
            return n->val + sum(n->left) + sum(n->right);
        }
        int f(int depth) { return sum(build(depth, 1)); }
    )",
                    "f", {KernelArg::ofInt(3)});
    ASSERT_TRUE(r.ok) << r.trap;
    EXPECT_EQ(r.ret.i, 1 + 2 + 3 + 4 + 5 + 6 + 7);
}

TEST(Interp, ArrayOfStructs)
{
    auto r = runSrc(R"(
        struct P { int x; int y; };
        int f() {
            P pts[3];
            for (int i = 0; i < 3; i++) { pts[i].x = i; pts[i].y = i * i; }
            int acc = 0;
            for (int i = 0; i < 3; i++) { acc += pts[i].x + pts[i].y; }
            return acc;
        }
    )",
                    "f");
    ASSERT_TRUE(r.ok) << r.trap;
    EXPECT_EQ(r.ret.i, 0 + 0 + 1 + 1 + 2 + 4);
}

TEST(Interp, StructLiteralWithCtorAndMethod)
{
    auto r = runSrc(R"(
        struct Acc {
            int total;
            Acc(int seed) : total(seed) {}
            int addTwice(int v) { total = total + v * 2; return total; }
        };
        int f() { return Acc{ 10 }.addTwice(5); }
    )",
                    "f");
    ASSERT_TRUE(r.ok) << r.trap;
    EXPECT_EQ(r.ret.i, 20);
}

TEST(Interp, StreamsReadWrite)
{
    auto r = runSrc(R"(
        void f(hls::stream<int> &in, hls::stream<int> &out) {
            while (!in.empty()) { out.write(in.read() * 2); }
        }
    )",
                    "f",
                    {KernelArg::ofInts({1, 2, 3}), KernelArg::ofInts({})});
    ASSERT_TRUE(r.ok) << r.trap;
    ASSERT_EQ(r.out_args.size(), 2u);
    EXPECT_EQ(r.out_args[1].ints, (std::vector<long>{2, 4, 6}));
}

TEST(Interp, ReadEmptyStreamTraps)
{
    auto r = runSrc("int f(hls::stream<int> &in) { return in.read(); }",
                    "f", {KernelArg::ofInts({})});
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.trap.find("empty stream"), std::string::npos);
}

TEST(Interp, OversizedMallocTraps)
{
    // A fuzzed size argument must trap at the heap limit instead of
    // exhausting host memory; both engines must agree on the trap.
    auto both = runBoth(R"(
        int f(int n) {
            int *p = (int*)malloc(sizeof(int) * n);
            p[0] = n;
            int v = p[0];
            free(p);
            return v;
        }
    )",
                        "f", {KernelArg::ofInt(2000000000)});
    EXPECT_EQ(both.divergence, "");
    ASSERT_FALSE(both.result.ok);
    EXPECT_NE(
        both.result.trap.find("allocation exceeds interpreter heap limit"),
        std::string::npos);
}

TEST(Interp, OversizedStructMallocTraps)
{
    auto both = runBoth(R"(
        struct Pair { int a; int b; };
        int f(int n) {
            struct Pair *p =
                (struct Pair*)malloc(sizeof(struct Pair) * n);
            p[0].a = n;
            int v = p[0].a;
            free(p);
            return v;
        }
    )",
                        "f", {KernelArg::ofInt(2000000000)});
    EXPECT_EQ(both.divergence, "");
    ASSERT_FALSE(both.result.ok);
    EXPECT_NE(
        both.result.trap.find("allocation exceeds interpreter heap limit"),
        std::string::npos);
}

TEST(Interp, VlaAllocation)
{
    auto r = runSrc(R"(
        int f(int n) {
            int buf[n];
            for (int i = 0; i < n; i++) { buf[i] = i; }
            int acc = 0;
            for (int i = 0; i < n; i++) { acc += buf[i]; }
            return acc;
        }
    )",
                    "f", {KernelArg::ofInt(6)});
    ASSERT_TRUE(r.ok) << r.trap;
    EXPECT_EQ(r.ret.i, 15);
}

TEST(Interp, FpgaUintWrapsOnStore)
{
    auto r = runSrc(R"(
        int f() {
            fpga_uint<7> x = 130;
            return x;
        }
    )",
                    "f");
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.ret.i, 2); // 130 mod 128
}

TEST(Interp, FpgaIntSignWraps)
{
    auto r = runSrc("int f() { fpga_int<4> x = 9; return x; }", "f");
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.ret.i, -7); // 9 wraps in 4-bit two's complement
}

TEST(Interp, FpgaFloatQuantizes)
{
    auto r1 = runSrc("float f(float x) { fpga_float<8,4> v = x; return v; }",
                     "f", {KernelArg::ofFloat(1.0 + 1.0 / 1024.0)});
    ASSERT_TRUE(r1.ok);
    EXPECT_DOUBLE_EQ(r1.ret.f, 1.0) << "tiny mantissa bits drop low bits";
    auto r2 = runSrc(
        "float f(float x) { fpga_float<8,23> v = x; return v; }", "f",
        {KernelArg::ofFloat(1.5)});
    ASSERT_TRUE(r2.ok);
    EXPECT_DOUBLE_EQ(r2.ret.f, 1.5);
}

TEST(Interp, MathIntrinsics)
{
    auto r = runSrc(
        "double f(double x) { return sqrt(x) + pow(2.0, 3.0) + fabs(-1.0); }",
        "f", {KernelArg::ofFloat(9.0)});
    ASSERT_TRUE(r.ok);
    EXPECT_DOUBLE_EQ(r.ret.f, 3.0 + 8.0 + 1.0);
}

TEST(Interp, SqrtNegativeTraps)
{
    auto r = runSrc("double f(double x) { return sqrt(x); }", "f",
                    {KernelArg::ofFloat(-1.0)});
    EXPECT_FALSE(r.ok);
}

TEST(Interp, PointerArithmeticOverArray)
{
    auto r = runSrc(R"(
        int f(int a[5]) {
            int *p = a;
            int acc = 0;
            for (int i = 0; i < 5; i++) { acc += *p; p = p + 1; }
            return acc;
        }
    )",
                    "f", {KernelArg::ofInts({1, 2, 3, 4, 5})});
    ASSERT_TRUE(r.ok) << r.trap;
    EXPECT_EQ(r.ret.i, 15);
}

TEST(Interp, CoverageRecordsBothEdges)
{
    auto tu = parse(R"(
        int f(int x) {
            if (x > 0) { return 1; }
            return 0;
        }
    )");
    auto sema = cir::analyzeOrDie(*tu);
    CoverageMap cov(sema.num_branches);
    RunOptions opts;
    opts.coverage = &cov;
    runProgram(*tu, "f", {KernelArg::ofInt(5)}, opts);
    EXPECT_EQ(cov.hitCount(), 1u);
    EXPECT_DOUBLE_EQ(cov.coverage(), 0.5);
    runProgram(*tu, "f", {KernelArg::ofInt(-5)}, opts);
    EXPECT_EQ(cov.hitCount(), 2u);
    EXPECT_DOUBLE_EQ(cov.coverage(), 1.0);
}

TEST(Interp, ProfileTracksMaxValues)
{
    auto tu = parse(R"(
        int f(int n) {
            int ret = 0;
            for (int i = 0; i < n; i++) { ret = ret + i; }
            return ret;
        }
    )");
    cir::analyzeOrDie(*tu);
    ValueProfile profile;
    RunOptions opts;
    opts.profile = &profile;
    runProgram(*tu, "f", {KernelArg::ofInt(10)}, opts);
    const ValueRange *r = profile.find("f::ret");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->max_int, 45);
    EXPECT_GE(r->requiredUnsignedBits(), 6);
}

TEST(Interp, SeedCaptureAtKernelBoundary)
{
    auto tu = parse(R"(
        int kernel(int a[4], int k) {
            int acc = 0;
            for (int i = 0; i < 4; i++) { acc += a[i] * k; }
            return acc;
        }
        int host() {
            int data[4];
            for (int i = 0; i < 4; i++) { data[i] = i + 1; }
            return kernel(data, 10);
        }
    )");
    cir::analyzeOrDie(*tu);
    std::vector<KernelArg> captured;
    RunOptions opts;
    opts.capture_function = "kernel";
    opts.captured_args = &captured;
    auto r = runProgram(*tu, "host", {}, opts);
    ASSERT_TRUE(r.ok) << r.trap;
    ASSERT_EQ(captured.size(), 2u);
    EXPECT_EQ(captured[0].ints, (std::vector<long>{1, 2, 3, 4}));
    EXPECT_EQ(captured[1].i, 10);
}

TEST(Interp, CyclesAccumulateAndScaleWithWork)
{
    auto small = runSrc(
        "int f() { int acc = 0; "
        "for (int i = 0; i < 10; i++) { acc += i; } return acc; }",
        "f");
    auto large = runSrc(
        "int f() { int acc = 0; "
        "for (int i = 0; i < 1000; i++) { acc += i; } return acc; }",
        "f");
    ASSERT_TRUE(small.ok);
    ASSERT_TRUE(large.ok);
    EXPECT_GT(small.cycles, 0u);
    EXPECT_GT(large.cycles, small.cycles * 20);
    EXPECT_GT(large.cpuMillis(), 0.0);
}

TEST(Interp, SameBehaviorComparesOutputs)
{
    auto a = runSrc("int f(int x) { return x + 1; }", "f",
                    {KernelArg::ofInt(1)});
    auto b = runSrc("int f(int x) { return x + 1; }", "f",
                    {KernelArg::ofInt(1)});
    auto c = runSrc("int f(int x) { return x + 2; }", "f",
                    {KernelArg::ofInt(1)});
    EXPECT_TRUE(a.sameBehavior(b));
    EXPECT_FALSE(a.sameBehavior(c));
}

TEST(Interp, TernaryAndLogicalOps)
{
    auto r = runSrc(
        "int f(int a, int b) { return (a > 0 && b > 0) ? a + b : -1; }",
        "f", {KernelArg::ofInt(2), KernelArg::ofInt(3)});
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.ret.i, 5);
    auto r2 = runSrc(
        "int f(int a, int b) { return (a > 0 && b > 0) ? a + b : -1; }",
        "f", {KernelArg::ofInt(-2), KernelArg::ofInt(3)});
    EXPECT_EQ(r2.ret.i, -1);
}

TEST(Interp, ShortCircuitSkipsRhs)
{
    // RHS would trap (div by zero) if evaluated.
    auto r = runSrc("int f(int a) { return a == 0 || 10 / a > 1; }", "f",
                    {KernelArg::ofInt(0)});
    ASSERT_TRUE(r.ok) << r.trap;
    EXPECT_EQ(r.ret.i, 1);
}

TEST(Interp, MultiDimensionalArrays)
{
    auto r = runSrc(R"(
        int f() {
            int m[3][4];
            for (int i = 0; i < 3; i++) {
                for (int j = 0; j < 4; j++) { m[i][j] = i * 10 + j; }
            }
            return m[2][3];
        }
    )",
                    "f");
    ASSERT_TRUE(r.ok) << r.trap;
    EXPECT_EQ(r.ret.i, 23);
}

TEST(Interp, StaticStreamSharedAcrossCalls)
{
    auto r = runSrc(R"(
        void push(int v) {
            static hls::stream<int> q;
            q.write(v);
        }
        int f() { push(1); push(2); return 0; }
    )",
                    "f");
    EXPECT_TRUE(r.ok) << r.trap;
}

class WrapWidthTest : public ::testing::TestWithParam<int>
{};

TEST_P(WrapWidthTest, UnsignedWrapMatchesModulo)
{
    int width = GetParam();
    std::string src = "int f(int x) { fpga_uint<" + std::to_string(width) +
                      "> v = x; return v; }";
    long input = 1000003;
    auto r = runSrc(src, "f", {KernelArg::ofInt(input)});
    ASSERT_TRUE(r.ok);
    long mod = 1L << width;
    EXPECT_EQ(r.ret.i, ((input % mod) + mod) % mod);
}

INSTANTIATE_TEST_SUITE_P(Widths, WrapWidthTest,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 12, 16, 21));

} // namespace
} // namespace heterogen::interp
