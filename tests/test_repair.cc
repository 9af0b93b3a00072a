/** @file Tests for the repair engine: localizer, transforms, diffstat,
 * and small end-to-end searches. */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cir/parser.h"
#include "cir/printer.h"
#include "cir/sema.h"
#include "core/heterogen.h"
#include "hls/synth_check.h"
#include "interp/interp.h"
#include "repair/diffstat.h"
#include "repair/difftest.h"
#include "repair/localizer.h"
#include "support/strings.h"
#include "repair/transforms.h"
#include "support/run_context.h"

namespace heterogen::repair {
namespace {

using cir::parse;
using hls::ErrorCategory;
using interp::KernelArg;

/** Parse + analyze; return TU. */
cir::TuPtr
program(const std::string &src)
{
    auto tu = parse(src);
    cir::analyzeOrDie(*tu);
    return tu;
}

RepairContext
makeCtx(cir::TranslationUnit &tu, hls::HlsConfig &config,
        const std::string &symbol = "")
{
    return RepairContext{tu, config, symbol, nullptr, nullptr, false};
}

// --- localizer ---------------------------------------------------------------

TEST(Localizer, ClassifiesPaperMessages)
{
    auto cat = [](const char *msg) {
        auto c = classifyMessage(msg);
        return c ? *c : static_cast<ErrorCategory>(-1);
    };
    EXPECT_EQ(cat("Synthesizability check failed: recursive functions "
                  "are not supported."),
              ErrorCategory::DynamicDataStructures);
    EXPECT_EQ(cat("dynamic memory allocation/deallocation is not "
                  "supported"),
              ErrorCategory::DynamicDataStructures);
    EXPECT_EQ(cat("unsupported memory access on variable line_buf_a "
                  "which is (or contains) an array with unknown size at "
                  "compile time"),
              ErrorCategory::DynamicDataStructures);
    EXPECT_EQ(cat("Call of overloaded 'pow()' is ambiguous"),
              ErrorCategory::UnsupportedDataTypes);
    EXPECT_EQ(cat("Argument 'data' failed dataflow checking"),
              ErrorCategory::DataflowOptimization);
    EXPECT_EQ(cat("Pre-synthesis failed: unroll factor 50"),
              ErrorCategory::LoopParallelization);
    EXPECT_EQ(cat("Argument 'this' has an unsynthesizable struct type"),
              ErrorCategory::StructAndUnion);
    EXPECT_EQ(cat("Cannot find the top function in the design"),
              ErrorCategory::TopFunction);
    EXPECT_FALSE(classifyMessage("the weather is nice").has_value());
}

TEST(Localizer, ExtractsQuotedSymbol)
{
    auto loc = localizeMessage(
        "ERROR: [SYNCHK 200-61] unsupported memory access on variable "
        "'line_buf' which is (or contains) an array with unknown size");
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(loc->symbol, "line_buf");
    EXPECT_EQ(loc->category, ErrorCategory::DynamicDataStructures);
}

// --- arena / pointer / stack chain -----------------------------------------------

const char *kTreeProgram = R"(
    struct Node { int val; Node *left; Node *right; };
    int total = 0;
    Node *root = 0;
    void insert(int v) {
        Node *fresh = (Node*)malloc(sizeof(Node));
        fresh->val = v;
        fresh->left = (Node*)0;
        fresh->right = (Node*)0;
        if (root == 0) { root = fresh; return; }
        Node *curr = root;
        while (1) {
            if (v < curr->val) {
                if (curr->left == 0) { curr->left = fresh; return; }
                curr = curr->left;
            } else {
                if (curr->right == 0) { curr->right = fresh; return; }
                curr = curr->right;
            }
        }
    }
    void traverse(Node *curr) {
        if (curr != 0) {
            total = total + curr->val;
            traverse(curr->left);
            traverse(curr->right);
        }
    }
    int kernel(int n) {
        if (n > 4000) { n = 4000; }
        root = (Node*)0;
        total = 0;
        for (int i = 0; i < n; i++) { insert((i * 37) % 101); }
        traverse(root);
        return total;
    }
)";

TEST(Transforms, InsertArenaCreatesAllocator)
{
    auto tu = program(kTreeProgram);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    ASSERT_TRUE(xform::insertArena(ctx));
    EXPECT_NE(tu->findGlobal("Node_arr"), nullptr);
    EXPECT_NE(tu->findGlobal("Node_arr_top"), nullptr);
    EXPECT_NE(tu->findGlobal("Node_arr_cap"), nullptr);
    EXPECT_NE(tu->findFunction("Node_malloc"), nullptr);
    std::string text = cir::print(*tu);
    EXPECT_EQ(text.find("malloc(sizeof(struct Node))"),
              std::string::npos);
    // Idempotent: second application is a no-op... the arena exists and
    // no malloc calls remain.
    EXPECT_FALSE(xform::insertArena(ctx));
}

TEST(Transforms, PointerToIndexRequiresArena)
{
    auto tu = program(kTreeProgram);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    EXPECT_FALSE(xform::pointerToIndex(ctx))
        << "dependence: pointer($v1) must fail before insert(...)";
    ASSERT_TRUE(xform::insertArena(ctx));
    ASSERT_TRUE(xform::pointerToIndex(ctx));
    std::string text = cir::print(*tu);
    EXPECT_EQ(text.find("Node *"), std::string::npos);
    EXPECT_NE(text.find("Node_arr["), std::string::npos);
}

TEST(Transforms, ArenaChainPreservesBehavior)
{
    auto orig = program(kTreeProgram);
    auto tu = program(kTreeProgram);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    ASSERT_TRUE(xform::insertArena(ctx));
    ASSERT_TRUE(xform::pointerToIndex(ctx));
    ASSERT_TRUE(cir::analyze(*tu).ok());
    for (long n : {0, 1, 7, 40}) {
        auto a = interp::runProgram(*orig, "kernel",
                                    {KernelArg::ofInt(n)});
        auto b = interp::runProgram(*tu, "kernel",
                                    {KernelArg::ofInt(n)});
        ASSERT_TRUE(a.ok) << a.trap;
        ASSERT_TRUE(b.ok) << b.trap;
        EXPECT_EQ(a.ret.i, b.ret.i) << "n " << n;
    }
}

TEST(Transforms, StackTransformRemovesRecursion)
{
    auto tu = program(kTreeProgram);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config, "traverse");
    ASSERT_TRUE(xform::insertArena(ctx));
    ASSERT_TRUE(xform::pointerToIndex(ctx));
    ASSERT_TRUE(xform::stackTransform(ctx));
    ASSERT_TRUE(cir::analyze(*tu).ok()) << cir::print(*tu);
    auto recursive = hls::recursiveFunctions(*tu);
    for (const auto &fn : recursive)
        EXPECT_NE(fn, "traverse");
    // Behaviour preserved vs the original.
    auto orig = program(kTreeProgram);
    for (long n : {0, 1, 12, 60}) {
        auto a = interp::runProgram(*orig, "kernel",
                                    {KernelArg::ofInt(n)});
        auto b = interp::runProgram(*tu, "kernel",
                                    {KernelArg::ofInt(n)});
        ASSERT_TRUE(b.ok) << b.trap << "\n" << cir::print(*tu);
        EXPECT_EQ(a.ret.i, b.ret.i) << "n " << n;
    }
}

TEST(Transforms, ResizeDoublesGeneratedArrays)
{
    auto tu = program(kTreeProgram);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    ASSERT_TRUE(xform::insertArena(ctx));
    long before = tu->findGlobal("Node_arr")->type->arraySize();
    ASSERT_TRUE(xform::resizeGeneratedArrays(ctx));
    EXPECT_EQ(tu->findGlobal("Node_arr")->type->arraySize(), 2 * before);
    auto *cap = tu->findGlobal("Node_arr_cap");
    EXPECT_EQ(static_cast<const cir::IntLit &>(*cap->init).value,
              2 * before);
}

TEST(Transforms, ArenaExhaustionIsDetectableThenFixedByResize)
{
    // 1500 insertions exceed the default 1024-slot arena.
    auto orig = program(kTreeProgram);
    auto tu = program(kTreeProgram);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    ASSERT_TRUE(xform::insertArena(ctx));
    ASSERT_TRUE(xform::pointerToIndex(ctx));
    auto a = interp::runProgram(*orig, "kernel",
                                {KernelArg::ofInt(1500)});
    auto b = interp::runProgram(*tu, "kernel", {KernelArg::ofInt(1500)});
    ASSERT_TRUE(a.ok);
    EXPECT_FALSE(a.sameBehavior(b))
        << "undersized arena must diverge so tests can catch it";
    ASSERT_TRUE(xform::resizeGeneratedArrays(ctx));
    auto c = interp::runProgram(*tu, "kernel", {KernelArg::ofInt(1500)});
    EXPECT_TRUE(a.sameBehavior(c)) << "resized arena restores behaviour";
}

TEST(Transforms, PointerToIndexHandlesArrayOfStructMalloc)
{
    // malloc(n * sizeof(T)) with p[i].field access (the histogram
    // pattern): subscripts on converted pointers redirect into the
    // arena with the index offset added.
    const char *src = R"(
        struct Bin { int count; Bin *next; };
        int kernel(int n) {
            if (n < 0) { n = 0; }
            if (n > 64) { n = 64; }
            Bin *bins = (Bin*)malloc(8 * sizeof(Bin));
            for (int b = 0; b < 8; b++) { bins[b].count = 0; }
            for (int i = 0; i < n; i++) {
                bins[i % 8].count = bins[i % 8].count + 1;
            }
            int total = 0;
            for (int b = 0; b < 8; b++) { total += bins[b].count * b; }
            free(bins);
            return total;
        }
    )";
    auto orig = program(src);
    auto tu = program(src);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    ASSERT_TRUE(xform::insertArena(ctx));
    ASSERT_TRUE(xform::pointerToIndex(ctx));
    ASSERT_TRUE(cir::analyze(*tu).ok()) << cir::print(*tu);
    EXPECT_TRUE(hls::checkSynthesizability(*tu, config).empty())
        << cir::print(*tu);
    for (long n : {0, 5, 40, 64}) {
        auto a = interp::runProgram(*orig, "kernel",
                                    {KernelArg::ofInt(n)});
        auto b = interp::runProgram(*tu, "kernel",
                                    {KernelArg::ofInt(n)});
        ASSERT_TRUE(a.ok) << a.trap;
        ASSERT_TRUE(b.ok) << b.trap << "\n" << cir::print(*tu);
        EXPECT_EQ(a.ret.i, b.ret.i) << "n " << n;
    }
}

// --- type transforms ------------------------------------------------------------

TEST(Transforms, TypeTransformReplacesLongDouble)
{
    auto tu = program(R"(
        int kernel(int in) {
            long double in_ld = in;
            in_ld = in_ld + 1;
            return in_ld;
        }
    )");
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    ASSERT_TRUE(xform::typeTransform(ctx));
    std::string text = cir::print(*tu);
    EXPECT_EQ(text.find("long double"), std::string::npos);
    EXPECT_NE(text.find("fpga_float<8,71>"), std::string::npos);
    // Mixing error remains until type_casting runs.
    auto errors = hls::checkSynthesizability(*tu, config);
    EXPECT_FALSE(errors.empty());
    ASSERT_TRUE(xform::typeCasting(ctx));
    errors = hls::checkSynthesizability(*tu, config);
    EXPECT_TRUE(errors.empty()) << errors.front().str();
}

TEST(Transforms, TypeChainPreservesBehavior)
{
    const char *src = R"(
        int kernel(int in) {
            long double in_ld = in;
            in_ld = in_ld + 1;
            return in_ld;
        }
    )";
    auto orig = program(src);
    auto tu = program(src);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    ASSERT_TRUE(xform::typeTransform(ctx));
    ASSERT_TRUE(xform::typeCasting(ctx));
    for (long v : {0, 1, 41, -3, 1000}) {
        auto a = interp::runProgram(*orig, "kernel",
                                    {KernelArg::ofInt(v)});
        auto b = interp::runProgram(*tu, "kernel",
                                    {KernelArg::ofInt(v)});
        EXPECT_EQ(a.ret.i, b.ret.i);
    }
}

TEST(Transforms, OpOverloadGeneratesHelper)
{
    auto tu = program(R"(
        int kernel(int in) {
            long double v = in;
            v = v + 1;
            return v;
        }
    )");
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    ASSERT_TRUE(xform::typeTransform(ctx));
    ASSERT_TRUE(xform::typeCasting(ctx));
    ASSERT_TRUE(xform::opOverload(ctx));
    EXPECT_NE(tu->findFunction("sum_80"), nullptr)
        << "the paper's sum_80 helper for fpga_float<8,71>";
    ASSERT_TRUE(cir::analyze(*tu).ok());
    auto r = interp::runProgram(*tu, "kernel", {KernelArg::ofInt(5)});
    ASSERT_TRUE(r.ok) << r.trap;
    EXPECT_EQ(r.ret.i, 6);
}

/** A kernel that calls its own int-returning sum_80: the name of the
 * helper opOverload generates for fpga_float<8,71>. */
const char *kOwnSum80 = R"(
    int sum_80(int a, int b) { return a - b; }
    int kernel(int in) {
        long double v = in;
        v = v + sum_80(in, 1);
        return v;
    }
)";

/** kOwnSum80 after type_transform and type_casting, printed. */
std::string
castOwnSum80()
{
    auto tu = program(kOwnSum80);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    EXPECT_TRUE(xform::typeTransform(ctx));
    xform::typeCasting(ctx);
    return cir::print(*tu);
}

/** The OpOverloadGeneratesHelper program through op_overload, printed. */
std::string
overloadSum80()
{
    auto tu = program(R"(
        int kernel(int in) {
            long double v = in;
            v = v + 1;
            return v;
        }
    )");
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    EXPECT_TRUE(xform::typeTransform(ctx));
    EXPECT_TRUE(xform::typeCasting(ctx));
    EXPECT_TRUE(xform::opOverload(ctx));
    EXPECT_NE(tu->findFunction("sum_80"), nullptr);
    return cir::print(*tu);
}

TEST(Transforms, CallsAreTypedByTheirOwnTranslationUnit)
{
    // The program's own sum_80 returns int, so its call gets a cast,
    // whatever helpers op_overload generated for other programs.
    std::string before = castOwnSum80();
    EXPECT_NE(before.find("(fpga_float<8,71>)sum_80(in, 1)"), std::string::npos) << before;
    overloadSum80();
    EXPECT_EQ(castOwnSum80(), before);
}

/** `src` through op_overload, printed. */
std::string
overloaded(const std::string &src)
{
    auto tu = program(src);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    EXPECT_TRUE(xform::opOverload(ctx));
    return cir::print(*tu);
}

TEST(Transforms, OpOverloadOnTwoThreads)
{
    // Two TUs needing different helpers (mul_32, sum_16), overloaded
    // at the same time: no state is shared between them (tsan checks).
    const std::string srcs[2] = {
        "fpga_float<8,23> kernel(fpga_float<8,23> a) { return a * a; }",
        "fpga_float<5,10> kernel(fpga_float<5,10> a) { return a + a; }"};
    std::atomic<bool> go{false};
    std::string outputs[2];
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load()) {
            }
            for (int i = 0; i < 20; ++i)
                outputs[t] = overloaded(srcs[t]);
        });
    }
    go = true;
    for (auto &th : threads)
        th.join();
    EXPECT_NE(outputs[0].find("mul_32(a, a)"), std::string::npos);
    EXPECT_NE(outputs[1].find("sum_16(a, a)"), std::string::npos);
    EXPECT_EQ(outputs[0], overloaded(srcs[0]));
    EXPECT_EQ(outputs[1], overloaded(srcs[1]));
}

TEST(Transforms, BitwidthNarrowUsesProfile)
{
    auto tu = program(R"(
        int kernel(int n) {
            int ret = 0;
            for (int i = 0; i < n; i++) { ret = ret + 1; }
            return ret;
        }
    )");
    interp::ValueProfile profile;
    interp::RunOptions opts;
    opts.profile = &profile;
    interp::runProgram(*tu, "kernel", {KernelArg::ofInt(83)}, opts);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    RepairContext ctx{*tu, config, "", &profile, nullptr, false};
    ASSERT_TRUE(xform::bitwidthNarrow(ctx));
    std::string text = cir::print(*tu);
    EXPECT_NE(text.find("fpga_uint<7> ret"), std::string::npos)
        << "ret has max 83 -> 7 bits, as in the paper's example\n"
        << text;
    // Behaviour preserved for inputs within the profiled range.
    auto r = interp::runProgram(*tu, "kernel", {KernelArg::ofInt(83)});
    EXPECT_EQ(r.ret.i, 83);
}

// --- struct transforms ------------------------------------------------------------

const char *kStructProgram = R"(
    struct If2 {
        hls::stream<int> &in;
        hls::stream<int> &out;
        int do1() { out.write(in.read() * 2); return 0; }
    };
    void kernel(hls::stream<int> &in, hls::stream<int> &out) {
        #pragma HLS dataflow
        hls::stream<int> tmp;
        If2{ in, tmp }.do1();
        If2{ tmp, out }.do1();
    }
)";

TEST(Transforms, ConstructorThenStreamStaticFixesStructError)
{
    auto tu = program(kStructProgram);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config, "If2");
    ASSERT_TRUE(xform::insertConstructor(ctx));
    ASSERT_NE(tu->findStruct("If2")->ctor, nullptr);
    auto ctx2 = makeCtx(*tu, config, "tmp");
    ASSERT_TRUE(xform::streamStatic(ctx2));
    auto errors = hls::checkSynthesizability(*tu, config);
    EXPECT_TRUE(errors.empty()) << errors.front().str();
    // Functional check: the two stages each read one element and double
    // it, so the first input element comes out multiplied by four.
    auto r = interp::runProgram(*tu, "kernel",
                                {KernelArg::ofInts({1, 2, 3}),
                                 KernelArg::ofInts({})});
    ASSERT_TRUE(r.ok) << r.trap;
    EXPECT_EQ(r.out_args[1].ints, (std::vector<long>{4}));
}

TEST(Transforms, FlattenThenInstUpdateAlternative)
{
    auto tu = program(kStructProgram);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config, "If2");
    EXPECT_FALSE(xform::updateInstances(ctx))
        << "inst_update depends on flatten";
    ASSERT_TRUE(xform::flattenStruct(ctx));
    ASSERT_TRUE(xform::updateInstances(ctx));
    EXPECT_NE(tu->findFunction("If2_do1"), nullptr);
    std::string text = cir::print(*tu);
    EXPECT_EQ(text.find("If2{"), std::string::npos) << text;
    // The struct error is gone even without a constructor, but the
    // non-static stream still needs stream_static... flattened code no
    // longer hits the struct checker, so the program is clean.
    ASSERT_TRUE(cir::analyze(*tu).ok()) << text;
    auto r = interp::runProgram(*tu, "kernel",
                                {KernelArg::ofInts({5}),
                                 KernelArg::ofInts({})});
    ASSERT_TRUE(r.ok) << r.trap << "\n" << text;
    EXPECT_EQ(r.out_args[1].ints, (std::vector<long>{20}));
}

TEST(Transforms, UnionToStruct)
{
    auto tu = program(R"(
        union Pack { int i; int j; };
        int kernel(int x) { return x; }
    )");
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    ASSERT_TRUE(xform::unionToStruct(ctx));
    EXPECT_FALSE(tu->findStruct("Pack")->is_union);
    EXPECT_TRUE(hls::checkSynthesizability(*tu, config).empty());
}

// --- pragma / config transforms ----------------------------------------------------

TEST(Transforms, FixPartitionFactorPicksDivisor)
{
    auto tu = program(R"(
        int A[13];
        int kernel() {
            int acc = 0;
            for (int i = 0; i < 13; i++) {
                #pragma HLS array_partition variable=A factor=4
                acc += A[i];
            }
            return acc;
        }
    )");
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    ASSERT_TRUE(xform::fixPartitionFactor(ctx));
    EXPECT_TRUE(hls::checkSynthesizability(*tu, config).empty());
}

TEST(Transforms, ReduceUnrollFixesInteraction)
{
    auto tu = program(R"(
        void kernel(int a[64]) {
            #pragma HLS dataflow
            for (int i = 0; i < 64; i++) {
                #pragma HLS unroll factor=50
                a[i] = a[i] * 2;
            }
        }
    )");
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    ASSERT_TRUE(xform::reduceUnroll(ctx));
    EXPECT_TRUE(hls::checkSynthesizability(*tu, config).empty());
}

TEST(Transforms, PerformancePragmaChain)
{
    auto tu = program(R"(
        int kernel(int a[64]) {
            int acc = 0;
            for (int i = 0; i < 64; i++) { acc += a[i] * 3; }
            return acc;
        }
    )");
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    auto ctx = makeCtx(*tu, config);
    ASSERT_TRUE(xform::insertPipeline(ctx));
    ASSERT_TRUE(xform::insertUnroll(ctx));
    ASSERT_TRUE(xform::insertArrayPartition(ctx));
    EXPECT_TRUE(hls::checkSynthesizability(*tu, config).empty())
        << cir::print(*tu);
    std::string text = cir::print(*tu);
    EXPECT_NE(text.find("pipeline"), std::string::npos);
    EXPECT_NE(text.find("unroll"), std::string::npos);
    EXPECT_NE(text.find("array_partition"), std::string::npos);
}

TEST(Transforms, TopFunctionFixes)
{
    auto tu = program("int my_kernel(int x) { return x; }");
    hls::HlsConfig config = hls::HlsConfig::forTop("missing_top");
    config.clock_mhz = 9999;
    config.device = "bogus";
    auto ctx = makeCtx(*tu, config);
    ASSERT_TRUE(xform::fixTopFunction(ctx));
    EXPECT_EQ(config.top_function, "my_kernel");
    ASSERT_TRUE(xform::fixClock(ctx));
    EXPECT_EQ(config.clock_mhz, 250.0);
    ASSERT_TRUE(xform::fixDevice(ctx));
    EXPECT_EQ(config.device, "xcvu9p");
    EXPECT_TRUE(hls::checkSynthesizability(*tu, config).empty());
}

// --- diffstat --------------------------------------------------------------------

TEST(DiffStat, CountsAddedAndRemoved)
{
    DiffStat d = diffLines("a\nb\nc\n", "a\nx\nb\nc\ny\n");
    EXPECT_EQ(d.added, 2);
    EXPECT_EQ(d.removed, 0);
    EXPECT_EQ(d.common, 3);
    EXPECT_EQ(d.delta(), 2);
    DiffStat e = diffLines("a\nb\n", "a\n");
    EXPECT_EQ(e.removed, 1);
    DiffStat same = diffLines("a\nb\n", "a\nb\n");
    EXPECT_EQ(same.delta(), 0);
}

// --- difftest --------------------------------------------------------------------

TEST(DiffTest, DetectsDivergence)
{
    auto orig = program("int kernel(int x) { return x + 1; }");
    auto good = program("int kernel(int x) { return 1 + x; }");
    auto bad = program("int kernel(int x) { return x + 2; }");
    fuzz::TestSuite suite;
    for (long v : {1, 2, 3, -7})
        suite.add({KernelArg::ofInt(v)});
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    RunContext ok_ctx;
    CpuOracle ok_oracle(*orig, "kernel", suite);
    auto ok = diffTest(ok_ctx, ok_oracle, *good, config);
    EXPECT_TRUE(ok.allIdentical());
    EXPECT_EQ(ok.total, 4);
    RunContext fail_ctx;
    CpuOracle fail_oracle(*orig, "kernel", suite);
    auto fail = diffTest(fail_ctx, fail_oracle, *bad, config);
    EXPECT_EQ(fail.identical, 0);
    EXPECT_EQ(fail.failing.size(), 4u);
    EXPECT_GT(fail.sim_minutes, 0.0);
}

TEST(DiffTest, CompilesEachSideOncePerCampaign)
{
    auto orig = program("int kernel(int x) { return x + 1; }");
    auto cand = program("int kernel(int x) { return 1 + x; }");
    fuzz::TestSuite suite;
    for (long v = 0; v < 9; ++v)
        suite.add({KernelArg::ofInt(v)});
    RunContext ctx;
    CpuOracle oracle(*orig, "kernel", suite);
    auto result = diffTest(ctx, oracle, *cand,
                           hls::HlsConfig::forTop("kernel"),
                           DiffTestOptions{});
    ASSERT_EQ(result.total, 9);
    EXPECT_TRUE(result.allIdentical());
    const TraceSpan &root = ctx.trace().root();
    EXPECT_EQ(root.counterTotal("interp.runs"), 18);
    // A fresh oracle — what the standalone diffTest wrapper builds —
    // compiles the original once and the campaign compiles the
    // candidate once, not one more per co-simulated test.
    EXPECT_EQ(root.counterTotal("interp.bytecode.compiles"), 2);
}

// --- end-to-end on the working example ----------------------------------------------

TEST(EndToEnd, RepairsWorkingExample)
{
    core::HeteroGen engine(kTreeProgram);
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.fuzz.max_executions = 200;
    opts.fuzz.mutations_per_input = 8;
    opts.fuzz.max_steps_per_run = 300000;
    opts.search.budget_minutes = 500;
    opts.search.difftest_sample = 12;
    auto report = engine.run(opts);
    EXPECT_TRUE(report.search.hls_compatible)
        << "edits: " << heterogen::join(report.search.applied_order, ", ");
    EXPECT_TRUE(report.search.behavior_preserved);
    EXPECT_GT(report.search.applied_order.size(), 2u);
    EXPECT_GT(report.testgen.suite.size(), 1u);
    EXPECT_GT(report.final_loc, report.orig_loc);
    // Final program is HLS-clean.
    auto errors = hls::checkSynthesizability(*report.search.program,
                                             report.search.config);
    EXPECT_TRUE(errors.empty()) << errors.front().str();
}

TEST(EndToEnd, RepairsTypeExample)
{
    const char *src = R"(
        int kernel(int in) {
            long double in_ld = in;
            in_ld = in_ld + 1;
            return in_ld;
        }
    )";
    core::HeteroGen engine(src);
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.fuzz.max_executions = 200;
    opts.search.budget_minutes = 200;
    auto report = engine.run(opts);
    EXPECT_TRUE(report.ok())
        << "edits: " << heterogen::join(report.search.applied_order, ", ");
    EXPECT_NE(report.hls_source.find("fpga_float"), std::string::npos);
}

TEST(EndToEnd, RepairsStructExample)
{
    core::HeteroGen engine(kStructProgram);
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.fuzz.max_executions = 200;
    opts.search.budget_minutes = 300;
    auto report = engine.run(opts);
    EXPECT_TRUE(report.ok())
        << "edits: " << heterogen::join(report.search.applied_order, ", ");
}

} // namespace
} // namespace heterogen::repair
