/** @file Tests for the simulated HLS toolchain: checks, model, resources. */

#include <gtest/gtest.h>

#include "cir/parser.h"
#include "cir/sema.h"
#include "hls/compiler.h"
#include "hls/fpga_model.h"
#include "hls/synth_check.h"
#include "support/run_context.h"

namespace heterogen::hls {
namespace {

using cir::parse;
using interp::KernelArg;

std::vector<HlsError>
check(const std::string &src, const std::string &top)
{
    auto tu = parse(src);
    cir::analyzeOrDie(*tu);
    return checkSynthesizability(*tu, HlsConfig::forTop(top));
}

bool
hasCategory(const std::vector<HlsError> &errors, ErrorCategory category)
{
    for (const auto &e : errors) {
        if (e.category == category)
            return true;
    }
    return false;
}

TEST(SynthCheck, CleanKernelPasses)
{
    auto errors = check(R"(
        int kernel(int a[16]) {
            int acc = 0;
            for (int i = 0; i < 16; i++) { acc += a[i]; }
            return acc;
        }
    )",
                        "kernel");
    EXPECT_TRUE(errors.empty());
}

TEST(SynthCheck, RecursionFlagged)
{
    auto errors = check(R"(
        int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
        int kernel(int n) { return fact(n); }
    )",
                        "kernel");
    ASSERT_FALSE(errors.empty());
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::DynamicDataStructures));
    EXPECT_NE(errors[0].str().find("recursive"), std::string::npos);
    EXPECT_NE(errors[0].str().find("XFORM 202-876"), std::string::npos);
}

TEST(SynthCheck, MutualRecursionFlagged)
{
    auto errors = check(R"(
        int g(int n) { if (n <= 0) { return 0; } return h(n - 1); }
        int h(int n) { return g(n); }
        int kernel(int n) { return g(n); }
    )",
                        "kernel");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::DynamicDataStructures));
}

TEST(SynthCheck, MallocFlagged)
{
    auto errors = check(R"(
        int kernel(int n) {
            int *p = (int*)malloc(n * sizeof(int));
            free(p);
            return 0;
        }
    )",
                        "kernel");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::DynamicDataStructures));
    bool saw_alloc = false;
    for (const auto &e : errors)
        saw_alloc |= e.message.find("dynamic memory") != std::string::npos;
    EXPECT_TRUE(saw_alloc);
}

TEST(SynthCheck, VlaFlagged)
{
    auto errors = check(R"(
        int kernel(int cols) {
            int line_buf[cols];
            line_buf[0] = 1;
            return line_buf[0];
        }
    )",
                        "kernel");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::DynamicDataStructures));
    bool saw = false;
    for (const auto &e : errors)
        saw |= e.message.find("unknown size") != std::string::npos;
    EXPECT_TRUE(saw);
}

TEST(SynthCheck, UnsizedTopArrayParamFlagged)
{
    auto errors = check("int kernel(float input[]) { return 0; }",
                        "kernel");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::DynamicDataStructures));
}

TEST(SynthCheck, LongDoubleFlagged)
{
    auto errors = check(R"(
        int kernel(int in) {
            long double in_ld = in;
            in_ld = in_ld + 1;
            return in_ld;
        }
    )",
                        "kernel");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::UnsupportedDataTypes));
}

TEST(SynthCheck, LongDoubleIntoPowIsAmbiguous)
{
    auto errors = check(R"(
        double kernel(int x) {
            long double v = x;
            return pow(v, 2.0);
        }
    )",
                        "kernel");
    bool saw = false;
    for (const auto &e : errors)
        saw |= e.message.find("ambiguous") != std::string::npos;
    EXPECT_TRUE(saw);
}

TEST(SynthCheck, PointersFlagged)
{
    auto errors = check(R"(
        struct Node { int val; Node *next; };
        int kernel(int x) {
            Node n;
            n.val = x;
            Node *p = &n;
            return p->val;
        }
    )",
                        "kernel");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::UnsupportedDataTypes));
}

TEST(SynthCheck, FpgaFloatMixingNeedsCast)
{
    auto errors = check(R"(
        int kernel(int in) {
            fpga_float<8,23> v = in;
            v = v + 1;
            return v;
        }
    )",
                        "kernel");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::UnsupportedDataTypes));
    auto fixed = check(R"(
        int kernel(int in) {
            fpga_float<8,23> v = in;
            v = v + (fpga_float<8,23>)1;
            return v;
        }
    )",
                       "kernel");
    EXPECT_FALSE(hasCategory(fixed, ErrorCategory::UnsupportedDataTypes));
}

TEST(SynthCheck, DataflowSharedArrayArgument)
{
    auto errors = check(R"(
        void my_func(char data[128]) { data[0] = 1; }
        void kernel() {
            #pragma HLS dataflow
            char data[128];
            my_func(data);
            my_func(data);
        }
    )",
                        "kernel");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::DataflowOptimization));
    bool saw = false;
    for (const auto &e : errors)
        saw |= e.message.find("failed dataflow checking") !=
               std::string::npos;
    EXPECT_TRUE(saw);
}

TEST(SynthCheck, ArrayPartitionFactorMustDivide)
{
    auto errors = check(R"(
        int A[13];
        int kernel() {
            int acc = 0;
            for (int i = 0; i < 13; i++) {
                #pragma HLS array_partition variable=A factor=4
                acc += A[i];
            }
            return acc;
        }
    )",
                        "kernel");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::DataflowOptimization));
    auto fixed = check(R"(
        int A[16];
        int kernel() {
            int acc = 0;
            for (int i = 0; i < 16; i++) {
                #pragma HLS array_partition variable=A factor=4
                acc += A[i];
            }
            return acc;
        }
    )",
                       "kernel");
    EXPECT_TRUE(fixed.empty());
}

TEST(SynthCheck, UnrollDataflowInteraction)
{
    auto errors = check(R"(
        void kernel(int a[64]) {
            #pragma HLS dataflow
            for (int i = 0; i < 64; i++) {
                #pragma HLS unroll factor=50
                a[i] = a[i] * 2;
            }
        }
    )",
                        "kernel");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::LoopParallelization));
    bool saw = false;
    for (const auto &e : errors)
        saw |= e.message.find("Pre-synthesis failed") != std::string::npos;
    EXPECT_TRUE(saw);
    // Smaller factor passes.
    auto fixed = check(R"(
        void kernel(int a[64]) {
            #pragma HLS dataflow
            for (int i = 0; i < 64; i++) {
                #pragma HLS unroll factor=8
                a[i] = a[i] * 2;
            }
        }
    )",
                       "kernel");
    EXPECT_FALSE(hasCategory(fixed, ErrorCategory::LoopParallelization));
}

TEST(SynthCheck, VariableTripCountUnroll)
{
    auto errors = check(R"(
        void kernel(int a[64], int n) {
            for (int i = 0; i < n; i++) {
                #pragma HLS unroll factor=4
                a[i] = a[i] * 2;
            }
        }
    )",
                        "kernel");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::LoopParallelization));
    // A loop_tripcount pragma makes it acceptable.
    auto fixed = check(R"(
        void kernel(int a[64], int n) {
            for (int i = 0; i < n; i++) {
                #pragma HLS loop_tripcount max=64
                #pragma HLS unroll factor=4
                a[i] = a[i] * 2;
            }
        }
    )",
                       "kernel");
    EXPECT_FALSE(hasCategory(fixed, ErrorCategory::LoopParallelization));
}

TEST(SynthCheck, StructWithoutCtorFlagged)
{
    auto errors = check(R"(
        struct If2 {
            hls::stream<int> &in;
            hls::stream<int> &out;
            int do1() { out.write(in.read()); return 0; }
        };
        void kernel(hls::stream<int> &in, hls::stream<int> &out) {
            #pragma HLS dataflow
            hls::stream<int> tmp;
            If2{ in, tmp }.do1();
            If2{ tmp, out }.do1();
        }
    )",
                        "kernel");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::StructAndUnion));
}

TEST(SynthCheck, NonStaticConnectingStreamFlagged)
{
    auto errors = check(R"(
        struct If2 {
            hls::stream<int> &in;
            hls::stream<int> &out;
            If2(hls::stream<int> &i, hls::stream<int> &o) : in(i), out(o) {}
            int do1() { out.write(in.read()); return 0; }
        };
        void kernel(hls::stream<int> &in, hls::stream<int> &out) {
            #pragma HLS dataflow
            hls::stream<int> tmp;
            If2{ in, tmp }.do1();
            If2{ tmp, out }.do1();
        }
    )",
                        "kernel");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::StructAndUnion));
    bool saw = false;
    for (const auto &e : errors)
        saw |= e.message.find("must be static") != std::string::npos;
    EXPECT_TRUE(saw);
    // Paper's repaired form: ctor + static stream -> clean.
    auto fixed = check(R"(
        struct If2 {
            hls::stream<int> &in;
            hls::stream<int> &out;
            If2(hls::stream<int> &i, hls::stream<int> &o) : in(i), out(o) {}
            int do1() { out.write(in.read()); return 0; }
        };
        void kernel(hls::stream<int> &in, hls::stream<int> &out) {
            #pragma HLS dataflow
            static hls::stream<int> tmp;
            If2{ in, tmp }.do1();
            If2{ tmp, out }.do1();
        }
    )",
                       "kernel");
    EXPECT_FALSE(hasCategory(fixed, ErrorCategory::StructAndUnion));
}

TEST(SynthCheck, UnionFlagged)
{
    auto errors = check(R"(
        union Both { int i; float f; };
        int kernel(int x) { return x; }
    )",
                        "kernel");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::StructAndUnion));
}

TEST(SynthCheck, MissingTopFunction)
{
    auto errors = check("int f(int x) { return x; }", "kernel_top");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::TopFunction));
    bool saw = false;
    for (const auto &e : errors)
        saw |= e.message.find("Cannot find the top function") !=
               std::string::npos;
    EXPECT_TRUE(saw);
}

TEST(SynthCheck, BadClockAndDevice)
{
    auto tu = parse("int kernel(int x) { return x; }");
    cir::analyzeOrDie(*tu);
    HlsConfig config = HlsConfig::forTop("kernel");
    config.clock_mhz = 9000;
    config.device = "not-a-part";
    auto errors = checkSynthesizability(*tu, config);
    EXPECT_EQ(errors.size(), 2u);
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::TopFunction));
}

TEST(SynthCheck, InterfacePragmaPortMustExist)
{
    auto errors = check(R"(
        int kernel(int a[8]) {
            #pragma HLS interface port=missing
            return a[0];
        }
    )",
                        "kernel");
    EXPECT_TRUE(hasCategory(errors, ErrorCategory::TopFunction));
}

TEST(StaticTripCount, CanonicalForms)
{
    auto tu = parse(R"(
        void f(int a[64], int n) {
            for (int i = 0; i < 10; i++) { a[i] = 0; }
            for (int j = 2; j <= 10; j += 2) { a[j] = 0; }
            for (int k = 0; k < n; k++) { a[k] = 0; }
        }
    )");
    const auto &stmts = tu->functions[0]->body->stmts;
    auto count = [&](int idx) {
        return staticTripCount(
            static_cast<const cir::ForStmt &>(*stmts[idx]));
    };
    ASSERT_TRUE(count(0).has_value());
    EXPECT_EQ(*count(0), 10);
    ASSERT_TRUE(count(1).has_value());
    EXPECT_EQ(*count(1), 5);
    EXPECT_FALSE(count(2).has_value());
}

TEST(Toolchain, CompileChargesMinutes)
{
    auto tu = parse("int kernel(int x) { return x + 1; }");
    cir::analyzeOrDie(*tu);
    HlsToolchain tool(HlsConfig::forTop("kernel"));
    RunContext ctx;
    SpanScope span(ctx, "hls");
    auto r = tool.compile(ctx, *tu);
    EXPECT_TRUE(r.ok);
    EXPECT_GT(r.synth_minutes, 1.0);
    EXPECT_EQ(span.span().counter("hls.compiles"), 1);
    EXPECT_DOUBLE_EQ(span.minutes(), r.synth_minutes);
    tool.compile(ctx, *tu);
    EXPECT_EQ(span.span().counter("hls.compiles"), 2);
    EXPECT_DOUBLE_EQ(span.minutes(), 2 * r.synth_minutes);
    EXPECT_DOUBLE_EQ(ctx.now(), span.minutes());
}

TEST(Toolchain, CosimMatchesInterpreterFunctionally)
{
    auto tu = parse(R"(
        int kernel(int a[8]) {
            int acc = 0;
            for (int i = 0; i < 8; i++) { acc += a[i]; }
            return acc;
        }
    )");
    cir::analyzeOrDie(*tu);
    auto r = simulateFpga(FpgaDesign(*tu), HlsConfig::forTop("kernel"),
                          "kernel",
                          {KernelArg::ofInts({1, 2, 3, 4, 5, 6, 7, 8})});
    ASSERT_TRUE(r.run.ok) << r.run.trap;
    EXPECT_EQ(r.run.ret.i, 36);
    EXPECT_GT(r.millis, 0.0);
}

TEST(FpgaModel, UnoptimizedFpgaSlowerThanCpu)
{
    auto tu = parse(R"(
        int kernel(int a[256]) {
            int acc = 0;
            for (int i = 0; i < 256; i++) { acc += a[i] * 3; }
            return acc;
        }
    )");
    cir::analyzeOrDie(*tu);
    std::vector<KernelArg> args{KernelArg::ofInts(std::vector<long>(256, 2))};
    auto cpu = interp::runProgram(*tu, "kernel", args);
    auto fpga = simulateFpga(FpgaDesign(*tu), HlsConfig::forTop("kernel"),
                             "kernel", args);
    ASSERT_TRUE(cpu.ok);
    ASSERT_TRUE(fpga.run.ok);
    EXPECT_GT(fpga.millis, cpu.cpuMillis())
        << "without pragmas the 250 MHz fabric loses to the 2 GHz CPU";
}

TEST(FpgaModel, PipelineAndUnrollBeatCpu)
{
    auto plain = parse(R"(
        int kernel(int a[256]) {
            int acc = 0;
            for (int i = 0; i < 256; i++) { acc += a[i] * 3; }
            return acc;
        }
    )");
    auto tuned = parse(R"(
        int kernel(int a[256]) {
            #pragma HLS array_partition variable=a factor=8
            int acc = 0;
            for (int i = 0; i < 256; i++) {
                #pragma HLS pipeline II=1
                #pragma HLS unroll factor=8
                acc += a[i] * 3;
            }
            return acc;
        }
    )");
    cir::analyzeOrDie(*plain);
    cir::analyzeOrDie(*tuned);
    std::vector<KernelArg> args{KernelArg::ofInts(std::vector<long>(256, 2))};
    auto cpu = interp::runProgram(*plain, "kernel", args);
    auto slow = simulateFpga(FpgaDesign(*plain),
                             HlsConfig::forTop("kernel"), "kernel", args);
    auto fast = simulateFpga(FpgaDesign(*tuned),
                             HlsConfig::forTop("kernel"), "kernel", args);
    ASSERT_TRUE(fast.run.ok) << fast.run.trap;
    EXPECT_EQ(fast.run.ret.i, cpu.ret.i) << "pragmas must not change results";
    EXPECT_LT(fast.millis, slow.millis);
    EXPECT_LT(fast.millis, cpu.cpuMillis())
        << "pipelined + unrolled kernel should beat the CPU";
}

TEST(FpgaModel, DataflowOverlapsTopLevelLoops)
{
    auto serial = parse(R"(
        void kernel(int a[128], int b[128]) {
            for (int i = 0; i < 128; i++) { a[i] = a[i] * 2; }
            for (int j = 0; j < 128; j++) { b[j] = b[j] + 1; }
        }
    )");
    auto overlapped = parse(R"(
        void kernel(int a[128], int b[128]) {
            #pragma HLS dataflow
            for (int i = 0; i < 128; i++) { a[i] = a[i] * 2; }
            for (int j = 0; j < 128; j++) { b[j] = b[j] + 1; }
        }
    )");
    cir::analyzeOrDie(*serial);
    cir::analyzeOrDie(*overlapped);
    std::vector<KernelArg> args{
        KernelArg::ofInts(std::vector<long>(128, 1)),
        KernelArg::ofInts(std::vector<long>(128, 1))};
    auto a = simulateFpga(FpgaDesign(*serial), HlsConfig::forTop("kernel"),
                          "kernel", args);
    auto b = simulateFpga(FpgaDesign(*overlapped),
                          HlsConfig::forTop("kernel"), "kernel", args);
    EXPECT_LT(b.millis, a.millis);
}

TEST(FpgaModel, HigherClockIsFaster)
{
    auto tu = parse(R"(
        int kernel(int a[64]) {
            int acc = 0;
            for (int i = 0; i < 64; i++) { acc += a[i]; }
            return acc;
        }
    )");
    cir::analyzeOrDie(*tu);
    std::vector<KernelArg> args{KernelArg::ofInts(std::vector<long>(64, 1))};
    HlsConfig slow_cfg = HlsConfig::forTop("kernel");
    slow_cfg.clock_mhz = 100;
    HlsConfig fast_cfg = HlsConfig::forTop("kernel");
    fast_cfg.clock_mhz = 400;
    FpgaDesign design(*tu);
    auto slow = simulateFpga(design, slow_cfg, "kernel", args);
    auto fast = simulateFpga(design, fast_cfg, "kernel", args);
    EXPECT_LT(fast.millis, slow.millis);
}

TEST(Resources, NarrowTypesUseFewerBits)
{
    auto wide = parse("int buf[1024]; int kernel() { return buf[0]; }");
    auto narrow = parse(
        "fpga_uint<7> buf[1024]; int kernel() { return buf[0]; }");
    auto rw = estimateResources(*wide);
    auto rn = estimateResources(*narrow);
    EXPECT_GT(rw.bram_bits, rn.bram_bits);
    EXPECT_EQ(rw.bram_bits, 1024 * 32);
    EXPECT_EQ(rn.bram_bits, 1024 * 7);
}

TEST(Resources, UtilizationAndFit)
{
    auto tu = parse("int buf[1024]; int kernel() { return buf[0]; }");
    auto est = estimateResources(*tu);
    const DeviceSpec *big = findDevice("xcvu9p");
    ASSERT_NE(big, nullptr);
    EXPECT_TRUE(est.fits(*big));
    EXPECT_GE(est.utilization(*big), 0.0);
    EXPECT_EQ(findDevice("nonexistent"), nullptr);
}

TEST(Errors, CategoriesAndFormatting)
{
    EXPECT_EQ(allCategories().size(), size_t(kNumErrorCategories));
    HlsError e = diag::recursiveFunction("traverse", SourceLoc{4, 1});
    EXPECT_EQ(e.str().rfind("ERROR: [XFORM 202-876]", 0), 0u);
    EXPECT_EQ(categoryName(ErrorCategory::StructAndUnion),
              "Struct and Union");
}

} // namespace
} // namespace heterogen::hls
