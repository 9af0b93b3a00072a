/** @file Tests for loop-profile attribution and the FPGA latency model's
 * acceleration rules. */

#include <gtest/gtest.h>

#include "cir/parser.h"
#include "cir/sema.h"
#include "hls/compiler.h"
#include "hls/fpga_model.h"
#include "interp/interp.h"

namespace heterogen::hls {
namespace {

using cir::parse;
using interp::KernelArg;

TEST(LoopProfile, AttributesCyclesToInnermostActiveLoop)
{
    auto tu = parse(R"(
        int kernel(int n) {
            int acc = 0;
            for (int i = 0; i < 4; i++) {
                for (int j = 0; j < 8; j++) {
                    acc += i * j;
                }
            }
            return acc;
        }
    )");
    cir::analyzeOrDie(*tu);
    interp::LoopProfile profile;
    interp::RunOptions opts;
    opts.loop_profile = &profile;
    auto r = interp::runProgram(*tu, "kernel", {KernelArg::ofInt(0)},
                                opts);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(profile.loops.size(), 2u);
    const interp::LoopRecord *outer = nullptr;
    const interp::LoopRecord *inner = nullptr;
    for (const auto &[id, rec] : profile.loops) {
        if (rec.parent_id == -1)
            outer = &rec;
        else
            inner = &rec;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->iterations, 4u);
    EXPECT_EQ(inner->iterations, 32u);
    EXPECT_EQ(inner->parent_id, outer->node_id);
    EXPECT_GT(inner->cycles_exclusive, outer->cycles_exclusive)
        << "the inner loop does the work";
    // Total attribution is exact.
    EXPECT_EQ(profile.totalCycles(), r.cycles);
}

TEST(LoopProfile, CalleeLoopsAttributeToThemselves)
{
    auto tu = parse(R"(
        int work(int k) {
            int acc = 0;
            for (int i = 0; i < 16; i++) { acc += i * k; }
            return acc;
        }
        int kernel(int n) {
            int total = 0;
            for (int c = 0; c < 4; c++) { total += work(c); }
            return total;
        }
    )");
    cir::analyzeOrDie(*tu);
    interp::LoopProfile profile;
    interp::RunOptions opts;
    opts.loop_profile = &profile;
    ASSERT_TRUE(
        interp::runProgram(*tu, "kernel", {KernelArg::ofInt(0)}, opts)
            .ok);
    ASSERT_EQ(profile.loops.size(), 2u);
    // The callee's loop is "nested" dynamically under the caller's.
    int children = 0;
    for (const auto &[id, rec] : profile.loops)
        children += rec.parent_id != -1 ? 1 : 0;
    EXPECT_EQ(children, 1);
}

TEST(FpgaModel, PipelineAccelerationBoundedByBodyLatency)
{
    // A two-cycle body cannot be accelerated 32x by pipelining.
    auto tiny_body = parse(R"(
        int kernel(int a[64]) {
            int acc = 0;
            for (int i = 0; i < 64; i++) {
                #pragma HLS pipeline II=1
                acc += 1;
            }
            return acc;
        }
    )");
    cir::analyzeOrDie(*tiny_body);
    std::vector<LoopAcceleration> accel;
    simulateFpga(FpgaDesign(*tiny_body), HlsConfig::forTop("kernel"),
                 "kernel", {KernelArg::ofInts(std::vector<long>(64, 1))},
                 {}, &accel);
    ASSERT_EQ(accel.size(), 1u);
    EXPECT_LT(accel[0].pipeline_factor, 32.0);
    EXPECT_GE(accel[0].pipeline_factor, 1.0);
}

TEST(FpgaModel, HigherIIReducesPipelineCredit)
{
    const char *fmt = R"(
        int kernel(int a[64]) {
            int acc = 0;
            for (int i = 0; i < 64; i++) {
                #pragma HLS pipeline II=%s
                acc += a[i] * 3 + a[i] / 2;
            }
            return acc;
        }
    )";
    auto program_for = [&](const char *ii) {
        std::string src = fmt;
        src.replace(src.find("%s"), 2, ii);
        auto tu = parse(src);
        cir::analyzeOrDie(*tu);
        return tu;
    };
    auto fast = program_for("1");
    auto slow = program_for("4");
    std::vector<KernelArg> args{
        KernelArg::ofInts(std::vector<long>(64, 2))};
    auto a = simulateFpga(FpgaDesign(*fast), HlsConfig::forTop("kernel"),
                          "kernel", args);
    auto b = simulateFpga(FpgaDesign(*slow), HlsConfig::forTop("kernel"),
                          "kernel", args);
    EXPECT_LT(a.millis, b.millis);
}

TEST(FpgaModel, UnrollBoundedByMemoryPortsUnlessPartitioned)
{
    const char *unpartitioned = R"(
        int kernel(int a[64]) {
            int acc = 0;
            for (int i = 0; i < 64; i++) {
                #pragma HLS unroll factor=16
                acc += a[i];
            }
            return acc;
        }
    )";
    const char *partitioned = R"(
        int kernel(int a[64]) {
            #pragma HLS array_partition variable=a factor=8
            int acc = 0;
            for (int i = 0; i < 64; i++) {
                #pragma HLS unroll factor=16
                acc += a[i];
            }
            return acc;
        }
    )";
    auto tu1 = parse(unpartitioned);
    auto tu2 = parse(partitioned);
    cir::analyzeOrDie(*tu1);
    cir::analyzeOrDie(*tu2);
    std::vector<LoopAcceleration> a1, a2;
    std::vector<KernelArg> args{
        KernelArg::ofInts(std::vector<long>(64, 1))};
    simulateFpga(FpgaDesign(*tu1), HlsConfig::forTop("kernel"), "kernel",
                 args, {}, &a1);
    simulateFpga(FpgaDesign(*tu2), HlsConfig::forTop("kernel"), "kernel",
                 args, {}, &a2);
    ASSERT_EQ(a1.size(), 1u);
    ASSERT_EQ(a2.size(), 1u);
    EXPECT_DOUBLE_EQ(a1[0].unroll_factor, 2.0)
        << "dual-port BRAM bounds unpartitioned unrolling";
    EXPECT_GT(a2[0].unroll_factor, a1[0].unroll_factor);
}

TEST(FpgaModel, DataflowOnlyOverlapsTopLevelLoops)
{
    auto tu = parse(R"(
        void kernel(int a[32], int b[32]) {
            #pragma HLS dataflow
            for (int i = 0; i < 32; i++) {
                a[i] = a[i] + 1;
                for (int j = 0; j < 2; j++) { b[j] += 1; }
            }
            for (int k = 0; k < 32; k++) { b[k] = b[k] * 2; }
        }
    )");
    cir::analyzeOrDie(*tu);
    std::vector<LoopAcceleration> accel;
    std::vector<KernelArg> args{
        KernelArg::ofInts(std::vector<long>(32, 1)),
        KernelArg::ofInts(std::vector<long>(32, 1))};
    simulateFpga(FpgaDesign(*tu), HlsConfig::forTop("kernel"), "kernel",
                 args, {}, &accel);
    int overlapped = 0;
    int serial = 0;
    for (const auto &a : accel) {
        if (a.dataflow_factor > 1.0)
            ++overlapped;
        else
            ++serial;
    }
    EXPECT_EQ(overlapped, 2) << "the two top-level loops overlap";
    EXPECT_EQ(serial, 1) << "the nested loop does not";
}

TEST(FpgaModel, TransferScalesWithArgumentCells)
{
    auto tu = parse(R"(
        int kernel(int a[1024]) { return a[0]; }
    )");
    cir::analyzeOrDie(*tu);
    FpgaDesign design(*tu);
    auto small = simulateFpga(design, HlsConfig::forTop("kernel"), "kernel",
                              {KernelArg::ofInts(std::vector<long>(8))});
    auto large = simulateFpga(design, HlsConfig::forTop("kernel"), "kernel",
                              {KernelArg::ofInts(std::vector<long>(1024))});
    EXPECT_GT(large.transfer_cycles, small.transfer_cycles);
    EXPECT_GE(large.transfer_cycles - small.transfer_cycles,
              (1024 - 8) / 8);
}

TEST(Toolchain, SynthCostGrowsWithDesignSize)
{
    double small = HlsToolchain::synthMinutes(50, 0, 0);
    double large = HlsToolchain::synthMinutes(500, 10, 3);
    EXPECT_GT(large, small);
    EXPECT_GT(small, 1.0) << "even tiny designs pay the elaboration floor";
}

} // namespace
} // namespace heterogen::hls
