/** @file Tests for test generation: mutation, suites, fuzzing loop. */

#include <gtest/gtest.h>

#include "cir/parser.h"
#include "cir/sema.h"
#include "fuzz/fuzzer.h"
#include "fuzz/mutator.h"
#include "fuzz/testsuite.h"

namespace heterogen::fuzz {
namespace {

using cir::Type;
using interp::KernelArg;

TEST(TestSuite, DeduplicatesIdenticalInputs)
{
    TestSuite suite;
    EXPECT_TRUE(suite.add({KernelArg::ofInt(1)}));
    EXPECT_FALSE(suite.add({KernelArg::ofInt(1)}));
    EXPECT_TRUE(suite.add({KernelArg::ofInt(2)}));
    EXPECT_EQ(suite.size(), 2u);
    EXPECT_EQ(suite[0].id, 0);
    EXPECT_EQ(suite[1].id, 1);
}

TEST(Mutator, RandomInputMatchesParamShapes)
{
    Rng rng(3);
    std::vector<cir::TypePtr> types{
        Type::array(Type::floatType(), 8),
        Type::intType(),
        Type::stream(Type::intType()),
    };
    Mutator mutator(types, rng);
    auto input = mutator.randomInput();
    ASSERT_EQ(input.size(), 3u);
    EXPECT_EQ(input[0].kind, KernelArg::Kind::FloatArray);
    EXPECT_EQ(input[0].floats.size(), 8u);
    EXPECT_EQ(input[1].kind, KernelArg::Kind::Int);
    EXPECT_EQ(input[2].kind, KernelArg::Kind::IntArray);
}

TEST(Mutator, MutantsDifferFromSeed)
{
    Rng rng(5);
    std::vector<cir::TypePtr> types{Type::array(Type::intType(), 16),
                                    Type::intType()};
    Mutator mutator(types, rng);
    std::vector<KernelArg> seed{
        KernelArg::ofInts(std::vector<long>(16, 7)),
        KernelArg::ofInt(3)};
    auto variants = mutator.mutate(seed, 32);
    ASSERT_EQ(variants.size(), 32u);
    int different = 0;
    for (const auto &v : variants)
        different += (v != seed) ? 1 : 0;
    EXPECT_GT(different, 24) << "mutation should usually change inputs";
}

class TypeValidityTest : public ::testing::TestWithParam<int>
{};

TEST_P(TypeValidityTest, MutantsStayInFpgaTypeRange)
{
    const int width = GetParam();
    Rng rng(7 + width);
    std::vector<cir::TypePtr> types{
        Type::array(Type::fpgaUint(width), 8),
        Type::fpgaInt(width),
    };
    Mutator mutator(types, rng);
    auto seed = mutator.randomInput();
    const long umax = (1L << width) - 1;
    const long smin = -(1L << (width - 1));
    const long smax = (1L << (width - 1)) - 1;
    for (int round = 0; round < 20; ++round) {
        auto variants = mutator.mutate(seed, 8);
        for (const auto &v : variants) {
            for (long x : v[0].ints) {
                EXPECT_GE(x, 0);
                EXPECT_LE(x, umax);
            }
            EXPECT_GE(v[1].i, smin);
            EXPECT_LE(v[1].i, smax);
        }
        seed = variants.back();
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, TypeValidityTest,
                         ::testing::Values(1, 3, 7, 12, 16));

TEST(Fuzzer, CoversBothBranchDirections)
{
    auto tu = cir::parse(R"(
        int kernel(int x) {
            if (x > 100) { return 1; }
            return 0;
        }
    )");
    cir::analyzeOrDie(*tu);
    FuzzOptions options;
    options.max_executions = 400;
    options.rng_seed = 11;
    RunContext ctx;
    auto result = fuzzKernel(ctx, *tu, "kernel", options);
    EXPECT_DOUBLE_EQ(result.branchCoverage(), 1.0);
    EXPECT_GE(result.suite.size(), 2u);
}

TEST(Fuzzer, SeedCapturedFromHostRun)
{
    auto tu = cir::parse(R"(
        int kernel(int a[4], int k) {
            int acc = 0;
            for (int i = 0; i < 4; i++) { acc += a[i] * k; }
            return acc;
        }
        int host() {
            int data[4];
            for (int i = 0; i < 4; i++) { data[i] = 10 + i; }
            return kernel(data, 3);
        }
    )");
    cir::analyzeOrDie(*tu);
    FuzzOptions options;
    options.host_function = "host";
    options.max_executions = 10;
    RunContext ctx;
    auto result = fuzzKernel(ctx, *tu, "kernel", options);
    ASSERT_FALSE(result.suite.empty());
    // The first retained test is the captured host seed.
    EXPECT_EQ(result.suite[0].args[0].ints,
              (std::vector<long>{10, 11, 12, 13}));
    EXPECT_EQ(result.suite[0].args[1].i, 3);
}

TEST(Fuzzer, CoverageCountsKernelReachableBranchesOnly)
{
    // The host has its own branches; they must not deflate kernel
    // coverage.
    auto tu = cir::parse(R"(
        int kernel(int x) {
            if (x > 0) { return 1; }
            return 0;
        }
        int host() {
            int acc = 0;
            for (int i = 0; i < 3; i++) {
                if (i % 2 == 0) { acc += kernel(i); }
            }
            return acc;
        }
    )");
    cir::analyzeOrDie(*tu);
    FuzzOptions options;
    options.host_function = "host";
    options.max_executions = 300;
    options.rng_seed = 3;
    RunContext ctx;
    auto result = fuzzKernel(ctx, *tu, "kernel", options);
    EXPECT_DOUBLE_EQ(result.branchCoverage(), 1.0)
        << "only the kernel's single branch should count";
}

TEST(Fuzzer, PlateauStopsCampaign)
{
    // Branchless kernel: after the seed there is never new coverage, so
    // the campaign stops once the plateau window elapses.
    auto tu = cir::parse("int kernel(int x) { return x + 1; }");
    cir::analyzeOrDie(*tu);
    FuzzOptions options;
    options.max_executions = 1000000;
    options.plateau_minutes = 2.0;
    options.budget_minutes = 1000.0;
    RunContext ctx;
    auto result = fuzzKernel(ctx, *tu, "kernel", options);
    EXPECT_LT(result.executions, 10000);
    EXPECT_GT(result.sim_minutes, 2.0);
    EXPECT_LT(result.sim_minutes - result.last_progress_minutes, 3.5);
}

TEST(Fuzzer, DeterministicGivenSeed)
{
    auto tu = cir::parse(R"(
        int kernel(int a[8], int n) {
            if (n < 0) { n = 0; }
            if (n > 8) { n = 8; }
            int acc = 0;
            for (int i = 0; i < n; i++) { acc += a[i]; }
            return acc;
        }
    )");
    cir::analyzeOrDie(*tu);
    FuzzOptions options;
    options.max_executions = 200;
    options.rng_seed = 99;
    RunContext ctx_a, ctx_b;
    auto a = fuzzKernel(ctx_a, *tu, "kernel", options);
    auto b = fuzzKernel(ctx_b, *tu, "kernel", options);
    EXPECT_EQ(a.suite.size(), b.suite.size());
    EXPECT_EQ(a.executions, b.executions);
    for (size_t i = 0; i < a.suite.size(); ++i)
        EXPECT_EQ(a.suite[i].args, b.suite[i].args);
}

TEST(Fuzzer, MinSuiteFloorRetainsDiverseInputs)
{
    auto tu = cir::parse("int kernel(int x) { return x * 2; }");
    cir::analyzeOrDie(*tu);
    FuzzOptions options;
    options.max_executions = 300;
    options.min_suite_size = 24;
    options.plateau_minutes = 1000.0;
    RunContext ctx;
    auto result = fuzzKernel(ctx, *tu, "kernel", options);
    EXPECT_GE(result.suite.size(), 24u)
        << "branchless programs still get a difftest corpus";
}

TEST(Fuzzer, HitCountBucketsRetainLoopMagnitudes)
{
    // Same edges for any n>0; only iteration-count buckets distinguish
    // inputs, so the suite should grow beyond the two edge classes.
    auto tu = cir::parse(R"(
        int kernel(int n) {
            if (n < 0) { n = 0; }
            if (n > 100000) { n = 100000; }
            int acc = 0;
            for (int i = 0; i < n; i++) { acc += i; }
            return acc;
        }
    )");
    cir::analyzeOrDie(*tu);
    FuzzOptions options;
    options.max_executions = 2000;
    options.min_suite_size = 0;
    options.rng_seed = 17;
    RunContext ctx;
    auto result = fuzzKernel(ctx, *tu, "kernel", options);
    EXPECT_GT(result.suite.size(), 6u)
        << "hit-count bucketing should retain multiple loop magnitudes";
}

} // namespace
} // namespace heterogen::fuzz
