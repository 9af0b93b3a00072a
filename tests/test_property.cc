/** @file Property tests over randomly generated CIR programs: printer
 * round-trips, interpreter determinism, pragma semantic-neutrality, and
 * differential testing's sensitivity to quantization. */

#include <gtest/gtest.h>

#include <sstream>

#include "cir/parser.h"
#include "cir/printer.h"
#include "cir/sema.h"
#include "hls/fpga_model.h"
#include "interp/interp.h"
#include "repair/transforms.h"
#include "support/rng.h"

namespace heterogen {
namespace {

using cir::parse;
using interp::KernelArg;

/**
 * Generates small, always-terminating integer programs: one kernel with
 * two int parameters and one fixed-size array parameter, straight-line
 * arithmetic, bounded for loops, if/else, and guarded division.
 */
class ProgramGenerator
{
  public:
    explicit ProgramGenerator(uint64_t seed) : rng_(seed) {}

    std::string
    generate()
    {
        std::ostringstream os;
        os << "int kernel(int a[8], int x, int y) {\n";
        os << "    int acc = x;\n";
        int depth = 0;
        int stmts = 3 + int(rng_.below(6));
        for (int i = 0; i < stmts; ++i)
            emitStmt(os, depth);
        os << "    return acc;\n}\n";
        return os.str();
    }

  private:
    std::string
    operand()
    {
        switch (rng_.below(5)) {
          case 0: return "x";
          case 1: return "y";
          case 2: return "acc";
          case 3:
            return "a[" + std::to_string(rng_.below(8)) + "]";
          default:
            return std::to_string(rng_.range(-9, 9));
        }
    }

    std::string
    expr()
    {
        static const char *ops[] = {"+", "-", "*", "&", "|", "^"};
        std::string e = operand();
        int terms = 1 + int(rng_.below(3));
        for (int i = 0; i < terms; ++i)
            e += std::string(" ") + ops[rng_.below(6)] + " " + operand();
        return e;
    }

    void
    emitStmt(std::ostringstream &os, int &depth)
    {
        std::string indent(4 * (depth + 1), ' ');
        switch (rng_.below(4)) {
          case 0:
            os << indent << "acc = " << expr() << ";\n";
            break;
          case 1:
            os << indent << "a[" << rng_.below(8)
               << "] = " << expr() << ";\n";
            break;
          case 2: {
            os << indent << "if (" << operand() << " > " << operand()
               << ") { acc = acc + 1; } else { acc = acc - "
               << rng_.below(4) << "; }\n";
            break;
          }
          default: {
            std::string iv = "i" + std::to_string(rng_.below(1000));
            os << indent << "for (int " << iv << " = 0; " << iv << " < "
               << (1 + rng_.below(8)) << "; " << iv << "++) { acc = acc "
               << "+ a[" << iv << " % 8]; }\n";
            break;
          }
        }
    }

    Rng rng_;
};

std::vector<KernelArg>
someArgs(uint64_t seed)
{
    Rng rng(seed);
    std::vector<long> cells(8);
    for (long &c : cells)
        c = rng.range(-100, 100);
    return {KernelArg::ofInts(cells), KernelArg::ofInt(rng.range(-50, 50)),
            KernelArg::ofInt(rng.range(-50, 50))};
}

class RandomProgramTest : public ::testing::TestWithParam<int>
{};

TEST_P(RandomProgramTest, PrinterReachesFixpoint)
{
    ProgramGenerator gen(GetParam());
    std::string src = gen.generate();
    auto tu = parse(src);
    std::string once = cir::print(*tu);
    std::string twice = cir::print(*parse(once));
    EXPECT_EQ(once, twice) << src;
}

TEST_P(RandomProgramTest, SemaAcceptsGeneratedPrograms)
{
    ProgramGenerator gen(GetParam());
    auto tu = parse(gen.generate());
    EXPECT_TRUE(cir::analyze(*tu).ok());
}

TEST_P(RandomProgramTest, InterpreterIsDeterministic)
{
    ProgramGenerator gen(GetParam());
    auto tu = parse(gen.generate());
    cir::analyzeOrDie(*tu);
    auto args = someArgs(GetParam() * 7 + 1);
    auto a = interp::runProgram(*tu, "kernel", args);
    auto b = interp::runProgram(*tu, "kernel", args);
    ASSERT_TRUE(a.ok) << a.trap;
    EXPECT_TRUE(a.sameBehavior(b));
    EXPECT_EQ(a.cycles, b.cycles);
}

TEST_P(RandomProgramTest, PipelinePragmasNeverChangeBehavior)
{
    ProgramGenerator gen(GetParam());
    std::string src = gen.generate();
    auto original = parse(src);
    auto tuned = parse(src);
    cir::analyzeOrDie(*original);
    cir::analyzeOrDie(*tuned);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    repair::RepairContext ctx{*tuned, config, "", nullptr, nullptr,
                              false};
    repair::xform::insertPipeline(ctx);
    repair::xform::insertUnroll(ctx);
    cir::analyzeOrDie(*tuned);
    hls::FpgaDesign design(*tuned);
    for (int k = 0; k < 4; ++k) {
        auto args = someArgs(GetParam() * 31 + k);
        auto a = interp::runProgram(*original, "kernel", args);
        auto fpga = hls::simulateFpga(design, config, "kernel", args);
        EXPECT_TRUE(a.sameBehavior(fpga.run))
            << src << "\nargs " << interp::argsToString(args);
    }
}

TEST_P(RandomProgramTest, CoverageWithinBounds)
{
    ProgramGenerator gen(GetParam());
    auto tu = parse(gen.generate());
    auto sema = cir::analyzeOrDie(*tu);
    interp::CoverageMap cov(sema.num_branches);
    interp::RunOptions opts;
    opts.coverage = &cov;
    interp::runProgram(*tu, "kernel", someArgs(GetParam()), opts);
    EXPECT_GE(cov.coverage(), 0.0);
    EXPECT_LE(cov.coverage(), 1.0);
    EXPECT_LE(int(cov.hitCount()), 2 * sema.num_branches);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range(1, 33));

TEST(DiffTestSensitivity, QuantizationDivergenceIsCaught)
{
    // Narrowing a float accumulator to a tiny mantissa visibly changes
    // results; differential testing must notice.
    auto original = parse(R"(
        float kernel(float x) { float acc = x * 1.001; return acc; }
    )");
    auto narrowed = parse(R"(
        float kernel(float x) {
            fpga_float<8,4> acc = x * 1.001;
            return acc;
        }
    )");
    cir::analyzeOrDie(*original);
    cir::analyzeOrDie(*narrowed);
    auto a = interp::runProgram(*original, "kernel",
                                {KernelArg::ofFloat(123.456)});
    auto b = interp::runProgram(*narrowed, "kernel",
                                {KernelArg::ofFloat(123.456)});
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_FALSE(a.sameBehavior(b));
}

TEST(DiffTestSensitivity, WideMantissaIsInvisible)
{
    auto original = parse(R"(
        float kernel(float x) { float acc = x * 1.001; return acc; }
    )");
    auto widened = parse(R"(
        float kernel(float x) {
            fpga_float<8,52> acc = x * 1.001;
            return acc;
        }
    )");
    cir::analyzeOrDie(*original);
    cir::analyzeOrDie(*widened);
    for (double v : {0.0, 1.0, -2.5, 123.456, 1e6}) {
        auto a = interp::runProgram(*original, "kernel",
                                    {KernelArg::ofFloat(v)});
        auto b = interp::runProgram(*widened, "kernel",
                                    {KernelArg::ofFloat(v)});
        EXPECT_TRUE(a.sameBehavior(b)) << v;
    }
}

} // namespace
} // namespace heterogen
