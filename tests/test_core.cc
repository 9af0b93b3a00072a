/** @file End-to-end pipeline tests over the P1-P10 subjects, including
 * the ablation and HeteroRefactor baselines (Table 3/5/Figure 9 logic).
 */

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/heterogen.h"
#include "repair/difftest.h"
#include "repair/transforms.h"
#include "hls/synth_check.h"
#include "subjects/subjects.h"
#include "support/strings.h"

namespace heterogen::core {
namespace {

/** Fast-but-representative options for CI-scale runs. */
HeteroGenOptions
testOptions(const subjects::Subject &subject)
{
    HeteroGenOptions opts;
    opts.kernel = subject.kernel;
    opts.fuzz.host_function = subject.host;
    opts.config.top_function = subject.top_function;
    opts.fuzz.rng_seed = subject.fuzz_seed;
    opts.fuzz.max_executions = 700;
    opts.fuzz.mutations_per_input = 8;
    opts.fuzz.max_steps_per_run = 300000;
    opts.fuzz.min_suite_size = 16;
    opts.search.budget_minutes = 400;
    opts.search.max_iterations = 300;
    opts.search.difftest_sample = 10;
    opts.search.rng_seed = subject.fuzz_seed * 31 + 7;
    return opts;
}

class PipelineTest : public ::testing::TestWithParam<const char *>
{
  protected:
    const subjects::Subject &subject() const
    {
        return subjects::subjectById(GetParam());
    }
};

TEST_P(PipelineTest, RepairsSubjectEndToEnd)
{
    const subjects::Subject &s = subject();
    HeteroGen engine(s.source);
    auto report = engine.run(testOptions(s));
    EXPECT_TRUE(report.search.hls_compatible)
        << s.id << " edits: "
        << join(report.search.applied_order, ", ");
    EXPECT_TRUE(report.search.behavior_preserved) << s.id;
    // The final program must be HLS-clean under its configuration.
    auto errors = hls::checkSynthesizability(*report.search.program,
                                             report.search.config);
    EXPECT_TRUE(errors.empty()) << s.id << ": " << errors.front().str();
    // And the report must account for its work.
    EXPECT_GT(report.testgen.suite.size(), 0u);
    EXPECT_GT(report.total_minutes, 0.0);
    EXPECT_GT(report.search.full_hls_invocations, 0);
}

INSTANTIATE_TEST_SUITE_P(AllSubjects, PipelineTest,
                         ::testing::Values("P1", "P2", "P3", "P4", "P5",
                                           "P6", "P7", "P8", "P9",
                                           "P10"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(Pipeline, P1HasNoPerformanceImprovingEdit)
{
    const auto &s = subjects::subjectById("P1");
    HeteroGen engine(s.source);
    auto report = engine.run(testOptions(s));
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report.search.improved)
        << "P1 is pure arithmetic without loops or arrays (Table 3)";
}

TEST(Pipeline, LoopSubjectGetsFaster)
{
    const auto &s = subjects::subjectById("P10");
    HeteroGen engine(s.source);
    auto report = engine.run(testOptions(s));
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.search.improved);
    EXPECT_LT(report.search.fpga_ms, report.search.orig_cpu_ms);
}

TEST(Pipeline, BitwidthNarrowingAppearsInOutput)
{
    // P5's traversal accumulator has a small profiled range, so the
    // initial HLS version narrows it (the paper's fpga_uint<7> example).
    const auto &s = subjects::subjectById("P5");
    HeteroGen engine(s.source);
    auto report = engine.run(testOptions(s));
    ASSERT_TRUE(report.ok());
    EXPECT_NE(report.hls_source.find("fpga_uint<"), std::string::npos)
        << report.hls_source;
}

TEST(Pipeline, TopFunctionErrorIsRepaired)
{
    const auto &s = subjects::subjectById("P9");
    ASSERT_FALSE(s.top_function.empty());
    HeteroGen engine(s.source);
    auto report = engine.run(testOptions(s));
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.search.config.top_function, s.kernel)
        << "the top_name edit must point the config at the real kernel";
}

TEST(Pipeline, ConfigTopFunctionReachesTheSearch)
{
    // options.config is the one home of the initial top function: a
    // set name is handed to the search untouched (with no iterations
    // the search reports its initial config), an empty one means the
    // kernel.
    const auto &s = subjects::subjectById("P1");
    HeteroGen engine(s.source);
    HeteroGenOptions opts = testOptions(s);
    opts.search.max_iterations = 0;
    opts.config.top_function = "custom_top";
    EXPECT_EQ(engine.run(opts).search.config.top_function, "custom_top");
    opts.config.top_function.clear();
    EXPECT_EQ(engine.run(opts).search.config.top_function, s.kernel);
}

TEST(Pipeline, StackTransformShowsUpForRecursiveSubjects)
{
    const auto &s = subjects::subjectById("P5");
    HeteroGen engine(s.source);
    auto report = engine.run(testOptions(s));
    ASSERT_TRUE(report.ok());
    bool has_stack = false;
    for (const auto &e : report.search.applied_order)
        has_stack |= contains(e, "stack_trans");
    EXPECT_TRUE(has_stack)
        << join(report.search.applied_order, ", ");
    EXPECT_NE(report.hls_source.find("traverse_stk_"),
              std::string::npos);
}

TEST(Pipeline, GeneratedTestsCatchWhatExistingTestsMiss)
{
    // The paper's §6.2 case study: repairing P3 against only its sparse
    // pre-existing tests accepts an undersized finitization; the
    // generated suite then exposes behavioural divergence, which the
    // full pipeline resolves via the resize edit.
    const auto &s = subjects::subjectById("P3");
    HeteroGen engine(s.source);

    // 1. Repair with the handcrafted tests only.
    auto tu = engine.program().clone();
    fuzz::TestSuite existing;
    for (const auto &args : s.existing_tests)
        existing.add(args);
    interp::ValueProfile profile;
    repair::SearchOptions sopts;
    sopts.budget_minutes = 400;
    sopts.difftest_sample = 0;
    RunContext weak_ctx;
    repair::CpuOracle weak_oracle(engine.program(), s.kernel, existing);
    auto weak = repair::repairSearch(weak_ctx, weak_oracle, *tu,
                                     hls::HlsConfig::forTop(s.kernel),
                                     profile, sopts);
    ASSERT_TRUE(weak.hls_compatible)
        << join(weak.applied_order, ", ");

    // 2. Generate tests the paper's way and differentially test the
    //    weakly-validated version.
    auto opts = testOptions(s);
    fuzz::FuzzOptions fopts = opts.fuzz;
    fopts.host_function = s.host;
    fopts.rng_seed = s.fuzz_seed;
    RunContext fuzz_ctx;
    auto generated =
        fuzz::fuzzKernel(fuzz_ctx, engine.program(), s.kernel, fopts);
    RunContext dt_ctx;
    repair::CpuOracle oracle(engine.program(), s.kernel, generated.suite);
    auto dt = repair::diffTest(dt_ctx, oracle, *weak.program, weak.config);
    EXPECT_LT(dt.passRatio(), 1.0)
        << "generated tests must expose the undersized finitization";

    // 3. The full pipeline (generated tests in the loop) fixes it.
    auto strong = engine.run(opts);
    ASSERT_TRUE(strong.ok());
    bool resized = false;
    for (const auto &e : strong.search.applied_order)
        resized |= contains(e, "resize");
    EXPECT_TRUE(resized)
        << join(strong.search.applied_order, ", ");
}

// --- baselines -----------------------------------------------------------

TEST(Baselines, WithoutCheckerCompilesEveryAttempt)
{
    const auto &s = subjects::subjectById("P5");
    HeteroGen engine(s.source);
    auto hg = engine.run(testOptions(s));
    auto nochk = engine.run(withoutChecker(testOptions(s)));
    ASSERT_TRUE(nochk.ok());
    EXPECT_DOUBLE_EQ(nochk.search.hlsInvocationRatio(), 1.0);
    EXPECT_LT(hg.search.hlsInvocationRatio(), 1.0);
    EXPECT_EQ(nochk.search.style_checks, 0);
}

TEST(Baselines, WithoutDependenceIsSlower)
{
    const auto &s = subjects::subjectById("P2");
    HeteroGen engine(s.source);
    auto opts = testOptions(s);
    auto hg = engine.run(opts);
    auto nodep_opts = withoutDependence(opts);
    nodep_opts.search.budget_minutes = 720;
    nodep_opts.search.max_iterations = 4000;
    auto nodep = engine.run(nodep_opts);
    ASSERT_TRUE(hg.ok());
    EXPECT_GT(nodep.search.minutes_to_success,
              hg.search.minutes_to_success)
        << "random-order exploration must cost more simulated time";
}

TEST(Baselines, HeteroRefactorHandlesOnlyDynamicSubjects)
{
    // Table 5: 20% vs 100% transpilation success.
    std::set<std::string> expected_success = {"P3", "P8"};
    for (const char *id :
         {"P1", "P2", "P3", "P5", "P6", "P8", "P10"}) {
        const auto &s = subjects::subjectById(id);
        HeteroGen engine(s.source);
        auto opts = heteroRefactor(testOptions(s));
        auto report = engine.run(opts);
        EXPECT_EQ(report.ok(), expected_success.count(id) == 1)
            << id << " edits: "
            << join(report.search.applied_order, ", ");
    }
}

TEST(Baselines, HeteroRefactorOutputSlowerThanHeteroGen)
{
    // HR applies no performance pragmas, so its P3/P8 outputs trail
    // HeteroGen's (the paper reports 1.53x slower).
    const auto &s = subjects::subjectById("P8");
    HeteroGen engine(s.source);
    auto hg = engine.run(testOptions(s));
    auto hr = engine.run(heteroRefactor(testOptions(s)));
    ASSERT_TRUE(hg.ok());
    ASSERT_TRUE(hr.ok());
    EXPECT_GT(hr.search.fpga_ms, hg.search.fpga_ms);
}

// --- the CPU oracle ----------------------------------------------------

TEST(CpuOracle, ProfilingRunsTheOriginalAndCampaignsOnlyTheCandidate)
{
    // The original runs once per suite case, in the profile span; the
    // repair span's interpreter runs are all candidate runs, compiled
    // once per campaign.
    for (const char *id : {"P1", "P3"}) {
        const auto &s = subjects::subjectById(id);
        HeteroGen engine(s.source);
        RunContext ctx;
        auto report = engine.run(ctx, testOptions(s));
        const TraceSpan &root = ctx.trace().root();
        const TraceSpan *profile = root.find("profile");
        const TraceSpan *repair = root.find("repair");
        ASSERT_NE(profile, nullptr);
        ASSERT_NE(repair, nullptr);
        EXPECT_EQ(profile->counterTotal("interp.runs"),
                  int64_t(report.testgen.suite.size()))
            << id;
        EXPECT_EQ(profile->counterTotal("interp.bytecode.compiles"), 1)
            << id;
        int64_t campaigns = repair->counterTotal("difftest.campaigns");
        ASSERT_GT(campaigns, 0) << id;
        EXPECT_EQ(repair->counterTotal("interp.runs"),
                  repair->counterTotal("difftest.tests"))
            << id;
        EXPECT_EQ(repair->counterTotal("interp.bytecode.compiles"),
                  campaigns)
            << id;
    }
}

TEST(CpuOracle, CampaignsMatchStandaloneDiffTest)
{
    // An oracle filled by profiling answers every campaign exactly as a
    // standalone diffTest, which runs the original itself: on the
    // original, the narrowed initial candidate and the search's result.
    for (const char *id : {"P1", "P3"}) {
        const auto &s = subjects::subjectById(id);
        HeteroGen engine(s.source);
        HeteroGenOptions opts = testOptions(s);
        auto report = engine.run(opts);
        ASSERT_TRUE(report.ok()) << id;
        const fuzz::TestSuite &suite = report.testgen.suite;

        RunContext ctx;
        repair::CpuOracle oracle(engine.program(), s.kernel, suite);
        EXPECT_EQ(profileUnderSuite(ctx, oracle), report.profile) << id;

        cir::TuPtr narrowed = engine.program().clone();
        hls::HlsConfig config = report.search.config;
        repair::RepairContext rctx{*narrowed, config, "", &report.profile,
                                   nullptr, false};
        repair::xform::bitwidthNarrow(rctx);

        repair::DiffTestOptions dt;
        dt.max_tests = opts.search.difftest_sample;
        std::vector<const cir::TranslationUnit *> candidates = {
            &engine.program(), narrowed.get(),
            report.search.program.get()};
        for (const cir::TranslationUnit *cand : candidates) {
            auto shared = repair::diffTest(ctx, oracle, *cand, config, dt);
            auto alone = repair::diffTest(engine.program(), s.kernel,
                                          *cand, config, suite, dt);
            EXPECT_EQ(shared.total, alone.total) << id;
            EXPECT_EQ(shared.identical, alone.identical) << id;
            EXPECT_EQ(shared.failing, alone.failing) << id;
            EXPECT_EQ(shared.cpu_millis, alone.cpu_millis) << id;
            EXPECT_EQ(shared.fpga_millis, alone.fpga_millis) << id;
            EXPECT_EQ(shared.sim_minutes, alone.sim_minutes) << id;
            if (cand == report.search.program.get()) {
                EXPECT_EQ(report.search.pass_ratio, alone.passRatio());
                EXPECT_EQ(report.search.fpga_ms, alone.fpga_millis);
                EXPECT_EQ(report.search.orig_cpu_ms, alone.cpu_millis);
            }
        }
        // Profiling ran every case; the campaigns ran none.
        EXPECT_EQ(ctx.trace().counterTotal("interp.runs"),
                  int64_t(suite.size()) +
                      ctx.trace().counterTotal("difftest.tests"));
    }
}

} // namespace
} // namespace heterogen::core
