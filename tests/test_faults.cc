/** @file Fault-injection layer tests: deterministic hash draws,
 * RunContext charge/counter side effects, the retry loop, per-site
 * toolchain behaviour, and the pipeline-level properties the
 * layer is contractually bound to — a probability-0 plan is
 * bit-identical to no plan, a faulty run that still reports ok()
 * produced exactly the fault-free artifact, results are invariant to
 * host thread counts, and permanent failures degrade instead of crash.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "cir/parser.h"
#include "core/heterogen.h"
#include "fuzz/testsuite.h"
#include "hls/compiler.h"
#include "hls/synth_check.h"
#include "interp/kernel_arg.h"
#include "repair/difftest.h"
#include "support/faults.h"
#include "support/run_context.h"
#include "support/worker_pool.h"

namespace heterogen {
namespace {

// --- deterministic draws -------------------------------------------------

FaultPlan
singleRule(const std::string &site, double p, uint64_t seed = 1,
           FaultKind kind = FaultKind::Transient)
{
    FaultPlan plan;
    plan.seed = seed;
    plan.rules.push_back(FaultRule{site, p, kind, -1});
    return plan;
}

TEST(FaultDraws, ProbabilityEndpointsAreExact)
{
    FaultInjector never(singleRule("hls.compile", 0.0));
    FaultInjector always(singleRule("hls.compile", 1.0));
    for (int i = 0; i < 200; ++i) {
        EXPECT_FALSE(never.draw("hls.compile").has_value());
        EXPECT_TRUE(always.draw("hls.compile").has_value());
    }
    // Sites without a rule never fire regardless of other rules.
    EXPECT_FALSE(always.draw("difftest.cosim").has_value());
}

TEST(FaultDraws, SequencesReplayExactlyPerSeed)
{
    for (uint64_t seed : {1u, 2u, 42u}) {
        FaultInjector a(singleRule("hls.compile", 0.5, seed));
        FaultInjector b(singleRule("hls.compile", 0.5, seed));
        for (int i = 0; i < 256; ++i)
            EXPECT_EQ(a.draw("hls.compile").has_value(),
                      b.draw("hls.compile").has_value());
    }
}

TEST(FaultDraws, DifferentSeedsAndSitesGiveIndependentStreams)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.rules.push_back(
        FaultRule{"hls.compile", 0.5, FaultKind::Transient, -1});
    plan.rules.push_back(
        FaultRule{"difftest.cosim", 0.5, FaultKind::Transient, -1});
    FaultInjector one(plan);
    FaultPlan other = plan;
    other.seed = 2;
    FaultInjector two(other);
    int seed_diffs = 0;
    int site_diffs = 0;
    for (int i = 0; i < 256; ++i) {
        bool a = one.draw("hls.compile").has_value();
        bool b = one.draw("difftest.cosim").has_value();
        bool c = two.draw("hls.compile").has_value();
        seed_diffs += a != c;
        site_diffs += a != b;
    }
    EXPECT_GT(seed_diffs, 0);
    EXPECT_GT(site_diffs, 0);
}

TEST(FaultDraws, FrequencyTracksProbability)
{
    FaultInjector injector(singleRule("hls.compile", 0.25, 11));
    int fired = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        fired += injector.draw("hls.compile").has_value();
    EXPECT_NEAR(double(fired) / n, 0.25, 0.03);
}

// --- RunContext side effects and the retry loop --------------------------

TEST(RunContextFaults, DrawChargesLatencyAndBumpsCounters)
{
    RunContext ctx;
    ctx.installFaults(
        singleRule("difftest.cosim", 1.0, 1, FaultKind::Timeout));
    ASSERT_TRUE(ctx.faultsEnabled());
    auto fault = ctx.drawFault("difftest.cosim");
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->kind, FaultKind::Timeout);
    EXPECT_DOUBLE_EQ(ctx.now(), defaultFaultLatency(FaultKind::Timeout));
    EXPECT_EQ(ctx.trace().root().counter("fault.injected"), 1);
    EXPECT_EQ(ctx.trace().root().counter("fault.difftest.cosim"), 1);
}

TEST(RunContextFaults, NoPlanMeansNoOpDraws)
{
    RunContext ctx;
    EXPECT_FALSE(ctx.faultsEnabled());
    EXPECT_EQ(ctx.faultPlan(), nullptr);
    EXPECT_FALSE(ctx.drawFault("hls.compile").has_value());
    EXPECT_DOUBLE_EQ(ctx.now(), 0.0);
    EXPECT_TRUE(admitFaultSite(ctx, "hls.compile"));
    EXPECT_DOUBLE_EQ(ctx.now(), 0.0);
}

TEST(RunContextFaults, RetryLoopChargesExponentialBackoffThenGivesUp)
{
    RunContext ctx;
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.backoff_minutes = 1.0;
    policy.backoff_factor = 2.0;
    ctx.installFaults(singleRule("hls.compile", 1.0), policy);

    EXPECT_FALSE(admitFaultSite(ctx, "hls.compile"));
    // 3 faults at the transient latency + backoffs of 1 and 2 minutes.
    EXPECT_DOUBLE_EQ(ctx.now(),
                     3 * defaultFaultLatency(FaultKind::Transient) +
                         1.0 + 2.0);
    EXPECT_EQ(ctx.trace().root().counter("fault.injected"), 3);
    EXPECT_EQ(ctx.trace().root().counter("fault.retries"), 2);
    EXPECT_EQ(ctx.trace().root().counter("fault.gave_up"), 1);
}

TEST(RunContextFaults, RetriesClearTransientFaults)
{
    // With p=0.5 and 6 attempts some seed must admit after >=1 retry;
    // the draws are pure hashes, so this is a fixed fact, not luck.
    bool saw_retry_success = false;
    for (uint64_t seed = 1; seed <= 20 && !saw_retry_success; ++seed) {
        RunContext ctx;
        RetryPolicy policy;
        policy.max_attempts = 6;
        policy.backoff_minutes = 0.1;
        ctx.installFaults(singleRule("hls.compile", 0.5, seed), policy);
        bool admitted = admitFaultSite(ctx, "hls.compile");
        int64_t retries = ctx.trace().root().counter("fault.retries");
        if (admitted && retries >= 1)
            saw_retry_success = true;
    }
    EXPECT_TRUE(saw_retry_success);
}

TEST(RunContextFaults, GivesUpWithoutBackoffOnceStopRequested)
{
    RunContext ctx;
    RetryPolicy policy;
    policy.max_attempts = 5;
    policy.backoff_minutes = 1.0;
    ctx.installFaults(singleRule("hls.compile", 1.0), policy);
    ctx.requestCancel();
    EXPECT_FALSE(admitFaultSite(ctx, "hls.compile"));
    // One fault latency, no backoff: retrying past a cancelled run
    // would only waste simulated minutes.
    EXPECT_DOUBLE_EQ(ctx.now(),
                     defaultFaultLatency(FaultKind::Transient));
    EXPECT_EQ(ctx.trace().root().counter("fault.retries"), 0);
    EXPECT_EQ(ctx.trace().root().counter("fault.gave_up"), 1);
}

// --- per-site toolchain behaviour ----------------------------------------

const char *kSiteKernel = "int kernel(int x) { return x + 1; }";

TEST(FaultSites, CompilerReportsToolFailureWithoutJudgingTheDesign)
{
    auto tu = cir::parse(kSiteKernel);
    RunContext ctx;
    ctx.installFaults(singleRule("hls.compile", 1.0),
                      RetryPolicy::none());
    hls::HlsToolchain tool(hls::HlsConfig::forTop("kernel"));
    hls::CompileResult r = tool.compile(ctx, *tu);
    EXPECT_TRUE(r.tool_failure);
    EXPECT_FALSE(r.ok);
    ASSERT_EQ(r.errors.size(), 1u);
    EXPECT_NE(r.errors[0].message.find("toolchain failure"),
              std::string::npos);
    // The toolchain never actually ran.
    EXPECT_EQ(ctx.trace().root().counter("hls.compiles"), 0);
}

TEST(FaultSites, DiffTestReportsToolFailureWithZeroTestsRun)
{
    auto tu = cir::parse(kSiteKernel);
    fuzz::TestSuite suite;
    suite.add({interp::KernelArg::ofInt(3)});
    RunContext ctx;
    ctx.installFaults(singleRule("difftest.cosim", 1.0),
                      RetryPolicy::none());
    repair::CpuOracle oracle(*tu, "kernel", suite);
    repair::DiffTestResult r = repair::diffTest(
        ctx, oracle, *tu, hls::HlsConfig::forTop("kernel"));
    EXPECT_TRUE(r.tool_failure);
    EXPECT_EQ(r.total, 0);
    EXPECT_EQ(ctx.trace().root().counter("difftest.campaigns"), 0);
    EXPECT_DOUBLE_EQ(r.sim_minutes, 0.0);
}

// --- pipeline-level properties -------------------------------------------

const char *kPipelineSubject =
    "int kernel(int x) { long double v = x; v = v + 1; return v; }";

core::HeteroGenOptions
pipelineOptions(uint64_t seed)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.fuzz.rng_seed = seed;
    opts.fuzz.max_executions = 120;
    opts.fuzz.min_suite_size = 8;
    opts.search.rng_seed = seed;
    opts.search.difftest_sample = 8;
    opts.search.budget_minutes = 1e9; // never the stopping reason
    return opts;
}

/** Every site armed at probability 0. */
FaultPlan
zeroPlanAllSites(uint64_t seed)
{
    return FaultPlan{seed,
                     {{"hls.compile", 0},
                      {"difftest.cosim", 0, FaultKind::Timeout}}};
}

TEST(FaultProperty, ZeroProbabilityPlanIsBitIdenticalToNoPlan)
{
    core::HeteroGen engine(kPipelineSubject);
    for (uint64_t seed = 1; seed <= 50; ++seed) {
        auto base_opts = pipelineOptions(seed);
        auto report = engine.run(base_opts);

        auto faulty_opts = base_opts;
        faulty_opts.faults = zeroPlanAllSites(seed);
        auto zero = engine.run(faulty_opts);

        SCOPED_TRACE("seed " + std::to_string(seed));
        // Bit-identical: every report field and the whole trace tree.
        EXPECT_EQ(report.trace_json, zero.trace_json);
        EXPECT_EQ(report.hls_source, zero.hls_source);
        EXPECT_EQ(report.total_minutes, zero.total_minutes);
        EXPECT_EQ(report.search.sim_minutes, zero.search.sim_minutes);
        EXPECT_EQ(report.search.pass_ratio, zero.search.pass_ratio);
        EXPECT_EQ(report.testgen.executions, zero.testgen.executions);
        EXPECT_EQ(report.ok(), zero.ok());
        EXPECT_TRUE(zero.search.degradations.empty());
        EXPECT_EQ(report.search.iterations, zero.search.iterations);
    }
}

TEST(FaultProperty, OkFaultyRunsReproduceTheFaultFreeArtifact)
{
    core::HeteroGen engine(kPipelineSubject);
    auto clean = engine.run(pipelineOptions(3));
    ASSERT_TRUE(clean.ok());

    int ok_runs = 0;
    int faulted_runs = 0;
    for (uint64_t plan_seed = 1; plan_seed <= 50; ++plan_seed) {
        auto opts = pipelineOptions(3);
        opts.faults = FaultPlan{plan_seed,
                                {{"hls.compile", 0.3},
                                 {"difftest.cosim", 0.2}}};
        opts.retry.max_attempts = 8;
        opts.retry.backoff_minutes = 0.25;
        RunContext ctx;
        auto faulty = engine.run(ctx, opts);

        SCOPED_TRACE("plan seed " + std::to_string(plan_seed));
        int64_t injected =
            ctx.trace().root().counterTotal("fault.injected");
        int64_t gave_up =
            ctx.trace().root().counterTotal("fault.gave_up");
        faulted_runs += injected > 0;
        if (faulty.ok()) {
            ok_runs += 1;
            // Retries absorbed every fault: identical artifact, same
            // search decisions, strictly more simulated time whenever
            // a fault actually fired.
            EXPECT_EQ(faulty.hls_source, clean.hls_source);
            EXPECT_EQ(faulty.search.iterations,
                      clean.search.iterations);
            EXPECT_EQ(faulty.search.pass_ratio,
                      clean.search.pass_ratio);
            EXPECT_EQ(gave_up, 0);
            if (injected > 0) {
                EXPECT_GT(faulty.total_minutes, clean.total_minutes);
            }
        } else {
            // The only way a retried run fails is giving a site up.
            EXPECT_GT(gave_up, 0);
            EXPECT_FALSE(faulty.search.degradations.empty());
        }
    }
    // The plan fires in most runs at these rates (the subject makes
    // only a handful of toolchain calls per run); retries must clear
    // nearly every one. Both counts are deterministic in the plan
    // seeds — these are floors, not flaky statistics.
    EXPECT_GT(faulted_runs, 25);
    EXPECT_GE(ok_runs, 45);
}

TEST(FaultProperty, FaultyReportsAreInvariantAcrossEvalThreads)
{
    core::HeteroGen engine(kPipelineSubject);
    core::HeteroGenReport reports[2];
    int thread_counts[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
        WorkerPool pool(thread_counts[i]);
        auto opts = pipelineOptions(5);
        opts.eval_pool = &pool;
        opts.faults =
            FaultPlan{7,
                      {{"hls.compile", 0.3},
                       {"difftest.cosim", 0.2, FaultKind::Timeout}}};
        opts.retry.max_attempts = 4;
        reports[i] = engine.run(opts);
    }
    EXPECT_EQ(reports[0].trace_json, reports[1].trace_json);
    EXPECT_EQ(reports[0].hls_source, reports[1].hls_source);
    EXPECT_EQ(reports[0].total_minutes, reports[1].total_minutes);
    EXPECT_EQ(reports[0].search.sim_minutes,
              reports[1].search.sim_minutes);
    EXPECT_EQ(reports[0].search.degradations, reports[1].search.degradations);
}

TEST(FaultDegrade, PermanentCosimFailureDowngradesToStyleCheckFitness)
{
    core::HeteroGen engine(kPipelineSubject);
    auto opts = pipelineOptions(3);
    opts.faults = singleRule("difftest.cosim", 1, 1, FaultKind::Timeout);
    opts.retry.max_attempts = 2;
    RunContext ctx;
    auto report = engine.run(ctx, opts);

    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.degraded());
    EXPECT_TRUE(report.search.cosim_degraded);
    // Style-check + compile fitness still vouches for compatibility,
    // but nobody may claim behaviour preservation.
    EXPECT_TRUE(report.search.hls_compatible);
    EXPECT_FALSE(report.search.behavior_preserved);
    ASSERT_EQ(report.search.degradations.size(), 1u);
    EXPECT_NE(report.search.degradations[0].find("difftest.cosim"),
              std::string::npos);
    EXPECT_FALSE(report.hls_source.empty());
    EXPECT_GT(ctx.trace().root().counterTotal("fault.gave_up"), 0);
    // The degraded candidate still passed the real synthesis check.
    auto errors = hls::checkSynthesizability(
        *report.search.program, report.search.config);
    EXPECT_TRUE(errors.empty());
}

TEST(FaultDegrade, PermanentCompileFailureAbortsWithBestSoFar)
{
    core::HeteroGen engine(kPipelineSubject);
    auto opts = pipelineOptions(3);
    opts.faults = singleRule("hls.compile", 1, 1, FaultKind::Crash);
    opts.retry.max_attempts = 2;
    auto report = engine.run(opts);

    EXPECT_FALSE(report.ok());
    ASSERT_FALSE(report.search.degradations.empty());
    EXPECT_NE(report.search.degradations[0].find("hls.compile"),
              std::string::npos);
    EXPECT_FALSE(report.search.hls_compatible);
    // Graceful: a printable program still comes back.
    EXPECT_FALSE(report.hls_source.empty());
}

TEST(FaultDegrade, SearchToolFailureCountsMatchTraceCounters)
{
    core::HeteroGen engine(kPipelineSubject);
    auto opts = pipelineOptions(3);
    opts.faults = singleRule("difftest.cosim", 1);
    opts.retry.max_attempts = 2;
    RunContext ctx;
    auto report = engine.run(ctx, opts);
    EXPECT_EQ(report.search.degradations.size(), 1u);
    EXPECT_EQ(ctx.trace().root().counterTotal("search.tool_failures"),
              1);
    EXPECT_EQ(
        ctx.trace().root().counterTotal("search.degraded_candidates"),
        1);
}

// --- the environment arms nothing ----------------------------------------

TEST(EnvSurface, FaultVariablesDoNotArmARun)
{
    // A run's fault plan is HeteroGenOptions::faults and nothing else:
    // the retired HETEROGEN_FAULTS / HETEROGEN_FAULT_SEED variables
    // leave a run exactly as it is without them.
    core::HeteroGen engine(kPipelineSubject);
    auto opts = pipelineOptions(3);
    ::unsetenv("HETEROGEN_FAULTS");
    ::unsetenv("HETEROGEN_FAULT_SEED");
    auto plain = engine.run(opts);
    ::setenv("HETEROGEN_FAULTS", "hls.compile:1:crash", 1);
    ::setenv("HETEROGEN_FAULT_SEED", "3", 1);
    auto with_env = engine.run(opts);
    ::unsetenv("HETEROGEN_FAULTS");
    ::unsetenv("HETEROGEN_FAULT_SEED");

    EXPECT_EQ(with_env.trace_json, plain.trace_json);
    EXPECT_EQ(with_env.hls_source, plain.hls_source);
    EXPECT_EQ(with_env.total_minutes, plain.total_minutes);
    EXPECT_TRUE(with_env.search.degradations.empty());
    EXPECT_EQ(with_env.ok(), plain.ok());
}

} // namespace
} // namespace heterogen
