/** @file Golden-trace regression tests for the repair search.
 *
 * Two fixed subjects run the full pipeline under fully pinned options
 * (every stochastic knob is an explicit constant here — never a library
 * default) and must reproduce the checked-in action sequence, pass
 * ratio and simulated minutes exactly. A failure means search behaviour
 * changed: if the change is intended, update the goldens from the
 * failure message; if not, a refactor silently altered the search.
 */

#include <gtest/gtest.h>

#include "core/heterogen.h"
#include "subjects/subjects.h"
#include "support/strings.h"

namespace heterogen::repair {
namespace {

/** Every knob pinned so defaults may evolve without moving the trace. */
core::HeteroGenOptions
goldenOptions()
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.narrow_bitwidths = true;
    opts.fuzz.rng_seed = 1;
    opts.fuzz.max_executions = 300;
    opts.fuzz.mutations_per_input = 8;
    opts.fuzz.min_suite_size = 12;
    opts.fuzz.max_steps_per_run = 200000;
    opts.fuzz.plateau_minutes = 30.0;
    opts.fuzz.budget_minutes = 240.0;
    opts.search.rng_seed = 7;
    opts.search.difftest_sample = 10;
    opts.search.budget_minutes = 400.0;
    opts.search.max_iterations = 2000;
    opts.search.use_style_checker = true;
    opts.search.use_dependence = true;
    opts.search.proposer = "template";
    return opts;
}

void
expectGoldenWith(const core::HeteroGenOptions &opts,
                 const std::string &src,
                 const std::string &golden_trace,
                 double golden_pass_ratio, double golden_sim_minutes)
{
    core::HeteroGen engine(src);
    auto report = engine.run(opts);
    std::vector<std::string> actions;
    for (const auto &step : report.search.trace)
        actions.push_back(step.action);
    EXPECT_EQ(join(actions, "\n"), trim(golden_trace))
        << "=== actual pass_ratio: " << report.search.pass_ratio
        << " sim_minutes: " << report.search.sim_minutes;
    EXPECT_DOUBLE_EQ(report.search.pass_ratio, golden_pass_ratio);
    EXPECT_NEAR(report.search.sim_minutes, golden_sim_minutes, 1e-6)
        << "=== actual sim_minutes differs";
}

void
expectGolden(const std::string &src, const std::string &golden_trace,
             double golden_pass_ratio, double golden_sim_minutes)
{
    expectGoldenWith(goldenOptions(), src, golden_trace,
                     golden_pass_ratio, golden_sim_minutes);
}

/** Subject 1: the long-double type-repair chain (Figure 7c). */
const char *kTypeChainSubject =
    "int kernel(int x) { long double v = x; v = v + 1; return v; }";

TEST(SearchGolden, TypeChainSubjectReplaysExactly)
{
    expectGolden(kTypeChainSubject,
                 R"(
style-reject: long double variable 'v'
noop:insert($a1:arr,$d1:dyn)
style-reject: long double variable 'v'
noop:insert($a1:arr,$d1:dyn)
style-reject: long double variable 'v'
noop:insert($a1:arr,$d1:dyn)
style-reject: long double variable 'v'
noop:array_static($a1:arr,$i1:int)
style-reject: long double variable 'v'
noop:array_static($a1:arr,$i1:int)
style-reject: long double variable 'v'
noop:array_static($a1:arr,$i1:int)
style-reject: long double variable 'v'
edit:type_trans($v1:var)
compile:errors
edit:type_casting($v1:var)
compile:ok
difftest:10/10
noop:explore_partition($p1:pragma,$a1:arr)
noop:segment($a1:arr)
noop:pipeline($l1:loop)
)",
                 /*pass_ratio=*/1.0,
                 /*sim_minutes=*/4.150046);
}

/** Subject 2: dataflow shared-array divergence forcing a backtrack. */
const char *kBacktrackSubject = R"(
    void bump(int data[16]) {
        for (int i = 0; i < 16; i++) { data[i] = data[i] + 1; }
    }
    int kernel(int seedv) {
        #pragma HLS dataflow
        int data[16];
        for (int i = 0; i < 16; i++) { data[i] = seedv + i; }
        bump(data);
        bump(data);
        int acc = 0;
        for (int i = 0; i < 16; i++) { acc += data[i]; }
        return acc;
    }
)";

TEST(SearchGolden, BacktrackSubjectReplaysExactly)
{
    expectGolden(kBacktrackSubject,
                 R"(
compile:errors
noop:explore_partition($p1:pragma,$a1:arr)
compile:memo-errors
noop:explore_partition($p1:pragma,$a1:arr)
compile:memo-errors
noop:explore_partition($p1:pragma,$a1:arr)
compile:memo-errors
edit:segment($a1:arr)
compile:ok
difftest:0/10
revert:segment($a1:arr)
compile:memo-errors
edit:delete($p1:pragma,$f1:func)
compile:ok
difftest:10/10
edit:pipeline($l1:loop)
edit:unroll($l1:loop)
edit:partition($a1:arr)
edit:dataflow($f1:func)
compile:errors
noop:move($p1:pragma,$f1:func)
compile:memo-errors
noop:move($p1:pragma,$f1:func)
compile:memo-errors
noop:move($p1:pragma,$f1:func)
compile:memo-errors
revert:dataflow($f1:func)
compile:ok
difftest:10/10
)",
                 /*pass_ratio=*/1.0,
                 /*sim_minutes=*/17.311806);
}

/**
 * Subject 3: the streaming stencil (S3) — a skew-joined DATAFLOW region
 * whose fifo is too shallow, so the hang detector fires until the
 * stream-depth template widens it. Pins the stream-repair path end to
 * end: streamify retires as a noop, stream_depth lands the fix, and the
 * performance phase runs on the repaired streaming program.
 */
TEST(SearchGolden, StreamingStencilReplaysExactly)
{
    const subjects::Subject &s = subjects::subjectById("S3");
    core::HeteroGenOptions opts = goldenOptions();
    opts.kernel = s.kernel;
    opts.narrow_bitwidths = false;
    opts.fuzz.host_function = s.host;
    opts.fuzz.rng_seed = s.fuzz_seed;
    opts.fuzz.max_executions = 60;
    opts.fuzz.mutations_per_input = 6;
    opts.fuzz.min_suite_size = 8;
    opts.fuzz.max_steps_per_run = 400000;
    opts.fuzz.plateau_minutes = 30.0;
    opts.fuzz.budget_minutes = 120.0;
    opts.search.difftest_sample = 8;
    expectGoldenWith(opts, s.source,
                     R"(
compile:errors
noop:streamify($a1:arr)
compile:memo-errors
noop:streamify($a1:arr)
compile:memo-errors
noop:streamify($a1:arr)
compile:memo-errors
edit:stream_depth($c1:chan)
compile:ok
difftest:8/8
noop:explore_partition($p1:pragma,$a1:arr)
noop:segment($a1:arr)
edit:pipeline($l1:loop)
edit:unroll($l1:loop)
edit:partition($a1:arr)
noop:dataflow($f1:func)
compile:ok
difftest:8/8
noop:explore_partition($p1:pragma,$a1:arr)
noop:segment($a1:arr)
noop:dataflow($f1:func)
)",
                     /*pass_ratio=*/1.0,
                     /*sim_minutes=*/14.6409616);
}

/**
 * Faulty-run golden: the type-chain subject under a pinned fault plan
 * and retry policy. Retries absorb every injected fault, so the action
 * sequence must stay byte-identical to the fault-free golden above
 * while the simulated minutes grow by the exact fault-latency and
 * backoff charges — pinning both means the retry/backoff charge
 * ordering (and the hash-draw streams behind it) cannot drift
 * unnoticed.
 */
TEST(SearchGolden, FaultyTypeChainReplaysExactly)
{
    core::HeteroGenOptions opts = goldenOptions();
    opts.faults = FaultPlan{1,
                            {{"hls.compile", 0.2},
                             {"difftest.cosim", 0.1, FaultKind::Timeout}}};
    opts.retry.max_attempts = 3;
    opts.retry.backoff_minutes = 1.0;
    opts.retry.backoff_factor = 2.0;

    core::HeteroGen engine(kTypeChainSubject);
    RunContext ctx;
    auto report = engine.run(ctx, opts);

    std::vector<std::string> actions;
    for (const auto &step : report.search.trace)
        actions.push_back(step.action);
    EXPECT_EQ(join(actions, "\n"), trim(R"(
style-reject: long double variable 'v'
noop:insert($a1:arr,$d1:dyn)
style-reject: long double variable 'v'
noop:insert($a1:arr,$d1:dyn)
style-reject: long double variable 'v'
noop:insert($a1:arr,$d1:dyn)
style-reject: long double variable 'v'
noop:array_static($a1:arr,$i1:int)
style-reject: long double variable 'v'
noop:array_static($a1:arr,$i1:int)
style-reject: long double variable 'v'
noop:array_static($a1:arr,$i1:int)
style-reject: long double variable 'v'
edit:type_trans($v1:var)
compile:errors
edit:type_casting($v1:var)
compile:ok
difftest:10/10
noop:explore_partition($p1:pragma,$a1:arr)
noop:segment($a1:arr)
noop:pipeline($l1:loop)
)"));
    EXPECT_TRUE(report.ok());
    EXPECT_DOUBLE_EQ(report.search.pass_ratio, 1.0);

    // Plan seed 1 injects three transient faults (all inside the
    // search span), each cleared by a retry: 3 x 0.5 fault minutes
    // plus 1 + 2 + 1 backoff minutes on top of the fault-free golden
    // (search 4.150046, pipeline 6.5500625).
    const TraceSpan &root = ctx.trace().root();
    EXPECT_EQ(root.counterTotal("fault.injected"), 3)
        << "=== actual injected";
    EXPECT_EQ(root.counterTotal("fault.retries"), 3);
    EXPECT_EQ(root.counterTotal("fault.gave_up"), 0);
    EXPECT_NEAR(report.search.sim_minutes, 9.650046, 1e-6)
        << "=== actual sim_minutes: " << report.search.sim_minutes;
    EXPECT_NEAR(report.total_minutes, 12.0500625, 1e-6)
        << "=== actual total_minutes: " << report.total_minutes;
}

} // namespace
} // namespace heterogen::repair
