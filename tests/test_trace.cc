/** @file RunContext spine tests: span tree semantics, JSON round-trip,
 * budget/cancellation behaviour, option validation, the pluggable log
 * sink, and — the contract the refactor rests on — counters that agree
 * exactly with the per-stage result statistics and span minutes that
 * sum to the report's total.
 */

#include <gtest/gtest.h>

#include <limits>

#include "cir/parser.h"
#include "cir/sema.h"
#include "core/heterogen.h"
#include "fuzz/fuzzer.h"
#include "support/diagnostics.h"
#include "support/run_context.h"
#include "support/trace.h"

namespace heterogen {
namespace {

// --- Trace / TraceSpan ---------------------------------------------------

TEST(Trace, ChargesPropagateToEveryOpenSpan)
{
    Trace t;
    t.charge(1.0);
    TraceSpan &a = t.beginSpan("a");
    t.charge(2.0);
    TraceSpan &b = t.beginSpan("b");
    t.charge(4.0);
    t.endSpan();
    t.charge(8.0);
    t.endSpan();
    t.charge(16.0);

    EXPECT_DOUBLE_EQ(b.minutes, 4.0);
    EXPECT_DOUBLE_EQ(a.minutes, 2.0 + 4.0 + 8.0);
    EXPECT_DOUBLE_EQ(t.root().minutes, 31.0);
    EXPECT_DOUBLE_EQ(t.now(), 31.0);
    // start_minutes records the root clock at open time.
    EXPECT_DOUBLE_EQ(a.start_minutes, 1.0);
    EXPECT_DOUBLE_EQ(b.start_minutes, 3.0);
}

TEST(Trace, SpanMinutesAreLocalAccumulators)
{
    // Each span sums only its own charges, starting from zero — the
    // property that keeps stage minutes bit-identical to the old
    // per-module accumulators regardless of what ran before.
    Trace t;
    t.charge(0.1); // pollutes only the root
    t.beginSpan("stage");
    double expected = 0;
    for (int i = 0; i < 100; ++i) {
        double c = 0.008 + double(i) / 2.0e8;
        t.charge(c);
        expected += c;
    }
    EXPECT_EQ(t.current().minutes, expected); // exact, not NEAR
    t.endSpan();
}

TEST(Trace, CountersAttachToCurrentSpan)
{
    Trace t;
    t.count("root.events");
    t.beginSpan("child");
    t.count("evals", 3);
    t.count("evals", 2);
    const TraceSpan &child = t.current();
    t.endSpan();

    EXPECT_EQ(child.counter("evals"), 5);
    EXPECT_EQ(child.counter("absent"), 0);
    EXPECT_EQ(t.root().counter("root.events"), 1);
    EXPECT_EQ(t.root().counter("evals"), 0);
    EXPECT_EQ(t.root().counterTotal("evals"), 5);
    EXPECT_EQ(t.counterTotal("evals"), 5);
}

TEST(Trace, ChildAndFindHelpers)
{
    Trace t;
    t.beginSpan("pipeline");
    t.beginSpan("fuzz");
    t.endSpan();
    t.beginSpan("repair");
    t.endSpan();
    t.endSpan();

    const TraceSpan &root = t.root();
    ASSERT_NE(root.child("pipeline"), nullptr);
    EXPECT_EQ(root.child("fuzz"), nullptr); // not a *direct* child
    ASSERT_NE(root.find("fuzz"), nullptr);
    ASSERT_NE(root.find("repair"), nullptr);
    EXPECT_EQ(root.find("nope"), nullptr);
    EXPECT_EQ(root.child("pipeline")->children.size(), 2u);
    EXPECT_EQ(root.find("fuzz")->parent, root.child("pipeline"));
}

TEST(Trace, ChildMinutesSumsDirectChildren)
{
    Trace t;
    t.beginSpan("a");
    t.charge(1.5);
    t.endSpan();
    t.beginSpan("b");
    t.charge(2.25);
    t.endSpan();
    EXPECT_DOUBLE_EQ(t.root().childMinutes(), 3.75);
}

// --- JSON round-trip -----------------------------------------------------

TEST(TraceJson, RoundTripsExactly)
{
    Trace t;
    t.charge(1.0 / 3.0); // not representable in short decimal
    t.count("outer", 42);
    t.beginSpan("stage one");
    t.charge(0.1 + 0.2); // classic float-noise value
    t.count("hls.errors.dynamic_data_structures", 7);
    t.beginSpan("inner");
    t.charge(1e-9);
    t.endSpan();
    t.endSpan();

    std::string json = t.json();
    auto parsed = parseTraceJson(json);
    ASSERT_NE(parsed, nullptr);
    // %.17g printing makes the round-trip bit-exact.
    EXPECT_EQ(parsed->json(), json);
    EXPECT_EQ(parsed->name, "run");
    EXPECT_EQ(parsed->minutes, t.root().minutes);
    EXPECT_EQ(parsed->counter("outer"), 42);
    ASSERT_NE(parsed->find("inner"), nullptr);
    EXPECT_EQ(parsed->find("inner")->minutes, 1e-9);
    EXPECT_EQ(parsed->find("stage one")
                  ->counter("hls.errors.dynamic_data_structures"),
              7);
    // Parent links are rebuilt by the parser.
    EXPECT_EQ(parsed->find("inner")->parent, parsed->find("stage one"));
}

TEST(TraceJson, EscapesSpecialCharactersInNames)
{
    Trace t;
    t.beginSpan("quote\" slash\\ tab\t");
    t.endSpan();
    std::string json = t.json();
    auto parsed = parseTraceJson(json);
    ASSERT_EQ(parsed->children.size(), 1u);
    EXPECT_EQ(parsed->children[0]->name, "quote\" slash\\ tab\t");
    EXPECT_EQ(parsed->json(), json);
}

TEST(TraceJson, RejectsMalformedInput)
{
    EXPECT_THROW(parseTraceJson(""), FatalError);
    EXPECT_THROW(parseTraceJson("{"), FatalError);
    EXPECT_THROW(parseTraceJson("[]"), FatalError);
    EXPECT_THROW(parseTraceJson("{\"name\":}"), FatalError);
    EXPECT_THROW(parseTraceJson("{\"name\":\"x\"} trailing"),
                 FatalError);
    EXPECT_THROW(parseTraceJson("{\"name\":\"x\",\"counters\":3}"),
                 FatalError);
}

// --- Budget --------------------------------------------------------------

TEST(Budget, UnlimitedIsNeverExceeded)
{
    Budget b = Budget::unlimited();
    EXPECT_TRUE(b.isUnlimited());
    EXPECT_FALSE(b.exceededBy(0));
    EXPECT_FALSE(b.exceededBy(1e12));
}

TEST(Budget, ExceededAtExactlyTheLimit)
{
    // `elapsed >= limit` mirrors the historical `while (sim < budget)`
    // loop conditions: the iteration that lands exactly on the budget
    // is the last one.
    Budget b = Budget::minutes(5.0);
    EXPECT_FALSE(b.isUnlimited());
    EXPECT_FALSE(b.exceededBy(4.999999));
    EXPECT_TRUE(b.exceededBy(5.0));
    EXPECT_TRUE(b.exceededBy(6.0));
}

// --- RunContext ----------------------------------------------------------

TEST(RunContext, ClockAndStageMinutes)
{
    RunContext ctx;
    ctx.charge(1.0);
    EXPECT_DOUBLE_EQ(ctx.now(), 1.0);
    {
        SpanScope outer(ctx, "outer");
        ctx.charge(2.0);
        {
            SpanScope inner(ctx, "inner");
            ctx.charge(4.0);
            EXPECT_DOUBLE_EQ(ctx.stageMinutes(), 4.0);
            EXPECT_DOUBLE_EQ(inner.minutes(), 4.0);
        }
        EXPECT_DOUBLE_EQ(ctx.stageMinutes(), 6.0);
        EXPECT_DOUBLE_EQ(outer.minutes(), 6.0);
    }
    EXPECT_DOUBLE_EQ(ctx.now(), 7.0);
    EXPECT_DOUBLE_EQ(ctx.stageMinutes(), 7.0); // root is current again
}

TEST(RunContext, DeadlineChecksEveryOpenBudget)
{
    RunContext ctx;
    SpanScope outer(ctx, "outer", Budget::minutes(3.0));
    {
        // The inner span's own budget is generous, but the enclosing
        // one is not: the hierarchical check must trip.
        SpanScope inner(ctx, "inner", Budget::minutes(100.0));
        EXPECT_FALSE(ctx.deadlineExceeded());
        ctx.charge(2.0);
        EXPECT_FALSE(ctx.deadlineExceeded());
        ctx.charge(1.0);
        EXPECT_TRUE(ctx.deadlineExceeded());
        EXPECT_TRUE(ctx.shouldStop());
    }
}

TEST(RunContext, InnerBudgetDoesNotOutliveItsSpan)
{
    RunContext ctx;
    {
        SpanScope tight(ctx, "tight", Budget::minutes(0.5));
        ctx.charge(1.0);
        EXPECT_TRUE(ctx.deadlineExceeded());
    }
    // The exhausted budget left with its span.
    EXPECT_FALSE(ctx.deadlineExceeded());
}

TEST(RunContext, CancellationFlagIsSticky)
{
    RunContext ctx;
    EXPECT_FALSE(ctx.shouldStop());
    ctx.requestCancel();
    EXPECT_TRUE(ctx.cancelled());
    EXPECT_TRUE(ctx.shouldStop());
}

// --- stage behaviour under the spine ------------------------------------

const char *kKernel = R"(
    int kernel(int a[8], int n) {
        int acc = 0;
        for (int i = 0; i < 8; i++) {
            if (a[i] > 64) { acc += a[i] * 2; }
            else if (a[i] < -10) { acc -= a[i]; }
            else { acc += i; }
        }
        int j = 0;
        while (j < n % 7) { acc += j * j; j++; }
        return acc;
    }
)";

fuzz::FuzzOptions
smallFuzzOptions(uint64_t seed)
{
    fuzz::FuzzOptions options;
    options.rng_seed = seed;
    options.max_executions = 150;
    options.mutations_per_input = 8;
    options.min_suite_size = 16;
    options.max_steps_per_run = 100000;
    return options;
}

TEST(SpineFuzz, CountersMatchFuzzResultExactly)
{
    auto tu = cir::parse(kKernel);
    cir::analyzeOrDie(*tu);
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        RunContext ctx;
        fuzz::FuzzResult r =
            fuzz::fuzzKernel(ctx, *tu, "kernel", smallFuzzOptions(seed));
        const TraceSpan *span = ctx.trace().root().find("fuzz");
        ASSERT_NE(span, nullptr) << "seed " << seed;
        EXPECT_EQ(span->counter("fuzz.executions"), r.executions);
        EXPECT_EQ(span->counter("fuzz.coverage_edges"),
                  r.coverage.hitCount());
        EXPECT_EQ(span->counter("fuzz.suite_size"),
                  int64_t(r.suite.size()));
        // The span's minutes ARE the result's simulated minutes.
        EXPECT_EQ(span->minutes, r.sim_minutes);
        EXPECT_GT(span->counter("interp.runs"), 0);
        EXPECT_GT(span->counter("interp.steps"), 0);
    }
}

TEST(SpineFuzz, CampaignRunsNoVariantTheCapDiscards)
{
    // One branch, a 50-execution cap and 2000 variants per input: the
    // campaign ends inside its first batch, and every interpreter run
    // it makes is a counted execution.
    auto tu = cir::parse(R"(
        int kernel(int x) {
            if (x > 3) { return 1; }
            return 0;
        }
    )");
    cir::analyzeOrDie(*tu);
    fuzz::FuzzOptions options;
    options.max_executions = 50;
    options.mutations_per_input = 2000;
    RunContext ctx;
    fuzz::FuzzResult r = fuzz::fuzzKernel(ctx, *tu, "kernel", options);
    const TraceSpan *span = ctx.trace().root().find("fuzz");
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(r.executions, 50);
    EXPECT_EQ(span->counter("fuzz.executions"), 50);
    EXPECT_EQ(span->counter("interp.runs"), span->counter("fuzz.executions"));
}

TEST(SpineFuzz, EveryExecutionLandsOnInterpRuns)
{
    auto tu = cir::parse(kKernel);
    cir::analyzeOrDie(*tu);

    // The seed plus ten whole batches of eight: no speculative batch
    // tail is discarded, so every execution is exactly one run. Every
    // run lands on interp.runs, and the campaign-shared interpreter
    // compiled exactly once.
    RunContext ctx;
    fuzz::FuzzOptions options = smallFuzzOptions(3);
    options.max_executions = 1 + 10 * options.mutations_per_input;
    fuzz::FuzzResult result =
        fuzz::fuzzKernel(ctx, *tu, "kernel", options);
    ASSERT_EQ(result.executions, options.max_executions);
    const TraceSpan *span = ctx.trace().root().find("fuzz");
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->counter("interp.runs"), result.executions);
    EXPECT_GT(span->counter("interp.steps"), 0);
    EXPECT_EQ(span->counter("interp.bytecode.compiles"), 1);
}

TEST(SpineFuzz, CancellationStopsTheCampaignAfterTheSeed)
{
    auto tu = cir::parse(kKernel);
    cir::analyzeOrDie(*tu);
    RunContext ctx;
    ctx.requestCancel();
    fuzz::FuzzResult r =
        fuzz::fuzzKernel(ctx, *tu, "kernel", smallFuzzOptions(1));
    // The seed input always executes; cancellation stops the loop.
    EXPECT_EQ(r.executions, 1);
    EXPECT_EQ(ctx.trace().root().find("fuzz")->counter(
                  "fuzz.executions"),
              1);
}

// --- whole-pipeline accounting ------------------------------------------

core::HeteroGenOptions
pipelineOptions()
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.fuzz.max_executions = 100;
    opts.fuzz.rng_seed = 5;
    return opts;
}

TEST(SpinePipeline, SpanMinutesSumToTotalAndCountersMatchReport)
{
    core::HeteroGen engine(
        "int kernel(int x) { long double v = x; return v; }");
    RunContext ctx;
    auto report = engine.run(ctx, pipelineOptions());
    ASSERT_TRUE(report.ok());

    const TraceSpan &root = ctx.trace().root();
    const TraceSpan *pipeline = root.child("pipeline");
    ASSERT_NE(pipeline, nullptr);
    const TraceSpan *fz = pipeline->child("fuzz");
    const TraceSpan *repair = pipeline->child("repair");
    ASSERT_NE(fz, nullptr);
    ASSERT_NE(repair, nullptr);
    ASSERT_NE(pipeline->child("profile"), nullptr);
    ASSERT_NE(pipeline->child("init_hls"), nullptr);

    // Per-stage spans account for the whole run.
    EXPECT_EQ(report.total_minutes, pipeline->minutes);
    EXPECT_NEAR(pipeline->childMinutes(), report.total_minutes, 1e-9);
    EXPECT_EQ(fz->minutes, report.testgen.sim_minutes);
    EXPECT_EQ(repair->minutes, report.search.sim_minutes);

    // Counters agree exactly with the stage statistics.
    EXPECT_EQ(fz->counter("fuzz.executions"), report.testgen.executions);
    EXPECT_EQ(fz->counter("fuzz.coverage_edges"),
              report.testgen.coverage.hitCount());
    EXPECT_EQ(repair->counter("search.candidates"),
              report.search.iterations);
    EXPECT_EQ(repair->counter("search.style_checks"),
              report.search.style_checks);
    EXPECT_EQ(repair->counter("search.style_rejections"),
              report.search.style_rejections);
    EXPECT_EQ(repair->counterTotal("hls.compiles"),
              report.search.full_hls_invocations);
}

TEST(SpinePipeline, ReportTraceJsonRoundTripsAndMatchesContext)
{
    core::HeteroGen engine(
        "int kernel(int x) { long double v = x; return v; }");
    RunContext ctx;
    auto report = engine.run(ctx, pipelineOptions());
    ASSERT_FALSE(report.trace_json.empty());
    EXPECT_EQ(report.trace_json, ctx.traceJson());
    auto parsed = parseTraceJson(report.trace_json);
    EXPECT_EQ(parsed->json(), report.trace_json);
    const TraceSpan *pipeline = parsed->child("pipeline");
    ASSERT_NE(pipeline, nullptr);
    EXPECT_EQ(pipeline->minutes, report.total_minutes);
}

TEST(SpinePipeline, TraceIsDeterministicAcrossRepeatedRuns)
{
    core::HeteroGen engine(
        "int kernel(int x) { long double v = x; return v; }");
    auto a = engine.run(pipelineOptions());
    auto b = engine.run(pipelineOptions());
    EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(SpinePipeline, PipelineBudgetCapsEveryStage)
{
    core::HeteroGen engine(
        "int kernel(int x) { long double v = x; return v; }");
    auto unconstrained = engine.run(pipelineOptions());

    auto opts = pipelineOptions();
    // Smaller than one fuzz execution charge: the hierarchical budget
    // must stop fuzzing after the seed and leave the search nothing.
    opts.pipeline_budget_minutes = 1e-6;
    auto capped = engine.run(opts);
    EXPECT_EQ(capped.testgen.executions, 1);
    EXPECT_LT(capped.total_minutes, unconstrained.total_minutes);
    EXPECT_EQ(capped.search.iterations, 0);
}

TEST(SpinePipeline, CancelledContextProducesAnEmptyRun)
{
    core::HeteroGen engine(
        "int kernel(int x) { long double v = x; return v; }");
    RunContext ctx;
    ctx.requestCancel();
    auto report = engine.run(ctx, pipelineOptions());
    EXPECT_EQ(report.testgen.executions, 1); // the seed input only
    EXPECT_EQ(report.search.iterations, 0);
}

// --- option validation ---------------------------------------------------

TEST(ValidateOptions, RejectsEmptyKernel)
{
    core::HeteroGenOptions opts;
    EXPECT_THROW(core::validateOptions(opts), FatalError);
}

TEST(ValidateOptions, RejectsNegativePipelineBudget)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.pipeline_budget_minutes = -1;
    EXPECT_THROW(core::validateOptions(opts), FatalError);
}

TEST(ValidateOptions, RejectsNegativeFuzzBudget)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.fuzz.budget_minutes = -0.5;
    EXPECT_THROW(core::validateOptions(opts), FatalError);
}

TEST(ValidateOptions, RejectsNegativePlateau)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.fuzz.plateau_minutes = -1;
    EXPECT_THROW(core::validateOptions(opts), FatalError);
}

TEST(ValidateOptions, RejectsNegativeSearchBudget)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.search.budget_minutes = -180;
    EXPECT_THROW(core::validateOptions(opts), FatalError);
}

TEST(ValidateOptions, RejectsNonPositiveMutationsPerInput)
{
    // Zero mutations would cycle the fuzz queue forever without
    // charging an execution; a negative count cannot size a batch.
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.fuzz.mutations_per_input = 0;
    EXPECT_THROW(core::validateOptions(opts), FatalError);
    opts.fuzz.mutations_per_input = -1;
    EXPECT_THROW(core::validateOptions(opts), FatalError);
    opts.fuzz.mutations_per_input = 1;
    EXPECT_NO_THROW(core::validateOptions(opts));
}

TEST(ValidateOptions, RejectsMutationsPerInputAboveTheCeiling)
{
    // A batch materializes every variant before the execution cap
    // applies, so an unbounded count sizes host memory.
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.fuzz.mutations_per_input = fuzz::kMaxMutationsPerInput + 1;
    EXPECT_THROW(core::validateOptions(opts), FatalError);
    opts.fuzz.mutations_per_input = std::numeric_limits<int>::max();
    EXPECT_THROW(core::validateOptions(opts), FatalError);
    opts.fuzz.mutations_per_input = fuzz::kMaxMutationsPerInput;
    EXPECT_NO_THROW(core::validateOptions(opts));
}

TEST(ValidateOptions, RejectsZeroMaxAttempts)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.retry.max_attempts = 0; // could never attempt anything
    EXPECT_THROW(core::validateOptions(opts), FatalError);
}

TEST(ValidateOptions, RejectsNegativeMaxAttempts)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.retry.max_attempts = -3;
    EXPECT_THROW(core::validateOptions(opts), FatalError);
}

TEST(ValidateOptions, RejectsNegativeBackoffMinutes)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.retry.backoff_minutes = -1.0; // would wait negative time
    EXPECT_THROW(core::validateOptions(opts), FatalError);
}

TEST(ValidateOptions, RejectsNegativeBackoffFactor)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.retry.backoff_factor = -0.5;
    EXPECT_THROW(core::validateOptions(opts), FatalError);
}

TEST(ValidateOptions, RejectsOutOfRangeFaultProbability)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.faults.rules.push_back(
        FaultRule{"hls.compile", 1.5, FaultKind::Transient, -1});
    EXPECT_THROW(core::validateOptions(opts), FatalError);
    opts.faults.rules[0].probability = -0.1;
    EXPECT_THROW(core::validateOptions(opts), FatalError);
}

TEST(ValidateOptions, RejectsUnknownFaultSite)
{
    // A rule for a site no toolchain call draws from would never fire.
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    for (const char *site : {"hls.synth_check", "hls.complie", ""}) {
        opts.faults = FaultPlan{1, {{site, 1.0}}};
        try {
            core::validateOptions(opts);
            ADD_FAILURE() << "accepted fault site '" << site << "'";
        } catch (const FatalError &e) {
            // The diagnostic names the bad site and the legal ones.
            std::string what = e.what();
            EXPECT_NE(what.find("'" + std::string(site) + "'"),
                      std::string::npos);
            EXPECT_NE(what.find("hls.compile, difftest.cosim"),
                      std::string::npos);
        }
    }
    for (const std::string &site : knownFaultSites()) {
        opts.faults = FaultPlan{1, {{site, 1.0}}};
        EXPECT_NO_THROW(core::validateOptions(opts)) << site;
    }
}

TEST(ValidateOptions, RejectsUnknownProposerName)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.search.proposer = "gpt4";
    try {
        core::validateOptions(opts);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        // The diagnostic must name the bad value and the legal ones.
        EXPECT_NE(std::string(e.what()).find("gpt4"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("template"),
                  std::string::npos);
    }
    opts.search.proposer = "corpuses"; // near-miss spelling rejected
    EXPECT_THROW(core::validateOptions(opts), FatalError);
    opts.search.proposer = ""; // no "inherit" alias
    EXPECT_THROW(core::validateOptions(opts), FatalError);
    opts.search.proposer = "mixed"; // measured dominated and removed
    EXPECT_THROW(core::validateOptions(opts), FatalError);
}

TEST(ValidateOptions, AcceptsEveryKnownProposerName)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    for (const char *name : {"template", "corpus"}) {
        opts.search.proposer = name;
        EXPECT_NO_THROW(core::validateOptions(opts)) << name;
    }
}

TEST(ValidateOptions, AcceptsTheDefaultsWithAKernel)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    EXPECT_NO_THROW(core::validateOptions(opts));
    // The no-retry policy is a legal (if spartan) configuration.
    opts.retry = RetryPolicy::none();
    opts.faults = FaultPlan{1, {{"hls.compile", 0.1}}};
    EXPECT_NO_THROW(core::validateOptions(opts));
}

TEST(ValidateOptions, RunRejectsBadOptionsBeforeAnyStage)
{
    core::HeteroGen engine("int kernel(int x) { return x; }");
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.pipeline_budget_minutes = -1;
    EXPECT_THROW(engine.run(opts), FatalError);
}

// --- logging: levels and the pluggable sink ------------------------------

TEST(LogLevelKnob, ParsesTheHeterogenLogValues)
{
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("error"), LogLevel::Error);
    // Case-insensitive and whitespace-tolerant, like HETEROGEN_JOBS.
    EXPECT_EQ(parseLogLevel("INFO"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("  Debug "), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("verbose"), std::nullopt);
    EXPECT_EQ(parseLogLevel(""), std::nullopt);
}

TEST(LogLevelKnob, FormatLogLineIsTheHistoricalShape)
{
    EXPECT_EQ(formatLogLine(LogLevel::Warn, "x"), "[warn] x");
    EXPECT_EQ(formatLogLine(LogLevel::Info, "a b"), "[info] a b");
}

TEST(LogSinkApi, MemorySinkCapturesFilteredRecords)
{
    LogLevel saved = logLevel();
    MemoryLogSink sink;
    LogSink *prev = setLogSink(&sink);
    setLogLevel(LogLevel::Info);
    inform("hello ", 42);
    warn("beware");
    setLogLevel(LogLevel::Error);
    warn("filtered out");
    setLogSink(prev);
    setLogLevel(saved);

    ASSERT_EQ(sink.lines().size(), 2u);
    EXPECT_EQ(sink.lines()[0], "[info] hello 42");
    EXPECT_EQ(sink.lines()[1], "[warn] beware");
    sink.clear();
    EXPECT_TRUE(sink.lines().empty());
}

} // namespace
} // namespace heterogen
