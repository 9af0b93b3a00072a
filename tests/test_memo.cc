/** @file Candidate-memo tests: fingerprint sensitivity, cache hits on
 * revisits, and exact hit/miss accounting on the run trace. */

#include <gtest/gtest.h>

#include "cir/parser.h"
#include "cir/printer.h"
#include "cir/sema.h"
#include "core/heterogen.h"
#include "repair/memo.h"
#include "repair/store.h"
#include "support/run_context.h"
#include "support/strings.h"
#include "support/trace.h"

namespace heterogen::repair {
namespace {

cir::TuPtr
program(const std::string &src)
{
    auto tu = cir::parse(src);
    cir::analyzeOrDie(*tu);
    return tu;
}

// --- fingerprints --------------------------------------------------------

TEST(CandidateFingerprint, IdenticalProgramsAgree)
{
    auto a = program("int kernel(int x) { return x + 1; }");
    auto b = program("int kernel(int x) { return x + 1; }");
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    EXPECT_EQ(candidateFingerprint(cir::print(*a), config),
              candidateFingerprint(cir::print(*b), config));
    EXPECT_EQ(candidateFingerprint(cir::print(*a), config),
              candidateFingerprint(cir::print(*a->clone()), config));
}

TEST(CandidateFingerprint, OneTokenChangeMisses)
{
    auto a = program("int kernel(int x) { return x + 1; }");
    auto b = program("int kernel(int x) { return x + 2; }");
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    EXPECT_NE(candidateFingerprint(cir::print(*a), config),
              candidateFingerprint(cir::print(*b), config));
}

TEST(CandidateFingerprint, ConfigChangeMisses)
{
    std::string printed =
        cir::print(*program("int kernel(int x) { return x + 1; }"));
    hls::HlsConfig base = hls::HlsConfig::forTop("kernel");

    hls::HlsConfig other_top = base;
    other_top.top_function = "main";
    EXPECT_NE(candidateFingerprint(printed, base),
              candidateFingerprint(printed, other_top));

    hls::HlsConfig other_clock = base;
    other_clock.clock_mhz = 300.0;
    EXPECT_NE(candidateFingerprint(printed, base),
              candidateFingerprint(printed, other_clock));

    hls::HlsConfig other_device = base;
    other_device.device = "xc7z020";
    EXPECT_NE(candidateFingerprint(printed, base),
              candidateFingerprint(printed, other_device));
}

TEST(CandidateFingerprint, ClockChangeBelowOneMicroMegahertzMisses)
{
    // The clock is part of the key bit for bit: two clocks that agree
    // to six decimals are still two configurations.
    std::string printed = cir::print(*program(
        "int kernel(int x) { return x + 1; }"));
    hls::HlsConfig base = hls::HlsConfig::forTop("kernel");
    base.clock_mhz = 250.0;
    hls::HlsConfig nudged = base;
    nudged.clock_mhz = 250.0000001;
    EXPECT_NE(candidateFingerprint(printed, base),
              candidateFingerprint(printed, nudged));
}

TEST(CandidateFingerprint, StreamDepthChangeMisses)
{
    // Regression: the fifo depth is part of the candidate identity.
    // Two candidates differing only in config.stream_depth must never
    // share a verdict — a depth-2 deadlock verdict served to a depth-64
    // candidate would mask the stream_depth repair entirely.
    std::string printed =
        cir::print(*program("int kernel(int x) { return x + 1; }"));
    hls::HlsConfig shallow = hls::HlsConfig::forTop("kernel");
    shallow.stream_depth = 2;
    hls::HlsConfig deep = shallow;
    deep.stream_depth = 64;
    EXPECT_NE(candidateFingerprint(printed, shallow),
              candidateFingerprint(printed, deep));

    RunContext ctx;
    CandidateMemo memo(ctx);
    hls::CompileResult deadlocked;
    deadlocked.ok = false;
    memo.storeCompile(candidateFingerprint(printed, shallow), deadlocked);
    EXPECT_TRUE(
        memo.findCompile(candidateFingerprint(printed, shallow)).has_value());
    EXPECT_FALSE(
        memo.findCompile(candidateFingerprint(printed, deep)).has_value());
}

// --- the memo itself -----------------------------------------------------

TEST(CandidateMemo, CompileRoundTripWithExactCounters)
{
    RunContext ctx;
    CandidateMemo memo(ctx);
    hls::CompileResult compiled;
    compiled.ok = true;
    compiled.synth_minutes = 12.5;
    compiled.loc = 42;

    EXPECT_FALSE(memo.findCompile("fp-a").has_value());
    memo.storeCompile("fp-a", compiled);
    auto hit = memo.findCompile("fp-a");
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->ok);
    EXPECT_DOUBLE_EQ(hit->synth_minutes, 12.5);
    EXPECT_EQ(hit->loc, 42);
    EXPECT_FALSE(memo.findCompile("fp-b").has_value());

    const TraceSpan &root = ctx.trace().root();
    EXPECT_EQ(root.counter("repair.memo.compile_hits"), 1);
    EXPECT_EQ(root.counter("repair.memo.compile_misses"), 2);
    EXPECT_EQ(root.counter("repair.memo.difftest_hits"), 0);
    EXPECT_EQ(root.counter("repair.memo.difftest_misses"), 0);
}

TEST(CandidateMemo, DifftestRoundTripWithExactCounters)
{
    RunContext ctx;
    CandidateMemo memo(ctx);
    DiffTestResult fitness;
    fitness.total = 10;
    fitness.identical = 9;
    fitness.failing = {4};
    fitness.sim_minutes = 1.25;

    EXPECT_FALSE(memo.findDiffTest("fp-a").has_value());
    memo.storeDiffTest("fp-a", fitness);
    auto hit = memo.findDiffTest("fp-a");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->identical, 9);
    EXPECT_EQ(hit->failing, std::vector<int>{4});

    const TraceSpan &root = ctx.trace().root();
    EXPECT_EQ(root.counter("repair.memo.difftest_hits"), 1);
    EXPECT_EQ(root.counter("repair.memo.difftest_misses"), 1);
    EXPECT_EQ(root.counter("repair.memo.compile_hits"), 0);
    EXPECT_EQ(root.counter("repair.memo.compile_misses"), 0);
}

TEST(CandidateMemo, CompileAndDifftestAreIndependentSlots)
{
    RunContext ctx;
    CandidateMemo memo(ctx);
    hls::CompileResult compiled;
    compiled.ok = true;
    memo.storeCompile("fp", compiled);
    // The same fingerprint has a compile outcome but no difftest yet.
    EXPECT_TRUE(memo.findCompile("fp").has_value());
    EXPECT_FALSE(memo.findDiffTest("fp").has_value());
    EXPECT_EQ(memo.size(), 1u);
}

// --- memo inside the search ----------------------------------------------

core::HeteroGenReport
runPipeline(const std::string &src)
{
    core::HeteroGen engine(src);
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.fuzz.max_executions = 400;
    opts.fuzz.min_suite_size = 12;
    opts.search.difftest_sample = 10;
    return engine.run(opts);
}

/** Total of `key` over the report's whole trace. */
int64_t
traceCount(const core::HeteroGenReport &report, const std::string &key)
{
    return parseTraceJson(report.trace_json)->counterTotal(key);
}

/** A subject whose repair must backtrack: the duplicated-buffer fix for
 * the dataflow-shared-array error changes behaviour, so the search
 * reverts to an already-evaluated candidate. */
const char *kBacktracking = R"(
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

TEST(SearchMemo, RevisitedCandidatesHitTheCache)
{
    auto report = runPipeline(kBacktracking);
    ASSERT_TRUE(report.ok());
    EXPECT_GT(traceCount(report, "repair.memo.compile_hits") +
                  traceCount(report, "repair.memo.difftest_hits"),
              0)
        << "backtracking must revisit at least one candidate";
}

TEST(SearchMemo, CountersMatchTraceExactly)
{
    auto report = runPipeline(kBacktracking);
    const auto &search = report.search;

    int compile_fresh = 0;
    int compile_memo = 0;
    int difftests = 0;
    for (const auto &step : search.trace) {
        if (startsWith(step.action, "compile:memo-"))
            compile_memo += 1;
        else if (startsWith(step.action, "compile:"))
            compile_fresh += 1;
        if (startsWith(step.action, "difftest:"))
            difftests += 1;
    }
    // Every fresh compile is a miss and a toolchain invocation; every
    // memo answer is a hit.
    int64_t compile_misses =
        traceCount(report, "repair.memo.compile_misses");
    EXPECT_EQ(compile_misses, compile_fresh);
    EXPECT_EQ(compile_misses, search.full_hls_invocations);
    EXPECT_EQ(traceCount(report, "repair.memo.compile_hits"),
              compile_memo);
    // Every difftest trace entry consulted the memo exactly once.
    EXPECT_EQ(traceCount(report, "repair.memo.difftest_hits") +
                  traceCount(report, "repair.memo.difftest_misses"),
              difftests);
}

} // namespace
} // namespace heterogen::repair
