/** @file Thread-count invariance of the parallel evaluation layers.
 *
 * The worker pool must be an execution detail only: for any fixed seed,
 * differential testing and fuzzing produce byte-identical outcomes at 1,
 * 2 and 8 host threads. These are the determinism properties the repair
 * search's reproducibility (golden traces, replayable experiments)
 * rests on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>

#include "cir/parser.h"
#include "cir/sema.h"
#include "fuzz/fuzzer.h"
#include "repair/difftest.h"
#include "support/run_context.h"
#include "support/worker_pool.h"

namespace heterogen {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

cir::TuPtr
program(const std::string &src)
{
    auto tu = cir::parse(src);
    cir::analyzeOrDie(*tu);
    return tu;
}

fuzz::FuzzResult
runFuzz(cir::TranslationUnit &tu, const fuzz::FuzzOptions &options,
        WorkerPool *pool = nullptr)
{
    cir::analyzeOrDie(tu);
    RunContext ctx;
    return fuzz::fuzzKernel(ctx, tu, "kernel", options, pool);
}

// --- worker pool ---------------------------------------------------------

TEST(WorkerPool, RunsEverySubmittedJob)
{
    WorkerPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count += 1; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(WorkerPool, BoundedQueueBlocksWithoutDeadlock)
{
    // Queue of 2 with 50 jobs: submit() must block-and-drain, never
    // drop or deadlock.
    WorkerPool pool(2, 2);
    std::atomic<int> count{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&count] { count += 1; });
    pool.wait();
    EXPECT_EQ(count.load(), 50);
}

TEST(WorkerPool, WaitIsReusableAcrossBatches)
{
    WorkerPool pool(3);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&count] { count += 1; });
        pool.wait();
        EXPECT_EQ(count.load(), (round + 1) * 10);
    }
}

TEST(ParallelForEach, VisitsEachIndexExactlyOnce)
{
    for (int threads : kThreadCounts) {
        WorkerPool pool(threads);
        std::vector<int> visits(257, 0);
        parallelForEach(&pool, visits.size(),
                        [&](size_t i) { visits[i] += 1; });
        EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 257);
        for (int v : visits)
            EXPECT_EQ(v, 1);
    }
}

TEST(ParallelForEach, NullPoolRunsInline)
{
    std::vector<int> visits(10, 0);
    parallelForEach(nullptr, visits.size(),
                    [&](size_t i) { visits[i] += 1; });
    for (int v : visits)
        EXPECT_EQ(v, 1);
}

TEST(ParallelForEach, RethrowsLowestIndexException)
{
    WorkerPool pool(4);
    try {
        parallelForEach(&pool, 16, [&](size_t i) {
            if (i == 3 || i == 11)
                throw std::runtime_error("boom " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 3");
    }
}

TEST(ResolveJobs, ExplicitRequestWinsOverEnvironment)
{
    EXPECT_EQ(resolveJobs(3), 3);
    EXPECT_EQ(resolveJobs(1), 1);
}

TEST(ResolveJobs, ReadsHeterogenJobsEnvironment)
{
    setenv("HETEROGEN_JOBS", "5", 1);
    EXPECT_EQ(resolveJobs(0), 5);
    setenv("HETEROGEN_JOBS", "not-a-number", 1);
    EXPECT_GE(resolveJobs(0), 1); // falls back to hardware default
    unsetenv("HETEROGEN_JOBS");
    EXPECT_GE(resolveJobs(0), 1);
}

// --- difftest invariance -------------------------------------------------

const char *kOriginal = R"(
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

/** Same kernel, diverging for a[i] > 100 — some tests fail, some pass. */
const char *kDivergent = R"(
    int kernel(int a[8], int n) {
        int acc = 0;
        for (int i = 0; i < 8; i++) {
            if (a[i] > 100) { acc += a[i] * 2 + 1; }
            else if (a[i] > 64) { acc += a[i] * 2; }
            else if (a[i] < -10) { acc -= a[i]; }
            else { acc += i; }
        }
        int j = 0;
        while (j < n % 7) { acc += j * j; j++; }
        return acc;
    }
)";

/** A deterministic suite seeded from one fuzzing campaign. */
fuzz::TestSuite
suiteForSeed(cir::TranslationUnit &tu, uint64_t seed)
{
    fuzz::FuzzOptions options;
    options.rng_seed = seed;
    options.max_executions = 120;
    options.mutations_per_input = 8;
    options.min_suite_size = 24;
    options.max_steps_per_run = 100000;
    return runFuzz(tu, options).suite;
}

void
expectSameDiffTest(const repair::DiffTestResult &a,
                   const repair::DiffTestResult &b)
{
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.identical, b.identical);
    EXPECT_EQ(a.failing, b.failing);
    // Exact binary equality: the reduce happens serially in input
    // order, so even float accumulation cannot differ.
    EXPECT_EQ(a.cpu_millis, b.cpu_millis);
    EXPECT_EQ(a.fpga_millis, b.fpga_millis);
    EXPECT_EQ(a.sim_minutes, b.sim_minutes);
}

TEST(ParallelDiffTest, ByteIdenticalAcrossThreadCounts)
{
    auto orig = program(kOriginal);
    auto cand = program(kDivergent);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    int seeds_with_agreement = 0;
    int seeds_with_divergence = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        fuzz::TestSuite suite = suiteForSeed(*orig, seed);
        ASSERT_GE(suite.size(), 8u) << "seed " << seed;

        repair::DiffTestOptions serial_opts;
        auto serial = repair::diffTest(*orig, "kernel", *cand, config, suite,
                               serial_opts);
        seeds_with_agreement += serial.identical > 0 ? 1 : 0;
        seeds_with_divergence += serial.failing.empty() ? 0 : 1;

        for (int threads : kThreadCounts) {
            WorkerPool pool(threads);
            repair::DiffTestOptions opts;
            opts.pool = &pool;
            auto parallel = repair::diffTest(*orig, "kernel", *cand, config,
                                     suite, opts);
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            expectSameDiffTest(serial, parallel);
        }
    }
    // The property is only meaningful if the sweep saw both outcomes.
    EXPECT_GT(seeds_with_agreement, 0);
    EXPECT_GT(seeds_with_divergence, 0);
}

// --- fuzzing invariance --------------------------------------------------

void
expectSameFuzz(const fuzz::FuzzResult &a, const fuzz::FuzzResult &b)
{
    EXPECT_EQ(a.executions, b.executions);
    EXPECT_EQ(a.sim_minutes, b.sim_minutes);
    EXPECT_EQ(a.last_progress_minutes, b.last_progress_minutes);
    EXPECT_EQ(a.coverage.hitCount(), b.coverage.hitCount());
    EXPECT_EQ(a.coverage.coverage(), b.coverage.coverage());
    ASSERT_EQ(a.suite.size(), b.suite.size());
    for (size_t i = 0; i < a.suite.size(); ++i) {
        EXPECT_EQ(a.suite[i].args, b.suite[i].args)
            << "corpus diverged at index " << i;
    }
}

TEST(ParallelFuzz, SameCorpusAndCoverageAcrossThreadCounts)
{
    auto tu = program(kOriginal);
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        fuzz::FuzzOptions options;
        options.rng_seed = seed;
        options.max_executions = 150;
        options.mutations_per_input = 8;
        options.min_suite_size = 16;
        options.max_steps_per_run = 100000;

        auto serial = runFuzz(*tu, options);
        ASSERT_GT(serial.executions, 0);

        for (int threads : kThreadCounts) {
            WorkerPool pool(threads);
            auto parallel = runFuzz(*tu, options, &pool);
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            expectSameFuzz(serial, parallel);
        }
    }
}

// --- trace invariance ----------------------------------------------------

/**
 * The RunContext trace must be as thread-count invariant as the results
 * it observes: charges happen on the driving thread in input order, and
 * counters are integer sums, so the whole span tree — minutes bit for
 * bit, counters, nesting — serializes identically at 1, 2 and 8 host
 * threads.
 */
TEST(ParallelTrace, FuzzTraceJsonIdenticalAcrossThreadCounts)
{
    auto tu = program(kOriginal);
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        fuzz::FuzzOptions options;
        options.rng_seed = seed;
        options.max_executions = 150;
        options.mutations_per_input = 8;
        options.min_suite_size = 16;
        options.max_steps_per_run = 100000;

        RunContext serial_ctx;
        fuzz::fuzzKernel(serial_ctx, *tu, "kernel", options);
        std::string serial_json = serial_ctx.traceJson();

        for (int threads : kThreadCounts) {
            WorkerPool pool(threads);
            RunContext ctx;
            fuzz::fuzzKernel(ctx, *tu, "kernel", options, &pool);
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            EXPECT_EQ(ctx.traceJson(), serial_json);
        }
    }
}

TEST(ParallelTrace, DiffTestTraceJsonIdenticalAcrossThreadCounts)
{
    auto orig = program(kOriginal);
    auto cand = program(kDivergent);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        fuzz::TestSuite suite = suiteForSeed(*orig, seed);

        RunContext serial_ctx;
        repair::CpuOracle serial_oracle(*orig, "kernel", suite);
        repair::diffTest(serial_ctx, serial_oracle, *cand, config,
                         repair::DiffTestOptions{});
        std::string serial_json = serial_ctx.traceJson();

        for (int threads : kThreadCounts) {
            WorkerPool pool(threads);
            repair::DiffTestOptions opts;
            opts.pool = &pool;
            RunContext ctx;
            repair::CpuOracle oracle(*orig, "kernel", suite);
            repair::diffTest(ctx, oracle, *cand, config, opts);
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            EXPECT_EQ(ctx.traceJson(), serial_json);
        }
    }
}

} // namespace
} // namespace heterogen
