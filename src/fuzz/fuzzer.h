/**
 * @file
 * Coverage-guided kernel-input generation (the paper's Algorithm 1).
 *
 * Seeds come from intermediate program state captured at the kernel entry
 * during a host run (getKernelSeed); mutation is HLS-type-valid; feedback
 * is branch coverage of the original C kernel. The loop stops when the
 * simulated clock passes the budget or coverage plateaus for the
 * configured window — mirroring the paper's "30 minutes since the last
 * new path" protocol.
 */

#ifndef HETEROGEN_FUZZ_FUZZER_H
#define HETEROGEN_FUZZ_FUZZER_H

#include <deque>
#include <functional>
#include <string>

#include "cir/ast.h"
#include "fuzz/mutator.h"
#include "fuzz/testsuite.h"
#include "interp/interp.h"
#include "support/run_context.h"

namespace heterogen {
class WorkerPool;
}

namespace heterogen::fuzz {

/**
 * Largest accepted FuzzOptions::mutations_per_input. A batch of
 * variants is materialized at once, so the value sizes host memory;
 * the pipeline's own campaigns use 8-16.
 */
constexpr int kMaxMutationsPerInput = 1024;

/** Fuzzing-campaign knobs. */
struct FuzzOptions
{
    /** Optional host entry; when set, the seed is captured from its run
     * at the kernel boundary. */
    std::string host_function;
    /** Deterministic seed. */
    uint64_t rng_seed = 1;
    /** Variants generated per queue entry. */
    int mutations_per_input = 16;
    /** Hard cap on kernel executions. */
    int max_executions = 20000;
    /** Stop after this much simulated fuzzing time (minutes). */
    double budget_minutes = 240.0;
    /** Stop when no new coverage for this many simulated minutes. */
    double plateau_minutes = 30.0;
    /**
     * Keep at least this many inputs in the regression suite even when
     * they add no new coverage: differential testing wants a diverse
     * corpus, not just the coverage frontier.
     */
    int min_suite_size = 48;
    /** Interpreter step cap per execution. */
    uint64_t max_steps_per_run = 2'000'000;
};

/** Campaign outcome. */
struct FuzzResult
{
    /** Coverage-increasing inputs retained as the regression suite. */
    TestSuite suite;
    interp::CoverageMap coverage;
    int executions = 0;
    /** Simulated wall-clock minutes the campaign took. */
    double sim_minutes = 0;
    /** Simulated minutes when the last new edge was found. */
    double last_progress_minutes = 0;

    double branchCoverage() const { return coverage.coverage(); }
};

/**
 * Run one fuzzing campaign against `kernel` in `tu` (which must
 * already be sema-analyzed, so branch ids are assigned). Opens a
 * "fuzz" span budgeted at options.budget_minutes on the context,
 * charges every simulated execution minute to it, bumps fuzz.*
 * counters (executions, coverage_edges, suite_size), and stops early
 * on ctx cancellation or an exhausted enclosing budget.
 *
 * Each mutation batch's executions fan out over `pool` (borrowed;
 * null = inline on the calling thread). Mutation drawing and corpus
 * bookkeeping stay serial in input order, so the corpus, coverage and
 * simulated clock are byte-identical at any pool size
 * (tests/test_parallel.cc asserts this), and batch waits are per-call,
 * so concurrent campaigns may share one pool.
 */
FuzzResult fuzzKernel(RunContext &ctx, const cir::TranslationUnit &tu,
                      const std::string &kernel,
                      const FuzzOptions &options = {},
                      WorkerPool *pool = nullptr);

/**
 * One interpreter run of a campaign. A batch's executions fan out
 * across the pool, so a runner must be safe to call concurrently.
 */
using Runner = std::function<interp::RunResult(
    const std::string &function, const std::vector<interp::KernelArg> &args,
    const interp::RunOptions &options)>;

/**
 * The same campaign with every execution, host seed capture included,
 * made through `runner` instead of the VM. Tests and benches pass the
 * reference walker here to prove a whole campaign engine-independent.
 */
FuzzResult fuzzKernel(RunContext &ctx, const cir::TranslationUnit &tu,
                      const std::string &kernel, const FuzzOptions &options,
                      WorkerPool *pool, const Runner &runner);

/**
 * Measure the branch coverage an existing (handcrafted) suite achieves —
 * the paper's Table 4 "Existing tests" columns.
 */
interp::CoverageMap measureCoverage(const cir::TranslationUnit &tu,
                                    const std::string &kernel,
                                    const TestSuite &suite,
                                    uint64_t max_steps_per_run =
                                        2'000'000);

} // namespace heterogen::fuzz

#endif // HETEROGEN_FUZZ_FUZZER_H
