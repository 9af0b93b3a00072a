#include "fuzz/fuzzer.h"

#include <algorithm>

#include "cir/sema.h"
#include "cir/walk.h"
#include "support/diagnostics.h"
#include "support/worker_pool.h"

namespace heterogen::fuzz {

using interp::CoverageMap;
using interp::KernelArg;
using interp::RunOptions;
using interp::RunResult;

namespace {

/** Simulated wall-clock cost of one kernel execution under AFL. */
double
executionMinutes(const RunResult &run)
{
    // Fork-server dispatch plus execution time proportional to work.
    return 0.008 + double(run.steps) / 2.0e8;
}

/** Branch points inside functions reachable from the kernel. */
int
kernelBranchCount(const cir::TranslationUnit &tu,
                  const std::string &kernel)
{
    auto reachable = cir::reachableFunctions(tu, kernel);
    int count = 0;
    auto count_body = [&count](const cir::Block &body) {
        forEachStmt(static_cast<const cir::Stmt &>(body),
                    [&count](const cir::Stmt &s) {
                        switch (s.kind()) {
                          case cir::StmtKind::If:
                          case cir::StmtKind::While:
                          case cir::StmtKind::For:
                            ++count;
                            break;
                          default:
                            break;
                        }
                    });
        forEachExpr(static_cast<const cir::Stmt &>(body),
                    [&count](const cir::Expr &e) {
                        if (e.kind() == cir::ExprKind::Ternary) {
                            ++count;
                        } else if (e.kind() == cir::ExprKind::Binary) {
                            const auto &b =
                                static_cast<const cir::Binary &>(e);
                            if (b.op == cir::BinaryOp::LogAnd ||
                                b.op == cir::BinaryOp::LogOr) {
                                ++count;
                            }
                        }
                    });
    };
    for (const auto &fn : tu.functions) {
        if (reachable.count(fn->name) && fn->body)
            count_body(*fn->body);
    }
    // Struct methods are reachable via method calls the call graph does
    // not track; include them conservatively.
    for (const auto &sd : tu.structs) {
        for (const auto &m : sd->methods) {
            if (m->body)
                count_body(*m->body);
        }
    }
    return count;
}

std::vector<cir::TypePtr>
kernelParamTypes(const cir::TranslationUnit &tu, const std::string &kernel)
{
    const cir::FunctionDecl *fn = tu.findFunction(kernel);
    if (!fn)
        fatal("fuzzer: no such kernel function: ", kernel);
    std::vector<cir::TypePtr> types;
    for (const auto &p : fn->params)
        types.push_back(p.type);
    return types;
}

} // namespace

FuzzResult
fuzzKernel(RunContext &ctx, const cir::TranslationUnit &tu,
           const std::string &kernel, const FuzzOptions &options,
           WorkerPool *pool)
{
    // One interpreter for the whole campaign: the program is compiled
    // once and every execution reuses it.
    interp::Interpreter interp(tu);
    return fuzzKernel(ctx, tu, kernel, options, pool,
                      [&interp](const std::string &function,
                                const std::vector<KernelArg> &args,
                                const RunOptions &opts) {
                          return interp.run(function, args, opts);
                      });
}

FuzzResult
fuzzKernel(RunContext &ctx, const cir::TranslationUnit &tu,
           const std::string &kernel, const FuzzOptions &options,
           WorkerPool *pool, const Runner &runner)
{
    SpanScope span(ctx, "fuzz", Budget::minutes(options.budget_minutes));

    FuzzResult result;
    result.coverage.setNumBranches(kernelBranchCount(tu, kernel));

    Rng rng(options.rng_seed);
    Mutator mutator(kernelParamTypes(tu, kernel), rng);

    // --- getKernelSeed (Algorithm 1, line 4) -----------------------------
    std::vector<KernelArg> seed;
    if (!options.host_function.empty()) {
        RunOptions host_opts;
        host_opts.capture_function = kernel;
        host_opts.captured_args = &seed;
        host_opts.max_steps = options.max_steps_per_run;
        host_opts.trace = &ctx;
        runner(options.host_function, {}, host_opts);
    }
    if (seed.empty())
        seed = mutator.randomInput();

    std::deque<std::vector<KernelArg>> queue;
    queue.push_back(seed);

    /** Merge new coverage and count the freshly covered edges. */
    auto mergeCoverage = [&](const CoverageMap &local) {
        int64_t before = result.coverage.hitCount();
        result.coverage.merge(local);
        ctx.count("fuzz.coverage_edges",
                  result.coverage.hitCount() - before);
    };

    /**
     * Corpus bookkeeping for one executed input, strictly in input
     * order. The coverage decision (coversNew) depends on the corpus
     * state left by earlier inputs, so this stays serial — only the
     * kernel executions themselves fan out.
     */
    auto bookkeep = [&](const std::vector<KernelArg> &args,
                        const CoverageMap &local, const RunResult &run) {
        result.executions += 1;
        ctx.count("fuzz.executions");
        ctx.charge(executionMinutes(run));
        if (result.coverage.coversNew(local)) {
            mergeCoverage(local);
            result.last_progress_minutes = span.minutes();
            if (result.suite.add(args))
                queue.push_back(args);
        } else if (static_cast<int>(result.suite.size()) <
                   options.min_suite_size) {
            result.suite.add(args);
        }
    };

    /**
     * Execute a batch of inputs: kernel runs fan out across the pool
     * into private per-input coverage maps, then merge serially in
     * input order with the serial loop's exact stop conditions — a
     * budget or execution cap reached mid-batch discards the tail, so
     * the outcome matches the one-at-a-time path byte for byte.
     */
    auto executeBatch = [&](const std::vector<std::vector<KernelArg>>
                                &batch) {
        std::vector<CoverageMap> locals(
            batch.size(), CoverageMap(result.coverage.numBranches()));
        std::vector<RunResult> runs(batch.size());
        parallelForEach(pool, batch.size(), [&](size_t i) {
            RunOptions opts;
            opts.coverage = &locals[i];
            opts.max_steps = options.max_steps_per_run;
            opts.trace = &ctx;
            runs[i] = runner(kernel, batch[i], opts);
        });
        for (size_t i = 0; i < batch.size(); ++i) {
            if (result.executions >= options.max_executions ||
                ctx.shouldStop()) {
                break; // speculative tail executions are not counted
            }
            bookkeep(batch[i], locals[i], runs[i]);
        }
    };

    // The seed itself is always executed and retained.
    {
        CoverageMap local(result.coverage.numBranches());
        RunOptions opts;
        opts.coverage = &local;
        opts.max_steps = options.max_steps_per_run;
        opts.trace = &ctx;
        RunResult run = runner(kernel, seed, opts);
        result.executions += 1;
        ctx.count("fuzz.executions");
        ctx.charge(executionMinutes(run));
        mergeCoverage(local);
        result.last_progress_minutes = span.minutes();
        result.suite.add(seed);
    }

    // --- fuzzing loop (Algorithm 1, lines 7-12) --------------------------
    while (!queue.empty() &&
           result.executions < options.max_executions &&
           !ctx.shouldStop()) {
        if (span.minutes() - result.last_progress_minutes >
            options.plateau_minutes) {
            break; // coverage plateaued; AFL timing indicator protocol
        }
        std::vector<KernelArg> input = queue.front();
        queue.pop_front();
        // Never run more variants than the execution cap can still
        // count: variants are generated in order and the campaign ends
        // with a batch the cap cuts short, so the outcome is unchanged.
        int room = options.max_executions - result.executions;
        auto variants = mutator.mutate(
            input, std::min(options.mutations_per_input, room));
        executeBatch(variants);
        // Keep cycling the corpus.
        queue.push_back(std::move(input));
    }
    result.sim_minutes = span.minutes();
    ctx.count("fuzz.suite_size",
              static_cast<int64_t>(result.suite.size()));
    return result;
}

CoverageMap
measureCoverage(const cir::TranslationUnit &tu, const std::string &kernel,
                const TestSuite &suite, uint64_t max_steps_per_run)
{
    int branches = kernelBranchCount(tu, kernel);
    CoverageMap total(branches);
    interp::Interpreter interp(tu);
    for (const TestCase &t : suite.cases()) {
        CoverageMap local(branches);
        RunOptions opts;
        opts.coverage = &local;
        opts.max_steps = max_steps_per_run;
        interp.run(kernel, t.args, opts);
        total.merge(local);
    }
    return total;
}

} // namespace heterogen::fuzz
